"""Collar radii, decay factors, and the gradient envelope bounds."""

from __future__ import annotations

import math

import mpmath
import numpy as np
import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wpstrata.gradbounds import (
    EPS2,
    L0,
    F_pair,
    G_of,
    collar_radius_separating,
    collar_radius_simple,
    grad_sq_upper_separating,
    grad_sq_upper_single,
    grad_sq_upper_systole,
    r_sys,
    solve_L0,
    u_factor,
    v_factor,
)

T0 = 2.0 * math.asinh(1.0)


class TestCollarRadii:
    def test_self_dual_point(self):
        assert math.isclose(
            collar_radius_simple(2.0 * math.asinh(1.0)), math.asinh(1.0), rel_tol=1e-15
        )

    @given(ell=st.floats(min_value=1e-3, max_value=40.0))
    @settings(deadline=None)
    def test_simple_duality(self, ell):
        r = collar_radius_simple(ell)
        assert math.isclose(collar_radius_simple(2.0 * r), 0.5 * ell, rel_tol=1e-12)

    def test_separating_fixed_point(self):
        ell = 4.0 * math.asinh(1.0)
        assert math.isclose(
            collar_radius_separating(ell), 2.0 * math.asinh(1.0), rel_tol=1e-15
        )

    def test_separating_dominates(self):
        for ell in np.logspace(-2.0, 1.7, 80):
            assert collar_radius_separating(float(ell)) >= collar_radius_simple(
                float(ell)
            )

    def test_separating_tail(self):
        # 2 arcsinh(1/sinh(ell/4)) ~ 4 e^(-ell/4) once the collar is thin
        ell = 60.0
        assert math.isclose(
            collar_radius_separating(ell), 4.0 * math.exp(-0.25 * ell), rel_tol=1e-6
        )

    def test_overflow_safe(self):
        # far beyond sinh overflow the radius must still evaluate
        assert math.isclose(
            collar_radius_simple(800.0), 2.0 * math.exp(-400.0), rel_tol=1e-6
        )
        # and underflow to zero gracefully rather than raise
        assert collar_radius_simple(2000.0) == 0.0

    def test_domain(self):
        for fn in (collar_radius_simple, collar_radius_separating):
            with pytest.raises(ValueError):
                fn(0.0)
            with pytest.raises(ValueError):
                fn(-1.0)


class TestThreshold:
    def test_value(self):
        assert abs(L0 - 2.4375114537440249) < 1e-12

    def test_residual(self):
        assert abs(math.sinh(0.25 * L0) * math.sinh(0.5 * L0) - 1.0) < 1e-12

    def test_scipy_cross_check(self):
        brentq = pytest.importorskip("scipy.optimize").brentq
        root = brentq(
            lambda t: math.sinh(0.25 * t) * math.sinh(0.5 * t) - 1.0, 1.0, 4.0,
            xtol=1e-14,
        )
        assert abs(solve_L0() - root) < 1e-12

    def test_thin_threshold_constants(self):
        # the calibrated threshold sits just above the collar identity value
        gap = EPS2 - math.asinh(1.0)
        assert 0.0 < gap < 1e-5


class TestDecayFactors:
    def test_u_at_zero(self):
        assert u_factor(0.0) == 0.25

    def test_u_closed_form(self):
        c = math.cosh(1.0)
        assert math.isclose(
            u_factor(2.0), (2.0 * c + 1.0) / (3.0 * (c + 1.0) ** 2), rel_tol=1e-15
        )

    def test_u_cap(self):
        # the cap is approached to within rounding, hence the 1-ulp slack
        for ell in np.linspace(0.0, 80.0, 200):
            ell = float(ell)
            assert u_factor(ell) <= (4.0 / 3.0) * math.exp(-0.5 * ell) * (1 + 1e-12)

    def test_u_branch_seam(self):
        lo = u_factor(700.0 * (1.0 - 1e-12))
        hi = u_factor(700.0 * (1.0 + 1e-12))
        assert math.isclose(lo, hi, rel_tol=1e-9)

    def test_u_no_overflow(self):
        assert math.isclose(u_factor(900.0), (4.0 / 3.0) * math.exp(-450.0))

    def test_v_at_zero(self):
        assert v_factor(0.0) == 2.0 / math.pi

    def test_v_cap(self):
        for ell in np.linspace(0.01, 80.0, 200):
            ell = float(ell)
            assert v_factor(ell) <= math.exp(-0.5 * ell) * (1 + 1e-12)

    def test_both_decreasing(self):
        grid = np.linspace(0.0, 30.0, 400)
        us = [u_factor(float(x)) for x in grid]
        vs = [v_factor(float(x)) for x in grid]
        assert all(b < a for a, b in zip(us, us[1:]))
        assert all(b < a for a, b in zip(vs, vs[1:]))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            u_factor(-0.01)
        with pytest.raises(ValueError):
            v_factor(-0.01)


class TestEnvelope:
    def test_two_forms_agree(self):
        for la, lb in [(0.3, 0.7), (1.0, 1.0), (2.5, 6.0), (0.05, 12.0)]:
            ra = collar_radius_simple(la)
            rb = collar_radius_simple(lb)
            assert math.isclose(F_pair(la, lb), G_of(ra, rb), rel_tol=1e-12)

    def test_elementary_cap_grid(self):
        # F(z, w) <= (4 / 3 pi) sinh(z/2) sinh^2(w/2) on a 100 x 100 grid
        cap = 4.0 / (3.0 * math.pi)
        zs = np.logspace(-4.0, math.log10(40.0), 100)
        for z in zs:
            z = float(z)
            shz = math.sinh(0.5 * z)
            for w in zs:
                w = float(w)
                if z > w:
                    continue
                shw = math.sinh(0.5 * w)
                assert F_pair(z, w) <= cap * shz * shw * shw * (1.0 + 1e-12)

    def test_diagonal_cap(self):
        cap = 4.0 / (3.0 * math.pi)
        for t in np.logspace(-3.0, 1.5, 60):
            t = float(t)
            assert F_pair(t, t) <= cap * math.sinh(0.5 * t) ** 3 * (1.0 + 1e-12)

    def test_small_diagonal_asymptote(self):
        t = 1e-3
        assert math.isclose(F_pair(t, t), t**3 / (6.0 * math.pi), rel_tol=1e-4)

    def test_argument_order_enforced(self):
        with pytest.raises(ValueError):
            F_pair(2.0, 1.0)

    def test_domains(self):
        with pytest.raises(ValueError):
            F_pair(0.0, 1.0)
        with pytest.raises(ValueError):
            G_of(0.0, 1.0)
        with pytest.raises(ValueError):
            G_of(1.0, -1.0)

    @given(
        r=st.floats(min_value=0.01, max_value=8.0),
        s=st.floats(min_value=0.01, max_value=8.0),
    )
    @settings(deadline=None)
    def test_g_positive(self, r, s):
        assert G_of(r, s) > 0.0

    def test_g_decreasing_each_argument(self):
        rs = np.linspace(0.2, 5.0, 40)
        vals_r = [G_of(float(r), 1.0) for r in rs]
        vals_s = [G_of(1.0, float(s)) for s in rs]
        assert all(b < a for a, b in zip(vals_r, vals_r[1:]))
        assert all(b < a for a, b in zip(vals_s, vals_s[1:]))


class TestGradientBounds:
    def test_single_formula(self):
        for ell in (0.3, 1.0, T0, 5.0):
            want = (2.0 * ell / math.pi) * (1.0 + F_pair(ell, ell))
            assert grad_sq_upper_single(ell) == want

    def test_above_universal_floor(self):
        for ell in np.logspace(-3.0, 1.6, 50):
            ell = float(ell)
            assert grad_sq_upper_single(ell) > 2.0 * ell / math.pi

    def test_coarse_exponential_cap(self):
        # (2/pi)(ell + ell^2 e^(ell/2) / 3) dominates the refined bound
        for ell in np.linspace(0.25, 50.0, 200):
            ell = float(ell)
            coarse = (2.0 / math.pi) * (
                ell + ell * ell * math.exp(0.5 * ell) / 3.0
            )
            assert grad_sq_upper_single(ell) <= coarse * (1.0 + 1e-12)

    def test_value_at_unit_crossing_length(self):
        # frozen envelope value at the length with sinh(t/2) = 1
        assert math.isclose(
            grad_sq_upper_single(T0), 1.3801289833563795, rel_tol=1e-12
        )

    def test_separating_below_single(self):
        for ell in np.logspace(-2.0, 1.6, 60):
            ell = float(ell)
            want = (2.0 * ell / math.pi) * (1.0 + F_pair(0.5 * ell, 0.5 * ell))
            assert grad_sq_upper_separating(ell) == want
            assert grad_sq_upper_separating(ell) <= grad_sq_upper_single(ell)

    @given(ell=st.floats(min_value=1e-300, max_value=630.0))
    @settings(deadline=None, max_examples=300)
    def test_separating_is_single_at_half_length(self, ell):
        # ROADMAP direction 6: both take F_pair(ell / 2, ell / 2), and the
        # factors of 2 scale exactly while nothing under- or overflows
        assert grad_sq_upper_separating(ell) == 2.0 * grad_sq_upper_single(ell / 2.0)

    def test_systole_formula_and_peak(self):
        peak = 1.0 + G_of(0.25 * L0, 0.25 * L0)
        for ell in np.logspace(-2.0, 1.8, 120):
            ell = float(ell)
            base = 2.0 * ell / math.pi
            got = grad_sq_upper_systole(ell)
            assert got == base * (1.0 + G_of(r_sys(ell), r_sys(ell)))
            assert got <= base * peak * (1.0 + 1e-12)

    def test_systole_ratio_tends_to_one(self):
        for ell in (1e-5, 200.0):
            ratio = grad_sq_upper_systole(ell) / (2.0 * ell / math.pi)
            assert 1.0 <= ratio < 1.0 + 1e-3

    def test_lipschitz_digits(self):
        lip = math.sqrt(2.0 * math.pi / (1.0 + G_of(0.25 * L0, 0.25 * L0)))
        assert f"{lip:.13f}"[:7] == "2.00423"

    def test_domains(self):
        for fn in (
            grad_sq_upper_single,
            grad_sq_upper_separating,
            grad_sq_upper_systole,
            r_sys,
        ):
            with pytest.raises(ValueError):
                fn(0.0)


class TestSystoleRadius:
    def test_linear_branch(self):
        assert r_sys(8.0) == 2.0

    def test_collar_branch(self):
        assert r_sys(0.1) == collar_radius_simple(0.1)

    def test_minimum_at_crossing(self):
        h = 0.05
        assert r_sys(L0 - h) > r_sys(L0)
        assert r_sys(L0 + h) > r_sys(L0)
        assert math.isclose(r_sys(L0), 0.25 * L0, rel_tol=1e-12)


class TestUlpBudget:
    """The envelopes against 50-digit mpmath closed forms written from
    their definitions, here and in oracles.a_exact, on the lengths that
    h-sweep and constants evaluate, t in [1e-3, 12]. Each is within 32
    ulp; over 20,000
    log-spaced t the largest errors are 21.4 (F_pair(t, t)), 20.4
    (F_pair(t/2, t/2)), 17.1 (G_of(r, r), r = r_sys(t)), 2.4 (r_sys), 4.4
    (u_factor) and 3.3 ulp (v_factor). The grid stops well below D12's
    range, t above about 16.6, where F_pair takes its combined radius
    from a product of tanh within ulps of 1."""

    @staticmethod
    def _r_simple(ell):
        return mpmath.asinh(1 / mpmath.sinh(ell / 2))

    @staticmethod
    def _u(ell):
        c = mpmath.cosh(ell / 2)
        return (2 * c + 1) / (3 * (c + 1) ** 2)

    @staticmethod
    def _v(ell):
        return 1 / (mpmath.atan(1 / mpmath.sinh(ell / 2)) * mpmath.cosh(ell / 2) ** 2 + mpmath.sinh(ell / 2))

    def _F(self, ell):
        # a(r_a + r_b) u(l_a) v(l_b) sinh(l_a/2) sinh^2(l_b/2) on the diagonal
        return oracles.a_exact(2 * self._r_simple(ell)) * self._u(ell) * self._v(ell) * mpmath.sinh(ell / 2) ** 3

    def _G(self, r):
        area = 2 * mpmath.atan(mpmath.sinh(r)) * mpmath.cosh(r) ** 2 + 2 * mpmath.sinh(r)
        return oracles.a_exact(2 * r) * (mpmath.exp(-r) + mpmath.exp(-3 * r) / 3) / area

    def test_within_32_ulp_on_the_production_range(self):
        def ulps(got, exact):
            return float(abs(got - exact) / math.ulp(float(exact)))

        worst = dict.fromkeys(["F(t, t)", "F(t/2, t/2)", "G(r, r)", "r_sys", "u_factor", "v_factor"], 0.0)
        with mpmath.workdps(50):
            for t in np.geomspace(1e-3, 12.0, 200).tolist():
                T, r = mpmath.mpf(t), r_sys(t)
                for name, err in (
                    ("F(t, t)", ulps(F_pair(t, t), self._F(T))),
                    ("F(t/2, t/2)", ulps(F_pair(t / 2, t / 2), self._F(T / 2))),
                    ("G(r, r)", ulps(G_of(r, r), self._G(mpmath.mpf(r)))),
                    ("r_sys", ulps(r, max(T / 4, self._r_simple(T)))),
                    ("u_factor", ulps(u_factor(t), self._u(T))),
                    ("v_factor", ulps(v_factor(t), self._v(T))),
                ):
                    worst[name] = max(worst[name], err)
        assert all(w <= 32.0 for w in worst.values()), worst


class TestLargeLengths:
    """Large lengths saturate: a number, possibly inf, or ValueError."""

    def test_saturated_values(self):
        # tanh(20)^2 rounds to 1; a is taken at T = 4 e^-40 directly
        f = F_pair(80.0, 80.0)
        assert math.isfinite(f) and f > F_pair(70.0, 70.0)
        assert math.isfinite(grad_sq_upper_single(80.0))
        assert math.isfinite(grad_sq_upper_separating(400.0))
        # sinh(l_beta / 2) out of range: the integrand 1 / sqrt(1 + F) is 0
        assert F_pair(1.0, 1500.0) == math.inf
        assert F_pair(2000.0, 2000.0) == math.inf
        assert grad_sq_upper_single(3000.0) == math.inf
        # no intermediate underflow just below the sinh overflow
        assert F_pair(1419.8, 1419.9) == math.inf
        assert F_pair(1300.0, 1300.0) > 1e280

    def test_tiny_radii_saturate(self):
        assert G_of(1e-17, 1e-17) > G_of(1e-10, 1e-10)
        assert G_of(5e-324, 5e-324) == math.inf
        assert v_factor(5e-324) == 2.0 / math.pi

    @given(x=st.floats(), y=st.floats())
    @settings(deadline=None, max_examples=300)
    def test_total_over_every_float(self, x, y):
        # NaN, negatives and +-inf included: a float >= 0, possibly inf,
        # and ValueError exactly where an argument is out of the domain
        lo, hi = sorted((x, y))
        both = x > 0.0 and y > 0.0
        calls = [
            (lambda: F_pair(lo, hi), both),
            (lambda: G_of(x, y), both),
            (lambda: collar_radius_simple(x), x > 0.0),
            (lambda: collar_radius_separating(x), x > 0.0),
            (lambda: u_factor(x), x >= 0.0),
            (lambda: v_factor(x), x >= 0.0),
            (lambda: r_sys(x), x > 0.0),
            (lambda: grad_sq_upper_single(x), x > 0.0),
            (lambda: grad_sq_upper_separating(x), x > 0.0),
            (lambda: grad_sq_upper_systole(x), x > 0.0),
        ]
        for call, valid in calls:
            try:
                v = call()
            except ValueError:
                assert not valid
                continue
            assert valid and isinstance(v, float) and v >= 0.0

    @given(ell=st.floats(min_value=0.0, max_value=1e-300, exclude_min=True))
    @settings(deadline=None, max_examples=300)
    def test_tiny_lengths_give_the_universal_bound(self, ell):
        # the envelopes vanish, leaving 2 ell / pi, subnormal ell included
        assert grad_sq_upper_systole(ell) == 2.0 * ell / math.pi
        assert grad_sq_upper_separating(ell) == 2.0 * ell / math.pi



# (id, function, arguments, the function's own message)
_NAN_CALLS = [
    ("collar_radius_simple", collar_radius_simple, (math.nan,), "length must be positive"),
    ("collar_radius_separating", collar_radius_separating, (math.nan,), "length must be positive"),
    ("u_factor", u_factor, (math.nan,), "length must be nonnegative"),
    ("v_factor", v_factor, (math.nan,), "length must be nonnegative"),
    ("r_sys", r_sys, (math.nan,), "length must be positive"),
    ("F_pair-first", F_pair, (math.nan, 1.0), "lengths must be positive"),
    ("F_pair-second", F_pair, (1.0, math.nan), "lengths must be positive"),
    ("G_of-first", G_of, (math.nan, 1.0), "collar radii must be positive"),
    ("G_of-second", G_of, (1.0, math.nan), "collar radii must be positive"),
    ("grad_sq_upper_single", grad_sq_upper_single, (math.nan,), "length must be positive"),
    ("grad_sq_upper_separating", grad_sq_upper_separating, (math.nan,), "length must be positive"),
    ("grad_sq_upper_systole", grad_sq_upper_systole, (math.nan,), "length must be positive"),
]


class TestNaN:
    @pytest.mark.parametrize("fn, args, message", [c[1:] for c in _NAN_CALLS], ids=[c[0] for c in _NAN_CALLS])
    def test_nan_rejected(self, fn, args, message):
        with pytest.raises(ValueError, match=message):
            fn(*args)

    def test_infinite_length_reads_inf(self):
        # sinh(inf / 2) is out of range, as past 1421
        assert F_pair(1.0, math.inf) == math.inf
        assert F_pair(100.0, math.inf) == math.inf
        assert F_pair(math.inf, math.inf) == math.inf
        assert grad_sq_upper_single(math.inf) == math.inf
