"""Collar radii, decay factors, and the gradient envelope bounds."""

from __future__ import annotations

import math
import sys

import mpmath
import numpy as np
import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

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
    u_factor,
    v_factor,
)
from wpstrata.riera import a_stable

T0 = 2.0 * math.asinh(1.0)


class TestCollarRadii:
    def test_self_dual_point(self):
        assert math.isclose(
            collar_radius_simple(2.0 * math.asinh(1.0)), math.asinh(1.0), rel_tol=1e-15
        )

    @given(ell=st.floats(min_value=1e-3, max_value=40.0))
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
        root = brentq(
            lambda t: math.sinh(0.25 * t) * math.sinh(0.5 * t) - 1.0, 1.0, 4.0,
            xtol=1e-14,
        )
        assert abs(oracles.solve_L0() - root) < 1e-12

    def test_oracle_rebuilds_the_bits(self):
        # L0 is a literal; the bisection that found it returns it exactly
        assert oracles.solve_L0() == L0

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
    @settings(max_examples=300)
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
    """The one accuracy contract of the envelope layer: each function is
    within 32 ulp of its exact value wherever that value is a normal
    double, and inf where it is above the double range (a subnormal exact
    value is not held to it). The exact values are 50-digit mpmath closed
    forms written from the definitions, here and in oracles.F_exact,
    G_exact and a_exact. Two places fall outside it and are not
    tested: F_pair where l_alpha / 2 is subnormal, and G_of where e^-r
    is (r above about 708).

    F_pair is held on (t, t), (t/2, t/2) and (t/2, t) for t in [1e-3,
    1420] and on a log grid of pairs l_alpha <= l_beta over [1e-300,
    1420] with l_beta = 1400, 1416 and 1419; G_of on r = s in [1e-15, 40]
    and on a grid of (r, s) there; u_factor, v_factor and the collar
    radii on (0, 1e4]; a_stable on T in [5e-324, 700]. The largest errors
    seen on denser grids: 17.5 (F_pair(t, t)), 26.7 (F_pair(t/2, t/2)),
    21.7 (F_pair(t/2, t)), 13.6 (F_pair over 20,072 pairs), 15.3 (G_of(r,
    r)), 12.8 (G_of over 3600 pairs), 3.8 (u_factor), 2.3 (v_factor), 1.3
    (collar radii and r_sys) and 9.4 ulp (a_stable)."""

    @staticmethod
    def _within(worst, name, got, exact, where):
        if exact > sys.float_info.max:
            assert got == math.inf, (name, where)
        elif exact >= sys.float_info.min:
            worst[name] = max(worst.get(name, 0.0), float(abs(got - exact) / math.ulp(float(exact))))

    def test_f_pair_within_32_ulp_where_finite(self):
        ts = np.geomspace(1e-3, 1420.0, 160).tolist() + [11.99, 12.0, 12.01, 23.99, 24.0, 24.01, 76.2462]
        grid = np.geomspace(1e-300, 1e-3, 10).tolist()[:-1] + np.geomspace(1e-3, 1420.0, 16).tolist()
        pairs = {
            "(t, t)": [(t, t) for t in ts],
            "(t/2, t/2)": [(t / 2, t / 2) for t in ts],
            "(t/2, t)": [(t / 2, t) for t in ts],
            "grid": [(la, lb) for la in grid for lb in grid + [1400.0, 1416.0, 1419.0] if la < lb],
        }
        worst = {}
        for name, lengths in pairs.items():
            for la, lb in lengths:
                self._within(worst, name, F_pair(la, lb), oracles.F_exact(la, lb), (la, lb))
        assert len(worst) == 4 and all(w <= 32.0 for w in worst.values()), worst

    def test_g_of_within_32_ulp(self):
        rs = np.geomspace(1e-15, 40.0, 160).tolist() + [0.25, 0.255, math.nextafter(0.255, 0.0), 0.26]
        assert min(r + r for r in rs) < 0.51 < max(r + r for r in rs)
        grid = np.geomspace(1e-15, 40.0, 16).tolist() + [0.2, 0.3]
        worst = {}
        for r, s in [(r, r) for r in rs] + [(r, s) for r in grid for s in grid if r != s]:
            self._within(worst, "G_of", G_of(r, s), oracles.G_exact(r, s), (r, s))
        assert worst["G_of"] <= 32.0, worst

    def test_factors_radii_and_profile_within_32_ulp(self):
        def r_simple(ell):
            return mpmath.asinh(1 / mpmath.sinh(ell / 2))

        def uf(ell):
            c = mpmath.cosh(ell / 2)
            return (2 * c + 1) / (3 * (c + 1) ** 2)

        def vf(ell):
            return 1 / (mpmath.atan(1 / mpmath.sinh(ell / 2)) * mpmath.cosh(ell / 2) ** 2 + mpmath.sinh(ell / 2))

        exact = {
            u_factor: uf,
            v_factor: vf,
            collar_radius_simple: r_simple,
            collar_radius_separating: lambda ell: 2 * mpmath.asinh(1 / mpmath.sinh(ell / 4)),
            r_sys: lambda t: max(t / 4, r_simple(t)),
        }
        # dense on the production range [1e-3, 12], where r_sys crosses at
        # L0; sparse over the rest of (0, 1e4], with the subnormal edges
        lengths = (
            np.geomspace(1e-3, 12.0, 200).tolist()
            + np.geomspace(1e-320, 1e4, 200).tolist()
            + [5e-324, 1e-308, 2.2e-308]
        )
        worst = {}
        with mpmath.workdps(50):
            for t in lengths:
                for fn, closed in exact.items():
                    self._within(worst, fn.__name__, fn(t), closed(mpmath.mpf(t)), t)
        profile = np.geomspace(1e-16, 700.0, 100).tolist() + [math.nextafter(0.51, 0.0), 0.51]
        # and below, with the subnormal edges, where coth(T/2) overflows
        profile += np.geomspace(1e-320, 1e-16, 40).tolist()[:-1] + [5e-324, 1e-308, 1.1e-308, 1.2e-308]
        for T in profile:
            self._within(worst, "a_stable", a_stable(T), oracles.a_exact(T), T)
        assert len(worst) == 6 and all(w <= 32.0 for w in worst.values()), worst


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
    @settings(max_examples=300)
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
    @settings(max_examples=300)
    def test_tiny_lengths_give_the_universal_bound(self, ell):
        # the envelopes vanish, leaving 2 ell / pi, subnormal ell included
        assert grad_sq_upper_systole(ell) == 2.0 * ell / math.pi
        assert grad_sq_upper_separating(ell) == 2.0 * ell / math.pi



# (id, function, arguments, the message it raises)
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
