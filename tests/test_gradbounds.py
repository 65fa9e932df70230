"""Collar radii, decay factors, and the gradient envelope bounds."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wpstrata.gradbounds import (
    EPS2,
    EPS2_IDENTITY,
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
            collar_radius_simple(2.0 * EPS2_IDENTITY), EPS2_IDENTITY, rel_tol=1e-15
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
        assert EPS2_IDENTITY == math.asinh(1.0)
        gap = EPS2 - EPS2_IDENTITY
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


_POSITIVE = st.floats(min_value=0.0, max_value=1e308, exclude_min=True)


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

    @given(x=_POSITIVE, y=_POSITIVE)
    @settings(deadline=None, max_examples=300)
    def test_total_over_positive_floats(self, x, y):
        lo, hi = sorted((x, y))
        calls = [
            lambda: F_pair(lo, hi),
            lambda: G_of(x, y),
            lambda: grad_sq_upper_single(x),
            lambda: grad_sq_upper_separating(x),
            lambda: grad_sq_upper_systole(x),
        ]
        for call in calls:
            try:
                v = call()
            except ValueError:
                continue
            assert isinstance(v, float) and v >= 0.0

    @given(ell=st.floats(min_value=0.0, max_value=1e-300, exclude_min=True))
    @settings(deadline=None, max_examples=300)
    def test_tiny_lengths_give_the_universal_bound(self, ell):
        # the envelopes vanish, leaving 2 ell / pi, subnormal ell included
        assert grad_sq_upper_systole(ell) == 2.0 * ell / math.pi
        assert grad_sq_upper_separating(ell) == 2.0 * ell / math.pi
