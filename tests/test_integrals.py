"""Brackets, quadrature, distance integrals, and the derived bounds."""

from __future__ import annotations

import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wpstrata.gradbounds import EPS2, F_pair, L0
from wpstrata.integrals import (
    SQRT_2PI,
    V3,
    Bracket,
    W1,
    W2,
    adaptive_simpson,
    brock_bromberg_compare,
    c_ratio,
    calibrate_eps2,
    gap_constants,
    integral_H,
    integral_K,
    lobachevsky,
    pa_translation_bounds,
    strata_separation,
    thin_pair_sum,
)
from wpstrata.toruscoset import grad_sq_bracket

T0 = 2.0 * math.asinh(1.0)

# Elementary word-length-zero bracket, frozen from the coset module.
DELTA11_ELEMENTARY = Bracket(6.572523603041586, 6.656024983184699)


class TestBracket:
    def test_accessors(self):
        br = Bracket(1.0, 3.0)
        assert br.width == 2.0
        assert br.midpoint == 2.0
        assert br.contains(1.0) and br.contains(3.0) and not br.contains(3.5)
        assert br.within(0.5, 3.5) and not br.within(1.5, 3.5)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Bracket(2.0, 1.0)

    def test_degenerate_allowed(self):
        assert Bracket(2.0, 2.0).width == 0.0

    def test_add_merges_budgets(self):
        a = Bracket(1.0, 2.0, {"x": 0.5, "y": 1.0})
        b = Bracket(10.0, 11.0, {"y": 2.0, "z": 3.0})
        s = a + b
        assert (s.lo, s.hi) == (11.0, 13.0)
        assert s.error_budget == {"x": 0.5, "y": 3.0, "z": 3.0}

    def test_scaled(self):
        br = Bracket(2.0, 3.0).scaled(2.0)
        assert (br.lo, br.hi) == (4.0, 6.0)
        with pytest.raises(ValueError):
            Bracket(2.0, 3.0).scaled(-1.0)


class TestAdaptiveSimpson:
    def test_cubic_exact(self):
        value, err, evals = adaptive_simpson(lambda x: x**3 - 2.0 * x, 0.0, 2.0, 1e-10)
        assert abs(value - 0.0) < 1e-13
        assert evals > 0

    def test_sin_against_quad(self):
        quad = pytest.importorskip("scipy.integrate").quad
        value, err, _ = adaptive_simpson(math.sin, 0.0, 2.5, 1e-10)
        want, _ = quad(math.sin, 0.0, 2.5, epsabs=1e-13)
        assert abs(value - want) < 1e-10
        assert abs(value - want) <= err + 1e-13

    def test_nonfinite_integrand(self):
        with pytest.raises(RuntimeError):
            adaptive_simpson(lambda x: float("nan"), 0.0, 1.0, 1e-8)

    def test_depth_cap(self):
        # a near-singular spike cannot converge in two levels
        with pytest.raises(RuntimeError):
            adaptive_simpson(
                lambda x: 1.0 / math.sqrt(abs(x - 0.3) + 1e-14), 0.0, 1.0, 1e-12,
                max_depth=2,
            )

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            adaptive_simpson(math.sin, 1.0, 1.0, 1e-8)
        with pytest.raises(ValueError):
            adaptive_simpson(math.sin, 0.0, 1.0, 0.0)

    def test_nan_tol(self):
        with pytest.raises(ValueError):
            adaptive_simpson(math.sin, 0.0, 1.0, math.nan)

    def test_inf_tol_stops_at_depth_three(self):
        # 3 nodes, then 2 per panel at depths 0..3: 1 + 2 + 4 + 8 panels
        _, _, evals = adaptive_simpson(math.sin, 0.0, 1.0, math.inf)
        assert evals == 3 + 2 * 15

    def test_noise_fails_fast(self):
        # noise at every scale: no interval converges, and the depth-first
        # recursion reaches max_depth on its first branch
        start = time.perf_counter()
        with pytest.raises(RuntimeError, match="failed to converge"):
            adaptive_simpson(lambda x: (x * 1e9) % 1.0, 0.0, math.pi, 1e-8)
        assert time.perf_counter() - start < 2.0


def _delta11_integrand(side: str, L: int):
    # delta11_bracket's two integrands, read off grad_sq_bracket
    def f(y: float) -> float:
        if y == 0.0:
            return 2.0 * SQRT_2PI
        br = grad_sq_bracket(y * y, L)
        return 4.0 * y / math.sqrt(br.hi if side == "lower" else br.lo)

    return f


class TestSimpsonPrefetch:
    CASES = [
        (math.sin, 0.0, 2.5, 1e-10),
        (lambda x: x**3 - 2.0 * x, 0.0, 2.0, 1e-10),
        (_delta11_integrand("lower", 3), 0.0, math.sqrt(T0), 5e-8),
        (_delta11_integrand("upper", 3), 0.0, math.sqrt(T0), 5e-8),
    ]

    @pytest.mark.parametrize("f, a, b, tol", CASES, ids=["sin", "cubic", "delta11-lower", "delta11-upper"])
    def test_announces_every_node_before_use(self, f, a, b, tol):
        announced: list[float] = []
        seen: list[float] = []

        def recorded(x: float) -> float:
            assert x in announced, x
            seen.append(x)
            return f(x)

        got = adaptive_simpson(recorded, a, b, tol, prefetch=announced.extend)
        assert got == adaptive_simpson(f, a, b, tol)
        # every announced node is evaluated, once: none is wasted
        assert sorted(announced) == sorted(seen)
        assert len(set(seen)) == len(seen) == got[2]
        assert announced[:5] == [a, b, 0.5 * (a + b), 0.5 * (a + 0.5 * (a + b)), 0.5 * (0.5 * (a + b) + b)]


class TestBaselineK:
    def test_unit_value(self):
        assert math.isclose(integral_K(0.0, 1.0 / (2.0 * math.pi)), 1.0, rel_tol=1e-15)

    def test_empty_range(self):
        assert integral_K(1.0, 1.0) == 0.0

    def test_frozen_value(self):
        assert math.isclose(integral_K(0.0, T0), 3.3280124915923497, rel_tol=1e-15)

    def test_validation(self):
        with pytest.raises(ValueError):
            integral_K(2.0, 1.0)
        with pytest.raises(ValueError):
            integral_K(-1.0, 1.0)
        with pytest.raises(ValueError):
            integral_K(0.0, math.inf)


class TestIntegralH:
    def test_oracle_plain(self):
        # independent quadrature of the substituted integrand
        quad = pytest.importorskip("scipy.integrate").quad
        want, _ = quad(
            lambda y: SQRT_2PI / math.sqrt(1.0 + F_pair(y * y, y * y)) if y else SQRT_2PI,
            0.0,
            math.sqrt(3.0),
            epsabs=1e-12,
        )
        br = integral_H(0.0, 3.0, "plain", 1e-9)
        assert br.contains(want)
        assert abs(br.midpoint - want) < 1e-9

    def test_frozen_value_at_t0(self):
        br = integral_H(0.0, T0, "plain", 1e-8)
        assert br.contains(3.2746647440490945)
        assert br.width <= 1e-8

    def test_frozen_value_at_threshold(self):
        br = integral_H(0.0, 2.0 * EPS2, "plain", 1e-8)
        assert math.isclose(br.midpoint, 3.2746691891237107, abs_tol=1e-8)

    def test_below_baseline(self):
        rng = np.random.default_rng(7)
        for _ in range(12):
            a = float(rng.uniform(0.0, 2.0))
            b = a + float(rng.uniform(0.05, 4.0))
            for variant in ("plain", "separating", "systole"):
                br = integral_H(a, b, variant, 1e-6)
                assert br.midpoint < integral_K(a, b)

    def test_ratio_tends_to_one(self):
        b = 1e-6
        ratio = integral_H(0.0, b, "plain", 1e-10).midpoint / integral_K(0.0, b)
        assert math.isclose(ratio, 1.0, abs_tol=1e-6)

    def test_systole_floor(self):
        # below the envelope peak the integrand never dips under 2
        for a, b in [(0.0, 1.0), (0.5, 6.0), (2.0, 30.0)]:
            br = integral_H(a, b, "systole", 1e-7)
            assert br.lo >= 2.0 * (math.sqrt(b) - math.sqrt(a))

    def test_systole_kink_split(self):
        br = integral_H(0.0, 2.0 * L0, "systole", 1e-8)
        fine = integral_H(0.0, 2.0 * L0, "systole", 1e-10)
        assert br.contains(fine.midpoint)

    def test_nesting(self):
        rng = np.random.default_rng(20240817)
        for variant in ("plain", "separating", "systole"):
            for _ in range(7):
                a = float(rng.uniform(0.0, 3.0))
                b = a + float(rng.uniform(0.1, 5.0))
                coarse = integral_H(a, b, variant, 1e-5)
                fine = integral_H(a, b, variant, 1e-7)
                assert coarse.width <= 1e-5 and fine.width <= 1e-7
                assert max(coarse.lo, fine.lo) <= min(coarse.hi, fine.hi)
                assert coarse.contains(fine.midpoint)

    def test_budget_keys(self):
        br = integral_H(0.0, 1.0, "plain", 1e-7)
        assert set(br.error_budget) == {"quadrature", "series_tail", "evals"}
        assert br.error_budget["evals"] > 0

    def test_validation(self):
        with pytest.raises(ValueError):
            integral_H(1.0, 1.0)
        with pytest.raises(ValueError):
            integral_H(0.0, 1.0, "nope")
        with pytest.raises(ValueError):
            integral_H(0.0, 1.0, "plain", 0.0)
        with pytest.raises(ValueError):
            integral_H(0.0, 1.0, "plain", math.nan)
        with pytest.raises(ValueError):
            integral_H(-0.5, 1.0)
        with pytest.raises(ValueError):
            integral_H(1.0, math.nextafter(1.0, 2.0))

    def test_large_lengths_saturate(self):
        # F_pair(t, t) is inf beyond t = 1421, so the integrand is 0 there
        # and the integral levels off
        near = integral_H(0.0, 100.0, "plain")
        far = integral_H(0.0, 1e4, "plain")
        assert near.lo <= far.hi and far.lo <= near.hi + 1e-7
        assert integral_H(0.0, 1e4, "separating").width <= 1e-7

    @given(
        a=st.floats(min_value=0.0, max_value=1e4),
        b=st.floats(min_value=0.0, max_value=1e4),
        variant=st.sampled_from(["plain", "separating", "systole"]),
    )
    @settings(deadline=None, max_examples=60)
    def test_total_up_to_1e4(self, a, b, variant):
        a, b = sorted((a, b))
        try:
            br = integral_H(a, b, variant)
        except ValueError:
            return
        assert math.isfinite(br.lo) and br.lo <= br.hi <= integral_K(a, b) + 1e-7


class TestEfficiencyRatio:
    def test_frozen_minimum_region(self):
        assert math.isclose(
            c_ratio(4.350078045577681, 1e-8), 0.9438579834869257, abs_tol=1e-8
        )

    def test_frozen_large(self):
        assert math.isclose(c_ratio(100.0, 1e-8), 0.9866111070328599, abs_tol=1e-8)

    def test_ends_near_one(self):
        assert abs(c_ratio(1e-4) - 1.0) < 0.02
        assert abs(c_ratio(1e4) - 1.0) < 0.02

    def test_global_floor(self):
        floor = math.sqrt(2.0 / math.pi)
        for t in np.logspace(-3.0, 2.0, 25):
            assert c_ratio(float(t), 1e-6) > floor

    def test_domain(self):
        with pytest.raises(ValueError):
            c_ratio(0.0)


class TestSeparatingRoutes:
    def test_w1_frozen(self):
        br = W1(3.678, 1e-8)
        assert math.isclose(br.lo, 10.765965090572596, abs_tol=1e-9)

    def test_w2_frozen(self):
        br = W2(2.420, 1e-8)
        assert math.isclose(br.lo, 10.096569881448058, abs_tol=1e-9)

    def test_w2_near_optimal(self):
        minimize_scalar = pytest.importorskip("scipy.optimize").minimize_scalar
        res = minimize_scalar(
            lambda L: -W2(L, 1e-7).lo, bounds=(1.5, 3.5), method="bounded",
            options={"xatol": 1e-6},
        )
        assert -res.fun >= W2(2.420, 1e-7).lo - 1e-6

    def test_domains(self):
        with pytest.raises(ValueError):
            W1(0.0)
        with pytest.raises(ValueError):
            W2(-1.0)


class TestThinPairSum:
    def test_contains_calibration_target(self):
        br = thin_pair_sum(1e-8)
        assert br.contains(7.611385)
        assert br.width <= 1e-8

    def test_calibration_round_trip(self):
        assert abs(calibrate_eps2() - EPS2) < 5e-12

    def test_calibration_out_of_reach(self):
        with pytest.raises(ValueError):
            calibrate_eps2(target=100.0)


class TestStrataSeparation:
    def test_disjoint(self):
        v = strata_separation(0, "has-genus", DELTA11_ELEMENTARY)
        assert v.kind == "lower-bound"
        assert (v.value.lo, v.value.hi) == (0.0, 0.0)

    def test_genus_single_crossing_exact(self):
        v = strata_separation(1, "has-genus", DELTA11_ELEMENTARY)
        assert v.kind == "exact"
        assert v.value is DELTA11_ELEMENTARY

    def test_genus_multi_crossing(self):
        v = strata_separation(3, "has-genus", DELTA11_ELEMENTARY, tol=1e-8)
        assert v.kind == "lower-bound"
        pair = thin_pair_sum(1e-8)
        assert (v.value.lo, v.value.hi) == (pair.lo, pair.hi)
        assert math.isclose(
            v.value.error_budget["branch_sqrt2_delta11_lo"],
            math.sqrt(2.0) * DELTA11_ELEMENTARY.lo,
            rel_tol=1e-15,
        )

    def test_sphere_double_crossing_exact(self):
        v = strata_separation(2, "punctured-sphere", DELTA11_ELEMENTARY)
        assert v.kind == "exact"
        assert math.isclose(
            v.value.lo, math.sqrt(2.0) * DELTA11_ELEMENTARY.lo, rel_tol=1e-15
        )

    def test_sphere_many_crossings_picks_best(self):
        v = strata_separation(4, "punctured-sphere", DELTA11_ELEMENTARY, tol=1e-8)
        assert v.kind == "lower-bound"
        w2 = W2(2.420, 1e-8)
        assert v.value.lo == w2.lo
        notes = v.value.error_budget
        assert math.isclose(notes["branch_2_delta11_lo"], 2.0 * DELTA11_ELEMENTARY.lo)
        assert math.isclose(notes["branch_w1_lo"], W1(3.678, 1e-8).lo)

    def test_monotone_in_k(self):
        genus = [
            strata_separation(k, "has-genus", DELTA11_ELEMENTARY, 1e-7).value.lo
            for k in (0, 1, 2)
        ]
        assert genus[0] < genus[1] < genus[2]
        sphere = [
            strata_separation(k, "punctured-sphere", DELTA11_ELEMENTARY, 1e-7).value.lo
            for k in (0, 2, 4)
        ]
        assert sphere[0] < sphere[1] < sphere[2]

    def test_sphere_odd_rejected(self):
        with pytest.raises(ValueError):
            strata_separation(3, "punctured-sphere", DELTA11_ELEMENTARY)

    def test_validation(self):
        with pytest.raises(ValueError):
            strata_separation(1, "torus", DELTA11_ELEMENTARY)
        with pytest.raises(TypeError):
            strata_separation(True, "has-genus", DELTA11_ELEMENTARY)
        with pytest.raises(ValueError):
            strata_separation(-1, "has-genus", DELTA11_ELEMENTARY)


class TestGapConstants:
    def test_frozen(self):
        gap_genus, gap_sphere = gap_constants(DELTA11_ELEMENTARY, 1e-8)
        assert math.isclose(gap_genus, 0.9553600152736097, abs_tol=1e-8)
        assert math.isclose(gap_sphere, 0.6835290787341037, abs_tol=1e-8)

    def test_both_positive(self):
        gap_genus, gap_sphere = gap_constants(DELTA11_ELEMENTARY)
        assert gap_genus > 0.95 and gap_sphere > 0.68


class TestPointPushing:
    def test_frozen(self):
        pa = pa_translation_bounds(1e-8)
        assert math.isclose(pa.case_i2, 1.0620466190803166, abs_tol=1e-10)
        assert math.isclose(pa.case_i1, 1.569484391229756, abs_tol=1e-10)
        assert pa.general == 0.5 * pa.case_i1

    def test_cases_ordered(self):
        pa = pa_translation_bounds()
        assert pa.general < pa.case_i2 < pa.case_i1


class TestLobachevsky:
    def test_odd_and_zero(self):
        assert lobachevsky(0.0) == 0.0
        assert lobachevsky(-0.3) == -lobachevsky(0.3)

    def test_vanishes_at_half_pi(self):
        assert abs(lobachevsky(0.5 * math.pi)) < 1e-15

    def test_maximum_at_pi_sixth(self):
        peak = lobachevsky(math.pi / 6.0)
        assert peak > lobachevsky(0.45)
        assert peak > lobachevsky(0.60)

    def test_tetrahedron_volume(self):
        assert math.isclose(V3, 1.0149416064096533, abs_tol=1e-13)

    def test_mpmath_oracle(self):
        mp = pytest.importorskip("mpmath")
        with mp.workdps(40):
            want = float(mp.clsin(2, mp.pi / 3))
        assert math.isclose(V3, want, rel_tol=1e-14)

    def test_domain(self):
        with pytest.raises(ValueError):
            lobachevsky(2.0)

    @given(theta=st.floats(min_value=1e-6, max_value=1.5))
    @settings(deadline=None)
    def test_positive_on_open_interval(self, theta):
        assert lobachevsky(theta) > 0.0


class TestComparisonValue:
    def test_frozen_one_one(self):
        assert math.isclose(
            brock_bromberg_compare(1, 1), 0.5398708252471472, rel_tol=1e-14
        )

    def test_formula(self):
        got = brock_bromberg_compare(2, 3)
        want = 4.0 * V3 / (3.0 * math.sqrt(2.0 * math.pi * 5.0))
        assert got == want

    def test_decreasing_in_complexity(self):
        assert (
            brock_bromberg_compare(1, 1)
            > brock_bromberg_compare(1, 2)
            > brock_bromberg_compare(2, 1)
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            brock_bromberg_compare(0, 2)
        with pytest.raises(ValueError):
            brock_bromberg_compare(0, 0)
        with pytest.raises(TypeError):
            brock_bromberg_compare(True, 1)
        with pytest.raises(TypeError):
            brock_bromberg_compare(1.0, 1)
