"""Brackets, quadrature, distance integrals, and the derived bounds."""

from __future__ import annotations

import gc
import math
import time
import weakref

import mpmath
import numpy as np
import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import minimize_scalar

from wpstrata import integrals, toruscoset
from wpstrata.gradbounds import EPS2, F_pair, G_of, L0, r_sys
from wpstrata.integrals import (
    BROCK_BROMBERG_11,
    SQRT_2PI,
    V3,
    Bracket,
    ConvergenceError,
    W1,
    W1_LENGTH,
    W2,
    W2_LENGTH,
    adaptive_simpson,
    c_ratios,
    integral_H,
    integral_K,
    pa_translation_bounds,
    strata_separation,
    thin_pair_sum,
)
from wpstrata.toruscoset import delta11_bracket, grad_sq_bracket

T0 = 2.0 * math.asinh(1.0)

# Elementary word-length-zero bracket, frozen from the coset module.
DELTA11_ELEMENTARY = Bracket(6.572523603041586, 6.656024983184699)


class TestBracket:
    def test_accessors(self):
        br = Bracket(1.0, 3.0)
        assert br.width == 2.0
        assert br.midpoint == 2.0
        assert br.contains(1.0) and br.contains(3.0) and not br.contains(3.5)

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

    def test_add_refuses_a_number(self):
        with pytest.raises(TypeError):
            Bracket(1.0, 2.0) + 1

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
        value, err, _ = adaptive_simpson(math.sin, 0.0, 2.5, 1e-10)
        want, _ = quad(math.sin, 0.0, 2.5, epsabs=1e-13)
        assert abs(value - want) < 1e-10
        assert abs(value - want) <= err + 1e-13

    def test_nonfinite_integrand(self):
        with pytest.raises(RuntimeError):
            adaptive_simpson(lambda x: float("nan"), 0.0, 1.0, 1e-8)

    @pytest.mark.parametrize("prefetch", [None, lambda nodes: None], ids=["depth-first", "rounds"])
    @pytest.mark.parametrize("bad", [0.25, 0.75])
    def test_nonfinite_at_a_quarter_point(self, prefetch, bad):
        # finite at the root nodes 0, 1 and 0.5; the first panel's left or
        # right quarter point is not
        f = lambda x: math.inf if x == bad else 1.0
        with pytest.raises(RuntimeError, match=f"integrand not finite at {bad!r}"):
            adaptive_simpson(f, 0.0, 1.0, 1e-8, prefetch=prefetch)

    def test_depth_cap(self, monkeypatch):
        # a near-singular spike cannot converge in two levels
        monkeypatch.setattr(integrals, "_MAX_DEPTH", 2)
        with pytest.raises(RuntimeError):
            adaptive_simpson(lambda x: 1.0 / math.sqrt(abs(x - 0.3) + 1e-14), 0.0, 1.0, 1e-12)

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
        # walk reaches _MAX_DEPTH on its first branch
        start = time.perf_counter()
        with pytest.raises(RuntimeError, match="failed to converge"):
            adaptive_simpson(lambda x: (x * 1e9) % 1.0, 0.0, math.pi, 1e-8)
        assert time.perf_counter() - start < 2.0

    def test_noise_fails_fast_in_rounds(self):
        # with prefetch the leftmost branch gains a level every round, so
        # it reaches _MAX_DEPTH in 48 rounds of at most 16 nodes
        calls = []
        start = time.perf_counter()
        with pytest.raises(RuntimeError, match="failed to converge"):
            adaptive_simpson(lambda x: (x * 1e9) % 1.0, 0.0, math.pi, 1e-8, prefetch=calls.append)
        assert time.perf_counter() - start < 2.0
        assert len(calls) == 1 + integrals._MAX_DEPTH and all(len(xs) <= 16 for xs in calls)

    def test_no_integrand_outlives_its_call(self, monkeypatch):
        # a recursive closure holds itself, and with it the integrand and
        # all it captures, until a gen-2 collection. The per-call closures
        # (c_ratios' node table, delta11_bracket's two sides) must die;
        # integral_H's module-level integrands live on.
        refs = []
        real = integrals.adaptive_simpson

        def watched(f, *args, **kwargs):
            refs.append(weakref.ref(f))
            return real(f, *args, **kwargs)

        monkeypatch.setattr(integrals, "adaptive_simpson", watched)
        monkeypatch.setattr(toruscoset, "adaptive_simpson", watched)
        gc.collect()
        gc.disable()
        try:
            integral_H(0.0, 5.0, "systole")
            delta11_bracket(2, 1e-4)
            c_ratios([0.5, 3.0, 5.0])
            alive = [r() is not None and r() not in integrals._VARIANTS.values() for r in refs]
            freed = gc.collect()
        finally:
            gc.enable()
        assert len(refs) == 9 and not any(alive) and freed == 0


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

    def test_least_tol(self):
        # Below 1e-323 the panels' share of tol rounded to 0, and the
        # refusal said "tol must be positive" of a positive tol.
        with pytest.raises(ValueError, match="at least 1e-323"):
            integral_H(0.0, 1.0, "plain", 5e-324)
        with pytest.raises(ConvergenceError):
            integral_H(0.0, 1.0, "plain", 1e-323)
        # On a range this narrow in y (2.2e-162) the panel's share,
        # tol / 2 times its part of the range, underflows to 0 first.
        with pytest.raises(ValueError, match="share of tol .* underflows to 0"):
            integral_H(0.0, 5e-324, "plain", 1e-200)
        assert integral_H(0.0, 5e-324, "plain", 1e-150).width <= 1e-150

    @pytest.mark.parametrize(
        "b, variant", [(1e-322, "plain"), (5e-324, "separating"), (5e-324, "systole"), (1e-300, "plain")]
    )
    def test_nodes_underflowing(self, b, variant):
        # t = y^2 (t / 2 for "separating") is 0 at some nodes, where F
        # takes its limit 0
        br = integral_H(0.0, b, variant)
        k = integral_K(0.0, b)
        assert br.lo <= k <= br.hi and br.width <= 1e-7

    def test_large_lengths_saturate(self):
        # F_pair(t, t) is inf beyond t = 1421, so the integrand is 0 there
        # and the integral levels off
        near = integral_H(0.0, 100.0, "plain")
        far = integral_H(0.0, 1e4, "plain")
        assert near.lo <= far.hi and far.lo <= near.hi + 1e-7
        assert integral_H(0.0, 1e4, "separating").width <= 1e-7

    @given(
        a=st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=3.5)),
        extra=st.floats(min_value=0.01, max_value=36.0),
        tol=st.floats(min_value=1e-12, max_value=1e-6),
    )
    @settings(max_examples=60)
    def test_separating_is_plain_rescaled(self, a, extra, tol):
        # ROADMAP direction 6: t = 2s gives H_sep(a, b) = sqrt(2) H_plain(a/2, b/2).
        # At tol / sqrt(2) the plain run takes the same panels, except where
        # rounding flips one acceptance (3 of 3300 draws), and then the two
        # brackets overlap. Otherwise the ends agree within 128 ulp (43 at
        # most in those draws): y = sqrt(t) and sqrt(t / 2) round apart,
        # and that adds up over a few thousand panels. On a narrow range
        # sqrt(a) and sqrt(b) cancel, and the ends moved by up to 1533 ulp;
        # b >= 2a keeps that out.
        b = 2.0 * a + extra
        sep = integral_H(a, b, "separating", tol)
        plain = integral_H(0.5 * a, 0.5 * b, "plain", tol / math.sqrt(2.0)).scaled(math.sqrt(2.0))
        if sep.error_budget["evals"] != plain.error_budget["evals"]:
            assert max(sep.lo, plain.lo) <= min(sep.hi, plain.hi)
            return
        assert abs(sep.lo - plain.lo) <= 128 * math.ulp(sep.lo)
        assert abs(sep.hi - plain.hi) <= 128 * math.ulp(sep.hi)

    @pytest.mark.parametrize("variant, flat", [("plain", 1421.0), ("separating", 2842.0)])
    @pytest.mark.parametrize("b", [1e12, 1e100, 1.7e308])
    def test_range_ends_at_the_flat_point(self, variant, flat, b):
        # F is inf past the flat point, so the integrand is exactly 0 there
        assert integral_H(0.0, b, variant) == integral_H(0.0, flat, variant)

    @given(t=st.floats(min_value=1421.0))
    def test_plain_envelope_inf_past_its_flat_point(self, t):
        # and the separating envelope F_pair(t/2, t/2) past t = 2842 with it
        assert F_pair(t, t) == math.inf

    @given(t=st.floats(min_value=996.0))
    def test_systole_envelope_zero_past_its_flat_point(self, t):
        # exactly 0 from t of about 995.14 on, so the integrand is sqrt(2 pi)
        assert G_of(r_sys(t), r_sys(t)) == 0.0

    @pytest.mark.parametrize("b", [1e20, 1e100, 1.7e308])
    def test_systole_past_its_flat_point(self, b):
        # the integral over the flat part is sqrt(2 pi) (sqrt(b) - sqrt(996))
        flat = integral_H(0.0, 996.0, "systole")
        br = integral_H(0.0, b, "systole")
        assert br.error_budget == flat.error_budget
        tail = SQRT_2PI * (math.sqrt(b) - math.sqrt(996.0))
        assert math.isclose(br.midpoint, flat.midpoint + tail, rel_tol=1e-15)

    @pytest.mark.parametrize("b, lo, hi", [
        (500.0, 55.71430238762536, 55.71430239558763),
        (996.0, 78.77224423338886, 78.77224423950877),
    ])
    def test_systole_bits_up_to_its_flat_point(self, b, lo, hi):
        # frozen before the systole range was ended at t = 996
        br = integral_H(0.0, b, "systole")
        assert (br.lo, br.hi) == (lo, hi)

    def test_bits_at_the_flat_point(self):
        # recorded once F_pair took a at the radius sum past t = 12; the
        # bracket contains H(0, 1421) = 5.33989811986670085978969861168, a
        # 60-digit mp.quad of the integrand on oracles.F_exact
        br = integral_H(0.0, 1421.0, "plain")
        assert (br.lo, br.hi) == (5.339898118483728, 5.33989812495697)
        assert br.contains(5.339898119866701)

    @staticmethod
    def _plain_exact(b: float) -> float:
        # H(0, b) by a 60-digit mp.quad in y of the integrand on F_pair's
        # definition, oracles.F_exact
        with mpmath.workdps(60):

            def g(y):
                t = y * y
                return mpmath.sqrt(2 * mpmath.pi / (1 + oracles.F_exact(t, t, 60))) if t else mpmath.sqrt(2 * mpmath.pi)

            return float(mpmath.quad(g, [0, 1, 2, 3, 4, 6, mpmath.sqrt(b)]))

    def test_long_range_at_tol_1e_11_contains_its_value(self):
        # ROADMAP D12: the bracket missed 5.3398981198650315 by 1.7e-12
        # while F_pair took a at -log of a tanh product within ulps of 1
        assert integral_H(0.0, 100.0, "plain", 1e-11).contains(5.3398981198650315)

    @pytest.mark.parametrize("b", [80.0, 100.0])
    def test_long_range_at_tol_1e_12_returns_its_value(self, b):
        # ROADMAP D12: these raised ConvergenceError on F_pair's steps
        br = integral_H(0.0, b, "plain", 1e-12)
        assert br.width <= 1e-12 and br.contains(self._plain_exact(b))

    def test_known_miss_below_the_flat_point(self):
        # ROADMAP D9: H(0, 2000) >= H(0, 1000), yet the two brackets are
        # disjoint, so one of them misses its value. Asserted as it stands.
        assert integral_H(0.0, 2000.0).hi < integral_H(0.0, 1000.0).lo

    @pytest.mark.parametrize(
        "b, variant, tol, tighter, below",
        [
            (9.71597614233579, "plain", 6.249449826262261e-11, 1e-13, True),  # h-sweep seed 109
            (9.430117868924254, "separating", 2.1992102831519105e-11, 1e-12, False),  # seed 16303
        ],
        ids=["plain", "separating"],
    )
    def test_known_misses_on_smooth_panels(self, b, variant, tol, tighter, below):
        # ROADMAP D9: a smooth panel accepted on an accidental Richardson
        # match. The bracket is disjoint from the same call at a tighter
        # tol, below or above it, so one of the two misses. Asserted as it
        # stands.
        coarse = integral_H(0.0, b, variant, tol)
        fine = integral_H(0.0, b, variant, tighter)
        assert coarse.hi < fine.lo if below else fine.hi < coarse.lo

    @given(
        a=st.floats(min_value=0.0, max_value=1e4),
        b=st.floats(min_value=0.0, max_value=1e4),
        variant=st.sampled_from(["plain", "separating", "systole"]),
    )
    @settings(max_examples=60)
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
            c_ratios([4.350078045577681], 1e-8)[0], 0.9438579834869257, abs_tol=1e-8
        )

    def test_frozen_large(self):
        assert math.isclose(c_ratios([100.0], 1e-8)[0], 0.9866111070328599, abs_tol=1e-8)

    def test_ends_near_one(self):
        assert abs(c_ratios([1e-4])[0] - 1.0) < 0.02
        assert abs(c_ratios([1e4])[0] - 1.0) < 0.02

    def test_global_floor(self):
        floor = math.sqrt(2.0 / math.pi)
        for t in np.logspace(-3.0, 2.0, 25):
            assert c_ratios([float(t)], 1e-6)[0] > floor

    def test_domain(self):
        with pytest.raises(ValueError):
            c_ratios([0.0])

    def test_nodes_underflowing(self):
        # every node's t = y^2 is 0: H_sys(0, t) = K(0, t)
        assert c_ratios([5e-324])[0] == 1.0

    def test_past_the_systole_flat_point(self):
        # past t = 996 H and K grow alike, so 1 - ratio is their fixed
        # difference over K
        gap = integral_K(0.0, 996.0) - integral_H(0.0, 996.0, "systole").midpoint
        assert math.isclose(1.0 - c_ratios([1e20])[0], gap / integral_K(0.0, 1e20), rel_tol=1e-3)

    def test_sweep_of_nothing(self):
        assert c_ratios([]) == []
        with pytest.raises(ValueError):
            c_ratios([], 0.0)

    def test_sweep_repeats_and_order(self):
        ts = [5.0, 0.5, 5.0, 3.0, 0.5]
        assert c_ratios(ts, 1e-8) == [c_ratios([t], 1e-8)[0] for t in ts]

    @pytest.mark.parametrize("bad", [math.nan, -1.0, 0.0, -0.0, math.inf, -math.inf])
    def test_sweep_domain(self, bad):
        with pytest.raises(ValueError):
            c_ratios([1.0, bad])


class TestSeparatingRoutes:
    def test_w1_frozen(self):
        br = W1(W1_LENGTH, 1e-8)
        assert math.isclose(br.lo, 10.765965090572596, abs_tol=1e-9)

    def test_w2_frozen(self):
        br = W2(W2_LENGTH, 1e-8)
        assert math.isclose(br.lo, 10.096569881448058, abs_tol=1e-9)

    @pytest.mark.parametrize("route", [W1, W2])
    def test_past_the_flat_point(self, route):
        # the first leg ends at t = 2842; the second one underflows to 0
        assert route(1e10) == integral_H(0.0, 2842.0, "separating", 0.5e-7)

    def test_w2_near_optimal(self):
        res = minimize_scalar(
            lambda L: -W2(L, 1e-7).lo, bounds=(1.5, 3.5), method="bounded",
            options={"xatol": 1e-6},
        )
        assert -res.fun >= W2(W2_LENGTH, 1e-7).lo - 1e-6

    def test_domains(self):
        # the collar radius of the length refuses it, before any quadrature
        for route in (W1, W2):
            for length in (math.nan, 0.0, -1.0):
                with pytest.raises(ValueError, match="length must be positive"):
                    route(length)

    @pytest.mark.parametrize("route", [W1, W2])
    @pytest.mark.parametrize("length", [2960.0, 2970.0, 2980.0, 2990.0, 1e4])
    def test_second_leg_underflowing(self, route, length):
        # the second leg is subnormal or 0 here; the route is H_sep(0, L)
        # and a vanishing second leg
        br = route(length)
        first = integral_H(0.0, length, "separating", 0.5e-7)
        assert (br.lo, br.hi) == (first.lo, first.hi)  # under an ulp of the first leg
        assert abs(br.midpoint - 7.5517563436) < 1e-7

    @pytest.mark.parametrize("route", [W1, W2])
    @pytest.mark.parametrize("length", [5e-324, 1e-320, 2e-308])
    def test_second_leg_infinite(self, route, length):
        # csch(L / 4) overflows and the second leg is inf: H_sep(0, inf)
        br = route(length)
        assert _finite(br) and abs(br.midpoint - 7.5517563436) < 1e-7

    def test_zero_leg_adds_nothing(self):
        assert W1(2990.0) == integral_H(0.0, 2990.0, "separating", 0.5e-7)

    @pytest.mark.parametrize("route", [W1, W2])
    @pytest.mark.parametrize("length", [1e-300, 1000.0])
    def test_tight_tol_on_a_long_leg_returns(self, route, length):
        # the second leg at 1e-300, the first at 1000, is long; both
        # raised ConvergenceError while F_pair stepped there (ROADMAP D12).
        # The quadrature's share is within tol; the series slack of the
        # long legs, 8e-13 on each side at 1e-300, comes on top.
        br = route(length, 1e-12)
        assert _finite(br) and br.width - 2.0 * br.error_budget["series_tail"] <= 1e-12

    def test_tight_tol_at_the_route_length_returns(self):
        br = W1(W1_LENGTH, 1e-12)
        assert _finite(br) and br.width <= 1e-12


class TestThinPairSum:
    def test_contains_calibration_target(self):
        br = thin_pair_sum(1e-8)
        assert br.contains(7.611385)
        assert br.width <= 1e-8

    def test_calibration_round_trip(self):
        assert abs(oracles.calibrate_eps2() - EPS2) < 5e-12



class TestStrataSeparation:
    @pytest.fixture(scope="class")
    def sep(self):
        return strata_separation(DELTA11_ELEMENTARY, 1e-8)

    def test_genus_single_crossing_exact(self, sep):
        assert sep.delta11 is DELTA11_ELEMENTARY

    def test_genus_multi_crossing(self, sep):
        pair = thin_pair_sum(1e-8)
        assert (sep.thin_pair.lo, sep.thin_pair.hi) == (pair.lo, pair.hi)

    def test_sphere_double_crossing_exact(self, sep):
        assert sep.sphere_twice.lo == math.sqrt(2.0) * DELTA11_ELEMENTARY.lo

    def test_sphere_many_crossings_picks_best(self, sep):
        # W2 10.097 < W1 10.766 < 2 delta11 13.145
        assert sep.sphere_more is sep.w2
        w1 = W1(W1_LENGTH, 1e-8)
        assert (sep.w1.lo, sep.w1.hi) == (w1.lo, w1.hi)

    def test_monotone_in_k(self, sep):
        assert sep.gap_genus > 0.0 and sep.gap_sphere > 0.0

    def test_sphere_more_follows_delta11(self):
        # 2 delta11 = [8.0, 8.2] undercuts both separating routes
        sep = strata_separation(Bracket(4.0, 4.1), 1e-6)
        assert sep.sphere_more is sep.two_delta11
        assert sep.gap_sphere == 8.0 - math.sqrt(2.0) * 4.1


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
    """V3 = 2 L(pi/6) = Cl_2(pi/3), L the Lobachevsky function."""

    def test_tetrahedron_volume(self):
        assert V3 == 1.0149416064096533

    def test_mpmath_oracle(self):
        with mpmath.workdps(40):
            want = mpmath.clsin(2, mpmath.pi / 3)
            assert abs(V3 - want) <= 2.0 * math.ulp(V3)


# Lengths and tolerances for the totality tests: every float up to 1e4,
# NaN and -inf included, as for integral_H, and tolerances in [1e-10, 1].
# The separating routes run at their default tol: below about 5e-11 a
# leg past t = 120 hits the steps of F_pair where tanh(t/4)^2 is within
# ulps of 1 (ROADMAP D12), and the quadrature raises RuntimeError.
_LENGTHS = st.floats(max_value=1e4)
_TOLS = st.floats(min_value=1e-10, max_value=1.0)


def _finite(br: Bracket) -> bool:
    return math.isfinite(br.lo) and math.isfinite(br.hi)


class TestTotality:
    """Each public function returns a finite value or raises ValueError."""

    @pytest.mark.parametrize("route", [W1, W2])
    @given(length=_LENGTHS)
    @settings(max_examples=15)
    def test_separating_routes(self, route, length):
        # ValueError only for an invalid length: <= 0 or NaN
        try:
            br = route(length)
        except ValueError:
            assert not length > 0.0
            return
        assert length > 0.0 and _finite(br) and br.lo > 0.0

    @pytest.mark.parametrize("route", [W1, W2])
    @given(
        length=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
        tol=st.floats(min_value=1e-12, max_value=1.0),
    )
    @settings(max_examples=20)
    def test_separating_routes_at_any_tol(self, route, length, tol):
        # every leg reaches tol from 1e-12 on
        br = route(length, tol)
        assert _finite(br) and br.lo > 0.0

    @given(t=st.floats(), tol=_TOLS)
    @settings(max_examples=15)
    def test_c_ratio(self, t, tol):
        try:
            v = c_ratios([t], tol)[0]
        except ValueError:
            assert not 0.0 < t < math.inf
            return
        assert math.isfinite(v) and 0.9 < v < 1.1

    @given(ts=st.lists(st.one_of(_LENGTHS, st.just(math.inf)), max_size=4), tol=_TOLS)
    @settings(max_examples=15)
    def test_c_ratios(self, ts, tol):
        # a repeated length gives the same ratio again
        try:
            got = c_ratios(ts + ts[:1], tol)
        except ValueError:
            assert not all(0.0 < t < math.inf for t in ts)
            return
        assert len(got) == len(ts) + min(len(ts), 1) and got[len(ts):] == got[:1]
        assert all(math.isfinite(v) and 0.9 < v < 1.1 for v in got)

    @given(
        lo=st.floats(min_value=-1e6, max_value=1e6),
        width=st.floats(min_value=0.0, max_value=1e6),
        tol=_TOLS,
    )
    @settings(max_examples=15)
    def test_strata_separation(self, lo, width, tol):
        sep = strata_separation(Bracket(lo, lo + width), tol)
        assert all(_finite(route) for route in sep)
        assert all(sep.sphere_more.lo <= route.lo for route in (sep.two_delta11, sep.w1, sep.w2))

    @given(a=st.floats(), b=st.floats())
    @settings(max_examples=300)
    def test_integral_k(self, a, b):
        try:
            v = integral_K(a, b)
        except ValueError:
            assert not (0.0 <= a <= b < math.inf)
            return
        assert 0.0 <= a <= b < math.inf and 0.0 <= v < math.inf
        assert v == SQRT_2PI * (math.sqrt(b) - math.sqrt(a))

    def test_calibrate_eps2(self):
        # the pair sum crosses its target inside the bisection interval,
        # so the bisection ends at a root there
        lo = math.asinh(1.0)
        hi = lo + 1e-5
        sums = [
            integral_H(0.0, 4.0 * e, "plain", 1e-10).midpoint + integral_H(0.0, 2.0 * e, "plain", 1e-10).midpoint
            for e in (lo, hi)
        ]
        assert sums[0] < 7.611385 < sums[1]
        assert lo <= oracles.calibrate_eps2() <= hi

    @given(tol=st.floats())
    @settings(max_examples=15)
    def test_thin_pair_sum(self, tol):
        # ValueError below 2e-323, where tol / 2 is under integral_H's least
        # tol, and for NaN; ConvergenceError past what the quadrature reaches
        try:
            br = thin_pair_sum(tol)
        except ValueError:
            assert not tol >= 2e-323
            return
        except ConvergenceError:
            assert tol < 1e-13
            return
        assert _finite(br) and br.lo <= 7.611385 <= br.hi

    @given(tol=st.floats())
    @settings(max_examples=15)
    def test_pa_translation_bounds(self, tol):
        try:
            pa = pa_translation_bounds(tol)
        except ValueError:
            assert not tol >= 1e-323
            return
        except ConvergenceError:
            assert tol < 1e-13
            return
        assert abs(pa.case_i2 - 1.0620466) < 1e-6 and abs(pa.case_i1 - 1.5694844) < 1e-6
        assert pa.general == 0.5 * pa.case_i1


class TestComparisonValue:
    def test_frozen_one_one(self):
        # 4 V3 / (3 sqrt(2 pi)), the (g, n) = (1, 1) case, bit for bit
        assert BROCK_BROMBERG_11 == 0.5398708252471472
