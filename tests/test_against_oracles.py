"""Production code against the verbatim references it replaced.

The quarter-tree coset kernel against the full-tree kernel; the collar
profile against its exact sum in mpmath, a_hat's stopping rule and its
enclosure of the exact sum, and a_hat on both sides of its term cap;
F_pair against the one that raised and against its factored form
on the diagonal where it keeps the rounded series argument, and against
its 50-digit value everywhere else; G_of likewise
against its former path and its 50-digit value; the one-pass
brute-force cosets against the two-pass enumeration; and the
scalar path under integral_H (collar series, envelope, Simpson rule)
against the one that built a SeriesEval per collar profile, called
u_factor and v_factor and checked each node in a wrapper, bit for bit;
the batched Simpson driver against the depth-first recursion it
replaced; the collar profile's table of term counts against the count
it tabulates, ulp by ulp around every step; and the
systole ratio sweep against one integral_H per length; the straight-line
collar series against a_hat, and the module-level H integrands and
the systole envelope against the layered ones they replaced.

The references stay on the test side: no production module imports
anything but the standard library, numpy and its own package.
"""

from __future__ import annotations

import ast
import importlib.util
import math
import random
import sys
from bisect import bisect_right
from pathlib import Path

import mpmath
import numpy as np
import oracles
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wpstrata import cli, gradbounds, integrals, toruscoset
from wpstrata.gradbounds import F_pair
from wpstrata.riera import (
    _A_SERIES_UMAX,
    _BREAKS,
    _MAX_TERMS,
    _TOL,
    _a_of_u,
    a_hat,
    a_of_T,
    a_stable,
)
from wpstrata.toruscoset import CosetWord, _coset_sums, enumerate_cosets, holonomy, u_of_coset

T0 = 2.0 * math.asinh(1.0)


def _cases(n: int, seed: int) -> list[tuple[float, int]]:
    rng = random.Random(seed)
    return [(math.exp(rng.uniform(math.log(1e-4), math.log(6.0))), rng.randint(0, 11)) for _ in range(n)]


def _ulps(x: float, y: float) -> float:
    return abs(x - y) / math.ulp(x)


_SINH_MAX_ARG = math.asinh(sys.float_info.max)


def _round_trip(l_alpha: float, l_beta: float) -> bool:
    """Whether F_pair takes a at -log of its rounded series argument u, as
    it always did: where u is at most tanh^2 3. On the diagonal its bits
    are unchanged there; beyond, it takes a at the radius sum from the
    lengths."""
    return math.tanh(0.25 * l_alpha) * math.tanh(0.25 * l_beta) <= gradbounds._NEAR_ONE


def _assert_f_pair_within_budget(l_alpha: float, l_beta: float) -> None:
    """F_pair off the diagonal, or beyond the round trip: inf where
    sinh(l_beta / 2) or the 50-digit value leaves the double range, and
    within 32 ulp of that value where it and l_alpha / 2 are normal
    doubles (a subnormal l_alpha / 2 has lost bits before F_pair starts)."""
    got = F_pair(l_alpha, l_beta)
    if not 0.5 * l_beta <= _SINH_MAX_ARG:
        assert got == math.inf, (l_alpha, l_beta)
        return
    exact = oracles.F_exact(l_alpha, l_beta)
    if exact > sys.float_info.max:
        assert got == math.inf, (l_alpha, l_beta)
    elif exact >= sys.float_info.min and 0.5 * l_alpha >= sys.float_info.min:
        assert abs(got - exact) <= 32.0 * math.ulp(float(exact)), (l_alpha, l_beta)


def test_kernel_matches_full_tree():
    # t log-uniform in (1e-4, 6), L in 0..11
    cases = _cases(600, 2024)
    assert sum(t > T0 for t, _ in cases) > 50
    alone = {}
    for t, L in cases:
        (s_aa,), (s_ab,), pruned = _coset_sums([t], L)
        o_aa, o_ab, o_pruned = oracles.coset_sums(t, L)
        assert pruned == o_pruned, (t, L)
        if t <= T0:
            assert (s_aa, s_ab) == (o_aa, o_ab), (t, L)
        else:
            assert _ulps(t + o_aa, t + s_aa) <= 4.0, (t, L)
            assert _ulps(2.0 - o_ab, 2.0 - s_ab) <= 4.0, (t, L)
        alone[t, L] = (s_aa, s_ab, pruned)
    # The same cases in blocks of 1-6 nodes of equal L, some t repeated:
    # each node's sums are its sums alone, and the pruned counts add up.
    rng = random.Random(2025)
    by_length: dict[int, list[float]] = {}
    for t, L in cases:
        by_length.setdefault(L, []).append(t)
    blocks = 0
    for L, ts in by_length.items():
        while ts:
            k = rng.randint(1, 6)
            repeat = k > 1 and rng.random() < 0.3
            block, ts = ts[: k - repeat], ts[k - repeat :]
            if repeat:
                block.insert(rng.randrange(len(block) + 1), rng.choice(block))
            s_aa, s_ab, pruned = _coset_sums(block, L)
            assert [(a, b) for a, b in zip(s_aa, s_ab)] == [alone[t, L][:2] for t in block], (block, L)
            assert pruned == sum(alone[t, L][2] for t in block), (block, L)
            blocks += 1
    assert blocks > 150


@pytest.mark.parametrize("L", [0, 3, 8, 10])
@pytest.mark.parametrize("tol", [1e-6, 1e-8])
def test_delta11_matches_full_tree(L, tol):
    (v_lo, e_lo, n_lo), (v_hi, e_hi, n_hi) = oracles.delta11_sides(L, tol)
    br = toruscoset.delta11_bracket(L, tol)
    assert (br.lo, br.hi) == (v_lo - e_lo, v_hi + e_hi)
    assert br.error_budget["evals"] == n_lo + n_hi


@pytest.mark.parametrize("t", [0.5, 1.0, T0])
def test_reflections_fix_u(t):
    # J swaps B and B^-1, P swaps A and A^-1; both fix u, by the
    # independent hyp2 route. That route reads u off rounded geodesic
    # endpoints, so its own error grows like eps * u: at t = 0.5 the word
    # BBaB (u = 1.4e5) and its images differ by 7e-12 relative.
    point = holonomy(t)
    swap_j = {0: 0, 1: 1, 2: 3, 3: 2}
    swap_p = {0: 1, 1: 0, 2: 2, 3: 3}
    for kind in ("AA", "AB"):
        for word in enumerate_cosets(kind, 4):
            u = u_of_coset(point, word).value
            for swap in (swap_j, swap_p):
                image = CosetWord(tuple(swap[l] for l in word.letters), kind)
                rel = 1e-12 + 4.0 * sys.float_info.epsilon * u
                assert math.isclose(u_of_coset(point, image).value, u, rel_tol=rel), (str(word), str(image))


_COLLAR_GRID = [float(T) for T in np.logspace(-6.0, math.log10(50.0), 40)]


def _exact_profile(x: mpmath.mpf) -> mpmath.mpf:
    """sum_n c_n x^n exactly: 2A + 2(A - 1) / x with A = artanh(sqrt x) /
    sqrt x. A - 1 is about x / 3, so x's digits are added to the 50
    kept."""
    with mpmath.workdps(50 + max(0, int(-mpmath.log10(x)))):
        A = mpmath.atanh(mpmath.sqrt(x)) / mpmath.sqrt(x)
        return 2 * A + 2 * (A - 1) / x


@pytest.mark.parametrize("T", [float(T) for T in np.logspace(-6.0, -3.0, 25)] + _COLLAR_GRID)
def test_long_sum_matches_direct_blocks(T):
    """a_stable over the T that verify's collar profile covers, where
    a_of_T summed up to 14.8M terms before the term cap, against a(T) at
    T itself. The closed form below T = 0.51 is within 8 ulp of it (6.4 at
    most over 40,000 T in [1e-16, 0.51]). From there on a_stable is
    a_of_T, the series midpoint at u = fl(e^-T), within 16 ulp (12.1 at
    most over 3000 log-spaced T in [0.51, 50]), and the exact sum at the
    x = fl(fl(e^-T)^2) that a_hat sums at lies in a_hat's bracket widened
    by the rounding of n terms."""
    got = a_stable(T)
    exact = oracles.a_exact(T)
    assert abs(got - exact) <= (8.0 if T < 0.51 else 16.0) * math.ulp(float(exact)), T
    if T >= 0.51:
        u = math.exp(-T)
        ev = a_hat(u)
        assert got == a_of_T(T) == ev.value + 0.5 * ev.tail_bound
        exact = _exact_profile(mpmath.mpf(u * u))
        slack = ev.terms_used * math.ulp(ev.value)
        assert ev.value - slack <= exact <= ev.value + ev.tail_bound + slack, T


# a_hat's term cap: the largest u whose count is within it, and the next
# double, from which on the bound after 128 terms is still over _TOL.
_U_CAP = 0.8906235512167543


def test_a_hat_on_both_sides_of_the_term_cap():
    """At _U_CAP a_hat sums exactly 128 terms, bit for bit as the
    oracle's loop; one double above, the count is over the cap and it
    raises."""
    ev = a_hat(_U_CAP)
    assert ev.terms_used == _MAX_TERMS and ev == oracles.a_hat(_U_CAP)
    above = math.nextafter(_U_CAP, 1.0)
    assert above == 0.8906235512167544
    assert oracles.term_count(above * above) > _MAX_TERMS
    with pytest.raises(RuntimeError, match="term cap"):
        a_hat(above)


_POSITIVE = st.floats(min_value=0.0, max_value=1e308, exclude_min=True)


# Pairs whose value is a normal double while a * uf * vf * sinh(l_alpha/2),
# the product before the large sinh(l_beta/2) factors, is subnormal.
_OFF_DIAGONAL_UNDERFLOWS = [(1e-300, 100.0), (1e-300, 1419.0), (1.78e-193, 1400.0)]


def _on_the_former_diagonal(l_alpha: float, l_beta: float) -> bool:
    return l_alpha == l_beta and _round_trip(l_alpha, l_beta)


@given(l_alpha=_POSITIVE, l_beta=_POSITIVE)
@example(l_alpha=1e-300, l_beta=100.0)
@example(l_alpha=1e-300, l_beta=1419.0)
@example(l_alpha=1.78e-193, l_beta=1400.0)
@settings(deadline=None, max_examples=300)
def test_f_pair_unchanged_where_it_returned(l_alpha, l_beta):
    l_alpha, l_beta = sorted((l_alpha, l_beta))
    if _on_the_former_diagonal(l_alpha, l_beta):
        assert F_pair(l_alpha, l_beta) == oracles.F_pair(l_alpha, l_beta)
    else:
        _assert_f_pair_within_budget(l_alpha, l_beta)


@given(ell=st.floats(min_value=1e-3, max_value=1500.0))
@example(ell=12.0)
@example(ell=math.nextafter(12.0, math.inf))
@settings(deadline=None, max_examples=300)
def test_f_pair_unchanged_on_the_diagonal(ell):
    # up to t = 12, where tanh(ell/4)^2 reaches tanh^2 3, the former bits;
    # beyond, where tanh(ell/4)^2 and sinh(ell/2) reach their limits, the
    # budget
    if _round_trip(ell, ell):
        assert F_pair(ell, ell) == oracles.F_pair(ell, ell)
    else:
        _assert_f_pair_within_budget(ell, ell)


@pytest.mark.parametrize("L", range(7))
def test_brute_force_one_pass_matches_two_passes(L):
    got = cli._brute_force_cosets(L)
    for kind in ("AA", "AB"):
        assert got[kind] == oracles.brute_force_words(kind, L)


# Series arguments: a dense sweep up to the switch point, the edges where
# u^2 underflows to 0 and where the branch switches, and the closed-form
# side up to 1.
_U_EDGES = [
    0.0,
    5e-324,
    1e-170,
    math.nextafter(1.49e-154, 0.0),
    1.5e-154,
    math.nextafter(_A_SERIES_UMAX, 0.0),
    _A_SERIES_UMAX,
    math.nextafter(_A_SERIES_UMAX, 1.0),
    0.9,
    math.nextafter(1.0, 0.0),
]
_U_GRID = [float(u) for u in np.linspace(0.0, _A_SERIES_UMAX, 20001)] + _U_EDGES


def test_collar_profile_matches_a_hat_route():
    for u in _U_GRID:
        assert _a_of_u(u) == oracles.a_of_u(u), u


@given(u=st.floats(min_value=0.0, max_value=1.0, exclude_max=True))
@settings(deadline=None, max_examples=300)
def test_collar_profile_matches_a_hat_route_on_draws(u):
    assert _a_of_u(u) == oracles.a_of_u(u)


def test_a_hat_matches_its_own_count():
    # Where the count is over the term cap, from u = 0.9 on, the oracle
    # raises, and a_hat must raise too.
    for u in _U_GRID[::40] + _U_EDGES + [0.95, 0.99]:
        try:
            want = oracles.a_hat(u)
        except RuntimeError:
            with pytest.raises(RuntimeError, match="term cap"):
                a_hat(u)
            continue
        assert a_hat(u) == want, u


# a_hat's stopping rule: the tail bound it returns is the one it tested,
# so it is at most _TOL, and the count is the least one; n terms, each
# rounded once, keep the exact sum at x = fl(u^2) within n ulp of the
# bracket [value, value + tail_bound]. Over the cap it raises, and only
# where the bound after 128 terms is still above _TOL.
@given(u=st.floats(min_value=0.0, max_value=0.95))
@settings(deadline=None, max_examples=200)
@example(u=0.00031622775811114394)
def test_a_hat_stops_at_its_own_tail_bound(u):
    x = u * u
    bounds, p = [], 1.0
    for n in range(1, _MAX_TERMS + 1):
        p *= x
        bounds.append(2.0 * p / (n * (1.0 - x)))
    try:
        ev = a_hat(u)
    except RuntimeError as e:
        assert "term cap" in str(e) and bounds[-1] > _TOL
        return
    n = ev.terms_used
    assert ev.tail_bound == bounds[n - 1] <= _TOL
    assert n == 1 or bounds[n - 2] > _TOL
    exact = _exact_profile(mpmath.mpf(x)) if x else mpmath.mpf(8) / 3
    slack = n * math.ulp(ev.value)
    assert ev.value - slack <= exact <= ev.value + ev.tail_bound + slack


# The collar profile reads its term count from _BREAKS for x = u^2 up to
# the switch point's. The count is monotone in x, since every rounded
# operation of the bound is; the table is checked against the oracle's
# count ulp by ulp around every step, where a rounding wobble would show
# first.
_X_TOP = _A_SERIES_UMAX * _A_SERIES_UMAX
_SCAN_ULPS = 1024


def _as_float(bits: int) -> float:
    return float(np.int64(bits).view(np.float64))


def _steps() -> list[int]:
    """Bit patterns of the least x in (0, _X_TOP] at which
    oracles.term_count reaches each of its values, by bisection over the
    bit patterns of positive doubles, which order as the doubles do."""
    top = int(np.float64(_X_TOP).view(np.int64))
    count = lambda bits: oracles.term_count(_as_float(bits))
    out = []
    for k in range(count(1) + 1, count(top) + 1):
        lo, hi = 1, top  # count(lo) < k <= count(hi)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if count(mid) >= k else (mid, hi)
        out.append(hi)
    return out


def _table_count(x: float) -> int:
    return bisect_right(_BREAKS, x) + 1


def test_break_table_is_the_default_tol_count():
    assert [_as_float(b) for b in _steps()] == list(_BREAKS)
    assert oracles.term_count(_X_TOP) == _table_count(_X_TOP) == 30


def test_break_table_matches_count_around_every_step():
    top = int(np.float64(_X_TOP).view(np.int64))
    steps = _steps()
    assert len(steps) == 29
    for bits in steps:
        lo, hi = max(bits - _SCAN_ULPS, 1), min(bits + _SCAN_ULPS, top)
        for x in np.arange(lo, hi + 1, dtype=np.int64).view(np.float64).tolist():
            assert _table_count(x) == oracles.term_count(x), x
        # The collar profile itself, within 64 ulps of u = sqrt(x).
        u = math.sqrt(_as_float(bits))
        for _ in range(64):
            u = math.nextafter(u, 0.0)
        for _ in range(129):
            assert _a_of_u(u) == oracles.a_of_u(u), u
            u = math.nextafter(u, 1.0)


def test_break_table_matches_count_on_grid():
    for u in _U_GRID:
        if u <= _A_SERIES_UMAX:
            assert _table_count(u * u) == a_hat(u).terms_used, u


# The collar profile sums the series in straight-line code, one early
# return per term count. It must round as a_hat does, at the count the
# table gives, on both sides of every step.
def _series_profile(u: float) -> float:
    ev = a_hat(u)
    return ev.value + 0.5 * ev.tail_bound


def test_unrolled_profile_matches_series_around_every_step():
    for step in _BREAKS:
        bits = int(np.float64(math.sqrt(step)).view(np.int64))
        us = np.arange(bits - _SCAN_ULPS, bits + _SCAN_ULPS + 1, dtype=np.int64).view(np.float64).tolist()
        xs = {u * u for u in us}
        assert min(xs) < step <= max(xs)
        for u in us:
            assert _a_of_u(u) == _series_profile(u), u


@given(u=st.floats(min_value=0.0, max_value=_A_SERIES_UMAX))
@settings(deadline=None, max_examples=300)
def test_unrolled_profile_matches_series_on_draws(u):
    assert _a_of_u(u) == _series_profile(u)


_LENGTH_EDGES = [
    5e-324,
    1e-300,
    76.2462,
    math.nextafter(76.2462, 0.0),
    76.25,
    699.9,
    700.0,
    math.nextafter(700.0, 1e3),
    1420.9,
    1421.0,
    1421.2,
]
_LENGTH_GRID = [float(x) for x in np.geomspace(1e-12, 1.5e3, 400)] + _LENGTH_EDGES


def _same(x: float, y: float) -> bool:
    return x == y or (math.isnan(x) and math.isnan(y))


def _assert_factored(l_alpha: float, l_beta: float) -> None:
    # the factored envelope's bits on the diagonal up to u = tanh^2 3, the
    # budget everywhere else
    if _on_the_former_diagonal(l_alpha, l_beta):
        assert _same(F_pair(l_alpha, l_beta), oracles.F_pair_by_factors(l_alpha, l_beta)), (l_alpha, l_beta)
    else:
        _assert_f_pair_within_budget(l_alpha, l_beta)


def test_f_pair_matches_factored_envelope():
    # each length on the diagonal; above it every 3rd pair past tanh^2 3,
    # and every 16th pair below it, where each pair also costs a 50-digit
    # evaluation now that only the diagonal keeps its bits
    lengths = sorted(_LENGTH_GRID)
    for i, la in enumerate(lengths):
        for j, lb in enumerate(lengths[i:]):
            if j % (16 if _round_trip(la, lb) else 3) == 0:
                _assert_factored(la, lb)
    for la, lb in _OFF_DIAGONAL_UNDERFLOWS:
        _assert_factored(la, lb)


@given(l_alpha=_POSITIVE, l_beta=_POSITIVE, diagonal=st.booleans())
@example(l_alpha=1e-300, l_beta=100.0, diagonal=False)
@example(l_alpha=1e-300, l_beta=1419.0, diagonal=False)
@example(l_alpha=1.78e-193, l_beta=1400.0, diagonal=False)
@settings(deadline=None, max_examples=300)
def test_f_pair_matches_factored_envelope_on_draws(l_alpha, l_beta, diagonal):
    _assert_factored(*sorted((l_alpha, l_alpha if diagonal else l_beta)))


def _perfbench_workloads():
    """The benchmark's workloads module, loaded by path to read its
    inputs and seed data."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _h_sweep_draws(seed: int) -> list[tuple[float, float, str, float]]:
    return _perfbench_workloads().HSweep().inputs(seed)


def _use_former_scalar_path(m: pytest.MonkeyPatch) -> None:
    """The oracle Simpson rule and H integrands, by the module attributes
    production calls them through."""
    m.setattr(integrals, "adaptive_simpson", oracles.adaptive_simpson)
    m.setattr(toruscoset, "adaptive_simpson", oracles.adaptive_simpson)
    for variant in integrals._VARIANTS:
        m.setitem(integrals._VARIANTS, variant, oracles.h_integrand(variant))


def test_integral_h_matches_former_scalar_path(monkeypatch):
    # Every 25th benchmark draw of seed 1: 271 of its 6765, all three
    # variants, a from 0 to 4 EPS2, b up to 12, tol from 1e-12 to 1e-7.
    draws = _h_sweep_draws(1)[::25]
    got = [integrals.integral_H(*x) for x in draws]
    with monkeypatch.context() as m:
        _use_former_scalar_path(m)
        want = [integrals.integral_H(*x) for x in draws]
    for x, g, w in zip(draws, got, want):
        assert (g.lo, g.hi, g.error_budget) == (w.lo, w.hi, w.error_budget), x


# Lengths t = y^2 at which the H integrands change branch: the collar
# profile's switch to its closed form (tanh(t/4)^2 = _A_SERIES_UMAX), F_pair's
# switch to the radius sum from the lengths (tanh(t/4)^2 = tanh^2 3) and
# where tanh(t/4)^2 rounds to 1, each for t and t/2; the systole kink at
# L0, l = 700 for t, t/2 and r_sys(t) = t/4, sinh(t/2) and sinh(t/4)
# overflowing, the flat points, and t and t/2 underflowing to 0.
_T_EDGES = [
    4.0 * math.atanh(math.sqrt(_A_SERIES_UMAX)),
    8.0 * math.atanh(math.sqrt(_A_SERIES_UMAX)),
    12.0,
    24.0,
    76.2462,
    152.4924,
    gradbounds.L0,
    700.0,
    1400.0,
    2800.0,
    2.0 * _SINH_MAX_ARG,
    4.0 * _SINH_MAX_ARG,
    996.0,
    1421.0,
    2842.0,
    5e-324,
    1e-323,
]


def _assert_integrand(variant: str, y: float) -> None:
    """The module-level integrand against the layered one, bit for bit
    where the envelope is unchanged. Where F_pair takes a at the radius
    sum, it is the layered formula on F_pair, and F_pair is within its
    budget."""
    got = integrals._VARIANTS[variant](y)
    if variant != "systole":
        t = integrals._SCALES[variant] * (y * y)
        if t > 0.0 and not _round_trip(t, t):
            assert got == integrals.SQRT_2PI / math.sqrt(1.0 + F_pair(t, t)), (variant, y)
            _assert_f_pair_within_budget(t, t)
            return
    assert got == oracles.h_integrand(variant)(y), (variant, y)


@pytest.mark.parametrize("variant", sorted(integrals._VARIANTS))
def test_integrands_match_the_layered_ones_at_branch_edges(variant):
    for t in _T_EDGES:
        y = math.sqrt(t)
        for _ in range(64):
            y = math.nextafter(y, 0.0)
        for _ in range(129):
            _assert_integrand(variant, y)
            y = math.nextafter(y, math.inf)


@given(
    y=st.one_of(st.floats(min_value=0.0), st.floats(min_value=0.0, max_value=60.0)),
    variant=st.sampled_from(sorted(integrals._VARIANTS)),
)
@settings(deadline=None, max_examples=600)
def test_integrands_match_the_layered_ones_on_draws(y, variant):
    _assert_integrand(variant, y)


@given(r=st.floats(min_value=0.0, exclude_min=True))
@example(r=0.255)
@example(r=math.nextafter(0.255, 0.0))
@settings(deadline=None, max_examples=300)
def test_systole_envelope_matches_the_former_path(r):
    # G_of(r, r) on the straight-line collar series where r + r is at
    # least 0.51; below, where it takes a at r + r itself, within 32 ulp
    # of its 50-digit value, or inf where that leaves the double range.
    # And r_sys without max.
    got = gradbounds.G_of(r, r)
    if r + r >= 0.51:
        assert got == oracles.G_of(r, r)
    else:
        exact = oracles.G_exact(r, r)
        if exact > sys.float_info.max:
            assert got == math.inf
        else:
            assert abs(got - exact) <= 32.0 * math.ulp(float(exact))
    assert gradbounds.r_sys(r) == oracles.r_sys(r)


_SIMPSON_INTEGRANDS = {
    "sin": math.sin,
    "exp": math.exp,
    "runge": lambda x: 1.0 / (1.0 + 25.0 * x * x),
    **{v: integrals._VARIANTS[v] for v in ("plain", "separating", "systole")},
}


@given(
    name=st.sampled_from(sorted(_SIMPSON_INTEGRANDS)),
    a=st.floats(min_value=0.0, max_value=3.0),
    width=st.floats(min_value=1e-3, max_value=3.0),
    tol=st.floats(min_value=1e-12, max_value=1e-3),
)
@settings(deadline=None, max_examples=150)
def test_simpson_rounds_match_the_recursive_rule(name, a, width, tol):
    # The batched driver against the depth-first recursion it replaced: the
    # same (value, err, evals), bit for bit, with and without prefetch. y is
    # sqrt(t) for the three H integrands, so y up to 6 is t up to 36.
    f = _SIMPSON_INTEGRANDS[name]
    b = a + width
    try:
        want = oracles.adaptive_simpson(f, a, b, tol)
    except RuntimeError:
        for prefetch in (None, lambda xs: None):
            with pytest.raises(RuntimeError):
                integrals.adaptive_simpson(f, a, b, tol, prefetch=prefetch)
        return
    assert integrals.adaptive_simpson(f, a, b, tol) == want

    calls: list[list[float]] = []
    announced: set[float] = set()
    seen: list[float] = []

    def prefetch(xs: list[float]) -> None:
        calls.append(list(xs))
        announced.update(xs)

    def recorded(x: float) -> float:
        assert x in announced, x  # announced before use
        seen.append(x)
        return f(x)

    assert integrals.adaptive_simpson(recorded, a, b, tol, prefetch=prefetch) == want
    mid = 0.5 * (a + b)
    assert calls[0] == [a, b, mid, 0.5 * (a + mid), 0.5 * (mid + b)]  # the root first
    assert all(1 <= len(xs) <= 16 for xs in calls)
    # every announced node is evaluated, exactly once
    assert sorted(x for xs in calls for x in xs) == sorted(seen)
    assert len(set(seen)) == len(seen) == want[2]


def test_delta11_matches_former_simpson_rule(monkeypatch):
    got = toruscoset.delta11_bracket(0, 1e-9)
    with monkeypatch.context() as m:
        _use_former_scalar_path(m)
        want = toruscoset.delta11_bracket(0, 1e-9)
    assert (got.lo, got.hi, got.error_budget) == (want.lo, want.hi, want.error_budget)


_PLOT_GRID = np.logspace(-3.0, 2.0, 64).tolist()


@pytest.mark.parametrize(
    "ts, tol", [(cli._C_MIN_GRID, 1e-8), (cli._C_MIN_GRID, 1e-7), (_PLOT_GRID, 1e-6)],
    ids=["c_min-1e-8", "c_min-1e-7", "plot-1e-6"],
)
def test_c_ratios_match_the_per_length_loop(ts, tol):
    # the grids of cli._c_min (constants at 1e-8, verify at 1e-7) and of
    # the hsys-ratio plot at its default tol
    assert integrals.c_ratios(ts, tol) == oracles.c_ratios(ts, tol)


@pytest.mark.parametrize("tol", [1e-6, 1e-7, 1e-8, 1e-9, 1e-10, 1e-11])
def test_c_min_is_the_least_ratio_on_its_grid(tol):
    # the screened search returns the very float of the full sweep
    assert cli._c_min(tol) == min(integrals.c_ratios(cli._C_MIN_GRID, tol))


def test_c_min_bound_is_under_the_ratio():
    low = [t for t in cli._C_MIN_GRID if t <= gradbounds.L0]
    for t, ratio in zip(low, integrals.c_ratios(low, 1e-8)):
        assert cli._c_ratio_floor(t) <= ratio, t


def test_c_min_screens_23_lengths_and_integrates_2_to_tol(monkeypatch):
    # the bound rules out 38 of the 41 lengths at or below L0
    calls = []

    def recording(ts, tol):
        calls.append((len(ts), tol))
        return integrals.c_ratios(ts, tol)

    monkeypatch.setattr(cli, "c_ratios", recording)
    cli._c_min(1e-8)
    assert sum(n for n, tol in calls if tol == cli._C_MIN_SCREEN_TOL) == 23
    assert [n for n, tol in calls if tol == 1e-8] == [2]


def test_c_ratios_evaluate_each_distinct_node_once(monkeypatch):
    nodes: list[float] = []
    real = integrals._VARIANTS["systole"]

    def recording(y: float) -> float:
        nodes.append(y)
        return real(y)

    monkeypatch.setitem(integrals._VARIANTS, "systole", recording)
    want = oracles.c_ratios(cli._C_MIN_GRID, 1e-8)
    per_length = list(nodes)
    nodes.clear()
    assert integrals.c_ratios(cli._C_MIN_GRID, 1e-8) == want
    assert len(nodes) == len(set(nodes)) == len(set(per_length)) < len(per_length)
    assert set(nodes) == set(per_length)


def test_production_imports_only_stdlib_and_numpy():
    # numpy is the one runtime dependency; mpmath, scipy and the oracles
    # are test-side only. Imports inside functions count too.
    outside = []
    for path in sorted(Path(cli.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.partition(".")[0]
                if top != "numpy" and top not in sys.stdlib_module_names:
                    outside.append(f"{path.name}:{node.lineno} {name}")
    assert outside == []
