"""Production code against the verbatim references it replaced.

The quarter-tree coset kernel against the full-tree kernel; the
moment-summed long series against one dot product per block; the
saturating F_pair against the one that raised; the one-pass brute-force
cosets against the two-pass enumeration.
"""

from __future__ import annotations

import math
import random
import sys

import numpy as np
import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wpstrata import cli, toruscoset
from wpstrata.gradbounds import F_pair
from wpstrata.riera import _BLOCK, _long_sum, a_hat
from wpstrata.toruscoset import CosetWord, _coset_sums, enumerate_cosets, holonomy, u_of_coset

T0 = 2.0 * math.asinh(1.0)


def _cases(n: int, seed: int) -> list[tuple[float, int]]:
    rng = random.Random(seed)
    return [(math.exp(rng.uniform(math.log(1e-4), math.log(6.0))), rng.randint(0, 11)) for _ in range(n)]


def _ulps(x: float, y: float) -> float:
    return abs(x - y) / math.ulp(x)


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


def _within_4_ulp(got: float, want: float) -> bool:
    return abs(got - want) <= 4.0 * math.ulp(want)


_COLLAR_GRID = [float(T) for T in np.logspace(-6.0, math.log10(50.0), 40)]


@pytest.mark.parametrize("T", [float(T) for T in np.logspace(-6.0, -3.0, 25)] + _COLLAR_GRID)
def test_long_sum_matches_direct_blocks(T):
    u = math.exp(-T)
    ev = a_hat(u)
    if ev.terms_used <= 64:
        return
    assert _within_4_ulp(ev.value, oracles.long_sum_direct(ev.terms_used, math.log(u * u)))


@pytest.mark.parametrize("n", [8 * _BLOCK - 1, 8 * _BLOCK, 8 * _BLOCK + 1, 9 * _BLOCK - 1, 9 * _BLOCK, 9 * _BLOCK + 1])
@pytest.mark.parametrize("log_x", [-1e-4, -1e-5, -1e-6])
def test_long_sum_at_the_moment_threshold(n, log_x):
    # the moments take over at the first full block from 8K terms on
    assert _within_4_ulp(_long_sum(n, log_x), oracles.long_sum_direct(n, log_x))


_POSITIVE = st.floats(min_value=0.0, max_value=1e308, exclude_min=True)


@given(l_alpha=_POSITIVE, l_beta=_POSITIVE)
@settings(deadline=None, max_examples=300)
def test_f_pair_unchanged_where_it_returned(l_alpha, l_beta):
    l_alpha, l_beta = sorted((l_alpha, l_beta))
    try:
        want = oracles.F_pair(l_alpha, l_beta)
    except (ZeroDivisionError, OverflowError):
        assert F_pair(l_alpha, l_beta) >= 0.0
        return
    assert F_pair(l_alpha, l_beta) == want


@given(ell=st.floats(min_value=30.0, max_value=1500.0))
@settings(deadline=None, max_examples=300)
def test_f_pair_unchanged_on_the_diagonal(ell):
    # the lengths where tanh(ell/4)^2 and sinh(ell/2) reach their limits
    try:
        want = oracles.F_pair(ell, ell)
    except (ZeroDivisionError, OverflowError):
        assert F_pair(ell, ell) >= 0.0
        return
    assert F_pair(ell, ell) == want


@pytest.mark.parametrize("L", range(7))
def test_brute_force_one_pass_matches_two_passes(L):
    got = cli._brute_force_cosets(L)
    for kind in ("AA", "AB"):
        assert got[kind] == oracles.brute_force_words(kind, L)
