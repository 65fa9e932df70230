"""Coset enumeration, position invariants, and the certified brackets."""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wpstrata import toruscoset
from wpstrata.gradbounds import grad_sq_upper_single
from wpstrata.hyp2 import GeodesicH2, INF, UValue, compose_many, translate_geodesic, translation_length, u_value
from wpstrata.integrals import ConvergenceError
from wpstrata.riera import riera_R
from wpstrata.toruscoset import (
    MAX_WORD_LENGTH,
    PRUNE_U,
    CosetWord,
    RectTorusPoint,
    delta11_bracket,
    enumerate_cosets,
    grad_sq_bracket,
    holonomy,
    identity_coset,
    u_of_coset,
    _coset_sums,
)

T0 = 2.0 * math.asinh(1.0)

AA_COUNTS = [2, 2, 10, 26, 82, 242, 730, 2186]
AB_COUNTS = [0, 4, 8, 28, 80, 244, 728, 2188]


def _exact_u(point: RectTorusPoint, word: CosetWord) -> float:
    # u from the translated axis endpoints in exact rational arithmetic
    # on the float generator entries: no determinant is assumed or checked
    gens = []
    for m in (point.A, point.A.inverse(), point.B, point.B.inverse()):
        gens.append([Fraction(x) for x in (m.a, m.b, m.c, m.d)])
    a, b, c, d = Fraction(1), Fraction(0), Fraction(0), Fraction(1)
    for l in word.letters:
        ga, gb, gc, gd = gens[l]
        a, b, c, d = a * ga + b * gc, a * gb + b * gd, c * ga + d * gc, c * gb + d * gd
    if word.kind == "AA":  # images of 0 and oo
        p, q = b / d, a / c
    else:  # images of -1 and 1
        p, q = (b - a) / (d - c), (a + b) / (c + d)
    return float(abs(p + q) / abs(p - q))


class TestEnumeration:
    def test_frozen_level_counts(self):
        for kind, counts in (("AA", AA_COUNTS), ("AB", AB_COUNTS)):
            words = enumerate_cosets(kind, 8)
            got = [0] * 8
            for w in words:
                got[len(w.letters) - 1] += 1
            assert got == counts
            assert len(words) == sum(counts)

    def test_sorted_by_length_then_lex(self):
        words = enumerate_cosets("AA", 4)
        keys = [(len(w.letters), w.letters) for w in words]
        assert keys == sorted(keys)

    def test_no_duplicates(self):
        words = enumerate_cosets("AB", 6)
        assert len({w.letters for w in words}) == len(words)

    def test_validation(self):
        with pytest.raises(ValueError):
            enumerate_cosets("BB", 3)
        assert enumerate_cosets("AA", 0) == []
        with pytest.raises(TypeError):
            enumerate_cosets("AA", True)
        with pytest.raises(TypeError):
            enumerate_cosets("AA", 2.0)

    def test_word_length_cap(self):
        assert MAX_WORD_LENGTH == 14
        with pytest.raises(ValueError):
            enumerate_cosets("AB", MAX_WORD_LENGTH + 1)


class TestCosetWord:
    def test_str_forms(self):
        assert str(identity_coset()) == "e"
        assert str(CosetWord((2, 0), "AB")) == "BA"
        assert str(CosetWord((3, 1, 2), "AA")) == "baB"

    def test_identity_flag(self):
        assert identity_coset() == CosetWord((), "AB")
        assert CosetWord((2,), "AA").letters

    def test_len(self):
        assert len(CosetWord((2, 0, 2), "AA").letters) == 3

    def test_rejects_unreduced(self):
        with pytest.raises(ValueError):
            CosetWord((2, 3), "AA")
        with pytest.raises(ValueError):
            CosetWord((2, 0, 1, 2), "AA")

    def test_rejects_wrong_ends(self):
        with pytest.raises(ValueError):
            CosetWord((0, 2), "AA")  # starts with an A letter
        with pytest.raises(ValueError):
            CosetWord((2, 0), "AA")  # AA must end with a B letter
        with pytest.raises(ValueError):
            CosetWord((2, 3), "AB")
        with pytest.raises(ValueError):
            CosetWord((2,), "AB")  # AB must end with an A letter

    def test_rejects_bad_kind_and_letters(self):
        with pytest.raises(ValueError):
            CosetWord((2,), "BA")
        with pytest.raises(ValueError):
            CosetWord((2, 5), "AA")
        with pytest.raises(ValueError):
            CosetWord((), "AA")  # only the AB identity may be empty


class TestHolonomy:
    def test_translation_lengths(self):
        p = holonomy(1.7)
        assert math.isclose(translation_length(p.A), 1.7, rel_tol=1e-12)
        assert math.isclose(translation_length(p.B), p.s, rel_tol=1e-12)

    def test_square_point(self):
        p = holonomy(T0)
        assert math.isclose(p.s, p.t, rel_tol=1e-14)

    def test_domain(self):
        with pytest.raises(ValueError):
            holonomy(0.0)
        with pytest.raises(ValueError):
            holonomy(math.inf)

    def test_point_validation(self):
        good = holonomy(1.0)
        with pytest.raises(ValueError):
            RectTorusPoint(t=1.0, s=1.0, A=good.A, B=good.B)
        # consistent lengths but aligned axes break the commutator
        from wpstrata.hyp2 import MoebiusMap

        e = math.exp(0.5 * good.s)
        with pytest.raises(ValueError):
            RectTorusPoint(t=1.0, s=good.s, A=good.A, B=MoebiusMap(e, 0.0, 0.0, 1.0 / e))


class TestPositionInvariant:
    def test_identity_crossing(self):
        p = holonomy(1.0)
        u = u_of_coset(p, identity_coset())
        assert u.crossing and u.value == 0.0

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_power_words(self, n):
        p = holonomy(0.9)
        word = CosetWord((2,) * n, "AA")
        u = u_of_coset(p, word)
        assert not u.crossing
        assert math.isclose(u.value, math.cosh(n * p.s), rel_tol=1e-12)

    @pytest.mark.parametrize("letters", [(2, 0), (2, 1), (3, 0), (3, 1)])
    def test_mixed_words(self, letters):
        p = holonomy(1.4)
        u = u_of_coset(p, CosetWord(letters, "AB"))
        assert not u.crossing
        assert math.isclose(u.value, math.sinh(p.t) * math.sinh(p.s), rel_tol=1e-12)

    def test_matrix_route_agreement(self):
        # the determinant-free closed forms against the geometric route
        p = holonomy(1.3)
        table = (p.A, p.A.inverse(), p.B, p.B.inverse())
        for kind in ("AA", "AB"):
            for word in enumerate_cosets(kind, 4):
                m = compose_many(table[l] for l in word.letters)
                if kind == "AA":
                    direct = abs(1.0 + 2.0 * m.b * m.c)
                else:
                    direct = abs(m.b * m.d - m.a * m.c)
                geo = u_of_coset(p, word)
                assert math.isclose(geo.value, direct, rel_tol=1e-10)

    def test_crossing_census(self):
        # no nonidentity coset crosses the first axis
        p = holonomy(1.0)
        for kind in ("AA", "AB"):
            for word in enumerate_cosets(kind, 5):
                assert not u_of_coset(p, word).crossing

    def test_far_cosets_refused_with_value_error(self):
        # at t = 0.05 the B powers reach entries near 1e9, where a d - b c
        # cancels to 0; compose_many names the lost determinant instead of
        # dividing by it, and every refusal is a ValueError
        p = holonomy(0.05)
        lost = []
        for L in range(1, 6):
            for word in enumerate_cosets("AA", L):
                try:
                    u_of_coset(p, word)
                except ValueError as exc:
                    if "lost its determinant" in str(exc):
                        lost.append(str(word))
        assert lost == ["BBBBB", "bbbbb"]

    def test_square_symmetry(self):
        # at the square point, swapping the two curves permutes the
        # AA geometry onto the B-axis version of itself
        p = holonomy(T0)
        table = (p.A, p.A.inverse(), p.B, p.B.inverse())
        swap = {0: 2, 1: 3, 2: 0, 3: 1}
        b_axis = GeodesicH2(-1.0, 1.0)
        original = []
        swapped = []
        for word in enumerate_cosets("AA", 4):
            original.append(u_of_coset(p, word).value)
            m = compose_many(table[swap[l]] for l in word.letters)
            swapped.append(u_value(b_axis, translate_geodesic(m, b_axis)).value)
        for a, b in zip(sorted(original), sorted(swapped)):
            assert math.isclose(a, b, rel_tol=1e-9)


def _canonical_word(first: int, steps: list[int]) -> CosetWord:
    # step k appends the k-th letter, in order, that does not cancel the last
    letters = [first]
    for k in steps:
        letters.append([l for l in range(4) if l != (1, 0, 3, 2)[letters[-1]]][k])
    return CosetWord(tuple(letters), "AA" if letters[-1] >= 2 else "AB")


class TestOracleTotality:
    """holonomy, CosetWord, enumerate_cosets and u_of_coset over their
    whole domains: a documented value or ValueError (TypeError for a word
    length that is not an int)."""

    @given(t=st.floats())
    @settings(max_examples=300)
    def test_holonomy_total_over_every_float(self, t):
        # dense scans found every t from about 3.03e-5 to 1419.565
        # accepted; asserted on [3.1e-5, 1419.5] (see the holonomy docstring)
        try:
            p = holonomy(t)
        except ValueError:
            assert not 3.1e-5 <= t <= 1419.5
            return
        assert 0.0 < t < 1419.57 and p.t == t and math.isfinite(p.s) and p.s > 0.0

    @pytest.mark.parametrize(
        "t, message",
        [(1e-8, "determinant 0.0 is not 1"), (1e-200, "determinant nan"), (1421.0, "determinant nan")],
    )
    def test_holonomy_refusals(self, t, message):
        with pytest.raises(ValueError, match=message):
            holonomy(t)

    def test_holonomy_on_a_log_grid(self):
        # from 3.1e-5, since B's own determinant check refuses some t up
        # to about 3.02e-5; 1e-3 and 1419.0 lie near both ends
        for t in np.geomspace(3.1e-5, 1419.5, 2000).tolist() + [1e-3, 1419.0]:
            p = holonomy(t)
            assert p.t == t and 0.0 < p.s < math.inf

    def test_swapped_generators_are_refused(self):
        # tr [B, A] = tr [A, B] = -2, but the first generator must be the
        # diagonal one of length t
        good = holonomy(1.0)
        with pytest.raises(ValueError, match="A must be diag"):
            RectTorusPoint(t=1.0, s=good.s, A=good.B, B=good.A)

    @given(
        kind=st.one_of(st.sampled_from(["AA", "AB"]), st.text(max_size=3)),
        length=st.one_of(
            st.integers(max_value=5),
            st.integers(min_value=MAX_WORD_LENGTH + 1),
            st.booleans(),
            st.floats(),
        ),
    )
    @settings(max_examples=200)
    # an AB word starts with a B letter and ends with an A letter
    @example(kind="AB", length=1)
    @example(kind="AA", length=0)
    def test_enumerate_cosets_total(self, kind, length):
        # lengths 6..MAX_WORD_LENGTH are valid too, but 3^14 words are
        # too many for a draw
        valid_length = isinstance(length, int) and not isinstance(length, bool)
        try:
            words = enumerate_cosets(kind, length)
        except TypeError:
            assert kind in ("AA", "AB") and not valid_length
            return
        except ValueError:
            assert kind not in ("AA", "AB") or (valid_length and not 0 <= length <= MAX_WORD_LENGTH)
            return
        assert valid_length and 0 <= length <= 5
        # empty exactly at length 0 and for enumerate_cosets("AB", 1)
        shortest = 2 if kind == "AB" else 1
        assert bool(words) == (length >= shortest)
        assert all(w.kind == kind and shortest <= len(w.letters) <= length for w in words)

    @given(
        # as lists too: a word keeps any sequence of letters as a tuple
        letters=st.lists(st.one_of(st.integers(-2, 6), st.floats(), st.booleans()), max_size=6).flatmap(
            lambda ls: st.sampled_from([ls, tuple(ls)])
        ),
        kind=st.one_of(st.sampled_from(["AA", "AB"]), st.text(max_size=3)),
    )
    @settings(max_examples=300)
    @example(letters=(4, 2), kind="AA")  # past the inverse table
    @example(letters=(2.0, 0), kind="AB")  # not an int
    @example(letters=(True, 2), kind="AA")  # a bool, not the letter 1
    @example(letters=(2, True), kind="AB")
    @example(letters=[2], kind="AA")  # a list of letters
    def test_coset_word_total(self, letters, kind):
        try:
            word = CosetWord(letters, kind)
        except ValueError:
            return
        assert kind in ("AA", "AB") and all(type(l) is int and 0 <= l <= 3 for l in letters)
        assert str(word) == ("".join("AaBb"[l] for l in letters) or "e")
        twin = CosetWord(tuple(letters), kind)
        assert word == twin and hash(word) == hash(twin)

    @given(
        t=st.floats(min_value=5e-3, max_value=1418.0),
        first=st.sampled_from([2, 3]),
        steps=st.lists(st.integers(min_value=0, max_value=2), max_size=7),
    )
    @settings(max_examples=300)
    def test_u_of_coset_total(self, t, first, steps):
        # canonical cosets of up to 8 letters; the identity crosses at u = 0
        p = holonomy(t)
        identity = u_of_coset(p, identity_coset())
        assert identity.crossing and identity.value == 0.0
        try:
            u = u_of_coset(p, _canonical_word(first, steps))
        except ValueError:
            return
        assert isinstance(u, UValue) and not u.crossing and 1.0 < u.value < math.inf

    def test_u_of_coset_refusal_from_about_38_8(self):
        # the chain word B: u = cosh(s) rounds to 1 once s is small enough
        B = CosetWord((2,), "AA")
        assert u_of_coset(holonomy(38.8), B).value > 1.0
        with pytest.raises(ValueError, match="tangent pair"):
            u_of_coset(holonomy(38.9), B)


class TestGradBracket:
    def test_level_zero_analytic(self):
        t = 1.3
        br = grad_sq_bracket(t, 0)
        assert br.lo == (2.0 / math.pi) * t
        assert br.hi == (4.0 / math.pi) * math.sinh(0.5 * t)

    def test_frozen_length_one(self):
        br = grad_sq_bracket(1.0, 8)
        assert math.isclose(br.lo, 0.650705003195924, abs_tol=1e-12)
        assert math.isclose(br.hi, 0.6509377388487443, abs_tol=1e-12)

    def test_nesting_in_word_length(self):
        t = 1.0
        brs = [grad_sq_bracket(t, L) for L in (0, 2, 4, 6)]
        for prev, nxt in zip(brs, brs[1:]):
            assert nxt.lo >= prev.lo
            assert nxt.hi <= prev.hi
            assert nxt.width < prev.width

    def test_universal_floors(self):
        for t in (0.2, 1.0, T0, 4.0):
            br = grad_sq_bracket(t, 4)
            assert br.lo >= (2.0 / math.pi) * t
            assert br.hi <= (4.0 / math.pi) * math.sinh(0.5 * t)

    def test_square_point_upper(self):
        assert grad_sq_bracket(T0, 4).hi < 4.0 / math.pi

    def test_kernel_against_oracle(self):
        # the grouped numpy kernel against u_of_coset and riera_R, word by word
        for t in (0.05, 0.5, 1.0, T0, 4.0):
            p = holonomy(t)
            for L in range(6):
                (s_aa,), (s_ab,), pruned = _coset_sums([t], L)
                sums = {"AA": 0.0, "AB": 0.0}
                cut = 0
                for kind in sums:
                    for word in enumerate_cosets(kind, L) if L else ():
                        try:
                            u = u_of_coset(p, word)
                        except ValueError:
                            # hyp2 refuses the product once its determinant
                            # cancels (t = 0.05 only); evaluate it exactly
                            u = UValue(_exact_u(p, word), False)
                        if u.value >= PRUNE_U:
                            cut += 1
                        else:
                            sums[kind] += riera_R(u)
                assert pruned == cut
                assert math.isclose(t + s_aa, t + sums["AA"], rel_tol=1e-12)
                assert math.isclose(2.0 - s_ab, 2.0 - sums["AB"], rel_tol=1e-12)

    def test_budget_keys(self):
        br = grad_sq_bracket(1.0, 6)
        assert set(br.error_budget) == {"pruned_terms", "pruned_kernel_bound"}

    @given(
        t=st.floats(min_value=0.0, max_value=1e308, exclude_min=True),
        L=st.integers(min_value=0, max_value=6),
    )
    @settings(max_examples=300)
    def test_total_over_positive_floats(self, t, L):
        # a bracket, its upper end possibly inf; RuntimeWarnings are errors
        br = grad_sq_bracket(t, L)
        assert math.isfinite(br.lo) and 0.0 < br.lo <= br.hi

    @pytest.mark.parametrize(
        "t, L",
        [
            (1.0131311941731873e-07, 2),
            (1.8075158291944812e-07, 4),
            (4.859171052867774e-07, 8),
            (4.500054144738812e-08, 10),
        ],
    )
    def test_tiny_lengths_once_crossed(self, t, L):
        # kernel rounding crossed the summed ends here; below _FLAT_T
        # the word length 0 bracket is returned
        assert grad_sq_bracket(t, L) == grad_sq_bracket(t, 0)

    @pytest.mark.parametrize("L", [2, 4, 10])
    def test_total_on_a_tiny_log_grid(self, L):
        for t in np.logspace(-9.0, -5.0, 161):
            br = grad_sq_bracket(float(t), L)
            assert br.lo <= br.hi

    def test_extreme_lengths(self):
        tiny = grad_sq_bracket(5e-324, 4)
        assert tiny.lo == tiny.hi == 5e-324
        assert grad_sq_bracket(1e-300, 4).hi == (2.0 / math.pi) * 1e-300
        huge = grad_sq_bracket(1500.0, 4)
        assert huge.hi == math.inf and huge.lo >= (2.0 / math.pi) * 1500.0
        assert grad_sq_bracket(1419.0, 4).hi < math.inf

    def test_chain_rounded_to_one_is_pruned(self):
        # Above t ~ 38.8 the chain's u = cosh(s) rounds to 1. Its term is
        # pruned, not read as a crossing (689.5 instead of about 36.6), so
        # the lower end stays under the exact length 1 partial value.
        t = 40.0
        with mp.workdps(50):
            u = mp.cosh(2 * mp.asinh(1 / mp.sinh(mp.mpf(t) / 2)))
            exact = float(2 / mp.pi * (t + 2 * (u * mp.log((u + 1) / (u - 1)) - 2)))
        br = grad_sq_bracket(t, 1)
        assert br.lo <= exact
        assert br.lo == (2.0 / math.pi) * t
        assert br.error_budget["pruned_terms"] == 2.0

    def test_validation(self):
        with pytest.raises(ValueError):
            grad_sq_bracket(0.0, 4)
        with pytest.raises(ValueError):
            grad_sq_bracket(1.0, -1)
        with pytest.raises(TypeError):
            grad_sq_bracket(1.0, True)
        with pytest.raises(ValueError):
            grad_sq_bracket(1.0, MAX_WORD_LENGTH + 1)


# grad_sq_upper_single's 32-ulp accuracy contract, as a relative pad.
_ENVELOPE_PAD = 1.0 + 32 * 2.0**-52

# ROADMAP D8: the points of np.logspace(-6, -1, 2000) where the lower end
# at L = 8 exceeds Wolpert's bound by more than the pad, by 970 to 8407
# ulp, and by as much at L = 1. The chain term u log1p(2 / (u - 1)) - 2 of
# B and B^-1, at u = 1 + 2 / sinh(t/2)^2 just under PRUNE_U, cancels there.
_WOLPERT_MISSES = [
    0.0002859091892859722,
    0.0002925722398530119,
    0.0002993905713432353,
    0.000311707228314113,
    0.00031350763657888024,
    0.0003153184439285111,
    0.00031713971042769657,
    0.00033018655090652813,
    0.00033209369498651126,
    0.0003359410935318217,
    0.0003417959272220763,
    0.0003477527998655898,
    0.0003517816135303143,
]


class TestWolpertBound:
    """Wolpert's effective bound (2t/pi)(1 + F(t, t)) over the exact
    squared gradient's lower end on the square family."""

    @pytest.mark.parametrize("L", [1, 8])
    def test_lower_end_under_the_bound(self, L):
        # everywhere on the grid but the recorded misses, which are
        # asserted as they stand; a kernel rounding budget flips them
        grid = np.logspace(-6.0, math.log10(5.0), 200).tolist() + [T0] + _WOLPERT_MISSES
        over = [t for t in grid if grad_sq_bracket(t, L).lo > grad_sq_upper_single(t) * _ENVELOPE_PAD]
        assert over == _WOLPERT_MISSES

    def test_first_miss_is_kernel_rounding(self):
        # the 50-digit length 1 partial value is under the bound, and the
        # computed lower end 2.6e-12 relative above it
        t = _WOLPERT_MISSES[0]
        with mp.workdps(50):
            u = 1 + 2 / mp.sinh(mp.mpf(t) / 2) ** 2
            exact = 2 / mp.pi * (t + 2 * (u * mp.log1p(2 / (u - 1)) - 2))
            lo = grad_sq_bracket(t, 1).lo
            assert exact <= grad_sq_upper_single(t) < lo
            assert 2.5e-12 < (lo - exact) / exact < 2.7e-12


class TestDistanceBracket:
    @given(L=st.integers(min_value=0, max_value=3), quad_tol=st.floats())
    @settings(max_examples=100)
    def test_total_over_every_quad_tol(self, L, quad_tol):
        # ValueError unless quad_tol is finite and halves to a positive
        # float; ConvergenceError only below what the quadrature reaches,
        # about 1e-13 from L = 1 on
        try:
            br = delta11_bracket(L, quad_tol)
        except ValueError:
            assert not 1e-323 <= quad_tol < math.inf
            return
        except ConvergenceError:
            assert quad_tol < 1e-12
            return
        assert 6.57 < br.lo <= 6.6042 <= br.hi < 6.66

    def test_level_zero_frozen(self):
        br = delta11_bracket(0, 1e-9)
        assert math.isclose(br.lo, 6.572523603041586, abs_tol=5e-10)
        assert math.isclose(br.hi, 6.656024983184699, abs_tol=5e-10)

    def test_level_zero_digits(self):
        br = delta11_bracket(0, 1e-9)
        assert f"{br.lo:.13f}"[:7] == "6.57252"
        assert f"{math.floor(br.hi * 1e5) / 1e5 + 1e-5:.5f}" == "6.65603"

    def test_refined_frozen(self):
        br = delta11_bracket(8, 1e-6)
        assert math.isclose(br.lo, 6.603960552668015, abs_tol=1e-9)
        assert math.isclose(br.hi, 6.604620951235697, abs_tol=1e-9)
        assert br.width < 0.0007

    def test_refined_pruned_count(self):
        assert delta11_bracket(8, 1e-6).error_budget["pruned_terms"] == 69548

    def test_nesting_in_word_length(self):
        brs = [delta11_bracket(L, 1e-7) for L in (0, 2, 4)]
        for prev, nxt in zip(brs, brs[1:]):
            assert prev.lo <= nxt.lo <= nxt.hi <= prev.hi
            assert nxt.width < prev.width

    def test_refined_inside_elementary(self):
        outer = delta11_bracket(0, 1e-9)
        inner = delta11_bracket(6, 1e-7)
        assert outer.lo - 1e-5 <= inner.lo and inner.hi <= outer.hi + 1e-5

    def test_budget_keys(self):
        br = delta11_bracket(2, 1e-6)
        assert set(br.error_budget) == {
            "truncation",
            "quadrature",
            "pruned_terms",
            "pruned_kernel_bound",
            "evals",
        }

    @pytest.mark.parametrize("L", [0, 4, 8])
    def test_budget_adds_up_to_width(self, L):
        br = delta11_bracket(L, 1e-6)
        parts = br.error_budget["truncation"] + br.error_budget["quadrature"]
        assert math.isclose(parts, br.width, rel_tol=0.0, abs_tol=1e-14)

    def test_one_kernel_call_per_announcement(self, monkeypatch):
        calls: list[list[float]] = []
        announced: list[list[float]] = []
        read: set[float] = set()
        kernel = toruscoset._coset_sums
        simpson = toruscoset.adaptive_simpson

        def counted(ts, maxlen):
            calls.append(list(ts))
            return kernel(ts, maxlen)

        def watched(f, *args, prefetch, **kwargs):
            def g(y):
                if y != 0.0:
                    read.add(y * y)
                return f(y)

            def announce(ys):
                announced.append(list(ys))
                prefetch(ys)

            return simpson(g, *args, prefetch=announce, **kwargs)

        monkeypatch.setattr(toruscoset, "_coset_sums", counted)
        monkeypatch.setattr(toruscoset, "adaptive_simpson", watched)
        delta11_bracket(10, 1e-8)
        # Each kernel call takes the t = y^2 of one announcement that no
        # earlier one held, from _FLAT_T on, in the order announced.
        seen: set[float] = set()
        want = []
        for ys in announced:
            ts = [t for t in dict.fromkeys(y * y for y in ys if y != 0.0) if t not in seen]
            seen.update(ts)
            if any(t >= toruscoset._FLAT_T for t in ts):
                want.append([t for t in ts if t >= toruscoset._FLAT_T])
        assert calls == want
        assert all(1 <= len(ts) <= 16 for ts in calls)
        nodes = [t for ts in calls for t in ts]
        assert len(set(nodes)) == len(nodes)  # no t computed twice
        assert set(nodes) == read  # the nodes summed are the nodes read

    def test_validation(self):
        with pytest.raises(ValueError):
            delta11_bracket(-1)
        with pytest.raises(TypeError):
            delta11_bracket(True)
        with pytest.raises(ValueError):
            delta11_bracket(2, 0.0)
        with pytest.raises(ValueError):
            delta11_bracket(2, math.nan)

    def test_word_length_cap(self):
        # refused before any allocation; the cap itself is never run here
        with pytest.raises(ValueError):
            delta11_bracket(MAX_WORD_LENGTH + 1)
