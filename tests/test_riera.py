"""Kernel R(u), the series a_hat, and the collar profile a(T)."""

from __future__ import annotations

import math

import numpy as np
import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wpstrata import riera
from wpstrata.hyp2 import UValue
from wpstrata.riera import (
    _MAX_TERMS,
    SeriesEval,
    a_hat,
    a_of_T,
    a_stable,
    riera_R,
)

EIGHT_THIRDS = 8.0 / 3.0

# Every float, NaN and the infinities included.
_ANY = st.floats()


def _a_hat_within_cap(u: float, tol: float = 1e-14) -> SeriesEval | None:
    """a_hat(u, tol), or None where it raises for its term cap, which
    must be exactly where the oracle's uncapped count exceeds the cap."""
    x = u * u
    if x > 0.0 and oracles.count_steps(x, tol)[2] > _MAX_TERMS:
        with pytest.raises(RuntimeError, match="term cap"):
            a_hat(u, tol)
        return None
    ev = a_hat(u, tol)
    assert ev.terms_used <= _MAX_TERMS
    return ev


class TestKernel:
    def test_orthogonal_value(self):
        assert riera_R(UValue(0.0, crossing=True)) == -2.0

    def test_u_three(self):
        got = riera_R(UValue(3.0, crossing=False))
        assert math.isclose(got, 3.0 * math.log(2.0) - 2.0, abs_tol=1e-15)

    def test_cosh_ten_pinch(self):
        # R(cosh m) = e^{-2m} a(m) sits inside the collar profile pinch;
        # the pinch width 8.5e-18 is finer than the float evaluation, so
        # allow one rounding cushion
        got = riera_R(UValue(math.cosh(10.0), crossing=False))
        scale = math.exp(-20.0)
        lo = EIGHT_THIRDS * scale
        hi = (EIGHT_THIRDS - 2.0 * math.log1p(-scale)) * scale
        assert lo - 1e-15 <= got <= hi + 1e-15

    def test_positive_disjoint(self):
        for u in np.logspace(math.log10(1.0 + 1e-6), 6.0, 150):
            assert riera_R(UValue(float(u), crossing=False)) > 0.0

    def test_crossing_sign_change(self):
        # monotone from -2 at a right angle, through zero near u = 0.83
        vals = [riera_R(UValue(u, crossing=True)) for u in (0.0, 0.2, 0.5, 0.8)]
        assert vals == sorted(vals)
        assert all(v < 0.0 for v in vals)
        assert riera_R(UValue(0.9, crossing=True)) > 0.0

    def test_large_u_branch_seam(self):
        # the direct formula cancels to noise at the cut; the seam is
        # only continuous in absolute terms, which is all the uses need
        below = riera_R(UValue(1e8 * (1.0 - 1e-9), crossing=False))
        above = riera_R(UValue(1e8 * (1.0 + 1e-9), crossing=False))
        assert abs(below - above) < 1e-15

    def test_asymptotic_branch_oracle(self):
        mp = pytest.importorskip("mpmath")
        with mp.workdps(50):
            u = mp.mpf(10) ** 8
            exact = float(u * mp.log((u + 1) / (u - 1)) - 2)
        got = riera_R(UValue(1e8, crossing=False))
        assert math.isclose(got, exact, rel_tol=1e-12)

    def test_large_u_asymptote(self):
        u = 1e10
        assert math.isclose(
            riera_R(UValue(u, crossing=False)), 2.0 / (3.0 * u * u), rel_tol=1e-6
        )

    def test_tangent_value_rejected(self):
        with pytest.raises(ValueError):
            UValue(1.0, crossing=False)


class TestAHat:
    def test_at_zero(self):
        ev = a_hat(0.0)
        assert ev.value == EIGHT_THIRDS
        assert ev.tail_bound == 0.0
        assert ev.terms_used == 1

    def test_first_coefficient(self):
        # a_hat(u) - 8/3 = (16/15) u^2 + O(u^4)
        u = 1e-3
        lead = (a_hat(u).value - EIGHT_THIRDS) / (u * u)
        assert math.isclose(lead, 16.0 / 15.0, rel_tol=1e-5)

    def test_kernel_identity_at_half(self):
        # a_hat(u) = u^{-2} R((u + 1/u)/2)
        target = riera_R(UValue(1.25, crossing=False)) / 0.25
        ev = a_hat(0.5)
        assert abs(ev.value - target) <= 1e-12

    @pytest.mark.parametrize("u", [0.1, 0.3, 0.5, 0.8, 0.95])
    def test_kernel_identity_bracket(self, u):
        target = riera_R(UValue(0.5 * (u + 1.0 / u), crossing=False)) / (u * u)
        assert math.isclose(a_stable(-math.log(u)), target, rel_tol=1e-12)
        ev = _a_hat_within_cap(u)
        if ev is None:  # u = 0.95 is over the term cap
            assert u > 0.89
            return
        assert ev.value - 1e-12 <= target <= ev.value + ev.tail_bound + 1e-12

    def test_domain_rejection(self):
        with pytest.raises(ValueError):
            a_hat(1.0)
        with pytest.raises(ValueError):
            a_hat(-0.1)

    def test_tiny_argument_underflow(self):
        ev = a_hat(1e-200)
        assert ev.value == EIGHT_THIRDS
        assert ev.tail_bound == 0.0

    @pytest.mark.parametrize("T", [1e-6, 2e-6, 5e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 0.5, 5.0])
    def test_enclosure_against_mpmath(self, T):
        # the exact sum at x is 2A + 2(A - 1)/x with A = artanh(sqrt x)/sqrt x.
        # a_hat sums at x = fl(u^2), and is over its term cap up to T = 0.1;
        # a_stable's closed form takes T back as -log(u), so x = u^2 exactly
        mp = pytest.importorskip("mpmath")
        u = math.exp(-T)

        def exact(x):
            A = mp.atanh(mp.sqrt(x)) / mp.sqrt(x)
            return 2 * A + 2 * (A - 1) / x

        with mp.workdps(50):
            closed = exact(mp.fmul(u, u, exact=True))
            assert abs(a_stable(T) - closed) <= 2e-15 * closed
            ev = _a_hat_within_cap(u)
            if ev is None:
                assert T <= 0.1
                return
            series = exact(mp.mpf(u * u))
            slack = 2e-15 * series
            assert ev.value - slack <= series <= ev.value + ev.tail_bound + slack

    @given(u=st.floats(min_value=0.0, max_value=0.98))
    @settings(deadline=None)
    def test_tail_bound_is_sound(self, u):
        coarse = _a_hat_within_cap(u, tol=1e-6)
        fine = _a_hat_within_cap(u, tol=1e-14)
        if fine is None:  # over the cap from about u = 0.8906, coarse from 0.9539
            assert u > 0.89 and (coarse is not None or u > 0.95)
            return
        # truth lies above every partial sum and under value + tail
        assert coarse.value <= fine.value + 1e-15
        assert fine.value <= coarse.value + coarse.tail_bound + 1e-15

    @given(u=st.floats(min_value=0.0, max_value=0.98))
    @settings(deadline=None)
    def test_returns_series_eval(self, u):
        ev = _a_hat_within_cap(u)
        if ev is None:
            assert u > 0.89
            return
        assert isinstance(ev, SeriesEval)
        assert ev.tail_bound >= 0.0
        assert ev.terms_used >= 1
        assert ev.value >= EIGHT_THIRDS - 1e-15

    def test_series_eval_fields_are_read_only(self):
        ev = a_hat(0.3)
        assert ev._fields == ("value", "tail_bound", "terms_used")
        with pytest.raises(AttributeError):
            ev.value = 0.0


class TestCollarProfile:
    def test_pinch_and_monotone(self):
        # a_of_T over the range its term cap admits
        for fn, T_min in ((a_stable, 1e-6), (a_of_T, 0.12)):
            prev = math.inf
            for T in np.logspace(math.log10(T_min), math.log10(50.0), 60).tolist():
                v = fn(T)
                hi = EIGHT_THIRDS - 2.0 * math.log1p(-math.exp(-2.0 * T))
                assert EIGHT_THIRDS <= v <= hi + 1e-12
                assert v <= prev
                prev = v

    def test_limit_value(self):
        assert math.isclose(a_of_T(40.0), EIGHT_THIRDS, rel_tol=1e-15)

    def test_explicit_ordering(self):
        assert a_of_T(1.0) > a_of_T(2.0) > a_of_T(3.0) > EIGHT_THIRDS

    def test_stable_matches_series_across_switch(self):
        # closed form below the switch, series above; both must agree
        for T in (0.3, 0.45, 0.5, 0.51, 0.52, 0.7, 1.0):
            assert math.isclose(a_stable(T), a_of_T(T), rel_tol=1e-13)
        # down to the bottom of the verify grid, where the series is over
        # the term cap, the closed form against itself in 50 digits at T;
        # rounding u = e^-T and the -log(e^-T) round trip in a_stable
        # leave about 1e-12
        mp = pytest.importorskip("mpmath")
        with mp.workdps(50):
            for T in (1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1):
                t = mp.mpf(T)
                exact = mp.exp(2 * t) * (2 * mp.cosh(t) * mp.log(mp.coth(t / 2)) - 2)
                assert math.isclose(a_stable(T), float(exact), rel_tol=1e-11)

    def test_term_cap_raises_before_summing(self, monkeypatch):
        # T = 0.11 needs more than 128 terms, u = 0.9 needs 152
        def summed(*args):
            raise AssertionError("summed over the cap")

        monkeypatch.setattr(riera, "_series", summed)
        with pytest.raises(RuntimeError, match="term cap"):
            a_of_T(0.11)
        with pytest.raises(RuntimeError, match="term cap"):
            a_hat(0.9)
        with pytest.raises(RuntimeError, match="term cap"):
            a_hat(math.nextafter(1.0, 0.0))

    def test_domain(self):
        with pytest.raises(ValueError):
            a_of_T(0.0)
        with pytest.raises(ValueError):
            a_of_T(-1.0)


class TestSeriesArgumentAtOne:
    """Where e^-T rounds to 1 the closed form takes T itself,
    a(T) = 2 log(2 / T) - 2 to double precision."""

    @pytest.mark.parametrize("T", [1e-17, 5.5e-17])
    def test_a_stable_below_the_rounding_of_e_minus_t(self, T):
        assert math.exp(-T) == 1.0
        assert math.isclose(a_stable(T), 2.0 * math.log(2.0 / T) - 2.0, rel_tol=1e-14)

    def test_a_stable_where_t_halves_to_zero(self):
        assert a_stable(5e-324) == math.inf

    @pytest.mark.parametrize("fn", [a_stable, a_of_T])
    def test_nan_rejected(self, fn):
        with pytest.raises(ValueError):
            fn(math.nan)


class TestTotality:
    """Each public function returns a finite value or its documented inf,
    or raises ValueError."""

    @given(u=st.one_of(_ANY, st.floats(min_value=0.0, max_value=0.999)), tol=_ANY)
    @settings(deadline=None, max_examples=150)
    def test_a_hat(self, u, tol):
        try:
            ev = a_hat(u, tol)
        except ValueError:
            assert not (0.0 <= u < 1.0 and tol > 0.0)
            return
        except RuntimeError as e:
            # the documented term cap, exactly where the count exceeds it
            assert "term cap" in str(e) and oracles.count_steps(u * u, tol)[2] > _MAX_TERMS
            return
        assert math.isfinite(ev.value) and ev.value >= EIGHT_THIRDS
        assert 0.0 <= ev.tail_bound <= max(tol, 2.0) and 1 <= ev.terms_used <= _MAX_TERMS
        assert u * u == 0.0 or ev.terms_used == oracles.count_steps(u * u, tol)[2]

    @given(T=st.one_of(st.floats(min_value=1e-6), st.floats(max_value=0.0), st.just(math.nan)))
    @settings(deadline=None, max_examples=30)
    def test_a_of_T(self, T):
        try:
            v = a_of_T(T)
        except ValueError:
            assert not T > 0.0
            return
        except RuntimeError as e:
            # over the term cap: T below about 0.1158
            u = math.exp(-T)
            assert "term cap" in str(e) and oracles.count_steps(u * u)[2] > _MAX_TERMS
            return
        assert math.isfinite(v) and v >= EIGHT_THIRDS

    @given(T=_ANY)
    @settings(deadline=None, max_examples=300)
    def test_a_stable(self, T):
        try:
            v = a_stable(T)
        except ValueError:
            assert not T > 0.0
            return
        # inf once coth(T/2) overflows
        assert v >= EIGHT_THIRDS and (math.isfinite(v) or T < 1.2e-308)

    @given(x=_ANY, crossing=st.booleans())
    @settings(deadline=None, max_examples=300)
    def test_riera_R(self, x, crossing):
        try:
            u = UValue(x, crossing)
        except ValueError:
            return
        v = riera_R(u)
        assert math.isfinite(v) and v >= -2.0
