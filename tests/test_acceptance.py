"""Acceptance battery: one test per headline claim, at stated tolerances.

Each test prints a single pass/fail line under pytest -v. Published
bounds are read outward: a lower end truncates to the published decimal
and an upper end rounds up to it. Where a published decimal does not
survive recomputation (two of the point-pushing floors, the comparison
value), the test asserts the disagreement as it stands: the computed
value against an independent oracle, and the mismatch status that the
constants table reports for it. The thin threshold's two readings, the
fitted EPS2 and the collar identity value arcsinh 1, are asserted the
same way.
"""

from __future__ import annotations

import math
import time
from decimal import ROUND_HALF_EVEN, Decimal

import pytest

from wpstrata import cli
from wpstrata.cli import _ALL_CHECKS, _ceil_str, _trunc_str, compute_constant_records
from wpstrata.gradbounds import EPS2
from wpstrata.integrals import (
    V3,
    W1,
    W1_LENGTH,
    W2,
    W2_LENGTH,
    integral_H,
    pa_translation_bounds,
    thin_pair_sum,
)
from wpstrata.toruscoset import delta11_bracket


def test_c1_elementary_interval_digits():
    """Word-length-zero interval reproduces the published pair of decimals."""
    br = delta11_bracket(0, 1e-9)
    closed_hi = 4.0 * math.sqrt(math.pi * math.asinh(1.0))
    assert abs(br.hi - closed_hi) < 1e-8
    assert _trunc_str(br.lo) == "6.57252"
    # the published upper end is the outward ceiling of the closed form
    assert _ceil_str(br.hi) == "6.65603"
    assert br.hi <= 6.65603


def test_c2_refined_bracket_inside_published_window():
    """Length-8 refinement lands in the published window, quickly."""
    start = time.perf_counter()
    br = delta11_bracket(8, 1e-6)
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    assert br.lo >= 6.59576 - 2e-5
    assert br.hi <= 6.63283 + 2e-5
    assert br.width <= 0.04


def test_c3_separation_route_values():
    """Thin-pair sum, both separating routes, and the scaled intervals."""
    pair = thin_pair_sum(1e-8)
    assert pair.lo >= 7.61138
    assert _trunc_str(pair.midpoint) == "7.61138"
    assert W1(W1_LENGTH, 1e-8).lo >= 10.76596
    assert W2(W2_LENGTH, 1e-8).lo >= 10.09656
    elementary = delta11_bracket(0, 1e-9)
    delta04 = elementary.scaled(math.sqrt(2.0))
    assert _trunc_str(delta04.lo) == "9.29495"
    assert _ceil_str(delta04.hi) == "9.41305"
    assert elementary.scaled(2.0).lo > 13.145


def test_c4_route_gaps_positive():
    """Certified gaps between exact and general routes stay positive."""
    by_name = {r.name: r for r in compute_constant_records(1e-8)}
    assert by_name["gap_genus"].lo >= 0.95535
    assert by_name["gap_sphere"].lo >= 0.68351


def test_c5_auxiliary_decimals():
    """Threshold integrals, the Lipschitz value, and the ratio floor."""
    h2 = integral_H(0.0, 2.0 * EPS2, "plain", 1e-8)
    assert _trunc_str(h2.midpoint) == "3.27466"
    hs4 = integral_H(0.0, 4.0 * EPS2, "separating", 1e-8)
    assert _trunc_str(hs4.midpoint) == "4.63108"
    assert _trunc_str(cli._lipschitz()) == "2.00423"
    assert cli._c_min(1e-8) >= 0.94


def _plain_h_oracle(a: float, b: float) -> tuple[float, float]:
    """H(a, b) for the "plain" envelope by scipy QUADPACK, as (value, abserr).

    The envelope F_pair(t, t) is written out from its closed form: the
    collar profile (2 (1 + u^2) artanh(u) / u - 2) / u^2 at
    u = tanh^2(t/4), times the decay factors (2c + 1) / (3 (c + 1)^2) and
    1 / (arctan(1/s) c^2 + s), times s^3, with s, c = sinh(t/2), cosh(t/2).
    """
    quad = pytest.importorskip("scipy.integrate").quad

    def integrand(y: float) -> float:
        t = y * y
        u = math.tanh(0.25 * t) ** 2
        profile = (2.0 * (1.0 + u * u) * math.atanh(u) / u - 2.0) / (u * u)
        s, c = math.sinh(0.5 * t), math.cosh(0.5 * t)
        envelope = profile * (2.0 * c + 1.0) / (3.0 * (c + 1.0) ** 2)
        envelope *= s**3 / (math.atan(1.0 / s) * c * c + s)
        return math.sqrt(2.0 * math.pi) / math.sqrt(1.0 + envelope)

    return quad(integrand, math.sqrt(a), math.sqrt(b), epsabs=1e-13, epsrel=1e-13)


def test_c6_point_pushing_floors():
    """Point-pushing floors: the general floor 0.78474 reproduces, while
    the case floors 1.06205 and 1.56949 lie above the true values of
    H(2 EPS2, 4 EPS2) = 1.0620466... and H(2 EPS2, 6 EPS2) = 1.5694843...

    Each certified case floor must match the oracle from below, and each
    published one must overshoot it by less than one final digit and be
    reported as a mismatch.
    """
    tol = 1e-8
    pa = pa_translation_bounds(tol)
    assert pa.general >= 0.78474
    cases = (
        ("pa_case_i2", pa.case_i2, 4.0, "1.06205"),
        ("pa_case_i1", pa.case_i1, 6.0, "1.56949"),
    )
    records = {r.name: r for r in compute_constant_records()}
    for name, floor, k, paper in cases:
        want, err = _plain_h_oracle(2.0 * EPS2, k * EPS2)
        assert want - tol <= floor <= want + err
        assert want < float(paper) < want + 1e-5
        assert records[name].paper == paper
        assert records[name].status == "mismatch"
    assert records["pa_general"].paper == "0.78474"
    assert records["pa_general"].status == "reproduced"


@pytest.mark.parametrize("check", [fn for _, fn in _ALL_CHECKS], ids=[n for n, _ in _ALL_CHECKS])
def test_c7_invariant_battery(check):
    """Every check of `verify all`: group actions, enumeration, nesting,
    grids, and the published decimals they read."""
    check()


def test_c8_comparison_value_documented():
    """Both decimals of the disputed comparison value are recorded."""
    records = {r.name: r for r in compute_constant_records()}
    rec = records["brock_bromberg_11"]
    assert rec.paper == ".53724"
    want = 4.0 * V3 / (3.0 * math.sqrt(2.0 * math.pi))
    assert math.isclose(rec.lo, want, rel_tol=1e-12)
    # the computed decimal genuinely differs; the record must say so
    assert _trunc_str(rec.lo).lstrip("0") != rec.paper
    assert rec.status == "mismatch"


def _threshold_records(eps: float, tol: float = 1e-8) -> dict[str, tuple[float, float]]:
    """The seven records that depend on the thin threshold, as (lo, hi),
    built as `constants` builds them but at threshold eps."""
    pair = integral_H(0.0, 4.0 * eps, "plain", 0.5 * tol) + integral_H(0.0, 2.0 * eps, "plain", 0.5 * tol)
    h2 = integral_H(0.0, 2.0 * eps, "plain", tol)
    hs4 = integral_H(0.0, 4.0 * eps, "separating", tol)
    gap = pair.lo - delta11_bracket(0, 1e-9).hi
    case_i2 = integral_H(2.0 * eps, 4.0 * eps, "plain", tol).lo
    case_i1 = integral_H(2.0 * eps, 6.0 * eps, "plain", tol).lo
    return {
        "hsum_thin_pair": (pair.lo, pair.hi),
        "h_0_2eps2": (h2.lo, h2.hi),
        "hs_0_4eps2": (hs4.lo, hs4.hi),
        "gap_genus": (gap, gap),
        "pa_case_i2": (case_i2, case_i2),
        "pa_case_i1": (case_i1, case_i1),
        "pa_general": (0.5 * case_i1, 0.5 * case_i1),
    }


def _nearest_str(x: float) -> str:
    """The exact binary value of x rounded to nearest, to five places."""
    return str(Decimal(x).quantize(Decimal("1e-5"), ROUND_HALF_EVEN))


def test_c9_thin_threshold_read_both_ways():
    """The fitted EPS2 against arcsinh 1, the collar identity value, each
    read outward and to nearest (ROADMAP D19). At arcsinh 1 every end
    rounds to nearest to its published string, and the outward reading
    fails four records; at EPS2 rounding to nearest fails three, and the
    outward reading only the two case floors. Asserted as it stands."""
    fitted = _threshold_records(EPS2)
    records = {r.name: r for r in compute_constant_records(1e-8)}
    assert {name: (records[name].lo, records[name].hi) for name in fitted} == fitted

    def outward_misses(values):
        return {name for name, (lo, hi) in values.items() if not cli._reproduces(name, lo, hi)}

    def nearest(values):
        return {name: (_nearest_str(lo), _nearest_str(hi)) for name, (lo, hi) in values.items()}

    published = {name: (cli._PUBLISHED[name][0],) * 2 for name in fitted}
    at_identity = _threshold_records(math.asinh(1.0))
    assert nearest(at_identity) == published
    assert outward_misses(at_identity) == {"hsum_thin_pair", "hs_0_4eps2", "pa_case_i2", "pa_case_i1"}

    assert nearest(fitted) == published | {
        "hsum_thin_pair": ("7.61138", "7.61139"),
        "h_0_2eps2": ("3.27467", "3.27467"),
        "pa_case_i1": ("1.56948", "1.56948"),
        "gap_genus": ("0.95536", "0.95536"),
    }
    assert outward_misses(fitted) == {"pa_case_i2", "pa_case_i1"}
