"""Pair interaction kernel R and its companion power series.

R(u) = u log|(u + 1) / (u - 1)| - 2 weights the contribution of one
closed geodesic seen from another at normalized position u. It is -2 at
a right-angle crossing, blows up as the pair degenerates to tangency,
and decays like (2/3) u^-2 for distant pairs.

The companion series is a_hat(u) = sum_n c_n u^(2n) with
c_n = 8 (n + 1) / ((2n + 1) (2n + 3)), related to the kernel by
R((u + 1/u) / 2) = u^2 a_hat(u). Writing u = e^-T gives the collar
profile a(T) = a_hat(e^-T), which this module evaluates two ways: the
series, whose term count explodes as T -> 0, and the closed form
e^(2T) (2 cosh(T) log(coth(T/2)) - 2), which loses all digits to
cancellation as T grows. The switch point T = 0.51 keeps both branches
comfortably inside their stable ranges; they agree to a few ulps there.

a_hat sums the series term by term, with x = u^2 and x^n built by
repeated multiplication, each term rounding as
8 (n + 1) x^n / ((2n + 1) (2n + 3)) from the exact numerators and
denominators in _COEF. It stops at the first count n whose tail bound
2 x^n / (n (1 - x)) is at most its one tolerance _TOL = 1e-14, and
returns that bound, the same float it tested. So n is the least such
count, and the bound never exceeds _TOL. It raises, after summing them,
where 128 terms (_MAX_TERMS) do not reach _TOL: above about u = 0.8906,
so a_of_T raises below T of about 0.1158.

The collar profile _a_of_u sums the same terms. Its count is a step
function of x, monotone because every rounded step of the bound is,
with 29 steps below the switch point, listed in the literal table
_BREAKS; tests/test_against_oracles.py pins the table to
the count ulp by ulp around every step. _a_of_u is straight-line code,
built once at import from _COEF and _BREAKS: it adds term after term
as a_hat does and returns as soon as x is below the next step, so
every production call sums at most 30 terms without a loop, a table
lookup or a call. a_of_T and a_hat are the series-only routes that the
tests and verify hold a_stable to.
"""

from __future__ import annotations

import linecache
import math
from typing import NamedTuple

from .hyp2 import UValue

# Above this the asymptotic tail of R is exact to double precision.
_R_SERIES_CUT = 1e8

# a evaluation switches from series to closed form at T = 0.51, i.e. at
# series argument u = e^-0.51.
_A_SWITCH_T = 0.51
_A_SERIES_UMAX = math.exp(-_A_SWITCH_T)

# a_hat's term cap, and the length of _COEF. a_hat(0.8), verify's
# largest, sums 67 terms.
_MAX_TERMS = 128

# c_n = 8 (n + 1) / ((2n + 1) (2n + 3)) as the exact numerator and
# denominator: each term rounds as 8 (n + 1) u^(2n) / den.
_COEF = tuple((8.0 * (n + 1), (2.0 * n + 1.0) * (2.0 * n + 3.0)) for n in range(_MAX_TERMS))

# a_hat's tolerance, the one the collar profile runs at.
_TOL = 1e-14

# _BREAKS[k] is the least double x at which a_hat's count at _TOL reaches
# k + 2, so that count is bisect_right(_BREAKS, x) + 1 for 0 <= x <=
# _A_SERIES_UMAX^2, where it tops out at 30.
_BREAKS = (
    4.9999999999999755e-15, 9.999999500000014e-08, 2.466191800323819e-05, 0.0003760249523076126,
    0.0019029288830012077, 0.005569069611360876, 0.011939298493333254, 0.02109115098686721,
    0.032765442339757284, 0.046540092702376, 0.061951730675329726, 0.07856300283312673,
    0.09599250772837543, 0.11392318050511155, 0.13209977290934707, 0.15032164985640528,
    0.168434218413608, 0.1863206022892686, 0.2038942445208336, 0.22109264244980772,
    0.2378721904593874, 0.25420400978395225, 0.2700706155236555, 0.28546327354660084,
    0.30037991582562634, 0.31482350269919435, 0.32880074020863304, 0.34232107821911734,
    0.35539592991630536,
)


class SeriesEval(NamedTuple):
    """Partial sum of a positive series with a certified tail bound.

    The true sum lies in [value, value + tail_bound] up to floating
    point rounding of the partial sum itself. A named tuple, so that
    building one stays cheap next to the short sums that return it.
    """

    value: float
    tail_bound: float
    terms_used: int


def riera_R(u: UValue) -> float:
    """Kernel value at a normalized position invariant.

    Crossing pairs (u < 1) use log((1 + u) / (1 - u)) and land in
    [-2, 0) for right-ish angles; disjoint pairs (u > 1) use the log1p
    form and are positive. Far beyond _R_SERIES_CUT the two-term
    asymptotic tail (2/3) u^-2 + (2/5) u^-4 is already exact.
    """
    x = u.value
    if u.crossing:
        return x * math.log((1.0 + x) / (1.0 - x)) - 2.0
    if x >= _R_SERIES_CUT:
        inv2 = 1.0 / (x * x)
        return inv2 * (2.0 / 3.0 + 0.4 * inv2)
    return x * math.log1p(2.0 / (x - 1.0)) - 2.0


def a_hat(u: float) -> SeriesEval:
    """Partial sum of sum_n 8 (n+1) / ((2n+1)(2n+3)) u^(2n).

    Sums term by term and stops after the least count n whose tail
    bound 2 u^(2n) / (n (1 - u^2)) is at most _TOL = 1e-14, so that
    tail_bound <= _TOL always; the bound holds because c_m <= 2/m for
    m >= 1. Requires 0 <= u < 1. Raises RuntimeError after summing the
    cap of _MAX_TERMS = 128 terms if their bound is still above _TOL,
    which is where u is above 0.8906235512167543.

    The collar profile _a_of_u sums the same terms in straight-line
    code, with the count's steps written in, and
    tests/test_against_oracles.py holds the two to the same bits.
    """
    if not 0.0 <= u < 1.0:
        raise ValueError("series argument must satisfy 0 <= u < 1")
    x = u * u
    rem = 1.0 - x
    total = 0.0
    p = 1.0
    for n, (num, den) in enumerate(_COEF, start=1):
        total += num * p / den
        p *= x
        tail = 2.0 * p / (n * rem)
        if tail <= _TOL:
            return SeriesEval(total, tail, n)
    raise RuntimeError("series tolerance not reached within term cap")


def _a_closed(T: float) -> float:
    # e^(2T) R(cosh T); cancellation-free only for small T, where
    # log(coth(T/2)) is large. That log is log 2 - log T where coth(T/2)
    # overflows or T/2 underflows to 0 (T below about 1.1e-308), from T
    # itself, as for the collar radii.
    try:
        coth = 1.0 / math.tanh(0.5 * T)
    except ZeroDivisionError:
        coth = math.inf
    log_coth = math.log(coth) if coth < math.inf else math.log(2.0) - math.log(T)
    return math.exp(2.0 * T) * (2.0 * math.cosh(T) * log_coth - 2.0)


def _a_of_u_source() -> str:
    # One early return per term count n, at x below _BREAKS[n - 1]; each
    # term and the tail bound round as in a_hat.
    lines = [
        "def _a_of_u(u):",
        '    """Collar profile at series argument u in (0, 1), branch-switched."""',
        "    if u <= %r:" % _A_SERIES_UMAX,
        "        x = u * u",
        "        s = %r" % (_COEF[0][0] * 1.0 / _COEF[0][1]),
        "        p = x",
    ]
    for n, (num, den) in enumerate(_COEF[1 : len(_BREAKS) + 1], start=1):
        lines += [
            "        if x < %r:" % _BREAKS[n - 1],
            "            return s + 0.5 * (2.0 * p / (%r * (1.0 - x)))" % float(n),
            "        s += %r * p / %r" % (num, den),
            "        p *= x",
        ]
    lines += [
        "        return s + 0.5 * (2.0 * p / (%r * (1.0 - x)))" % float(len(_BREAKS) + 1),
        "    return _a_closed(-math.log(u))",
    ]
    return "\n".join(lines) + "\n"


# The collar profile at series argument u in (0, 1), branch-switched: the
# series up to _A_SERIES_UMAX at a_hat's tolerance, in straight-line
# code built here from _COEF and _BREAKS, and the closed form above. Its
# source is put in linecache, so tracebacks, pdb and inspect show it.
_A_OF_U_FILE = "<riera._a_of_u>"
_source = _a_of_u_source()
linecache.cache[_A_OF_U_FILE] = (len(_source), None, _source.splitlines(True), _A_OF_U_FILE)
exec(compile(_source, _A_OF_U_FILE, "exec"), globals())
del _source


def a_of_T(T: float) -> float:
    """Collar profile a(T) = a_hat(e^-T), by the series alone.

    Strictly decreasing from a logarithmic blowup at T = 0 to the limit
    8/3, and pinched by 8/3 <= a(T) <= 8/3 - 2 log(1 - e^-2T). The term
    count grows like 1/T near zero: T = 0.12 sums 124 terms, and below
    about T = 0.1158 the count exceeds a_hat's cap of 128, so a_of_T
    raises RuntimeError after summing 128 terms. From T = 0.51 on it
    equals a_stable bit for bit; a_stable covers every T > 0.
    """
    if not T > 0.0:
        raise ValueError("T must be positive")
    ev = a_hat(math.exp(-T))
    return ev.value + 0.5 * ev.tail_bound


def a_stable(T: float) -> float:
    """Collar profile a(T) over the full range of T.

    Below the switch point T = 0.51 the closed form at T itself, so
    arbitrarily small positive T stays cheap and accurate; from there on
    the series at u = e^-T, bit for bit as a_of_T. Within 32 ulp
    wherever the exact value is a normal double, down to the least
    subnormal T, where a(T) is about 1488. Raises ValueError unless T > 0.
    """
    if not T > 0.0:
        raise ValueError("T must be positive")
    return _a_closed(T) if T < _A_SWITCH_T else _a_of_u(math.exp(-T))
