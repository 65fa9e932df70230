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

a_hat fixes its term count n from the tail bound before it sums
anything (_count), and raises over the cap of _MAX_TERMS = 128 terms:
above about u = 0.8906 at the default tol, so a_of_T raises below T of
about 0.1158. It sums with _series, a scalar loop over the precomputed
numerators and denominators of the coefficients _COEF, so each term
rounds as 8 (n + 1) x^n / ((2n + 1) (2n + 3)) with x = u^2 and x^n
built by repeated multiplication.

The collar profile _a_of_u runs at the default tol only, where the
count is a step function of x with 29 steps below the switch point,
listed in the literal table _BREAKS; tests/test_against_oracles.py pins
the table to _count ulp by ulp around every step. _a_of_u is
straight-line code, built once at import from _COEF and _BREAKS: it
adds term after term as _series does and returns as soon as x is below
the next step, so every production call sums at most 30 terms without
a loop, a table lookup or a call. a_of_T and a_hat are the series-only
routes that the tests and verify hold a_stable to.
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
_A_SERIES_UMAX = math.exp(-0.51)

# a_hat's term cap, and the length of _COEF. a_hat(0.8), verify's
# largest, sums 67 terms.
_MAX_TERMS = 128

_LN2 = math.log(2.0)

# c_n = 8 (n + 1) / ((2n + 1) (2n + 3)) as the exact numerator and
# denominator: each term rounds as 8 (n + 1) u^(2n) / den.
_COEF = tuple((8.0 * (n + 1), (2.0 * n + 1.0) * (2.0 * n + 3.0)) for n in range(_MAX_TERMS))

# a_hat's default tol, the one the collar profile runs at.
_TOL = 1e-14

# _BREAKS[k] is the least double x at which _count(x, _TOL) reaches k + 2,
# so that count is bisect_right(_BREAKS, x) + 1 for 0 <= x <=
# _A_SERIES_UMAX^2, where it tops out at 30.
_BREAKS = (
    4.999999999999967e-15, 9.999999500000019e-08, 2.4661918003238178e-05, 0.0003760249523076123,
    0.0019029288830012057, 0.005569069611360876, 0.01193929849333325, 0.021091150986867195,
    0.03276544233975728, 0.046540092702376, 0.06195173067532973, 0.07856300283312673,
    0.09599250772837539, 0.11392318050511153, 0.13209977290934707, 0.15032164985640523,
    0.16843421841360798, 0.18632060228926858, 0.2038942445208336, 0.22109264244980767,
    0.2378721904593874, 0.25420400978395225, 0.2700706155236555, 0.28546327354660084,
    0.3003799158256263, 0.31482350269919435, 0.32880074020863304, 0.3423210782191173,
    0.3553959299163053,
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


def a_hat(u: float, tol: float = _TOL) -> SeriesEval:
    """Partial sum of sum_n 8 (n+1) / ((2n+1)(2n+3)) u^(2n).

    Sums the first n terms, where the tail bound 2 u^(2n) / (n (1 - u^2))
    after them is at most tol; the bound holds because c_m <= 2/m for
    m >= 1. n is computed before any term is summed. It is the least
    such count or slightly above it (under 0.1% above over a sweep of u
    at the default tol), and the least one where that has
    n |log u^2| < 3, which takes a tol above 2 / (3 e^3), about 0.033.
    Requires 0 <= u < 1 and tol > 0. Raises RuntimeError, before
    summing, if the least count exceeds the cap of _MAX_TERMS = 128
    terms: at the default tol that is u above about 0.8906, and at tol
    1e-6 above about 0.9540.

    The checked wrapper of _count and _series. The collar profile
    _a_of_u sums the same terms in straight-line code, with _count's
    default-tol steps written in, and tests/test_against_oracles.py
    holds the two to the same bits.
    """
    if not 0.0 <= u < 1.0:
        raise ValueError("series argument must satisfy 0 <= u < 1")
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    x = u * u
    # Below the denormal floor x is 0 and the n = 0 term is the whole sum.
    n = _count(x, tol) if x else 1
    return SeriesEval(*_series(x, n), n)


def _count(x: float, tol: float) -> int:
    """a_hat's term count at x = u^2 in (0, 1): the least count n
    wherever n |log x| < 3, or the ceil steps land over the cap, and the
    steps' count elsewhere; RuntimeError where the least count is over
    the cap."""
    rem = 1.0 - x
    log_x = math.log(x)
    # With g(n) = log(tol rem n / 2) / log x the bound holds iff n >= g(n),
    # and g decreases in n. The count without the 1/n factor, ceil(g(1)),
    # satisfies it; one step n <- ceil(g(n)) lands at or under the least
    # count, and a second lands on a count that satisfies it again, above
    # the least by about 1 / (n |log x|) of the first step's undershoot.
    # One check of the bound itself absorbs the rounding of the estimate.
    # A tol of 2 / rem or more needs one term; a count under 2 adds
    # log 1 = 0.
    log_c = math.log(tol if tol * rem < 2.0 else 2.0 / rem) + math.log(rem) - _LN2
    n = math.ceil(log_c / log_x)
    n = math.ceil((log_c + math.log(max(n, 1))) / log_x)
    n = math.ceil((log_c + math.log(max(n, 1))) / log_x)
    if n < 1:
        n = 1
    if 2.0 * math.exp(n * log_x) / (n * rem) > tol:
        n += 1
    # Where the least count n has n |log x| < 3, which needs x > e^-3 and
    # a tol above 2 / (3 e^3), the steps oscillate and can land far above
    # it, over the cap too. There, and wherever they land over the cap,
    # the count is the least one, by bisection on the bound, which
    # decreases in n; _MAX_TERMS + 1 stands for any count over the cap.
    if n > _MAX_TERMS or log_x > -3.0:
        lo, hi = 0, min(n, _MAX_TERMS + 1)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if 2.0 * math.exp(mid * log_x) / (mid * rem) <= tol:
                hi = mid
            else:
                lo = mid
        if n > _MAX_TERMS or hi * log_x > -3.0:
            n = hi
    if n > _MAX_TERMS:
        raise RuntimeError("series tolerance not reached within term cap")
    return n


def _series(x: float, n: int) -> tuple[float, float]:
    """(value, tail_bound) of the first n <= _MAX_TERMS terms of a_hat at
    x = u^2, n being _count's."""
    total = 0.0
    p = 1.0
    for num, den in _COEF[:n]:
        total += num * p / den
        p *= x
    return total, 2.0 * p / (n * (1.0 - x))


def _a_closed(T: float) -> float:
    # e^(2T) R(cosh T); cancellation-free only for small T, where
    # log(coth(T/2)) is large. inf once coth(T/2) overflows, and where
    # T/2 underflows to 0.
    try:
        coth = 1.0 / math.tanh(0.5 * T)
    except ZeroDivisionError:
        return math.inf
    return math.exp(2.0 * T) * (2.0 * math.cosh(T) * math.log(coth) - 2.0)


def _a_of_u_source() -> str:
    # One early return per term count n, at x below _BREAKS[n - 1]; each
    # term and the tail bound round as in _series.
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
# series up to _A_SERIES_UMAX at a_hat's default tol, in straight-line
# code built here from _COEF and _BREAKS, and the closed form above. Its
# source is put in linecache, so tracebacks, pdb and inspect show it.
_A_OF_U_FILE = "<riera._a_of_u>"
_source = _a_of_u_source()
linecache.cache[_A_OF_U_FILE] = (len(_source), None, _source.splitlines(True), _A_OF_U_FILE)
exec(compile(_source, _A_OF_U_FILE, "exec"), globals())
del _source


def a_of_T(T: float) -> float:
    """Collar profile a(T) = a_hat(e^-T), by the series alone at a_hat's
    default tol.

    Strictly decreasing from a logarithmic blowup at T = 0 to the limit
    8/3, and pinched by 8/3 <= a(T) <= 8/3 - 2 log(1 - e^-2T). The term
    count grows like 1/T near zero: T = 0.12 sums 124 terms, and below
    about T = 0.1158 the count exceeds a_hat's cap of 128, so a_of_T
    raises RuntimeError before any term is summed. From T = 0.51 on it
    equals a_stable bit for bit; a_stable covers every T > 0.
    """
    if not T > 0.0:
        raise ValueError("T must be positive")
    ev = a_hat(math.exp(-T))
    return ev.value + 0.5 * ev.tail_bound


def a_stable(T: float) -> float:
    """Collar profile a(T) over the full range of T.

    Same value as a_of_T but evaluated by the closed form below the
    switch point T = 0.51, so arbitrarily small positive T stays cheap
    and accurate. Where e^-T rounds to 1 (T under about 5.6e-17) the
    closed form takes T itself; it is inf once the logarithmic blowup
    overflows (T under about 1.1e-308). Raises ValueError unless T > 0.
    """
    if not T > 0.0:
        raise ValueError("T must be positive")
    u = math.exp(-T)
    return _a_of_u(u) if u < 1.0 else _a_closed(T)

