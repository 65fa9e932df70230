"""Certified strata distance integrals and the bounds built from them.

The central object is H(a, b) = int_a^b dt / sqrt((2t/pi)(1 + F(t)))
where F is one of the interaction envelopes of wpstrata.gradbounds. The
substitution t = y^2 turns the integrand into the smooth bounded
function sqrt(2 pi) / sqrt(1 + F(y^2)), which a plain adaptive Simpson
rule then handles with a computable error estimate. Each variant's
integrand is one module-level function that calls its envelope on the
diagonal, through this module's names F_pair and G_of. Every integral
is returned as a Bracket, a closed interval together with an itemized
error budget.

K(a, b) = sqrt(2 pi b) - sqrt(2 pi a) is the closed form obtained by
dropping F; it dominates H and the two agree as b -> 0. The remaining
functions combine H brackets into distance lower bounds between thin
strata: thin_pair_sum for the generic two-curve configuration, W1 and
W2 for the separating routes, strata_separation for every route of
the separation theorem at one delta11 bracket, and
pa_translation_bounds for the point-pushing translation lengths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import attrgetter, itemgetter
from typing import Callable, Iterable, NamedTuple

from .gradbounds import EPS2, F_pair, G_of, L0, collar_radius_separating, r_sys

SQRT_2PI = math.sqrt(2.0 * math.pi)

# Per-point slack for the truncated collar profile series inside F.
_SERIES_SLACK = 1.5e-14

# Subdivision cap of adaptive_simpson and the panels it evaluates per round.
_MAX_DEPTH = 48
_BATCH_PANELS = 8


@dataclass(frozen=True)
class Bracket:
    """Closed interval [lo, hi] certified to contain a value.

    error_budget itemizes where the width came from and is purely
    informational; the interval itself is the contract.
    """

    lo: float
    hi: float
    error_budget: dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not (self.lo <= self.hi):
            raise ValueError(f"empty bracket [{self.lo}, {self.hi}]")

    @property
    def width(self) -> float:
        return self.hi - self.lo

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.lo + self.hi)

    def contains(self, x: float) -> bool:
        return self.lo <= x <= self.hi

    def __add__(self, other: Bracket) -> Bracket:
        if not isinstance(other, Bracket):
            return NotImplemented
        budget = dict(self.error_budget)
        for key, v in other.error_budget.items():
            budget[key] = budget.get(key, 0.0) + v
        return Bracket(self.lo + other.lo, self.hi + other.hi, budget)

    def scaled(self, c: float) -> Bracket:
        """Bracket for c times the value, c >= 0."""
        if c < 0.0:
            raise ValueError("scale factor must be nonnegative")
        return Bracket(c * self.lo, c * self.hi, dict(self.error_budget))


class ConvergenceError(RuntimeError):
    """adaptive_simpson reached its subdivision cap before converging."""


def adaptive_simpson(
    f: Callable[[float], float],
    a: float,
    b: float,
    tol: float,
    prefetch: Callable[[list[float]], None] | None = None,
) -> tuple[float, float, int]:
    """Adaptive Simpson rule with a Richardson error estimate.

    Splits intervals until the per-interval Richardson difference
    |S2 - S1| / 15 fits inside a length-proportional share of tol, and
    at least three times. Returns (value, error_bound, evals); raises
    ValueError unless a < b and tol > 0 (a NaN tol included),
    ConvergenceError, a RuntimeError, if the subdivision cap _MAX_DEPTH
    is hit before the estimate converges, and RuntimeError if the
    integrand stops being finite. tol = inf accepts every interval at
    depth 3. No reference to f or prefetch outlives the call.

    The pending panels are kept on a stack, leftmost on top. Without
    prefetch the walk is depth first: it pops the leftmost panel,
    evaluates its two quarter points, and either sums it as it comes or
    pushes its two halves. With prefetch it works in rounds: each takes
    up to _BATCH_PANELS of the leftmost panels, evaluates their quarter
    points left to right and pushes the halves of those it splits back
    in their place, so the leftmost branch still gains a level every
    round; the accepted panels are summed after the last round in
    ascending order of their left ends. Both sum in the order of the
    depth-first recursion they replaced, which tests/oracles.py keeps,
    so the panels, the decisions and (value, error_bound, evals) are bit
    for bit the same, with prefetch or without. The depth-first walk
    skips the rounds' bookkeeping, which cost integral_H about 6% on its
    largest benchmark draws.

    prefetch, if given, is called with a list of nodes before f is asked
    for any of them, so that a caller can evaluate them together. It is
    first called with the five root nodes a, b, the midpoint and the two
    quarter points, and then once per later round, with the quarter
    points of the round's panels, left to right: at most
    2 * _BATCH_PANELS nodes. The nodes are computed by the same
    expressions as the ones f then sees, so they are the same floats.
    Every node f sees has been announced, and every announced node is
    evaluated unless the call raises. (value, error_bound, evals) is the
    same with prefetch as without it.
    """
    if not a < b:
        raise ValueError("requires a < b")
    if not tol > 0.0:
        raise ValueError("tol must be positive")

    isfinite = math.isfinite
    inv_len = 1.0 / (b - a)
    xm = 0.5 * (a + b)
    if prefetch is not None:
        prefetch([a, b, xm, 0.5 * (a + xm), 0.5 * (xm + b)])
    root = []
    for x in (a, b, xm):
        v = f(x)
        if not isfinite(v):
            raise RuntimeError(f"integrand not finite at {x!r}")
        root.append(v)
    fa, fb, fm = root
    n_evals = 3
    # (x0, f0, x2, f2, fm, s, depth) of each pending panel, leftmost last
    pending = [(a, fa, b, fb, fm, (b - a) * (fa + 4.0 * fm + fb) / 6.0, 0)]
    if prefetch is None:
        pop = pending.pop
        push = pending.append
        value = 0.0
        err = 0.0
        while pending:
            x0, f0, x2, f2, fm, s, depth = pop()
            xm = 0.5 * (x0 + x2)
            xl = 0.5 * (x0 + xm)
            xr = 0.5 * (xm + x2)
            # Each node is evaluated and checked in place, left before right.
            n_evals += 2
            fl = f(xl)
            if not isfinite(fl):
                raise RuntimeError(f"integrand not finite at {xl!r}")
            fr = f(xr)
            if not isfinite(fr):
                raise RuntimeError(f"integrand not finite at {xr!r}")
            sl = (xm - x0) * (f0 + 4.0 * fl + fm) / 6.0
            sr = (x2 - xm) * (fm + 4.0 * fr + f2) / 6.0
            e = abs(sl + sr - s) / 15.0
            # Minimum depth 3 guards against symmetric integrands fooling
            # the first few Richardson comparisons.
            if e <= tol * (x2 - x0) * inv_len and depth >= 3:
                value += sl + sr
                err += e
            elif depth >= _MAX_DEPTH:
                raise ConvergenceError("adaptive quadrature failed to converge")
            else:
                push((xm, fm, x2, f2, fr, sr, depth + 1))
                push((x0, f0, xm, fm, fl, sl, depth + 1))
        return value, err, n_evals

    accepted: list[tuple[float, float, float]] = []  # (x0, sl + sr, e)
    first = True  # the root call announced the root panel's quarter points
    while pending:
        batch = pending[-_BATCH_PANELS:]
        del pending[-_BATCH_PANELS:]
        batch.reverse()
        if not first:
            nodes = []
            for x0, _, x2, _, _, _, _ in batch:
                xm = 0.5 * (x0 + x2)
                nodes += (0.5 * (x0 + xm), 0.5 * (xm + x2))
            prefetch(nodes)
        first = False
        children = []
        for x0, f0, x2, f2, fm, s, depth in batch:
            xm = 0.5 * (x0 + x2)
            xl = 0.5 * (x0 + xm)
            xr = 0.5 * (xm + x2)
            n_evals += 2
            fl = f(xl)
            if not isfinite(fl):
                raise RuntimeError(f"integrand not finite at {xl!r}")
            fr = f(xr)
            if not isfinite(fr):
                raise RuntimeError(f"integrand not finite at {xr!r}")
            sl = (xm - x0) * (f0 + 4.0 * fl + fm) / 6.0
            sr = (x2 - xm) * (fm + 4.0 * fr + f2) / 6.0
            e = abs(sl + sr - s) / 15.0
            if e <= tol * (x2 - x0) * inv_len and depth >= 3:
                accepted.append((x0, sl + sr, e))
            elif depth >= _MAX_DEPTH:
                raise ConvergenceError("adaptive quadrature failed to converge")
            else:
                children += ((x0, f0, xm, fm, fl, sl, depth + 1), (xm, fm, x2, f2, fr, sr, depth + 1))
        pending += reversed(children)

    # A stable sort: only zero-width panels, which add 0, share a left end.
    accepted.sort(key=itemgetter(0))
    value = 0.0
    err = 0.0
    for _, v, e in accepted:
        value += v
        err += e
    return value, err, n_evals


def _check_range(a: float, b: float, strict: bool) -> None:
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError("endpoints must be finite")
    if a < 0.0:
        raise ValueError("requires a >= 0")
    if strict and not a < b:
        raise ValueError("requires a < b")
    if not strict and not a <= b:
        raise ValueError("requires a <= b")


def integral_K(a: float, b: float) -> float:
    """Closed form baseline sqrt(2 pi b) - sqrt(2 pi a); ValueError unless
    0 <= a <= b, both finite."""
    _check_range(a, b, strict=False)
    return SQRT_2PI * (math.sqrt(b) - math.sqrt(a))


# Each variant's integrand after t = y^2 is sqrt(2 pi) / sqrt(1 + F), at F's
# limit 0 where its length underflows; it calls its envelope by this module's
# name, so integral_H evaluates whatever integrals.F_pair and G_of name then.


def _diagonal_integrand(scale: float) -> Callable[[float], float]:
    # F_pair(t, t) at t = scale y^2: 1 for "plain", 1/2 for "separating"
    def integrand(y: float) -> float:
        t = scale * (y * y)
        if t == 0.0:
            return SQRT_2PI
        return SQRT_2PI / math.sqrt(1.0 + F_pair(t, t))

    return integrand


def _systole_integrand(y: float) -> float:
    t = y * y
    if t == 0.0:
        return SQRT_2PI
    r = r_sys(t)
    return SQRT_2PI / math.sqrt(1.0 + G_of(r, r))


_SCALES = {"plain": 1.0, "separating": 0.5}
_VARIANTS = {variant: _diagonal_integrand(scale) for variant, scale in _SCALES.items()}
_VARIANTS["systole"] = _systole_integrand

# Flat point and value per variant: from it on the integrand is exactly the
# value, which _bracket adds in closed form. F_pair(t, t) is inf from t = 1421
# on, where sinh(t/2) overflows, so the diagonal integrands are 0 from 1421 /
# scale; G_of(r_sys(t), r_sys(t)) is 0 from t of about 995.14 on.
_FLAT = {variant: (1421.0 / scale, 0.0) for variant, scale in _SCALES.items()}
_FLAT["systole"] = (996.0, SQRT_2PI)

# The lengths at which the paper takes its two separating routes.
W1_LENGTH = 3.678
W2_LENGTH = 2.420


def _bracket(f: Callable[[float], float], a: float, b: float, variant: str, tol: float) -> Bracket:
    """The H bracket of integrand f over [a, b]; the caller has checked
    the arguments as integral_H does.

    The range runs in y = sqrt(t), cut at the systole kink and ended at
    the variant's flat point, past which the flat value times the rest
    of the range is added. Each panel gets its length's share of tol / 2,
    and ValueError if that share underflows to 0. The series slack is
    added per unit of y integrated.
    """
    ya = math.sqrt(a)
    yb = math.sqrt(b)
    if ya == yb:
        raise ValueError("range too narrow for the y = sqrt(t) substitution")
    t_flat, flat_value = _FLAT[variant]
    y_flat = math.sqrt(t_flat)
    y_end = y_flat if ya < y_flat < yb else yb
    cuts = [ya, y_end]
    yc = math.sqrt(L0)
    if variant == "systole" and ya < yc < y_end:
        cuts = [ya, yc, y_end]

    span = y_end - ya
    half = 0.5 * tol
    value = 0.0
    quad_err = 0.0
    evals = 0
    for x0, x1 in zip(cuts, cuts[1:]):
        share = half * (x1 - x0) / span
        if not share > 0.0:
            raise ValueError(
                f"the share of tol of panel y in [{x0!r}, {x1!r}], tol / 2 times its part of the range, underflows to 0"
            )
        v, e, n = adaptive_simpson(f, x0, x1, share)
        value += v
        quad_err += e
        evals += n
    value += flat_value * (yb - y_end)

    tail = _SERIES_SLACK * span
    total = quad_err + tail
    return Bracket(
        value - total,
        value + total,
        {"quadrature": quad_err, "series_tail": tail, "evals": float(evals)},
    )


def integral_H(a: float, b: float, variant: str = "plain", tol: float = 1e-7) -> Bracket:
    """Certified bracket for int_a^b dt / sqrt((2t/pi)(1 + F(t))).

    variant picks the envelope F: "plain" uses F_pair(t, t),
    "separating" uses F_pair(t/2, t/2), "systole" uses
    G_of(r_sys(t), r_sys(t)). After t = y^2 the integrand is
    sqrt(2 pi) / sqrt(1 + F(y^2)), smooth everywhere except for a kink
    of the systole envelope at t = L0, where the range is split. Past the
    variant's flat point, t = 1421 ("plain"), 2842 ("separating") or 996
    ("systole"), the integrand is exactly 0, 0 or sqrt(2 pi), and that
    part of the range is added in closed form. The bracket width comes
    out at or below tol plus the series slack, 3e-14 per unit of y.
    Raises ValueError if sqrt(a) and sqrt(b) round to the same double,
    where the substitution cannot resolve the range, if tol is below
    1e-323, twice the least subnormal, or NaN, or if a panel's share of
    tol underflows to 0 on a very narrow range, as in integral_H(0,
    5e-324, "plain", 1e-200); and ConvergenceError, a RuntimeError,
    where tol is below what the quadrature reaches.
    F tends to 0 as t -> 0, so the integrand takes its y = 0 value
    sqrt(2 pi) wherever y^2 underflows to 0.
    """
    _check_range(a, b, strict=True)
    # The panels share half of tol, so the least subnormal is too small.
    if not 0.5 * tol > 0.0:
        raise ValueError("tol must be at least 1e-323")
    try:
        integrand = _VARIANTS[variant]
    except KeyError:
        raise ValueError(f"unknown variant {variant!r}") from None
    return _bracket(integrand, a, b, variant, tol)


def c_ratios(ts: Iterable[float], tol: float = 1e-7) -> list[float]:
    """Systole efficiency ratios H_sys(0, t) / K(0, t), one per t.

    The ratio tends to 1 at both ends of the t range and dips to its
    global minimum just above 0.94 near t = 4.35.

    Every t shares one integrand, which keeps a table of the values it
    has computed, node y -> value, for this call only. A node that
    several brackets meet is evaluated once: above L0 every t integrates
    the panel [0, sqrt(L0)], each at its own share of tol, and a looser
    panel's nodes are among a tighter one's. Each ratio is bit for bit
    the one that integral_H(0, t, "systole", tol) gives. Raises
    ValueError unless every t is positive and finite and tol > 0.
    """
    ts = list(ts)
    if not all(0.0 < t < math.inf for t in ts):
        raise ValueError("every t must be positive and finite")
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    integrand = _VARIANTS["systole"]
    table: dict[float, float] = {}

    def f(y: float) -> float:
        v = table.get(y)
        if v is None:
            v = table[y] = integrand(y)
        return v

    return [_bracket(f, 0.0, t, "systole", tol).midpoint / integral_K(0.0, t) for t in ts]


def _route(length: float, other: float, tol: float) -> Bracket:
    # H_sep(0, length) + H_sep(0, other), each leg to tol / 2. The second
    # leg underflows to 0 past a length of about 2980 and adds nothing.
    first = integral_H(0.0, length, "separating", 0.5 * tol)
    if other == 0.0:
        return first
    return first + integral_H(0.0, other, "separating", 0.5 * tol)


def W1(length: float, tol: float = 1e-7) -> Bracket:
    """First separating route bound.

    H_sep(0, L) + H_sep(0, 8 arcsinh(1 / sinh(L / 4))), the second leg
    being four separating collar radii. Raises ValueError unless
    length > 0 and finite, and ConvergenceError, a RuntimeError, where a
    leg is long and tol below what the quadrature reaches there, as for
    integral_H. In log scans of L over [1e-300, 1e300] every call
    returns at tol down to 1e-14; at 5e-15 long legs raise, as at
    L = 1e-300 and 1e10.
    """
    if not length > 0.0:
        raise ValueError("length must be positive")
    return _route(length, 4.0 * collar_radius_separating(length), tol)


def W2(length: float, tol: float = 1e-7) -> Bracket:
    """Second separating route bound.

    H_sep(0, L) + H_sep(0, 4 arcsinh(1 / sinh(L / 4)) +
    4 arcsinh(1 / sinh(L / 2))); the second leg mixes the separating
    collar radii of L and 2L. Raises as W1 does, at about the same
    lengths and tols.
    """
    if not length > 0.0:
        raise ValueError("length must be positive")
    other = 2.0 * (collar_radius_separating(length) + collar_radius_separating(2.0 * length))
    return _route(length, other, tol)


def thin_pair_sum(tol: float = 1e-7) -> Bracket:
    """H(0, 4 EPS2) + H(0, 2 EPS2), the generic two-curve threshold sum,
    each to tol / 2; raises as integral_H does at tol / 2."""
    return integral_H(0.0, 4.0 * EPS2, "plain", 0.5 * tol) + integral_H(
        0.0, 2.0 * EPS2, "plain", 0.5 * tol
    )


class StrataSeparation(NamedTuple):
    """Every route of the separation theorem at one delta11 bracket,
    by the case table of strata_separation."""

    delta11: Bracket
    thin_pair: Bracket
    sphere_twice: Bracket
    two_delta11: Bracket
    w1: Bracket
    w2: Bracket

    @property
    def sphere_more(self) -> Bracket:
        """The sphere route for k >= 4 with the least lower end, the
        first of them on a tie."""
        return min(self.two_delta11, self.w1, self.w2, key=attrgetter("lo"))

    @property
    def gap_genus(self) -> float:
        return self.thin_pair.lo - self.delta11.hi

    @property
    def gap_sphere(self) -> float:
        return self.sphere_more.lo - self.sphere_twice.hi


def strata_separation(delta11: Bracket, tol: float = 1e-7) -> StrataSeparation:
    """Every route of the separation theorem, each built once.

    Strata whose curves meet in k points lie apart by:

    - k = 0: 0, as their closures meet.
    - On a surface with genus, k = 1: exactly delta11, the least
      separation of strata whose closures do not meet. k >= 2: at
      least thin_pair, which exceeds delta11 by gap_genus.
    - On a punctured sphere k is even. k = 2: exactly sqrt(2) delta11
      (sphere_twice). k >= 4: at least sphere_more, the least of
      two_delta11 and the separating routes w1 and w2, which exceeds
      sphere_twice by gap_sphere.

    delta11 is a certified bracket for the elementary one-handle
    distance, as wpstrata.toruscoset.delta11_bracket gives. The thin
    pair sum and the routes W1(W1_LENGTH) and W2(W2_LENGTH) are each
    taken at tol, and raise as they do.
    """
    return StrataSeparation(
        delta11,
        thin_pair_sum(tol),
        delta11.scaled(math.sqrt(2.0)),
        delta11.scaled(2.0),
        W1(W1_LENGTH, tol),
        W2(W2_LENGTH, tol),
    )


class PATranslationBounds(NamedTuple):
    case_i2: float
    case_i1: float
    general: float


def pa_translation_bounds(tol: float = 1e-7) -> PATranslationBounds:
    """Certified translation length lower bounds for point-pushing maps.

    case_i2 = H(2 EPS2, 4 EPS2).lo, case_i1 = H(2 EPS2, 6 EPS2).lo,
    and general = case_i1 / 2 covers the remaining configurations.
    Raises as integral_H does at tol.
    """
    case_i2 = integral_H(2.0 * EPS2, 4.0 * EPS2, "plain", tol).lo
    case_i1 = integral_H(2.0 * EPS2, 6.0 * EPS2, "plain", tol).lo
    return PATranslationBounds(case_i2, case_i1, 0.5 * case_i1)


# Volume of the ideal regular tetrahedron, 2 L(pi/6) = Cl_2(pi/3) =
# 1.01494160640965362502..., L the Lobachevsky function and Cl_2 the
# Clausen function. These bits, which brock_bromberg_11 records, are 1.7
# ulp under it and 2 ulp under its nearest double 1.0149416064096537.
V3 = 1.0149416064096533

# Brock and Bromberg's comparison value 4 V3 / (3 sqrt(2 pi (2g - 2 + n)))
# for the one-holed torus, (g, n) = (1, 1). It is published alongside a
# slightly different decimal; constants records both and flags the
# mismatch rather than asserting equality.
BROCK_BROMBERG_11 = 4.0 * V3 / (3.0 * math.sqrt(2.0 * math.pi))
