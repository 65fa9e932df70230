"""Certified strata distance integrals and the bounds built from them.

The central object is H(a, b) = int_a^b dt / sqrt((2t/pi)(1 + F(t)))
where F is one of the interaction envelopes of wpstrata.gradbounds. The
substitution t = y^2 turns the integrand into the smooth bounded
function sqrt(2 pi) / sqrt(1 + F(y^2)), which a plain adaptive Simpson
rule then handles with a computable error estimate. Every integral is
returned as a Bracket, a closed interval together with an itemized
error budget.

K(a, b) = sqrt(2 pi b) - sqrt(2 pi a) is the closed form obtained by
dropping F; it dominates H and the two agree as b -> 0. The remaining
functions combine H brackets into distance lower bounds between thin
strata: thin_pair_sum for the generic two-curve configuration, W1 and
W2 for the separating routes, strata_separation and gap_constants for
the per-configuration verdicts, and pa_translation_bounds for the
point-pushing translation lengths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

from .gradbounds import EPS2, F_pair, G_of, L0, collar_radius_separating, r_sys

SQRT_2PI = math.sqrt(2.0 * math.pi)

# Per-point slack for the truncated collar profile series inside F.
_SERIES_SLACK = 1.5e-14


def _merge_budgets(b1: dict[str, float], b2: dict[str, float]) -> dict[str, float]:
    out = dict(b1)
    for k, v in b2.items():
        out[k] = out.get(k, 0.0) + v
    return out


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

    def within(self, lo: float, hi: float) -> bool:
        return lo <= self.lo and self.hi <= hi

    def __add__(self, other: Bracket) -> Bracket:
        if not isinstance(other, Bracket):
            return NotImplemented
        return Bracket(
            self.lo + other.lo,
            self.hi + other.hi,
            _merge_budgets(self.error_budget, other.error_budget),
        )

    def scaled(self, c: float) -> Bracket:
        """Bracket for c times the value, c >= 0."""
        if c < 0.0:
            raise ValueError("scale factor must be nonnegative")
        return Bracket(c * self.lo, c * self.hi, dict(self.error_budget))


def adaptive_simpson(
    f: Callable[[float], float],
    a: float,
    b: float,
    tol: float,
    max_depth: int = 48,
    prefetch: Callable[[list[float]], None] | None = None,
) -> tuple[float, float, int]:
    """Adaptive Simpson rule with a Richardson error estimate.

    Splits intervals depth first until the per-interval Richardson
    difference |S2 - S1| / 15 fits inside a length-proportional share of
    tol, and at least three times. Returns (value, error_bound, evals);
    raises ValueError unless a < b and tol > 0 (a NaN tol included), and
    RuntimeError if the subdivision cap is hit before the estimate
    converges or if the integrand stops being finite. tol = inf accepts
    every interval at depth 3.

    prefetch, if given, is called with a list of nodes before f is asked
    for any of them, so that a caller can evaluate them together. It is
    first called with the five root nodes a, b, the midpoint and the two
    quarter points, and then, each time a panel is split, with the four
    quarter points of its two halves, which the two child panels
    evaluate first. The nodes are computed by the same expressions as
    the ones f then sees, so they are the same floats. Every node f sees
    has been announced, and every announced node is evaluated unless f
    raises. The order of evaluation and every sum are unchanged, so
    (value, error_bound, evals) is bit for bit the same as without it.
    """
    if not a < b:
        raise ValueError("requires a < b")
    if not tol > 0.0:
        raise ValueError("tol must be positive")

    n_evals = 0

    def fe(x: float) -> float:
        nonlocal n_evals
        n_evals += 1
        v = f(x)
        if not math.isfinite(v):
            raise RuntimeError(f"integrand not finite at {x!r}")
        return v

    inv_len = 1.0 / (b - a)
    value = 0.0
    err = 0.0

    def rec(x0: float, f0: float, x2: float, f2: float, fm: float, s: float, depth: int) -> None:
        nonlocal value, err
        xm = 0.5 * (x0 + x2)
        xl = 0.5 * (x0 + xm)
        xr = 0.5 * (xm + x2)
        fl = fe(xl)
        fr = fe(xr)
        sl = (xm - x0) * (f0 + 4.0 * fl + fm) / 6.0
        sr = (x2 - xm) * (fm + 4.0 * fr + f2) / 6.0
        e = abs(sl + sr - s) / 15.0
        # Minimum depth 3 guards against symmetric integrands fooling
        # the first few Richardson comparisons.
        if e <= tol * (x2 - x0) * inv_len and depth >= 3:
            value += sl + sr
            err += e
            return
        if depth >= max_depth:
            raise RuntimeError("adaptive quadrature failed to converge")
        if prefetch is not None:
            # The points each half evaluates first, by the same expressions.
            prefetch([0.5 * (x0 + xl), 0.5 * (xl + xm), 0.5 * (xm + xr), 0.5 * (xr + x2)])
        rec(x0, f0, xm, fm, fl, sl, depth + 1)
        rec(xm, fm, x2, f2, fr, sr, depth + 1)

    if prefetch is not None:
        xm = 0.5 * (a + b)
        prefetch([a, b, xm, 0.5 * (a + xm), 0.5 * (xm + b)])
    fa = fe(a)
    fb = fe(b)
    fm = fe(0.5 * (a + b))
    s0 = (b - a) * (fa + 4.0 * fm + fb) / 6.0
    rec(a, fa, b, fb, fm, s0, 0)
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
    """Closed form baseline sqrt(2 pi b) - sqrt(2 pi a)."""
    _check_range(a, b, strict=False)
    return SQRT_2PI * (math.sqrt(b) - math.sqrt(a))


def _systole_envelope(t: float) -> float:
    r = r_sys(t)
    return G_of(r, r)


_VARIANTS: dict[str, Callable[[float], float]] = {
    "plain": lambda t: F_pair(t, t),
    "separating": lambda t: F_pair(0.5 * t, 0.5 * t),
    "systole": _systole_envelope,
}


def integral_H(a: float, b: float, variant: str = "plain", tol: float = 1e-7) -> Bracket:
    """Certified bracket for int_a^b dt / sqrt((2t/pi)(1 + F(t))).

    variant picks the envelope F: "plain" uses F_pair(t, t),
    "separating" uses F_pair(t/2, t/2), "systole" uses
    G_of(r_sys(t), r_sys(t)). After t = y^2 the integrand is
    sqrt(2 pi) / sqrt(1 + F(y^2)), smooth everywhere except for a kink
    of the systole envelope at t = L0, where the range is split. The
    bracket width comes out at or below tol. Raises ValueError if
    sqrt(a) and sqrt(b) round to the same double, where the
    substitution cannot resolve the range.
    """
    _check_range(a, b, strict=True)
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    try:
        envelope = _VARIANTS[variant]
    except KeyError:
        raise ValueError(f"unknown variant {variant!r}") from None

    def f(y: float) -> float:
        if y == 0.0:
            return SQRT_2PI
        return SQRT_2PI / math.sqrt(1.0 + envelope(y * y))

    ya = math.sqrt(a)
    yb = math.sqrt(b)
    if ya == yb:
        raise ValueError("range too narrow for the y = sqrt(t) substitution")
    cuts = [ya, yb]
    if variant == "systole":
        yc = math.sqrt(L0)
        if ya < yc < yb:
            cuts = [ya, yc, yb]

    span = yb - ya
    half = 0.5 * tol
    value = 0.0
    quad_err = 0.0
    evals = 0
    for x0, x1 in zip(cuts, cuts[1:]):
        v, e, n = adaptive_simpson(f, x0, x1, half * (x1 - x0) / span)
        value += v
        quad_err += e
        evals += n

    tail = _SERIES_SLACK * span
    total = quad_err + tail
    return Bracket(
        value - total,
        value + total,
        {"quadrature": quad_err, "series_tail": tail, "evals": float(evals)},
    )


def c_ratio(t: float, tol: float = 1e-7) -> float:
    """Systole efficiency ratio H_sys(0, t) / K(0, t).

    Tends to 1 at both ends of the t range and dips to its global
    minimum just above 0.94 near t = 4.35.
    """
    if t <= 0.0:
        raise ValueError("t must be positive")
    return integral_H(0.0, t, "systole", tol).midpoint / integral_K(0.0, t)


def W1(length: float, tol: float = 1e-7) -> Bracket:
    """First separating route bound.

    H_sep(0, L) + H_sep(0, 8 arcsinh(1 / sinh(L / 4))), the second leg
    being four separating collar radii.
    """
    if length <= 0.0:
        raise ValueError("length must be positive")
    other = 4.0 * collar_radius_separating(length)
    return integral_H(0.0, length, "separating", 0.5 * tol) + integral_H(
        0.0, other, "separating", 0.5 * tol
    )


def W2(length: float, tol: float = 1e-7) -> Bracket:
    """Second separating route bound.

    H_sep(0, L) + H_sep(0, 4 arcsinh(1 / sinh(L / 4)) +
    4 arcsinh(1 / sinh(L / 2))); the second leg mixes the separating
    collar radii of L and 2L.
    """
    if length <= 0.0:
        raise ValueError("length must be positive")
    other = 2.0 * (
        collar_radius_separating(length) + collar_radius_separating(2.0 * length)
    )
    return integral_H(0.0, length, "separating", 0.5 * tol) + integral_H(
        0.0, other, "separating", 0.5 * tol
    )


def thin_pair_sum(tol: float = 1e-7) -> Bracket:
    """H(0, 4 EPS2) + H(0, 2 EPS2), the generic two-curve threshold sum."""
    return integral_H(0.0, 4.0 * EPS2, "plain", 0.5 * tol) + integral_H(
        0.0, 2.0 * EPS2, "plain", 0.5 * tol
    )


@dataclass(frozen=True)
class SeparationVerdict:
    """Distance verdict for a pair of strata meeting in k points.

    kind is "exact" when the value bracket pins the distance itself
    (genus route k = 1, sphere route k = 2) and "lower-bound" when it
    only bounds the distance from below.
    """

    intersection: int
    surface_class: str
    kind: str
    value: Bracket


def strata_separation(
    k: int,
    surface_class: str,
    delta11: Bracket,
    tol: float = 1e-7,
) -> SeparationVerdict:
    """Distance verdict between strata whose curves meet in k points.

    delta11 is a certified bracket for the elementary one-handle
    distance, as produced by wpstrata.toruscoset.delta11_bracket.
    surface_class is "has-genus" or "punctured-sphere"; the sphere
    class only admits even k. For k >= 2 on the genus route the
    general two-curve branch is reported and the alternative
    sqrt(2) delta11 branch is recorded in the error budget notes.
    """
    if surface_class not in ("has-genus", "punctured-sphere"):
        raise ValueError(f"unknown surface class {surface_class!r}")
    if not isinstance(k, int) or isinstance(k, bool):
        raise TypeError("k must be an int")
    if k < 0:
        raise ValueError("intersection count must be nonnegative")

    if k == 0:
        return SeparationVerdict(k, surface_class, "lower-bound", Bracket(0.0, 0.0))

    if surface_class == "has-genus":
        if k == 1:
            return SeparationVerdict(k, surface_class, "exact", delta11)
        pair = thin_pair_sum(tol)
        alt = math.sqrt(2.0) * delta11.lo
        value = Bracket(
            pair.lo,
            pair.hi,
            _merge_budgets(pair.error_budget, {"branch_sqrt2_delta11_lo": alt}),
        )
        return SeparationVerdict(k, surface_class, "lower-bound", value)

    if k % 2 != 0:
        raise ValueError("sphere strata curves meet in an even number of points")
    if k == 2:
        return SeparationVerdict(k, surface_class, "exact", delta11.scaled(math.sqrt(2.0)))
    candidates = {
        "branch_2_delta11": delta11.scaled(2.0),
        "branch_w1": W1(3.678, tol),
        "branch_w2": W2(2.420, tol),
    }
    best_key = min(candidates, key=lambda key: candidates[key].lo)
    best = candidates[best_key]
    notes = {f"{key}_lo": br.lo for key, br in candidates.items() if key != best_key}
    value = Bracket(best.lo, best.hi, _merge_budgets(best.error_budget, notes))
    return SeparationVerdict(k, surface_class, "lower-bound", value)


def gap_constants(delta11: Bracket, tol: float = 1e-7) -> tuple[float, float]:
    """Certified gaps between the route pairs.

    gap_genus = thin_pair_sum.lo - delta11.hi and
    gap_sphere = W2(2.420).lo - sqrt(2) delta11.hi; both positive means
    the exact routes beat the general ones strictly.
    """
    gap_genus = thin_pair_sum(tol).lo - delta11.hi
    gap_sphere = W2(2.420, tol).lo - math.sqrt(2.0) * delta11.hi
    return (gap_genus, gap_sphere)


class PATranslationBounds(NamedTuple):
    case_i2: float
    case_i1: float
    general: float


def pa_translation_bounds(tol: float = 1e-7) -> PATranslationBounds:
    """Certified translation length lower bounds for point-pushing maps.

    case_i2 = H(2 EPS2, 4 EPS2).lo, case_i1 = H(2 EPS2, 6 EPS2).lo,
    and general = case_i1 / 2 covers the remaining configurations.
    """
    case_i2 = integral_H(2.0 * EPS2, 4.0 * EPS2, "plain", tol).lo
    case_i1 = integral_H(2.0 * EPS2, 6.0 * EPS2, "plain", tol).lo
    return PATranslationBounds(case_i2, case_i1, 0.5 * case_i1)


def _zeta_even(m: int) -> float:
    # Exact closed forms through 12, direct summation beyond, where a
    # handful of terms already reaches double precision.
    closed = {
        2: math.pi**2 / 6.0,
        4: math.pi**4 / 90.0,
        6: math.pi**6 / 945.0,
        8: math.pi**8 / 9450.0,
        10: math.pi**10 / 93555.0,
        12: 691.0 * math.pi**12 / 638512875.0,
    }
    if m in closed:
        return closed[m]
    s = 1.0
    k = 2
    while True:
        t = float(k) ** (-m)
        s += t
        if t < 1e-18:
            return s
        k += 1


def lobachevsky(theta: float) -> float:
    """Lobachevsky function -int_0^theta log|2 sin u| du for |theta| <= pi/2.

    Evaluated by the series theta (1 - log(2 theta)) +
    sum_n zeta(2n) theta^(2n+1) / (n (2n+1) pi^(2n)).
    """
    if abs(theta) > 0.5 * math.pi + 1e-15:
        raise ValueError("argument must lie in [-pi/2, pi/2]")
    if theta == 0.0:
        return 0.0
    if theta < 0.0:
        return -lobachevsky(-theta)
    total = theta * (1.0 - math.log(2.0 * theta))
    ratio = (theta / math.pi) ** 2
    power = theta
    n = 1
    while True:
        power *= ratio
        term = _zeta_even(2 * n) * power / (n * (2 * n + 1))
        total += term
        if term < 1e-18 * max(total, 1e-300):
            return total
        n += 1


# Volume of the ideal regular tetrahedron, 2 L(pi/6).
V3 = 2.0 * lobachevsky(math.pi / 6.0)


def brock_bromberg_compare(g: int, n: int) -> float:
    """Comparison value 4 V3 / (3 sqrt(2 pi (2g - 2 + n))).

    Published alongside a slightly different decimal for the (1, 1)
    case; cmd_constants records both and flags the mismatch rather than
    asserting equality.
    """
    if isinstance(g, bool) or isinstance(n, bool):
        raise TypeError("g and n must be ints")
    if not isinstance(g, int) or not isinstance(n, int):
        raise TypeError("g and n must be ints")
    chi = 2 * g - 2 + n
    if chi <= 0:
        raise ValueError("requires 2g - 2 + n > 0")
    return 4.0 * V3 / (3.0 * math.sqrt(2.0 * math.pi * chi))


def calibrate_eps2(target: float = 7.611385, xtol: float = 1e-12) -> float:
    """Solve H(0, 4e) + H(0, 2e) = target for the threshold e.

    The sum is strictly increasing in e with slope about 3.34, so
    bisection on a narrow interval above arcsinh(1) converges quickly.
    The frozen module constant gradbounds.EPS2 is the root for the
    default target.
    """

    def pair_sum(e: float) -> float:
        return (
            integral_H(0.0, 4.0 * e, "plain", 1e-10).midpoint
            + integral_H(0.0, 2.0 * e, "plain", 1e-10).midpoint
        )

    lo = math.asinh(1.0)
    hi = lo + 1e-5
    if pair_sum(lo) > target or pair_sum(hi) < target:
        raise ValueError("target out of reach of the calibration interval")
    while hi - lo > xtol:
        mid = 0.5 * (lo + hi)
        if pair_sum(mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
