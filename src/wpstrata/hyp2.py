"""Planar hyperbolic geometry in the upper half-plane model.

Geodesics are recorded by their ideal endpoints on the boundary circle
R u {oo}, isometries by real 2x2 matrices of determinant one acting as
fractional linear maps. This module supplies the exact geometry the rest
of the package builds on: axes and translation lengths of hyperbolic
elements, the normalized position invariant u of a pair of geodesics,
and the area of an embedded collar neighborhood.

Conventions: the two infinities of the real line are the same ideal
point, canonically +inf. A pair of geodesics is compared after moving
the first one to the vertical axis (0, oo); that normalization fixes
the formulas below and is relied on throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

INF = math.inf

# Boundary points closer than this (relative to magnitude) are treated as
# equal, which makes the configuration tangent and therefore invalid.
TANGENCY_TOL = 1e-12

_DET_TOL = 1e-6


def _boundary(x: float) -> float:
    x = float(x)
    if math.isnan(x):
        raise ValueError("boundary point must not be NaN")
    if math.isinf(x):
        return INF
    if x == 0.0:
        return 0.0  # collapse -0.0
    return x


def _same_point(x: float, y: float) -> bool:
    if math.isinf(x) or math.isinf(y):
        return math.isinf(x) and math.isinf(y)
    return abs(x - y) <= TANGENCY_TOL * max(1.0, abs(x), abs(y))


@dataclass(frozen=True, eq=False)
class GeodesicH2:
    """Unoriented geodesic given by an unordered pair of ideal endpoints."""

    p: float
    q: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "p", _boundary(self.p))
        object.__setattr__(self, "q", _boundary(self.q))
        if _same_point(self.p, self.q):
            raise ValueError("geodesic needs two distinct ideal endpoints")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GeodesicH2):
            return NotImplemented
        return {self.p, self.q} == {other.p, other.q}

    def __hash__(self) -> int:
        return hash(frozenset((self.p, self.q)))


@dataclass(frozen=True)
class MoebiusMap:
    """Real fractional linear map z -> (a z + b) / (c z + d), det = 1."""

    a: float
    b: float
    c: float
    d: float

    def __post_init__(self) -> None:
        det = self.a * self.d - self.b * self.c
        if not math.isfinite(det) or abs(det - 1.0) > _DET_TOL:
            raise ValueError(f"determinant {det!r} is not 1 within {_DET_TOL}")

    def trace(self) -> float:
        return self.a + self.d

    def compose(self, other: MoebiusMap) -> MoebiusMap:
        """Matrix product self @ other, acting with other first."""
        return MoebiusMap(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    __matmul__ = compose

    def inverse(self) -> MoebiusMap:
        return MoebiusMap(self.d, -self.b, -self.c, self.a)


def compose_many(maps: Iterable[MoebiusMap]) -> MoebiusMap:
    """Left-to-right product, renormalized to det = 1 once at the end.

    Accumulates raw entries so only the final map is validated; long
    products would otherwise trip the determinant check on rounding
    accumulated mid-product. Raises ValueError when the determinant is
    lost: once the entries grow so large that a d - b c cancels to 0, or
    overflows.
    """
    a, b, c, d = 1.0, 0.0, 0.0, 1.0
    for m in maps:
        a, b = a * m.a + b * m.c, a * m.b + b * m.d
        c, d = c * m.a + d * m.c, c * m.b + d * m.d
    s = _unit_scale(a * d - b * c)
    return MoebiusMap(a * s, b * s, c * s, d * s)


def _unit_scale(det: float) -> float:
    if det == 0.0 or not math.isfinite(det):
        raise ValueError(f"product lost its determinant to rounding (a d - b c = {det!r})")
    return 1.0 / math.sqrt(abs(det))


def mobius_apply(m: MoebiusMap, x: float) -> float:
    """Image of a boundary point under the fractional linear action.

    Returns a float of R u {+-oo}; raises ValueError for a NaN point.
    """
    x = _boundary(x)
    if math.isinf(x):
        if m.c == 0.0:
            return INF
        return m.a / m.c
    den = m.c * x + m.d
    if den == 0.0:
        return INF
    w = (m.a * x + m.b) / den
    if math.isnan(w):
        # Both a x and c x overflowed; divide through by x instead.
        den = m.c + m.d / x
        return (m.a + m.b / x) / den if den else INF
    return w


def translate_geodesic(m: MoebiusMap, g: GeodesicH2) -> GeodesicH2:
    return GeodesicH2(mobius_apply(m, g.p), mobius_apply(m, g.q))


def axis_of(m: MoebiusMap) -> GeodesicH2:
    """Invariant geodesic of a hyperbolic element.

    Requires |trace| > 2, else raises ValueError, as it does for a map
    whose only fixed point is oo. Fixed points on the boundary solve
    c z^2 + (d - a) z - b = 0, whose discriminant (a - d)^2 + 4 b c is
    trace^2 - 4 det. A det off 1 by up to 1e-6 can make it negative with
    |trace| > 2: such a map is elliptic, and a discriminant <= 0 raises
    ValueError too. Otherwise the roots are h / c and -b / h,
    h = ((a - d) + sign(a - d) sqrt((a - d)^2 + 4 b c)) / 2, which is
    free of cancellation and, taken in halves, of overflow, and which
    holds at whatever det the map has: near trace 2, where trace^2 - 4
    is far from the discriminant, the roots stay the fixed points. A
    root beyond the double range reads oo.
    """
    tr = m.trace()
    if abs(tr) <= 2.0:
        raise ValueError("axis is defined only for hyperbolic maps, |trace| > 2")
    if m.c == 0.0:
        if m.d == m.a:
            raise ValueError("map fixes only oo; its determinant is not 1")
        # One endpoint is oo, the finite one solves (d - a) z = b.
        return GeodesicH2(m.b / (m.d - m.a), INF)
    gap = m.a - m.d
    disc = gap * gap + 4.0 * m.b * m.c
    if disc <= 0.0:  # an overflow to inf - inf is NaN and passes
        raise ValueError("map is not hyperbolic: (a - d)^2 + 4 b c <= 0")
    # Past |trace| ~ 1.34e154 the discriminant overflows (or is inf - inf);
    # there it is trace^2 - 4 det with det within 1e-6 of 1, and the 4 det
    # is far below half an ulp of trace^2, so the root rounds to |trace|.
    root = math.sqrt(disc) if disc < INF else abs(tr)
    h = 0.5 * gap + math.copysign(0.5 * root, gap)
    return GeodesicH2(h / m.c, -m.b / h)


def translation_length(m: MoebiusMap) -> float:
    """Length of translation along the axis, 2 arccosh(|trace| / 2)."""
    tr = abs(m.trace())
    if tr <= 2.0:
        raise ValueError("translation length is defined only for |trace| > 2")
    return 2.0 * math.acosh(0.5 * tr)


@dataclass(frozen=True)
class UValue:
    """Normalized position invariant of an ordered pair of geodesics.

    For a crossing pair the value is the cosine of the intersection
    angle, in [0, 1). For a disjoint pair it is the hyperbolic cosine of
    the distance between them, above 1. The tangent case value = 1 is
    rejected either way.
    """

    value: float
    crossing: bool

    def __post_init__(self) -> None:
        if not math.isfinite(self.value) or self.value < 0.0:
            raise ValueError("u must be finite and nonnegative")
        if self.crossing and self.value >= 1.0:
            raise ValueError("crossing pairs have u < 1")
        if not self.crossing and self.value <= 1.0:
            raise ValueError("disjoint pairs have u > 1")


def u_value(g1: GeodesicH2, g2: GeodesicH2) -> UValue:
    """Position invariant of g2 relative to g1.

    g1 is moved to the vertical axis (0, oo); if p, q are the images of
    g2's endpoints the invariant is |p + q| / |p - q|, and the pair
    crosses exactly when p and q have opposite signs. Shared endpoints
    and tangency are rejected.
    """
    p1, q1 = g1.p, g1.q
    p2, q2 = g2.p, g2.q
    if (
        _same_point(p2, p1)
        or _same_point(p2, q1)
        or _same_point(q2, p1)
        or _same_point(q2, q1)
    ):
        raise ValueError("geodesics share an ideal endpoint")

    if math.isinf(p1):
        p1, q1 = q1, p1
    if math.isinf(q1):
        # Translation z -> z - p1 takes (p1, oo) to (0, oo).
        p = q2 - p1 if not math.isinf(q2) else INF
        q = p2 - p1 if not math.isinf(p2) else INF
        if math.isinf(p) or math.isinf(q):
            raise ValueError("pair is tangent at infinity")
    else:
        # z -> (z - p1) / (z - q1) takes (p1, q1) to (0, oo); oo maps to 1.
        p = 1.0 if math.isinf(p2) else (p2 - p1) / (p2 - q1)
        q = 1.0 if math.isinf(q2) else (q2 - p1) / (q2 - q1)

    s = abs(p + q)
    d = abs(p - q)
    if d <= TANGENCY_TOL * max(1.0, abs(p), abs(q)):
        raise ValueError("degenerate pair, images coincide")
    value = s / d
    crossing = (p < 0.0) != (q < 0.0)
    if value == 1.0:
        raise ValueError("tangent pair, u = 1")
    return UValue(value=value, crossing=crossing)


def collar_area(r: float) -> float:
    """Embedded collar area profile 2 arctan(sinh r) cosh^2 r + 2 sinh r.

    Strictly increasing, equal to pi + 2 at r = arcsinh(1), and
    asymptotic to pi cosh^2 r - 4 / (3 sinh r) for large r. Beyond the
    double range, r = inf included, the value saturates to inf, which
    downstream ratios treat as an exact zero reciprocal.
    """
    if not r >= 0.0:
        raise ValueError("collar half-width must be nonnegative")
    if r > 700.0:
        return INF
    s = math.sinh(r)
    c = math.cosh(r)
    # c * c overflows to inf around r = 355, which is the intended
    # saturation; ** would raise OverflowError there instead.
    return 2.0 * math.atan(s) * c * c + 2.0 * s
