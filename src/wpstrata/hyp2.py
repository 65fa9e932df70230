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

# Long matrix products drift away from det = 1; renormalize this often.
RENORM_EVERY = 32

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

    def endpoints(self) -> tuple[float, float]:
        return (self.p, self.q)

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

    @classmethod
    def identity(cls) -> MoebiusMap:
        return cls(1.0, 0.0, 0.0, 1.0)

    def det(self) -> float:
        return self.a * self.d - self.b * self.c

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

    def renormalized(self) -> MoebiusMap:
        s = math.sqrt(abs(self.det()))
        return MoebiusMap(self.a / s, self.b / s, self.c / s, self.d / s)


def compose_many(maps: Iterable[MoebiusMap]) -> MoebiusMap:
    """Left-to-right product with periodic determinant renormalization.

    Accumulates raw entries so only the final map is validated; long
    products would otherwise trip the determinant check on rounding
    accumulated mid-product. Raises ValueError when the determinant is
    lost: once the entries grow so large that a d - b c cancels to 0, or
    overflows.
    """
    a, b, c, d = 1.0, 0.0, 0.0, 1.0
    for k, m in enumerate(maps, start=1):
        a, b = a * m.a + b * m.c, a * m.b + b * m.d
        c, d = c * m.a + d * m.c, c * m.b + d * m.d
        if k % RENORM_EVERY == 0:
            s = _unit_scale(a * d - b * c)
            a, b, c, d = a * s, b * s, c * s, d * s
    s = _unit_scale(a * d - b * c)
    return MoebiusMap(a * s, b * s, c * s, d * s)


def _unit_scale(det: float) -> float:
    if det == 0.0 or not math.isfinite(det):
        raise ValueError(f"product lost its determinant to rounding (a d - b c = {det!r})")
    return 1.0 / math.sqrt(abs(det))


def mobius_apply(m: MoebiusMap, x: float) -> float:
    """Image of a boundary point under the fractional linear action."""
    x = _boundary(x)
    if math.isinf(x):
        if m.c == 0.0:
            return INF
        return m.a / m.c
    den = m.c * x + m.d
    if den == 0.0:
        return INF
    return (m.a * x + m.b) / den


def translate_geodesic(m: MoebiusMap, g: GeodesicH2) -> GeodesicH2:
    return GeodesicH2(mobius_apply(m, g.p), mobius_apply(m, g.q))


def axis_of(m: MoebiusMap) -> GeodesicH2:
    """Invariant geodesic of a hyperbolic element.

    Requires |trace| > 2. Fixed points on the boundary solve
    c z^2 + (d - a) z - b = 0; the discriminant is trace^2 - 4 because
    det = 1. The root pair is computed in the cancellation-free order.
    """
    tr = m.trace()
    if abs(tr) <= 2.0:
        raise ValueError("axis is defined only for hyperbolic maps, |trace| > 2")
    if m.c == 0.0:
        # One endpoint is oo, the finite one solves (d - a) z = b.
        return GeodesicH2(m.b / (m.d - m.a), INF)
    root = math.sqrt(tr * tr - 4.0)
    z1 = (m.a - m.d + math.copysign(root, m.a - m.d)) / (2.0 * m.c)
    if z1 == 0.0:
        # Possible only when b = 0, where the other root is (a - d) / c.
        return GeodesicH2(0.0, (m.a - m.d) / m.c)
    # Root product is -b/c, so recover the second root by division.
    return GeodesicH2(z1, -m.b / (m.c * z1))


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
