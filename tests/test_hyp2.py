"""Upper half-plane primitives: geodesics, Moebius maps, u-values, collars."""

from __future__ import annotations

import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from wpstrata.hyp2 import (
    INF,
    TANGENCY_TOL,
    GeodesicH2,
    MoebiusMap,
    UValue,
    axis_of,
    collar_area,
    compose_many,
    mobius_apply,
    translate_geodesic,
    translation_length,
    u_value,
)


def _random_unit_map(rng: np.random.Generator) -> MoebiusMap | None:
    a, b, c, d = (float(x) for x in rng.normal(0.0, 1.0, size=4))
    det = a * d - b * c
    if det < 0.1:
        return None
    s = 1.0 / math.sqrt(det)
    return MoebiusMap(a * s, b * s, c * s, d * s)


class TestGeodesic:
    def test_unordered_equality(self):
        assert GeodesicH2(0.0, 1.0) == GeodesicH2(1.0, 0.0)
        assert hash(GeodesicH2(0.0, 1.0)) == hash(GeodesicH2(1.0, 0.0))
        assert GeodesicH2(0.0, 1.0) != GeodesicH2(0.0, 2.0)

    def test_infinite_endpoint(self):
        g = GeodesicH2(0.0, INF)
        assert (g.p, g.q) == (0.0, INF)
        assert GeodesicH2(INF, 0.0) == g

    def test_coincident_endpoints_rejected(self):
        with pytest.raises(ValueError):
            GeodesicH2(2.0, 2.0)
        with pytest.raises(ValueError):
            GeodesicH2(INF, INF)

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            GeodesicH2(math.nan, 1.0)


class TestMoebius:
    def test_determinant_enforced(self):
        with pytest.raises(ValueError):
            MoebiusMap(1.0, 0.0, 0.0, 2.0)
        with pytest.raises(ValueError):
            MoebiusMap(math.nan, 0.0, 0.0, 1.0)

    def test_inverse_composes_to_identity(self):
        m = MoebiusMap(2.0, 0.3, 0.5, 0.575)
        ident = m @ m.inverse()
        assert math.isclose(ident.a, 1.0, abs_tol=1e-12)
        assert math.isclose(ident.d, 1.0, abs_tol=1e-12)
        assert abs(ident.b) < 1e-12 and abs(ident.c) < 1e-12

    def test_apply_basics(self):
        m = MoebiusMap(2.0, 1.0, 1.0, 1.0)
        assert mobius_apply(m, INF) == 2.0
        assert mobius_apply(m, -1.0) == INF
        assert mobius_apply(MoebiusMap(1.0, 0.0, 0.0, 1.0), 3.5) == 3.5

    def test_compose_many_determinant_drift(self):
        # bounded (elliptic) factors keep the product conditioned, so
        # drift is purely from rounding and the final renormalization
        # must hold it
        rng = np.random.default_rng(7)
        maps = []
        for th in rng.uniform(0.0, math.pi, size=500):
            ct, st_ = math.cos(float(th)), math.sin(float(th))
            maps.append(MoebiusMap(ct, -st_, st_, ct))
        prod = compose_many(maps)
        assert abs(prod.a * prod.d - prod.b * prod.c - 1.0) < 1e-12
        assert abs(prod.trace()) <= 2.0 + 1e-9

    def test_compose_many_lost_determinant(self):
        # B of the square family at t = 0.05: the fifth power has entries
        # near 1e9 and its determinant cancels to exactly 0
        sh = 1.0 / math.sinh(0.025)
        b = MoebiusMap(math.hypot(1.0, sh), sh, sh, math.hypot(1.0, sh))
        with pytest.raises(ValueError, match="lost its determinant"):
            compose_many([b] * 5)
        with pytest.raises(ValueError, match="lost its determinant"):
            compose_many([MoebiusMap(1e200, 0.0, 0.0, 1e-200)] * 2)

    def test_compose_many_matches_direct(self):
        rng = np.random.default_rng(13)
        maps = []
        while len(maps) < 6:
            m = _random_unit_map(rng)
            if m is not None:
                maps.append(m)
        prod = compose_many(maps)
        direct = maps[0]
        for m in maps[1:]:
            direct = direct @ m
        for got, want in zip(
            (prod.a, prod.b, prod.c, prod.d), (direct.a, direct.b, direct.c, direct.d)
        ):
            assert math.isclose(got, want, rel_tol=1e-10, abs_tol=1e-10)


class TestTranslationLength:
    def test_diagonal(self):
        t = 1.8
        m = MoebiusMap(math.exp(t / 2), 0.0, 0.0, math.exp(-t / 2))
        assert math.isclose(translation_length(m), t, rel_tol=1e-14)

    def test_symmetric_generator(self):
        s = 2.2
        ch, sh = math.cosh(s / 2), math.sinh(s / 2)
        m = MoebiusMap(ch, sh, sh, ch)
        assert math.isclose(translation_length(m), s, rel_tol=1e-13)

    def test_inverse_same_length(self):
        m = MoebiusMap(math.exp(0.7), 0.0, 0.0, math.exp(-0.7))
        assert translation_length(m) == translation_length(m.inverse())

    def test_non_hyperbolic_rejected(self):
        with pytest.raises(ValueError):
            translation_length(MoebiusMap(1.0, 0.0, 0.0, 1.0))
        th = 0.4
        rot = MoebiusMap(math.cos(th), -math.sin(th), math.sin(th), math.cos(th))
        with pytest.raises(ValueError):
            translation_length(rot)

    @given(
        t=st.floats(min_value=0.05, max_value=4.0),
        n=st.integers(min_value=1, max_value=10),
    )
    @settings(deadline=None)
    def test_power_scaling(self, t, n):
        m = MoebiusMap(math.exp(t / 2), 0.0, 0.0, math.exp(-t / 2))
        p = m
        for _ in range(n - 1):
            p = p @ m
        assert math.isclose(translation_length(p), n * t, rel_tol=1e-10)


class TestAxis:
    def test_diagonal_axis(self):
        m = MoebiusMap(math.exp(0.5), 0.0, 0.0, math.exp(-0.5))
        assert axis_of(m) == GeodesicH2(0.0, INF)

    def test_symmetric_axis(self):
        ch, sh = math.cosh(0.8), math.sinh(0.8)
        m = MoebiusMap(ch, sh, sh, ch)
        axis = axis_of(m)
        got = sorted((axis.p, axis.q))
        assert math.isclose(got[0], -1.0, abs_tol=1e-12)
        assert math.isclose(got[1], 1.0, abs_tol=1e-12)

    def test_parabolic_rejected(self):
        with pytest.raises(ValueError):
            axis_of(MoebiusMap(1.0, 1.0, 0.0, 1.0))

    def test_conjugation_equivariance(self):
        # axis(G M G^-1) must be the G-image of axis(M)
        rng = np.random.default_rng(11)
        checked = 0
        while checked < 1000:
            t = float(rng.uniform(0.1, 3.0))
            g = _random_unit_map(rng)
            if g is None:
                continue
            half = math.exp(t / 2)
            m0 = MoebiusMap(half, 0.0, 0.0, 1.0 / half)
            got = axis_of(g @ m0 @ g.inverse())
            want = translate_geodesic(g, GeodesicH2(0.0, INF))
            for x, y in zip(sorted((got.p, got.q)), sorted((want.p, want.q))):
                if x == INF or y == INF:
                    assert x == y
                else:
                    assert abs(x - y) <= 1e-7 * (1.0 + max(abs(x), abs(y)))
            checked += 1


class TestUValue:
    def test_validation(self):
        with pytest.raises(ValueError):
            UValue(1.0, crossing=False)
        with pytest.raises(ValueError):
            UValue(0.5, crossing=False)
        with pytest.raises(ValueError):
            UValue(2.0, crossing=True)
        with pytest.raises(ValueError):
            UValue(-0.5, crossing=True)

    def test_orthogonal_crossing(self):
        u = u_value(GeodesicH2(0.0, INF), GeodesicH2(-1.0, 1.0))
        assert u.crossing
        assert u.value == 0.0

    def test_crossing_cosine(self):
        # semicircle (-a, b) meets the imaginary axis at angle with
        # cos = |b - a| / (a + b)
        for a, b in ((1.0, 3.0), (0.5, 0.5), (2.0, 0.25)):
            u = u_value(GeodesicH2(0.0, INF), GeodesicH2(-a, b))
            assert u.crossing
            assert math.isclose(u.value, abs(b - a) / (a + b), rel_tol=1e-13, abs_tol=1e-13)

    def test_disjoint_cosh_distance(self):
        # concentric semicircles of radii 1 and R are log R apart
        for radius in (1.5, 3.0, 10.0):
            u = u_value(GeodesicH2(-1.0, 1.0), GeodesicH2(-radius, radius))
            assert not u.crossing
            assert math.isclose(u.value, math.cosh(math.log(radius)), rel_tol=1e-12)

    def test_nested_vs_side_by_side(self):
        side = u_value(GeodesicH2(0.0, 1.0), GeodesicH2(2.0, 3.0))
        assert not side.crossing and side.value > 1.0
        nested = u_value(GeodesicH2(-4.0, 4.0), GeodesicH2(-1.0, 1.0))
        assert not nested.crossing and nested.value > 1.0

    def test_tangency_rejected(self):
        with pytest.raises(ValueError):
            u_value(GeodesicH2(0.0, INF), GeodesicH2(0.0, 1.0))
        with pytest.raises(ValueError):
            u_value(GeodesicH2(0.0, INF), GeodesicH2(1.0, INF))
        with pytest.raises(ValueError):
            u_value(GeodesicH2(0.0, 2.0), GeodesicH2(2.0, 5.0))

    def test_symmetry_of_arguments(self):
        g1 = GeodesicH2(-0.7, 2.1)
        g2 = GeodesicH2(3.0, 9.5)
        assert math.isclose(
            u_value(g1, g2).value, u_value(g2, g1).value, rel_tol=1e-12
        )

    def test_translation_invariance_random(self):
        rng = np.random.default_rng(61087)
        checked = 0
        while checked < 500:
            pts = [float(x) for x in rng.normal(0.0, 3.0, size=4)]
            if abs(pts[0] - pts[1]) < 0.1 or abs(pts[2] - pts[3]) < 0.1:
                continue
            m = _random_unit_map(rng)
            if m is None:
                continue
            g1 = GeodesicH2(pts[0], pts[1])
            g2 = GeodesicH2(pts[2], pts[3])
            try:
                u1 = u_value(g1, g2)
                u2 = u_value(translate_geodesic(m, g1), translate_geodesic(m, g2))
            except ValueError:
                continue
            if u1.value > 1e6 or abs(u1.value - 1.0) < 1e-9:
                continue
            assert abs(u1.value - u2.value) <= 1e-10 * max(1.0, u1.value)
            assert u1.crossing == u2.crossing
            checked += 1


class TestCollarArea:
    def test_self_dual_value(self):
        assert math.isclose(
            collar_area(math.asinh(1.0)), math.pi + 2.0, rel_tol=1e-14
        )

    def test_small_radius_vanishes(self):
        assert collar_area(1e-9) < 5e-9

    def test_strictly_increasing(self):
        grid = np.linspace(0.01, 25.0, 200)
        vals = [collar_area(float(r)) for r in grid]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_growth_rate(self):
        # A(r) ~ (pi/4) e^{2r}; the e^{-r} scaling used for collars of
        # fixed width grows without bound rather than approaching a limit
        assert math.isclose(
            collar_area(20.0) * math.exp(-40.0), math.pi / 4.0, rel_tol=1e-10
        )
        assert collar_area(20.0) * math.exp(-20.0) > 1e7

    def test_asymptotic_correction(self):
        for r in (3.0, 5.0, 8.0):
            approx = math.pi * math.cosh(r) ** 2 - 4.0 / (3.0 * math.sinh(r))
            assert math.isclose(collar_area(r), approx, rel_tol=1e-4)

    def test_integral_oracle(self):
        # A(r) = pi R^2 - 2 I(sinh r) with R = cosh r and
        # I(t) = 2 int_t^R sqrt(R^2 - x^2) dx
        for r in (0.5, 1.2, 2.0):
            big_r = math.cosh(r)
            i_val, err = quad(
                lambda x: math.sqrt(max(big_r**2 - x**2, 0.0)), math.sinh(r), big_r
            )
            expected = math.pi * big_r**2 - 2.0 * (2.0 * i_val)
            assert math.isclose(collar_area(r), expected, rel_tol=1e-9)
            assert err < 1e-9

    def test_saturation_and_rejection(self):
        assert collar_area(800.0) == INF
        with pytest.raises(ValueError):
            collar_area(-0.1)
        with pytest.raises(ValueError):
            collar_area(math.nan)


# Every float, NaN and the infinities included. A map's d is drawn, or
# solved from a d - b c = 1 so that most drawn maps pass the determinant
# check.
_FLOATS = st.floats()


@st.composite
def _maps(draw: st.DrawFn) -> MoebiusMap | None:
    a, b, c = draw(_FLOATS), draw(_FLOATS), draw(_FLOATS)
    if draw(st.booleans()) and math.isfinite(a) and a != 0.0:
        d = (1.0 + b * c) / a
    else:
        d = draw(_FLOATS)
    try:
        return MoebiusMap(a, b, c, d)
    except ValueError:
        return None


def _root_within(m: MoebiusMap, z: float, rel: float) -> bool:
    """c x^2 + (d - a) x - b, in exact rationals, has a root within rel |z|
    of z (within rel times the least normal double of z = 0)."""
    a, b, c, d = (Fraction(v) for v in (m.a, m.b, m.c, m.d))
    w = Fraction(rel) * Fraction(max(abs(z), sys.float_info.min))
    lo, hi = Fraction(z) - w, Fraction(z) + w

    def r(x: Fraction) -> Fraction:
        return (c * x + d - a) * x - b

    if r(lo) * r(hi) <= 0:
        return True
    # Both ends on one side: a root lies between them only around the vertex.
    v = (a - d) / (2 * c)
    return lo <= v <= hi and r(v) * r(lo) <= 0


class TestTotality:
    """Each public function returns a documented value or raises ValueError."""

    @given(p=_FLOATS, q=_FLOATS)
    @settings(deadline=None, max_examples=300)
    def test_geodesic(self, p, q):
        try:
            g = GeodesicH2(p, q)
        except ValueError:
            # NaN, or the same ideal point twice
            near = abs(p - q) <= TANGENCY_TOL * max(1.0, abs(p), abs(q))
            assert math.isnan(p) or math.isnan(q) or math.isinf(p) and math.isinf(q) or near
            return
        assert not math.isnan(g.p) and not math.isnan(g.q) and -INF not in (g.p, g.q)
        assert g == GeodesicH2(q, p)

    @given(a=_FLOATS, b=_FLOATS, c=_FLOATS, d=_FLOATS)
    @settings(deadline=None, max_examples=300)
    def test_moebius_map(self, a, b, c, d):
        try:
            m = MoebiusMap(a, b, c, d)
        except ValueError:
            assert not abs(a * d - b * c - 1.0) <= 1e-6
            return
        assert abs(a * d - b * c - 1.0) <= 1e-6
        assert math.isfinite(m.trace())

    @given(m=_maps(), x=_FLOATS)
    @settings(deadline=None, max_examples=300)
    def test_mobius_apply(self, m, x):
        if m is None:
            return
        try:
            w = mobius_apply(m, x)
        except ValueError:
            assert math.isnan(x)
            return
        assert not math.isnan(w)

    @given(maps=st.lists(_maps(), max_size=4))
    @settings(deadline=None, max_examples=200)
    def test_compose_many(self, maps):
        try:
            m = compose_many(m for m in maps if m is not None)
        except ValueError:
            return
        assert abs(m.a * m.d - m.b * m.c - 1.0) <= 1e-6

    @given(m=_maps())
    @settings(deadline=None, max_examples=300)
    def test_translation_length(self, m):
        if m is None:
            return
        try:
            ell = translation_length(m)
        except ValueError:
            assert abs(m.trace()) <= 2.0
            return
        assert math.isfinite(ell) and ell > 0.0

    @given(m=_maps())
    @settings(deadline=None, max_examples=500)
    def test_axis_of(self, m):
        if m is None:
            return
        try:
            axis = axis_of(m)
        except ValueError:
            return
        # Where the map is hyperbolic by a margin and its determinant is 1
        # to 1e-12, each finite endpoint is a fixed point to 1e-9; nearer
        # trace 2 the roots are ill-conditioned in the entries.
        det = Fraction(m.a) * Fraction(m.d) - Fraction(m.b) * Fraction(m.c)
        if abs(m.trace()) >= 2.5 and abs(det - 1) <= Fraction(1e-12):
            for z in (axis.p, axis.q):
                assert z == INF or _root_within(m, z, 1e-9), (m, axis, z)

    @given(p1=_FLOATS, q1=_FLOATS, p2=_FLOATS, q2=_FLOATS)
    @settings(deadline=None, max_examples=300)
    def test_u_value(self, p1, q1, p2, q2):
        try:
            g1, g2 = GeodesicH2(p1, q1), GeodesicH2(p2, q2)
        except ValueError:
            return
        try:
            u = u_value(g1, g2)
        except ValueError:
            return
        assert math.isfinite(u.value) and (u.value < 1.0) == u.crossing


class TestAxisRegressions:
    @pytest.mark.parametrize("s", [1e100, 1e154, 1.4e154, 1e160, 1e300])
    def test_trace_past_the_square_overflow(self, s):
        # Fixes 0 and 1 at every scale; from |trace| ~ 1.34e154 on the
        # squared trace overflowed and the axis read (oo, 0).
        m = MoebiusMap(s, 0.0, s, 1.0 / s)
        assert axis_of(m) == GeodesicH2(0.0, 1.0)
        assert mobius_apply(m, 0.0) == 0.0 and mobius_apply(m, 1.0) == 1.0

    def test_root_past_the_double_range(self):
        # The large fixed point overflows to oo; the other one, -2/3, once
        # came out as 0 from -b / (c oo).
        axis = axis_of(MoebiusMap(2.0, 1.0, 5e-324, 0.5))
        assert axis == GeodesicH2(INF, -2.0 / 3.0)

    def test_translation_within_the_determinant_tolerance(self):
        # a = d with det 1 + 2e-7: the only fixed point is oo; this once
        # divided by zero.
        with pytest.raises(ValueError):
            axis_of(MoebiusMap(1.0000001, 5.0, 0.0, 1.0000001))

    def test_elliptic_within_the_determinant_tolerance(self):
        # |trace| > 2 with det 1 + 8e-7: (a - d)^2 + 4 b c = trace^2 - 4 det
        # is -4e-12, so the map is elliptic; it once got an axis.
        m = MoebiusMap(1.0000004, -1.0, 1e-12, 1.0000004)
        assert abs(m.trace()) > 2.0
        with pytest.raises(ValueError, match="not hyperbolic"):
            axis_of(m)

    def test_near_parabolic_keeps_its_axis(self):
        # With b = +1 the discriminant is +4e-12, while trace^2 - 4 is
        # 3.2e-6 since det is 1 + 8e-7; the roots come from the
        # discriminant, and are the fixed points +-1e6.
        axis = axis_of(MoebiusMap(1.0000004, 1.0, 1e-12, 1.0000004))
        assert axis == GeodesicH2(1e6, -1e6)

    def test_apply_where_both_products_overflow(self):
        # Both a x and c x overflow; inf / inf once gave NaN.
        m = MoebiusMap(4.78145553069337e16, 0.0, 4.78145553069337e16, 2.0914133647813885e-17)
        assert mobius_apply(m, 3.7597194480267985e291) == 1.0
