"""Collar decay envelopes for squared length gradients.

The squared gradient of a geodesic length function ell on a hyperbolic
surface satisfies 2 ell / pi <= |grad ell|^2 <= (2 ell / pi)(1 + F)
where F is an interaction envelope built from the collar profile of
riera and two elementary decay factors. Everything here is scalar and
deterministic; the certified integrals in wpstrata.integrals consume
these envelopes pointwise.

Three collar radius regimes appear. A simple closed geodesic of length
ell has an embedded collar of half-width arcsinh(1 / sinh(ell / 2)); a
separating curve doubles the half-length version; and a systole of
length t gets the better of t / 4 and the simple radius, the two
crossing at the unique length L0 with sinh(L0/4) sinh(L0/2) = 1.
"""

from __future__ import annotations

import math

from .hyp2 import collar_area
from .riera import _a_closed, _a_of_u

# Thin part length threshold for the strata distance integrals.
# Calibrated so that the paired integral H(0, 4 e) + H(0, 2 e) evaluates
# to 7.611385 (see integrals.calibrate_eps2). Sits 2.62e-6 above the
# collar identity value arcsinh(1), the self-dual point of the simple
# collar radius.
EPS2 = 0.8813761988109772


def _csch(x: float) -> float:
    # 1/sinh, safe against overflow of sinh for large x. inf where x
    # underflowed to 0, the limit as x -> 0+ (1/sinh of a tiny
    # subnormal is already inf).
    if x > 350.0:
        e = math.exp(-x)
        return 2.0 * e / (1.0 - e * e)
    try:
        return 1.0 / math.sinh(x)
    except ZeroDivisionError:
        return math.inf


def collar_radius_simple(ell: float) -> float:
    """Embedded collar half-width arcsinh(1 / sinh(ell / 2)).

    Self-dual in the sense collar_radius_simple(2 *
    collar_radius_simple(ell)) == ell / 2; the fixed point of that
    pairing is ell = 2 arcsinh(1).
    """
    if not ell > 0.0:
        raise ValueError("length must be positive")
    return math.asinh(_csch(0.5 * ell))


def collar_radius_separating(ell: float) -> float:
    """Collar half-width 2 arcsinh(1 / sinh(ell / 4)) of a separating
    curve, never below the simple one."""
    if not ell > 0.0:
        raise ValueError("length must be positive")
    return 2.0 * math.asinh(_csch(0.25 * ell))


def u_factor(ell: float) -> float:
    """Decay factor (2 cosh(ell/2) + 1) / (3 (cosh(ell/2) + 1)^2).

    Equals 1/4 at ell = 0, strictly decreasing, below (4/3) e^(-ell/2).
    Within 32 ulp of the exact value for ell in [1e-3, 12].
    """
    if not ell >= 0.0:
        raise ValueError("length must be nonnegative")
    if ell > 700.0:
        # (c + 1)^2 would overflow; relative error ~ 3 e^-(ell/2) here,
        # beneath double precision.
        return (4.0 / 3.0) * math.exp(-0.5 * ell)
    c = math.cosh(0.5 * ell)
    return (2.0 * c + 1.0) / (3.0 * (c + 1.0) ** 2)


def v_factor(ell: float) -> float:
    """Decay factor 1 / (arctan(csch(ell/2)) cosh^2(ell/2) + sinh(ell/2)).

    Tends to 2/pi as ell -> 0, strictly decreasing, below e^(-ell/2).
    Within 32 ulp of the exact value for ell in [1e-3, 12].
    """
    if not ell >= 0.0:
        raise ValueError("length must be nonnegative")
    if ell > 700.0:
        return math.exp(-0.5 * ell)
    s = math.sinh(0.5 * ell)
    if s == 0.0:
        # ell = 0, or ell / 2 underflowed: the limit value.
        return 2.0 / math.pi
    c = math.cosh(0.5 * ell)
    return 1.0 / (math.atan(1.0 / s) * c * c + s)


def G_of(r: float, s: float) -> float:
    """Interaction envelope in collar radius form.

    a(r + s) (e^-r + e^-3r / 3) / A(s) with A the collar area profile.
    Strictly decreasing in each argument; saturating areas and
    underflowing exponentials make far tails exact zeros. Where
    e^-(r + s) rounds to 1, a is taken at T = r + s directly; it and G
    grow without bound as r + s -> 0 and saturate to inf once
    1 / tanh((r + s) / 2) overflows. Within 32 ulp of the exact value at
    r = s = r_sys(t) for t in [1e-3, 12].
    """
    if not (r > 0.0 and s > 0.0):
        raise ValueError("collar radii must be positive")
    u = math.exp(-(r + s))
    av = _a_of_u(u) if u < 1.0 else _a_closed(r + s)
    num = math.exp(-r) + math.exp(-3.0 * r) / 3.0
    return av * num / collar_area(s)


def F_pair(l_alpha: float, l_beta: float) -> float:
    """Interaction envelope for an ordered length pair l_alpha <= l_beta.

    Equals a(r_a + r_b) u_factor(l_alpha) v_factor(l_beta)
    sinh(l_alpha/2) sinh^2(l_beta/2) with r the simple collar radii,
    and agrees with G_of(r_a, r_b) to working precision. The combined
    radius enters through e^-(r_a + r_b) = tanh(l_alpha/4)
    tanh(l_beta/4), which avoids the inverse solve entirely. Within 32
    ulp of the exact value on the diagonals (t, t) and (t/2, t/2) for t
    in [1e-3, 12]; less accurate from about t = 16.6 on, where that
    product is within ulps of 1.

    Large lengths saturate. Where that product rounds to 1 (both
    lengths above about 76), a is taken at
    T = log1p(2 / expm1(l_alpha/2)) + log1p(2 / expm1(l_beta/2)), which
    there equals 2 (e^-(l_alpha/2) + e^-(l_beta/2)) to double precision.
    Where sinh(l_beta/2) leaves the double range (l_beta above about
    1421, or inf) the value is inf, so an integrand 1 / sqrt(1 + F) is exactly
    0; F is past 1e300 well before that.
    """
    if not (l_alpha > 0.0 and l_beta > 0.0):
        raise ValueError("lengths must be positive")
    if l_alpha > l_beta:
        raise ValueError("requires l_alpha <= l_beta")
    # Each hyperbolic function of a length is taken once; on the
    # diagonal the second length reuses the first one's.
    same = l_alpha == l_beta
    try:
        sa = math.sinh(0.5 * l_alpha)
        sb = sa if same else math.sinh(0.5 * l_beta)
    except OverflowError:
        return math.inf
    ta = math.tanh(0.25 * l_alpha)
    u = ta * ta if same else ta * math.tanh(0.25 * l_beta)
    if not u < 1.0:
        # Saturated: pair each decay factor with its sinh (products near
        # 2/3 and 1/2), so that subnormal factors cannot underflow the
        # product. An infinite l_beta has sinh inf, as past 1421.
        if sb == math.inf:
            return math.inf
        av = _a_closed(2.0 * (math.exp(-0.5 * l_alpha) + math.exp(-0.5 * l_beta)))
        return av * (u_factor(l_alpha) * sa) * (v_factor(l_beta) * sb) * sb
    # u_factor and v_factor by their formulas, on the cosh above. u < 1
    # keeps l_alpha under 77; v_factor keeps its own branches for l_beta
    # past 700 and for l_beta / 2 underflowing to 0; an infinite l_beta
    # reads inf, as above.
    ca = math.cosh(0.5 * l_alpha)
    uf = (2.0 * ca + 1.0) / (3.0 * (ca + 1.0) ** 2)
    if sb != 0.0 and l_beta <= 700.0:
        cb = ca if same else math.cosh(0.5 * l_beta)
        vf = 1.0 / (math.atan(1.0 / sb) * cb * cb + sb)
    elif sb == math.inf:
        return math.inf
    else:
        vf = v_factor(l_beta)
    return _a_of_u(u) * uf * vf * sa * sb * sb


def grad_sq_upper_single(ell: float) -> float:
    """Upper bound (2 ell / pi)(1 + F_pair(ell, ell)) for the squared
    gradient of a simple nonseparating length."""
    if not ell > 0.0:
        raise ValueError("length must be positive")
    return (2.0 * ell / math.pi) * (1.0 + F_pair(ell, ell))


def grad_sq_upper_separating(ell: float) -> float:
    """Upper bound for a separating curve, via the half-length envelope.

    Never above grad_sq_upper_single at the same length. Where ell / 2
    underflows to 0, F takes its limit 0 and the bound is 2 ell / pi.
    """
    if not ell > 0.0:
        raise ValueError("length must be positive")
    half = 0.5 * ell
    return (2.0 * ell / math.pi) * (1.0 + (F_pair(half, half) if half > 0.0 else 0.0))


_L0_TOL = 1e-13


def solve_L0() -> float:
    """Length where the systole collar regimes meet.

    Unique root of sinh(t/4) sinh(t/2) = 1, located by bisection on
    [1, 4] down to a bracket of _L0_TOL. The product is strictly
    increasing, so the bracket is safe.
    """
    lo, hi = 1.0, 4.0
    while hi - lo > _L0_TOL:
        mid = 0.5 * (lo + hi)
        if math.sinh(0.25 * mid) * math.sinh(0.5 * mid) >= 1.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


L0 = solve_L0()


def r_sys(t: float) -> float:
    """Collar radius available at systole t.

    max(t / 4, collar_radius_simple(t)): the simple branch wins below
    L0, the linear branch above, and the function has its one local
    minimum at the crossing. Within 32 ulp of the exact value for t in
    [1e-3, 12].
    """
    # collar_radius_simple checks t; t / 4 on a tie, as max gives
    q = 0.25 * t
    r = collar_radius_simple(t)
    return r if r > q else q


def grad_sq_upper_systole(ell: float) -> float:
    """Upper bound (2 ell / pi)(1 + G_of(r, r)) with r = r_sys(ell).

    Valid when ell is the systole. The envelope term peaks at L0 and
    dies off in both directions, so the bound approaches the universal
    lower bound 2 ell / pi at both ends. It is exactly 2 ell / pi below
    about 1.1e-308, where the collar radius 1 / sinh(ell / 2) overflows
    to inf and G_of(inf, inf) is 0.
    """
    if not ell > 0.0:
        raise ValueError("length must be positive")
    r = r_sys(ell)
    return (2.0 * ell / math.pi) * (1.0 + G_of(r, r))
