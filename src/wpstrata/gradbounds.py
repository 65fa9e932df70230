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
from .riera import _A_SWITCH_T, _a_closed, _a_of_u

# Thin part length threshold for the strata distance integrals.
# Calibrated so that the paired integral H(0, 4 e) + H(0, 2 e) evaluates
# to 7.611385; the fit is in tests/oracles.py, and TestThinPairSum holds
# these bits within 5e-12 of its root. Sits 2.62e-6 above the
# collar identity value arcsinh(1), the self-dual point of the simple
# collar radius.
EPS2 = 0.8813761988109772

# F_pair takes the radius sum from the lengths above this series argument:
# -log of a rounded u loses eps / (1 - u) relative, 20 ulp of F at most up
# to here (t = 12 on the diagonal, past every record, plot and benchmark).
_NEAR_ONE = math.tanh(3.0) ** 2


def _csch(x: float) -> float:
    # 1/sinh, safe against overflow of sinh for large x; inf, the limit as
    # x -> 0+, where x is 0 or a subnormal so small that 1/sinh overflows.
    if x > 350.0:
        e = math.exp(-x)
        return 2.0 * e / (1.0 - e * e)
    try:
        return 1.0 / math.sinh(x)
    except ZeroDivisionError:
        return math.inf


def _asinh_csch(ell: float, k: float) -> float:
    # arcsinh(1 / sinh(ell / k)), or log 2k - log ell where 1 / sinh
    # overflows: from ell itself, as a subnormal ell / k may have rounded.
    if not ell > 0.0:
        raise ValueError("length must be positive")
    c = _csch(ell / k)
    return math.asinh(c) if c < math.inf else math.log(2.0 * k) - math.log(ell)


def collar_radius_simple(ell: float) -> float:
    """Embedded collar half-width arcsinh(1 / sinh(ell / 2)).

    Self-dual: collar_radius_simple(2 * collar_radius_simple(ell)) ==
    ell / 2, fixed at ell = 2 arcsinh(1). log 4 - log ell below about
    1.1e-308, where 1 / sinh(ell / 2) overflows. Within 32 ulp wherever
    the exact value is a normal double.
    """
    return _asinh_csch(ell, 2.0)


def collar_radius_separating(ell: float) -> float:
    """Collar half-width 2 arcsinh(1 / sinh(ell / 4)) of a separating
    curve, never below the simple one; 2 (log 8 - log ell) where 1 /
    sinh(ell / 4) overflows. Within 32 ulp as collar_radius_simple."""
    return 2.0 * _asinh_csch(ell, 4.0)


def u_factor(ell: float) -> float:
    """Decay factor (2 cosh(ell/2) + 1) / (3 (cosh(ell/2) + 1)^2).

    Equals 1/4 at ell = 0, strictly decreasing, below (4/3) e^(-ell/2).
    Within 32 ulp wherever the exact value is a normal double.
    """
    if not ell >= 0.0:
        raise ValueError("length must be nonnegative")
    if ell > 700.0:
        # (c + 1)^2 would overflow; the relative error 3 e^-(ell/2) is below eps
        return (4.0 / 3.0) * math.exp(-0.5 * ell)
    c = math.cosh(0.5 * ell)
    return (2.0 * c + 1.0) / (3.0 * (c + 1.0) ** 2)


def v_factor(ell: float) -> float:
    """Decay factor 1 / (arctan(csch(ell/2)) cosh^2(ell/2) + sinh(ell/2)).

    Tends to 2/pi as ell -> 0, strictly decreasing, below e^(-ell/2).
    Within 32 ulp wherever the exact value is a normal double.
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
    underflowing exponentials make far tails exact zeros. a is taken at
    T = r + s itself below riera's switch point T = 0.51, where its series
    argument e^-T is close to 1, and at e^-T from there on; it and G grow
    without bound as r + s -> 0. Within 32 ulp wherever the exact value
    is a normal double and e^-r is (r below about 708).
    """
    if not (r > 0.0 and s > 0.0):
        raise ValueError("collar radii must be positive")
    T = r + s
    av = _a_closed(T) if T < _A_SWITCH_T else _a_of_u(math.exp(-T))
    num = math.exp(-r) + math.exp(-3.0 * r) / 3.0
    return av * num / collar_area(s)


def F_pair(l_alpha: float, l_beta: float) -> float:
    """Interaction envelope for an ordered length pair l_alpha <= l_beta.

    Equals a(r_a + r_b) u_factor(l_alpha) v_factor(l_beta)
    sinh(l_alpha/2) sinh^2(l_beta/2) with r the simple collar radii,
    and agrees with G_of(r_a, r_b) to working precision. a is taken at
    the series argument e^-(r_a + r_b) = tanh(l_alpha/4) tanh(l_beta/4),
    which avoids the inverse solve, up to tanh^2 3 (t = 12 on the
    diagonal), and at the exact radius sum T = 2 atanh(e^-(l_alpha/2)) +
    2 atanh(e^-(l_beta/2)) beyond. The diagonal below tanh^2 3, the pair
    the H integrands evaluate, writes both decay factors out on one
    cosh; every other pair pairs each factor with its sinh (products
    below 2/3 and 1/2), so no partial product leaves the normal range
    before the value does. Within 32 ulp wherever the exact value and
    l_alpha/2 are normal doubles; inf where sinh(l_beta/2) overflows
    (l_beta above about 1421, or inf), so 1 / sqrt(1 + F) is exactly 0.
    """
    if not (l_alpha > 0.0 and l_beta > 0.0):
        raise ValueError("lengths must be positive")
    if l_alpha > l_beta:
        raise ValueError("requires l_alpha <= l_beta")
    # On the diagonal the second length reuses the first one's sinh.
    same = l_alpha == l_beta
    try:
        sa = math.sinh(0.5 * l_alpha)
        sb = sa if same else math.sinh(0.5 * l_beta)
    except OverflowError:
        return math.inf
    if sb == math.inf:  # an infinite l_beta, as past 1421
        return math.inf
    ta = math.tanh(0.25 * l_alpha)
    u = ta * ta if same else ta * math.tanh(0.25 * l_beta)
    if u <= _NEAR_ONE:
        if same and sa != 0.0:  # l_alpha = l_beta <= 12, and 1 / sa defined
            c = math.cosh(0.5 * l_alpha)
            uf = (2.0 * c + 1.0) / (3.0 * (c + 1.0) ** 2)
            vf = 1.0 / (math.atan(1.0 / sa) * c * c + sa)
            return _a_of_u(u) * uf * vf * sa * sa * sa
        a = _a_of_u(u)
    else:
        a = _a_closed(2.0 * (math.atanh(math.exp(-0.5 * l_alpha)) + math.atanh(math.exp(-0.5 * l_beta))))
    return a * (u_factor(l_alpha) * sa) * (v_factor(l_beta) * sb) * sb


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


# Where the systole collar regimes meet: the root of sinh(L0/4) sinh(L0/2)
# = 1, as bisection on [1, 4] to a bracket of 1e-13 returns it. That
# bisection is in tests/oracles.py; test_oracle_rebuilds_the_bits holds it.
L0 = 2.437511453743994


def r_sys(t: float) -> float:
    """Collar radius available at systole t.

    max(t / 4, collar_radius_simple(t)): the simple branch wins below
    L0, the linear branch above, and the function has its one local
    minimum at the crossing. Within 32 ulp wherever the exact value is a
    normal double, as collar_radius_simple is.
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
    about 1e-5, where 1 + G_of(r, r) rounds to 1; G_of is 0 once the
    collar area saturates past r = 700 (ell below about 4e-304).
    """
    r = r_sys(ell)  # refuses a length that is not positive
    return (2.0 * ell / math.pi) * (1.0 + G_of(r, r))
