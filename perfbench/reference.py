"""Independent reference values for the benchmark's output checks.

Nothing here runs inside a timed phase, and nothing here calls wpstrata.
The H envelopes are written out again from their closed forms, and the
integrals use scipy and mpmath quadrature, never the library's own
adaptive Simpson rule. A bracket that the library gets wrong, through its
error estimate or through a wrong envelope value, then shows up as a miss.
"""

from __future__ import annotations

import math
import warnings

import mpmath
from scipy.integrate import IntegrationWarning, quad

SQRT_2PI = math.sqrt(2.0 * math.pi)

# Below this series argument the collar profile is summed as a series;
# above it the closed form loses under one digit to cancellation.
SERIES_UMAX = 0.5
# c_n u^(2n) < 1e-19 c_0 for every u <= SERIES_UMAX once n reaches this.
SERIES_TERMS = 32


def collar_profile(u: float) -> float:
    """a(u) = sum_n 8 (n + 1) / ((2n + 1) (2n + 3)) u^(2n), 0 <= u < 1.

    The series sums to (2 (1 + u^2) artanh(u) / u - 2) / u^2, the pair
    kernel x log((x + 1) / (x - 1)) - 2 at x = (u + 1/u) / 2 over u^2.
    """
    if u > SERIES_UMAX:
        return (2.0 * (1.0 + u * u) * math.atanh(u) / u - 2.0) / (u * u)
    u2 = u * u
    return math.fsum(8.0 * (n + 1) * u2**n / ((2 * n + 1) * (2 * n + 3))
                     for n in range(SERIES_TERMS))


def pair_envelope(p: float) -> float:
    """F for two simple curves of length p: a(tanh^2(p/4)) times
    (2c + 1) / (3 (c + 1)^2) / (arctan(1/s) c^2 + s) times s^3, with
    s, c = sinh(p/2), cosh(p/2)."""
    s, c = math.sinh(0.5 * p), math.cosh(0.5 * p)
    u_decay = (2.0 * c + 1.0) / (3.0 * (c + 1.0) ** 2)
    v_decay = 1.0 / (math.atan(1.0 / s) * c * c + s)
    return collar_profile(math.tanh(0.25 * p) ** 2) * u_decay * v_decay * s**3


def systole_kink() -> float:
    """The length L0 with sinh(L0/4) sinh(L0/2) = 1, where the systole
    collar radius switches branch."""
    with mpmath.workdps(30):
        return float(mpmath.findroot(
            lambda t: mpmath.sinh(t / 4) * mpmath.sinh(t / 2) - 1, 2.4))


def systole_envelope(t: float) -> float:
    """F at systole t: a(e^-2r) (e^-r + e^-3r / 3) over the collar area
    2 arctan(sinh r) cosh^2 r + 2 sinh r, with collar radius
    r = max(t/4, arcsinh(1 / sinh(t/2)))."""
    r = max(0.25 * t, math.asinh(1.0 / math.sinh(0.5 * t)))
    area = 2.0 * math.atan(math.sinh(r)) * math.cosh(r) ** 2 + 2.0 * math.sinh(r)
    decay = math.exp(-r) + math.exp(-3.0 * r) / 3.0
    return collar_profile(math.exp(-2.0 * r)) * decay / area


L0 = systole_kink()

# The envelope F of each integral_H variant.
ENVELOPES = {
    "plain": pair_envelope,
    "separating": lambda t: pair_envelope(0.5 * t),
    "systole": systole_envelope,
}


def h_integrand(variant: str):
    """sqrt(2 pi) / sqrt(1 + F(y^2)), the H integrand after t = y^2."""
    env = ENVELOPES[variant]

    def f(y: float) -> float:
        if y == 0.0:
            return SQRT_2PI
        return SQRT_2PI / math.sqrt(1.0 + env(y * y))

    return f


def h_references(draws: list[tuple[float, float, str]]) -> list[tuple[float, float]]:
    """H(a, b) for many (a, b, variant) draws, as (value, abserr) pairs.

    Per variant, every endpoint sqrt(a), sqrt(b) (and the systole kink
    sqrt(L0), where the integrand is only continuous) cuts [0, sqrt(12)]
    into short segments. Each segment is integrated once by adaptive
    Gauss-Kronrod (QUADPACK) near machine precision, and a draw's value
    is the exactly rounded sum (math.fsum) of the segments it spans.
    abserr adds the segments' error estimates and a few ulps for the
    rounding of the integrand values, which QUADPACK does not count.
    """
    out: list[tuple[float, float]] = [(0.0, 0.0)] * len(draws)
    for variant in ENVELOPES:
        mine = [i for i, d in enumerate(draws) if d[2] == variant]
        if not mine:
            continue
        cuts = {math.sqrt(draws[i][k]) for i in mine for k in (0, 1)}
        if variant == "systole":
            cuts.add(math.sqrt(L0))
        cuts = sorted(cuts)
        at = {y: j for j, y in enumerate(cuts)}
        f = h_integrand(variant)
        values, errors = [], []
        with warnings.catch_warnings():
            # Asking for 1e-15 makes QUADPACK warn that roundoff stops it
            # short; the abserr it returns is still a safe margin.
            warnings.simplefilter("ignore", IntegrationWarning)
            for y0, y1 in zip(cuts, cuts[1:]):
                v, e = quad(f, y0, y1, epsabs=1e-15, epsrel=1e-15, limit=200)
                values.append(v)
                errors.append(e)
        for i in mine:
            j0, j1 = at[math.sqrt(draws[i][0])], at[math.sqrt(draws[i][1])]
            value = math.fsum(values[j0:j1])
            out[i] = (value, math.fsum(errors[j0:j1]) + 4.0 * math.ulp(value))
    return out


def delta11_elementary() -> tuple[float, float]:
    """The elementary interval that contains delta11, in 30-digit arithmetic.

    With every coset sum dropped, the gradient bounds are 2t/pi and
    (4/pi) sinh(t/2), so delta11 lies between the integrals of
    4y / sqrt((4/pi) sinh(y^2/2)) and of 2 sqrt(2 pi) over
    0 <= y <= sqrt(2 arcsinh(1)).
    """
    with mpmath.workdps(30):
        y_top = mpmath.sqrt(2 * mpmath.asinh(1))
        lower = mpmath.quad(
            lambda y: 2 * mpmath.sqrt(2 * mpmath.pi)
            if y == 0
            else 4 * y / mpmath.sqrt(4 / mpmath.pi * mpmath.sinh(y * y / 2)),
            [0, y_top],
        )
        upper = 2 * mpmath.sqrt(2 * mpmath.pi) * y_top
        return float(lower), float(upper)
