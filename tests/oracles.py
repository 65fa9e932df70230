"""Reference implementations that the production code replaced.

The full-tree coset kernel is kept here verbatim, outside the package,
as an oracle: the quarter-tree kernel of wpstrata must reproduce it bit
for bit where the tests say so. delta11_sides is the quadrature of
delta11_bracket on top of it, returning each side's (value, err,
evals).

More are kept verbatim for the same reason: F_pair, the interaction
envelope before large lengths saturated; and brute_force_words, the
two-pass brute-force coset enumeration that cli._brute_force_cosets
does in one pass. It still enumerates words up to the length cap + 4,
and so it is the reference that pins cli's cut at the cap: words past
the cap strip to no new coset.

The scalar path under integral_H is kept as it was before it was
tuned, for bit-for-bit comparison: a_hat with its own term count and
loop, which raises over riera's term cap of 128 without summing. Its
count, term_count, is the least n whose tail bound 2 x^n / (n (1 - x)),
x^n built by repeated multiplication, is at most tol: the rule riera's
a_hat stops by, and the count that riera's table of term counts at the
default tol, _BREAKS, is derived from and checked against. Then
a_closed, the closed form that raised where T/2 is 0, and a_exact, the
same closed form in mpmath that the float ones are measured against,
with F_exact and G_exact, the envelopes' definitions in mpmath; a_of_u,
the collar profile that builds a SeriesEval from a_hat;
F_pair_by_factors, the envelope on u_factor and v_factor at the rounded
series argument; G_of, the systole envelope on this a_of_u, and r_sys,
the systole collar radius by max; h_integrand, the H integrand of each
variant as a closure over its envelope; and adaptive_simpson, the depth-first recursion with its
per-node wrapper, which announces four nodes per split where
integrals.adaptive_simpson announces up to 16 per round.

c_ratios is the systole ratio sweep as it was before integrals.c_ratios
shared one integrand across lengths: one integral_H per t.

Last, the two solvers whose roots wpstrata keeps as literals: solve_L0,
the bisection for gradbounds.L0, which the tests hold equal to it bit
for bit; and calibrate_eps2, the fit of gradbounds.EPS2 to the published
thin pair sum, which the tests hold within 5e-12 of it.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from wpstrata.gradbounds import _csch, collar_radius_simple, u_factor, v_factor
from wpstrata.hyp2 import collar_area
from wpstrata.integrals import _MAX_DEPTH, SQRT_2PI, integral_H, integral_K
from wpstrata.riera import _A_SERIES_UMAX, SeriesEval, _a_closed
from wpstrata.toruscoset import PRUNE_U


def _kernel_sum(u: np.ndarray) -> tuple[float, int]:
    """Sum of R(u) over kept terms plus the pruned count.

    Disjoint terms use the log1p form. Values at or beyond PRUNE_U and
    non finite values are pruned; both only arise for far cosets whose
    true kernel term is below _PRUNED_TERM_BOUND. A crossing value
    (never observed off the identity coset) is kept with its negative
    kernel value, which can only slacken the affected bound.
    """
    finite = np.isfinite(u)
    keep = finite & (u < PRUNE_U)
    pruned = int(u.size - np.count_nonzero(keep))
    uk = u[keep]
    total = 0.0
    disj = uk > 1.0
    ud = uk[disj]
    if ud.size:
        total += float(np.sum(ud * np.log1p(2.0 / (ud - 1.0)) - 2.0))
    uc = uk[~disj]
    if uc.size:
        ratio = (1.0 + uc) / np.maximum(1.0 - uc, 1e-300)
        total += float(np.sum(uc * np.log(ratio) - 2.0))
    return total, pruned


def _u_of(w: np.ndarray, kind: str) -> np.ndarray:
    """u of every product in the (2, 2, ...) block w, flattened."""
    if kind == "AA":
        u = np.multiply(w[0, 1], w[1, 0])
        u *= 2.0
        u += 1.0
    else:
        u = np.multiply(w[0, 1], w[1, 1])
        u -= w[0, 0] * w[1, 0]
    return np.abs(u, out=u).reshape(-1)


def coset_sums(t: float, maxlen: int) -> tuple[float, float, int]:
    """Partial AA and nonidentity AB kernel sums through length maxlen."""
    if maxlen == 0:
        return 0.0, 0.0, 0
    e = math.exp(0.5 * t)
    sh = _csch(0.5 * t)
    ch = math.hypot(1.0, sh)
    scale = np.array([e, 1.0 / e]).reshape(1, 2, 1)  # A on the right
    b = [[ch, sh], [sh, ch]]
    # Level 1 in the layout A, B, A^-1, B^-1, A, B: the words B and B^-1.
    mats = np.array([b, [[ch, -sh], [-sh, ch]], b]).transpose(1, 2, 0)
    na, nb = 0, 1  # words per A group and per B group
    s_aa = 0.0
    s_ab = 0.0
    pruned = 0
    for level in range(1, maxlen + 1):
        if level > 1:
            ma, mb = na + 2 * nb, 2 * na + nb
            n = 2 * (ma + mb)
            nxt = np.empty((2, 2, n if level == maxlen else n + ma + mb))
            # Parents: B^-1 A B for A, A B A^-1 for B, and so on.
            np.multiply(mats[..., 2 * na + nb :], scale, out=nxt[..., :ma])
            np.multiply(mats[..., na : 2 * na + 2 * nb], scale[:, ::-1], out=nxt[..., ma + mb : 2 * ma + mb])
            tmp = np.empty((2, 2, mb))
            for parents, child, s in (
                (mats[..., : 2 * na + nb], nxt[..., ma : ma + mb], sh),
                (mats[..., na + nb : 3 * na + 2 * nb], nxt[..., 2 * ma + mb : n], -sh),
            ):
                np.multiply(parents, ch, out=child)
                child += np.multiply(parents[:, ::-1], s, out=tmp)  # column swap
            if level < maxlen:
                nxt[..., n:] = nxt[..., : ma + mb]
            mats, na, nb = nxt, ma, mb
        # The four groups read as two halves, (A, B) and (A^-1, B^-1).
        halves = mats[..., : 2 * (na + nb)].reshape(2, 2, 2, na + nb)
        part_aa, cut_aa = _kernel_sum(_u_of(halves[..., na:], "AA"))
        part_ab, cut_ab = _kernel_sum(_u_of(halves[..., :na], "AB"))
        s_aa += part_aa
        s_ab += part_ab
        pruned += cut_aa + cut_ab
    return s_aa, s_ab, pruned


def delta11_sides(max_word_length: int, quad_tol: float) -> list[tuple[float, float, int]]:
    """(value, err, evals) of the lower and the upper delta11 integral."""
    t_top = 2.0 * math.asinh(1.0)
    y_top = math.sqrt(t_top)
    cache: dict[float, tuple[float, float, int]] = {}

    def sums(tt: float) -> tuple[float, float, int]:
        got = cache.get(tt)
        if got is None:
            got = coset_sums(tt, max_word_length)
            cache[tt] = got
        return got

    def f_lower(y: float) -> float:
        if y == 0.0:
            return 2.0 * SQRT_2PI
        tt = y * y
        _, s_ab, _ = sums(tt)
        q_hi = (2.0 / math.pi) * math.sinh(0.5 * tt) * (2.0 - s_ab)
        return 4.0 * y / math.sqrt(q_hi)

    def f_upper(y: float) -> float:
        if y == 0.0:
            return 2.0 * SQRT_2PI
        tt = y * y
        s_aa, _, _ = sums(tt)
        q_lo = (2.0 / math.pi) * (tt + s_aa)
        return 4.0 * y / math.sqrt(q_lo)

    half = 0.5 * quad_tol
    return [adaptive_simpson(f, 0.0, y_top, half) for f in (f_lower, f_upper)]


def term_count(x: float, tol: float = 1e-14, cap: int = 128) -> int:
    """The least n >= 1 with 2 x^n / (n (1 - x)) <= tol, x^n built by
    repeated multiplication, for x in [0, 1); cap + 1 where it is over
    cap."""
    p = 1.0
    for n in range(1, cap + 1):
        p *= x
        if 2.0 * p / (n * (1.0 - x)) <= tol:
            return n
    return cap + 1


def a_hat(u: float, tol: float = 1e-14) -> SeriesEval:
    """riera.a_hat with its own term count and its own scalar loop."""
    if not 0.0 <= u < 1.0:
        raise ValueError("series argument must satisfy 0 <= u < 1")
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    x = u * u
    n = term_count(x, tol)
    if n > 128:
        raise RuntimeError("series tolerance not reached within term cap")
    total = 0.0
    p = 1.0
    for m in range(n):
        total += 8.0 * (m + 1) * p / ((2.0 * m + 1.0) * (2.0 * m + 3.0))
        p *= x
    return SeriesEval(total, 2.0 * p / (n * (1.0 - x)), n)


def a_closed(T: float) -> float:
    """Closed-form collar profile; raises ZeroDivisionError where T/2 is 0."""
    return math.exp(2.0 * T) * (
        2.0 * math.cosh(T) * math.log(1.0 / math.tanh(0.5 * T)) - 2.0
    )


def a_exact(T, dps: int = 50):
    """a(T) = e^(2T) (2 cosh(T) log(coth(T/2)) - 2) in mpmath at T itself,
    a float or an mpf. The bracket cancels to about e^(-2T), 0.87 T
    digits, so T digits are added to the dps kept. log(coth(T/2)) is
    taken as arcsinh(1 / sinh(T)), which keeps its relative accuracy at
    both ends: coth(T/2) itself rounds to 1 past T of about 150."""
    import mpmath

    with mpmath.workdps(dps + int(T)):
        t = mpmath.mpf(T)
        return mpmath.exp(2 * t) * (2 * mpmath.cosh(t) * mpmath.asinh(1 / mpmath.sinh(t)) - 2)


def F_exact(l_alpha: float, l_beta: float, dps: int = 50):
    """F_pair's definition in mpmath: a(r_a + r_b) uf(l_alpha) vf(l_beta)
    sinh(l_alpha/2) sinh^2(l_beta/2), r = arcsinh(1 / sinh(l/2)) the
    simple collar radius, uf and vf the decay factors."""
    import mpmath

    with mpmath.workdps(dps):
        la, lb = mpmath.mpf(l_alpha), mpmath.mpf(l_beta)
        sa, sb, ca, cb = mpmath.sinh(la / 2), mpmath.sinh(lb / 2), mpmath.cosh(la / 2), mpmath.cosh(lb / 2)
        uf = (2 * ca + 1) / (3 * (ca + 1) ** 2)
        vf = 1 / (mpmath.atan(1 / sb) * cb**2 + sb)
        T = mpmath.asinh(1 / sa) + mpmath.asinh(1 / sb)
        return a_exact(T, dps) * uf * vf * sa * sb**2


def G_exact(r: float, s: float, dps: int = 50):
    """G_of's definition in mpmath: a(r + s) (e^-r + e^-3r / 3) / A(s),
    A(s) = 2 arctan(sinh s) cosh^2 s + 2 sinh s the collar area."""
    import mpmath

    with mpmath.workdps(dps):
        r, s = mpmath.mpf(r), mpmath.mpf(s)
        area = 2 * mpmath.atan(mpmath.sinh(s)) * mpmath.cosh(s) ** 2 + 2 * mpmath.sinh(s)
        return a_exact(r + s, dps) * (mpmath.exp(-r) + mpmath.exp(-3 * r) / 3) / area


def a_of_u(u: float) -> float:
    """Collar profile at series argument u in (0, 1), through a_hat."""
    if u <= _A_SERIES_UMAX:
        ev = a_hat(u)
        return ev.value + 0.5 * ev.tail_bound
    return a_closed(-math.log(u))


def F_pair_by_factors(l_alpha: float, l_beta: float) -> float:
    """The interaction envelope on u_factor and v_factor at the rounded
    series argument u, as F_pair takes it where u is at most tanh^2 3;
    inf past the double range of sinh, ZeroDivisionError where u rounds
    to 1."""
    if l_alpha <= 0.0 or l_beta <= 0.0:
        raise ValueError("lengths must be positive")
    if l_alpha > l_beta:
        raise ValueError("requires l_alpha <= l_beta")
    try:
        sa = math.sinh(0.5 * l_alpha)
        sb = math.sinh(0.5 * l_beta)
    except OverflowError:
        return math.inf
    u = math.tanh(0.25 * l_alpha) * math.tanh(0.25 * l_beta)
    return a_of_u(u) * u_factor(l_alpha) * v_factor(l_beta) * sa * sb * sb


def G_of(r: float, s: float) -> float:
    """gradbounds.G_of on the collar profile a_of_u above, as it was
    before it took a at r + s itself below T = 0.51."""
    u = math.exp(-(r + s))
    av = a_of_u(u) if u < 1.0 else _a_closed(r + s)
    num = math.exp(-r) + math.exp(-3.0 * r) / 3.0
    return av * num / collar_area(s)


def r_sys(t: float) -> float:
    """The systole collar radius, as max(t / 4, collar_radius_simple(t))."""
    return max(0.25 * t, collar_radius_simple(t))


def _separating_envelope(t: float) -> float:
    half = 0.5 * t
    return F_pair_by_factors(half, half) if half > 0.0 else 0.0


def _systole_envelope(t: float) -> float:
    r = r_sys(t)
    return G_of(r, r)


_ENVELOPES: dict[str, Callable[[float], float]] = {
    "plain": lambda t: F_pair_by_factors(t, t),
    "separating": _separating_envelope,
    "systole": _systole_envelope,
}


def h_integrand(variant: str) -> Callable[[float], float]:
    """sqrt(2 pi) / sqrt(1 + F(y^2)) for the envelope F of a variant of
    integral_H, at F's limit 0 where y^2 underflows; F_pair_by_factors
    raises ZeroDivisionError where its series argument rounds to 1."""
    envelope = _ENVELOPES[variant]

    def f(y: float) -> float:
        t = y * y
        if t == 0.0:
            return SQRT_2PI
        return SQRT_2PI / math.sqrt(1.0 + envelope(t))

    return f


def adaptive_simpson(
    f: Callable[[float], float],
    a: float,
    b: float,
    tol: float,
    prefetch: Callable[[list[float]], None] | None = None,
) -> tuple[float, float, int]:
    """integrals.adaptive_simpson, every node through one checked wrapper."""
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
        if e <= tol * (x2 - x0) * inv_len and depth >= 3:
            value += sl + sr
            err += e
            return
        if depth >= _MAX_DEPTH:
            raise RuntimeError("adaptive quadrature failed to converge")
        if prefetch is not None:
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


def F_pair(l_alpha: float, l_beta: float) -> float:
    """The interaction envelope as it was before large lengths saturated."""
    if l_alpha <= 0.0 or l_beta <= 0.0:
        raise ValueError("lengths must be positive")
    if l_alpha > l_beta:
        raise ValueError("requires l_alpha <= l_beta")
    av = a_of_u(math.tanh(0.25 * l_alpha) * math.tanh(0.25 * l_beta))
    sa = math.sinh(0.5 * l_alpha)
    sb = math.sinh(0.5 * l_beta)
    return av * u_factor(l_alpha) * v_factor(l_beta) * sa * sb * sb


def brute_force_words(kind: str, max_word_length: int) -> set[tuple[int, ...]]:
    # Independent road: all reduced words up to length cap + 4, then
    # strip A powers from the appropriate ends and deduplicate.
    inv = (1, 0, 3, 2)
    out: set[tuple[int, ...]] = set()
    frontier: list[tuple[int, ...]] = [()]
    for _ in range(max_word_length + 4):
        nxt = []
        for w in frontier:
            for l in range(4):
                if w and inv[w[-1]] == l:
                    continue
                nxt.append(w + (l,))
        frontier = nxt
        for w in frontier:
            ww = list(w)
            while ww and ww[0] in (0, 1):
                ww.pop(0)
            if kind == "AA":
                while ww and ww[-1] in (0, 1):
                    ww.pop()
            else:
                while ww and ww[-1] in (2, 3):
                    ww.pop()
            if ww and len(ww) <= max_word_length:
                canon = tuple(ww)
                if kind == "AB" and canon[-1] not in (0, 1):
                    continue
                out.add(canon)
    return out


def c_ratios(ts: list[float], tol: float) -> list[float]:
    """H_sys(0, t) / K(0, t) for each t, one integral_H at a time."""
    out = []
    for t in ts:
        if not t > 0.0:
            raise ValueError("t must be positive")
        out.append(integral_H(0.0, t, "systole", tol).midpoint / integral_K(0.0, t))
    return out


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


# The bisection width at which calibrate_eps2 stops.
_CALIBRATE_XTOL = 1e-12


def calibrate_eps2() -> float:
    """Solve H(0, 4e) + H(0, 2e) = 7.611385 for the threshold e.

    The sum is strictly increasing in e with slope about 3.34, and is
    7.6113763 and 7.6114096 at the ends of [arcsinh(1), arcsinh(1) +
    1e-5], so bisection there converges quickly. The frozen module
    constant gradbounds.EPS2 is the root.
    """

    def pair_sum(e: float) -> float:
        return (
            integral_H(0.0, 4.0 * e, "plain", 1e-10).midpoint
            + integral_H(0.0, 2.0 * e, "plain", 1e-10).midpoint
        )

    lo = math.asinh(1.0)
    hi = lo + 1e-5
    while hi - lo > _CALIBRATE_XTOL:
        mid = 0.5 * (lo + hi)
        if pair_sum(mid) < 7.611385:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
