"""Reference implementations that the production code replaced.

The full-tree coset kernel is kept here verbatim, outside the package,
as an oracle: the quarter-tree kernel of wpstrata must reproduce it bit
for bit where the tests say so. delta11_sides is the quadrature of
delta11_bracket on top of it, returning each side's (value, err,
evals).

Three more are kept verbatim for the same reason: long_sum_direct, the
one-dot-per-block long series that riera._long_sum now sums from
moments far out; F_pair, the interaction envelope before large lengths
saturated; and brute_force_words, the two-pass brute-force coset
enumeration that cli._brute_force_cosets does in one pass.
"""

from __future__ import annotations

import math

import numpy as np

from wpstrata.gradbounds import _csch, u_factor, v_factor
from wpstrata.integrals import SQRT_2PI, adaptive_simpson
from wpstrata.riera import _BLOCK, _a_of_u
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


def long_sum_direct(n: int, log_x: float) -> float:
    """sum_{m < n} c_m x^m, one numpy dot product per block of _BLOCK terms."""
    powers = np.exp(np.arange(min(n, _BLOCK), dtype=np.float64) * log_x)
    odd = np.arange(1.0, 2.0 * len(powers) + 2.0, 2.0)
    total = 0.0
    for m0 in range(0, n, _BLOCK):
        k = min(_BLOCK, n - m0)
        r = 2.0 / (odd + 2.0 * m0)  # 2 / (2m + 1) for m = m0 .. m0 + k
        total += math.exp(m0 * log_x) * float(np.dot(r[:k] + r[1 : k + 1], powers[:k]))
    return total


def F_pair(l_alpha: float, l_beta: float) -> float:
    """The interaction envelope as it was before large lengths saturated."""
    if l_alpha <= 0.0 or l_beta <= 0.0:
        raise ValueError("lengths must be positive")
    if l_alpha > l_beta:
        raise ValueError("requires l_alpha <= l_beta")
    av = _a_of_u(math.tanh(0.25 * l_alpha) * math.tanh(0.25 * l_beta))
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
