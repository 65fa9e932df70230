"""Double coset sums on the square one-handle family.

The family is the one-parameter curve of once punctured tori whose two
core curves are orthogonal: holonomy A = diag(e^(t/2), e^(-t/2)) along
the first curve and a symmetric positive B of translation length s along
the second, tied by sinh(t/2) sinh(s/2) = 1 so the commutator trace
stays at -2. The squared length gradient of the first curve satisfies

    |grad ell|^2 = (2/pi) (t + sum over AA cosets of R(u))
                 = (2/pi) sinh(t/2) (2 - sum over nonidentity AB cosets)

where the sums run over the double cosets of Gamma by <A>, <A> and by
<A>, <B> in the free group on A, B, and u is the position invariant of the axis
pair. Truncating the first sum keeps every dropped term positive, so
partial sums give certified lower bounds; same story on the AB side for
upper bounds. Integrating the reciprocal square root across the family
then brackets the distance delta11 between the two boundary strata.

The sums run level by level over the 3^L - 1 reduced words of length
1..L that start with a B letter. A level is one float64 (2, 2, n) array
of word products, its columns grouped by last letter in the cyclic
order A, B, A^-1, B^-1, with the first two groups appended again. A
word ending in a letter extends a word ending in that letter or in
either letter of the other generator: three cyclically adjacent groups,
so one contiguous slice. Each child group is that slice times the letter
on the right, written in place: a column scaling by e^(+-t/2) for
A^(+-1), a cosh/csch mix of the two columns for B^(+-1).
Each product and sum is rounded on its own (no fused multiply-add), so
the sums do not depend on which BLAS or SIMD code numpy dispatches to.
u_AA is read off the B groups and u_AB off the A groups. At the cap
MAX_WORD_LENGTH = 14 the deepest level holds 2 * 3^13, about 3.2M words,
and each (2, 2, n) array about 100 MB.

The u formulas use det = 1 exactly, u_AA = |1 + 2 w01 w10| and
u_AB = |w01 w11 - w00 w10|, never the determinant of the assembled
product, whose cancellation at extreme parameters is catastrophic.
Surviving cancellation in u_AB only inflates u, and inflated terms are
pruned, which is harmless for the bound direction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .gradbounds import _csch
from .hyp2 import INF, GeodesicH2, MoebiusMap, UValue, compose_many, translate_geodesic, u_value
from .integrals import SQRT_2PI, Bracket, adaptive_simpson

_INV = (1, 0, 3, 2)
_LETTER_CHARS = "AaBb"

# Disjoint cosets with u at or above this are dropped; each dropped
# kernel term is below (2/3) u^-2 ~ 6.7e-17.
PRUNE_U = 1e8
_PRUNED_TERM_BOUND = 6.8e-17

# Longest words summed or enumerated; see the module docstring for memory.
MAX_WORD_LENGTH = 14

_REL_TOL = 1e-12
_TRACE_TOL = 1e-9


@dataclass(frozen=True)
class CosetWord:
    """Canonical double coset representative in the free group on A, B.

    letters encode A, A^-1, B, B^-1 as 0..3. An AA representative is a
    reduced word that starts and ends with a B letter; an AB
    representative starts with a B letter and ends with an A letter,
    the empty word standing for the identity coset.
    """

    letters: tuple[int, ...]
    kind: str

    def __post_init__(self) -> None:
        if self.kind not in ("AA", "AB"):
            raise ValueError(f"unknown coset kind {self.kind!r}")
        for a, b in zip(self.letters, self.letters[1:]):
            if _INV[a] == b:
                raise ValueError("word is not freely reduced")
        if not all(0 <= l <= 3 for l in self.letters):
            raise ValueError("letters must be in 0..3")
        if not self.letters:
            if self.kind != "AB":
                raise ValueError("only the AB identity coset may be empty")
            return
        if self.letters[0] not in (2, 3):
            raise ValueError("canonical words start with a B letter")
        last = self.letters[-1]
        if self.kind == "AA" and last not in (2, 3):
            raise ValueError("AA words end with a B letter")
        if self.kind == "AB" and last not in (0, 1):
            raise ValueError("AB words end with an A letter")

    @property
    def is_identity(self) -> bool:
        return not self.letters

    def __len__(self) -> int:
        return len(self.letters)

    def __str__(self) -> str:
        if not self.letters:
            return "e"
        return "".join(_LETTER_CHARS[l] for l in self.letters)


def identity_coset() -> CosetWord:
    """The flagged identity AB coset, the one crossing term."""
    return CosetWord((), "AB")


@dataclass(frozen=True)
class RectTorusPoint:
    """Point of the square family with its two holonomy generators."""

    t: float
    s: float
    A: MoebiusMap
    B: MoebiusMap

    def __post_init__(self) -> None:
        rel = math.sinh(0.5 * self.t) * math.sinh(0.5 * self.s)
        if abs(rel - 1.0) > _REL_TOL:
            raise ValueError("generators must satisfy sinh(t/2) sinh(s/2) = 1")
        comm = self.A @ self.B @ self.A.inverse() @ self.B.inverse()
        if abs(comm.trace() + 2.0) > _TRACE_TOL:
            raise ValueError("commutator trace is not -2")


def holonomy(t: float) -> RectTorusPoint:
    """Square family point at first-curve length t."""
    if t <= 0.0 or not math.isfinite(t):
        raise ValueError("length must be positive and finite")
    e = math.exp(0.5 * t)
    sh = _csch(0.5 * t)
    ch = math.hypot(1.0, sh)  # cosh from sinh, keeps det at 1 exactly
    return RectTorusPoint(
        t=t,
        s=2.0 * math.asinh(sh),
        A=MoebiusMap(e, 0.0, 0.0, 1.0 / e),
        B=MoebiusMap(ch, sh, sh, ch),
    )


def _check_word_length(max_word_length: int, least: int) -> None:
    if not isinstance(max_word_length, int) or isinstance(max_word_length, bool):
        raise TypeError("max_word_length must be an int")
    if not least <= max_word_length <= MAX_WORD_LENGTH:
        raise ValueError(f"max_word_length must be in {least}..{MAX_WORD_LENGTH}")


@lru_cache(maxsize=8)
def _word_tables(maxlen: int) -> list[tuple[tuple[int, ...], ...]]:
    """Level by level reduced words starting with a B letter.

    Each level is in lexicographic order: parents in order, letters
    ascending. Only enumerate_cosets reads these.
    """
    levels = [((2,), (3,))]
    for _ in range(maxlen - 1):
        levels.append(tuple(w + (l,) for w in levels[-1] for l in range(4) if l != _INV[w[-1]]))
    return levels[:maxlen]


def enumerate_cosets(kind: str, max_word_length: int) -> list[CosetWord]:
    """Canonical nonidentity double coset words up to a length cap.

    Sorted by length, then lexicographically in the letter order
    A, A^-1, B, B^-1. The identity AB coset is not included; it is
    available flagged from identity_coset().
    """
    if kind not in ("AA", "AB"):
        raise ValueError(f"unknown coset kind {kind!r}")
    _check_word_length(max_word_length, 1)
    ends = (2, 3) if kind == "AA" else (0, 1)
    return [CosetWord(w, kind) for words in _word_tables(max_word_length) for w in words if w[-1] in ends]


def u_of_coset(point: RectTorusPoint, word: CosetWord) -> UValue:
    """Position invariant of the coset's translated axis.

    The first-curve axis (0, oo) is compared against the word image of
    the (0, oo) axis for AA cosets and of the B axis (-1, 1) for AB
    cosets. The identity AB coset yields the right angle crossing u = 0.
    """
    table = (point.A, point.A.inverse(), point.B, point.B.inverse())
    m = compose_many(table[l] for l in word.letters)
    base = GeodesicH2(0.0, INF) if word.kind == "AA" else GeodesicH2(-1.0, 1.0)
    return u_value(GeodesicH2(0.0, INF), translate_geodesic(m, base))


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


def _coset_sums(t: float, maxlen: int) -> tuple[float, float, int]:
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


def grad_sq_bracket(t: float, max_word_length: int = 8) -> Bracket:
    """Certified bracket for the squared gradient of the first length.

    Lower bound (2/pi)(t + partial AA sum), at least 2t/pi; upper bound
    (2/pi) sinh(t/2) (2 - partial AB sum), at most (4/pi) sinh(t/2).
    Raising the word length cap tightens both sides monotonically.
    """
    if t <= 0.0 or not math.isfinite(t):
        raise ValueError("length must be positive and finite")
    _check_word_length(max_word_length, 0)
    s_aa, s_ab, pruned = _coset_sums(t, max_word_length)
    lower = (2.0 / math.pi) * (t + s_aa)
    upper = (2.0 / math.pi) * math.sinh(0.5 * t) * (2.0 - s_ab)
    if lower > upper:
        raise RuntimeError("truncation bracket collapsed, bounds crossed")
    return Bracket(
        lower,
        upper,
        {
            "pruned_terms": float(pruned),
            "pruned_kernel_bound": pruned * _PRUNED_TERM_BOUND,
        },
    )


def delta11_bracket(max_word_length: int = 8, quad_tol: float = 1e-6) -> Bracket:
    """Certified bracket for the one-handle strata distance delta11.

    Twice the integral of 1 / sqrt(|grad ell|^2) across the family from
    t = 0 to the self-dual length 2 arcsinh(1): the gradient upper bound
    yields the distance lower bound and vice versa. At word length 0 the
    two sides are the analytic envelope integrals; positive lengths
    tighten them toward each other.
    """
    _check_word_length(max_word_length, 0)
    if not (quad_tol > 0.0 and math.isfinite(quad_tol)):
        raise ValueError("quad_tol must be positive and finite")

    t_top = 2.0 * math.asinh(1.0)
    y_top = math.sqrt(t_top)
    cache: dict[float, tuple[float, float, int]] = {}

    def sums(tt: float) -> tuple[float, float, int]:
        got = cache.get(tt)
        if got is None:
            got = _coset_sums(tt, max_word_length)
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
    v_lo, e_lo, n_lo = adaptive_simpson(f_lower, 0.0, y_top, half)
    v_hi, e_hi, n_hi = adaptive_simpson(f_upper, 0.0, y_top, half)
    lo = v_lo - e_lo
    hi = v_hi + e_hi
    if lo > hi:
        raise RuntimeError("distance bracket collapsed, bounds crossed")
    pruned = sum(c for _, _, c in cache.values())
    return Bracket(
        lo,
        hi,
        {
            "truncation": v_hi - v_lo,
            "quadrature": e_lo + e_hi,
            "pruned_terms": float(pruned),
            "pruned_kernel_bound": pruned * _PRUNED_TERM_BOUND,
            "evals": float(n_lo + n_hi),
        },
    )
