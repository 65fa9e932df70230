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

The sums run over the 3^L - 1 reduced words of length 1..L that start
with a B letter, but only a quarter of that tree is built. Two
conjugations map the word set to itself and fix u bit for bit:

- J = diag(1, -1) fixes A and sends B to B^-1. It negates the
  off-diagonal entries of every product, computed or exact, and
  rounding to nearest commutes with negation.
- P = [[0, 1], [1, 0]] sends A to A^-1 and fixes B. It swaps both
  indices of every product: u_AA multiplies the same two entries in the
  other order, and u_AB changes sign inside the abs.

Every word that starts with B^-1 is the J image of one that starts with
B. Of those, all but the chain word B^l hold an A letter, and the ones
whose first A letter is A^-1 are the P images of the set T_A whose first
A letter is A. So each length contributes 2 R(u(B^l)) + 4 (sum over
T_A), and the pruned count is twice the chain's plus four times T_A's.
T_A is closed under extension, and its level l gains one seed word,
B^(l-1) A.

A level of T_A is one float64 (2, 2, n) array of word products. Its
columns are grouped by last letter in the cyclic order A, B, A^-1,
B^-1, the first two groups appended again, and the chain word B^l comes
last. A word ending in a letter extends a word ending in that letter or
in either letter of the other generator: three cyclically adjacent
groups, so one contiguous slice. The A slice runs on into the chain
column, which makes the seed the last A child. Each child group is that
slice times the letter on the right, written in place: a column scaling
by e^(+-t/2) for A^(+-1), a cosh/csch mix of the two columns for
B^(+-1). Each product and sum is rounded on its own (no fused
multiply-add), so the sums do not depend on which BLAS or SIMD code
numpy dispatches to. u_AA is read off the chain and the B groups, u_AB
off the A groups. All levels write their u values into one array, so
one mask and one log1p pass serve the whole call; each level's chain,
AA and AB segments are then summed on their own, levels in order. The
weighted sums reorder the full tree's additions, yet match them bit for
bit on every case tried; the tests hold them to that for t up to
2 arcsinh 1, and to 4 ulp beyond.

T_A's level L holds (3^(L-1) - 1) / 2 words, so at the cap
MAX_WORD_LENGTH = 14 the deepest array holds about 800k columns, about
25 MB (the full tree's held 3.2M, about 100 MB), and the u values of
all levels about 1.2M, about 10 MB.

_coset_sums takes a block of k nodes, the t values that
adaptive_simpson announces together, up to 16 (see delta11_bracket).
Each short word length costs a few dozen numpy calls whatever its size,
about 0.07 ms, so it is built once for the whole block: one
(2, 2, k, n) array, whose ch, sh and A scalings are (k, 1) columns, and
one (k, m) array of u values; a single node is a block of one. Length 1
is built this way, and so is every length while k * (its columns) <=
_BLOCK_COLUMNS = 2 * 3^9; at L = 10 and k = 16 that is lengths 1..8.
From the first longer length on, each node continues alone from its
row of the last block level into its own u array of one node's size,
which starts with a copy of its block row. Every product and sum is the
same rounded operation in the same order whatever the block, so a
node's sums match its sums alone bit for bit. Deep lengths are not
blocked: there the work is per column, and k times larger arrays load
the C heap (D7 in ROADMAP.md). Blocking every length at L = 10 doubled
the minor page faults of a 20-s delta11-l10 benchmark run (111.5k
against 56.2k) and raised its peak RSS by 1.9 MB; larger per-call
arrays are also what makes the heap trim and regrow on every call in
some processes. The block levels are still larger than a single node's
arrays: at L = 10 and k = 16 the length-8 block holds 16 * 1644
columns, 0.84 MB, against 0.31 MB for one node's deepest level.

The u formulas use det = 1 exactly, u_AA = |1 + 2 w01 w10| and
u_AB = |w01 w11 - w00 w10|, never the determinant of the assembled
product, whose cancellation at extreme parameters is catastrophic.
Surviving cancellation in u_AB only inflates u, and inflated terms are
pruned, which is harmless for the bound direction.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
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

# A word length is built for a whole block of nodes while the block's
# columns of it stay within this; see the module docstring.
_BLOCK_COLUMNS = 2 * 3**9

# grad_sq_bracket sums no cosets below _FLAT_T, and takes 2 sinh(t/2)
# as t below _TINY_T, under which halving t would round; see there.
_FLAT_T = 1e-6
_TINY_T = 2.0**-1020

_REL_TOL = 1e-12


@dataclass(frozen=True)
class CosetWord:
    """Canonical double coset representative in the free group on A, B.

    letters, any sequence, kept as a tuple, encode A, A^-1, B, B^-1 as
    0..3. An AA representative is a reduced word that starts and ends
    with a B letter; an AB representative starts with a B letter and
    ends with an A letter, the empty word the identity coset.
    """

    letters: tuple[int, ...]
    kind: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "letters", tuple(self.letters))
        if self.kind not in ("AA", "AB"):
            raise ValueError(f"unknown coset kind {self.kind!r}")
        if not all(type(l) is int and 0 <= l <= 3 for l in self.letters):
            raise ValueError("letters must be in 0..3")
        for a, b in zip(self.letters, self.letters[1:]):
            if _INV[a] == b:
                raise ValueError("word is not freely reduced")
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
        # These shapes give tr [A, B] = 2 - 4 sinh^2(t/2) sinh^2(s/2) = -2.
        if self.A.b or self.A.c or self.A.a != math.exp(0.5 * self.t):
            raise ValueError("A must be diag(e^(t/2), e^(-t/2))")
        if self.B.b != self.B.c or not math.isclose(self.B.b, math.sinh(0.5 * self.s), rel_tol=_REL_TOL):
            raise ValueError("B must be symmetric with off-diagonal sinh(s/2)")


def _node_entries(t: float) -> tuple[float, float, float]:
    # e^(t/2), inf once it leaves the double range, and csch(t/2) with
    # the cosh taken from it, which keeps det B at 1 exactly.
    try:
        e = math.exp(0.5 * t)
    except OverflowError:
        e = math.inf
    sh = _csch(0.5 * t)
    return e, sh, math.hypot(1.0, sh)


def holonomy(t: float) -> RectTorusPoint:
    """Square family point at first-curve length t.

    Raises ValueError unless t is positive and finite, and where a
    rounded generator fails MoebiusMap's determinant check, which
    happens only at the ends of the family; dense scans found every t
    from about 3.03e-5 to 1419.565 accepted. Below, det B = ch^2 - sh^2
    with sh = csch(t/2) cancels: some t fail from about 3.02e-5 down
    and about half of them below 1e-5 ("determinant 0.0 is not 1" at
    t = 1e-8), and below about 1.4e-154 ch^2 overflows ("determinant
    nan"). From about 1419.5654 on e^(t/2) is inf ("determinant nan").
    """
    if t <= 0.0 or not math.isfinite(t):
        raise ValueError("length must be positive and finite")
    e, sh, ch = _node_entries(t)
    return RectTorusPoint(
        t=t,
        s=2.0 * math.asinh(sh),
        A=MoebiusMap(e, 0.0, 0.0, 1.0 / e),
        B=MoebiusMap(ch, sh, sh, ch),
    )


def _check_word_length(max_word_length: int) -> None:
    if not isinstance(max_word_length, int) or isinstance(max_word_length, bool):
        raise TypeError("max_word_length must be an int")
    if not 0 <= max_word_length <= MAX_WORD_LENGTH:
        raise ValueError(f"max_word_length must be in 0..{MAX_WORD_LENGTH}")


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
    available flagged from identity_coset(). Every word starts with a B
    letter, and an AB word ends with an A letter, so AB words have
    length at least 2: enumerate_cosets("AB", 1) is [], as is length 0.
    """
    if kind not in ("AA", "AB"):
        raise ValueError(f"unknown coset kind {kind!r}")
    _check_word_length(max_word_length)
    ends = (2, 3) if kind == "AA" else (0, 1)
    return [CosetWord(w, kind) for words in _word_tables(max_word_length) for w in words if w[-1] in ends]


def u_of_coset(point: RectTorusPoint, word: CosetWord) -> UValue:
    """Position invariant of the coset's translated axis.

    The first-curve axis (0, oo) is compared against the word image of
    the (0, oo) axis for AA cosets and of the B axis (-1, 1) for AB
    cosets. The identity AB coset yields the right angle crossing u = 0.
    Raises ValueError where the rounded word product or its image axis
    degenerates, which grows with t and with the word: at t = 10 for 94
    of the 729 words of length at most 6 ("geodesic needs two distinct
    ideal endpoints"), and from t of about 38.82 on already for B and
    B^-1 ("tangent pair, u = 1", then "geodesics share an ideal
    endpoint").
    """
    table = (point.A, point.A.inverse(), point.B, point.B.inverse())
    m = compose_many(table[l] for l in word.letters)
    base = GeodesicH2(0.0, INF) if word.kind == "AA" else GeodesicH2(-1.0, 1.0)
    return u_value(GeodesicH2(0.0, INF), translate_geodesic(m, base))


def _disjoint_terms(u: np.ndarray) -> np.ndarray:
    # u * log1p(2 / (u - 1)) - 2, one rounding per step, in one buffer
    r = u - 1.0
    np.divide(2.0, r, out=r)
    np.log1p(r, out=r)
    r *= u
    r -= 2.0
    return r


def _kernel_sums(u: np.ndarray, edges: list[int]) -> tuple[list[float], list[int]]:
    """Sums of R(u) over the kept terms of each segment of u, and the
    pruned count of each; segment i is u[edges[i] : edges[i + 1]].

    Terms use the disjoint log1p form. Values at or beyond PRUNE_U and
    non finite values are pruned; both only arise for far cosets whose
    true kernel term is below _PRUNED_TERM_BOUND. Values at or below 1
    are pruned too: no nonidentity coset crosses the first axis, so they
    only come from rounding, where u - 1 of the chain rounds away (t
    above about 38.8). Every kernel term is positive, so a pruned term
    only loosens its bound. One mask and one log1p pass serve all
    segments; each segment then sums its run of the compressed terms on
    its own.
    """
    sums = [0.0] * (len(edges) - 1)
    cut = [0] * (len(edges) - 1)
    mask = u > 1.0
    mask &= u < PRUNE_U  # this also drops inf and nan
    values = _disjoint_terms(u[mask])
    stop = 0
    for seg, (a, b) in enumerate(zip(edges, edges[1:])):
        if b - a == 1:  # one term, as in every chain segment: no numpy call
            start, stop = stop, stop + bool(mask[a])
            if stop > start:
                sums[seg] = float(values[start])
        else:
            start, stop = stop, stop + int(np.count_nonzero(mask[a:b]))
            if stop > start:
                sums[seg] = float(np.add.reduce(values[start:stop]))
        cut[seg] = b - a - (stop - start)
    return sums, cut


def _u_of(w: np.ndarray, aa: tuple[tuple[int, int], ...], ab: tuple[tuple[int, int], ...], u: np.ndarray) -> None:
    """Write u of the (2, 2, ..., n) level w into u (..., m): the AA
    values of the column spans aa, in span order, then the AB values of
    the spans ab. The leading axes of u match w's past the first two."""
    at = 0
    for start, stop in aa:
        np.multiply(w[0, 1, ..., start:stop], w[1, 0, ..., start:stop], out=u[..., at : at + stop - start])
        at += stop - start
    u_aa = u[..., :at]
    u_aa *= 2.0
    u_aa += 1.0
    n_aa = at
    tmp = np.empty(u.shape[:-1] + (u.shape[-1] - n_aa,))
    for start, stop in ab:
        np.multiply(w[0, 1, ..., start:stop], w[1, 1, ..., start:stop], out=u[..., at : at + stop - start])
        np.multiply(w[0, 0, ..., start:stop], w[1, 0, ..., start:stop], out=tmp[..., at - n_aa : at - n_aa + stop - start])
        at += stop - start
    u[..., n_aa:] -= tmp
    np.abs(u, out=u)


def _columns(levels: list[tuple[int, int, int, int]], level: int, maxlen: int) -> int:
    # The four groups, the copies of the first two unless this is the
    # last level, and the chain.
    mA, mB, ma, mb = levels[level]
    n = mA + mB + ma + mb
    return (n if level == maxlen - 1 else n + mA + mB) + 1


def _build(mats: np.ndarray, levels: list[tuple[int, int, int, int]], span: range, maxlen: int,
           scale: np.ndarray, ch, sh, u: np.ndarray, edges: list[int]) -> np.ndarray:
    """Levels span of T_A, each written over its u segment; returns the last.

    mats is the level before span (the chain column of level 0 if span
    starts there). For one node mats is (2, 2, columns) and ch, sh are
    floats; for a block of k nodes mats is (2, 2, k, columns), ch and sh
    are (k, 1) arrays and u has one row per node.
    """
    for level in span:
        mA, mB, ma, mb = levels[level]
        n = mA + mB + ma + mb
        if level:
            nA, nB, na, nb = levels[level - 1]
            nxt = np.empty(mats.shape[:-1] + (_columns(levels, level, maxlen),))
            # A children of the B^-1, A and B groups and, last, of the chain.
            np.multiply(mats[..., nA + nB + na :], scale, out=nxt[..., :mA])
            np.multiply(mats[..., nA : nA + nB + na + nb], scale[:, ::-1], out=nxt[..., mA + mB : mA + mB + ma])
            tmp = np.empty(mats.shape[:-1] + (max(mB, mb, 1),))
            for parents, child, s in (
                (mats[..., : nA + nB + na], nxt[..., mA : mA + mB], sh),
                (mats[..., nA + nB : 2 * nA + nB + na + nb], nxt[..., mA + mB + ma : n], -sh),
                (mats[..., -1:], nxt[..., -1:], sh),
            ):
                np.multiply(parents, ch, out=child)
                child += np.multiply(parents[:, ::-1], s, out=tmp[..., : child.shape[-1]])  # column swap
            if level < maxlen - 1:
                nxt[..., n:-1] = nxt[..., : mA + mB]
            del parents, child, tmp  # free the parent level before the next one
            mats = nxt
        chain = mats.shape[-1] - 1
        aa = ((chain, chain + 1), (mA, mA + mB), (mA + mB + ma, n))
        ab = ((0, mA), (mA + mB, mA + mB + ma))
        _u_of(mats, aa, ab, u[..., edges[3 * level] : edges[3 * level + 3]])
    return mats


def _coset_sums(ts: Sequence[float], maxlen: int) -> tuple[list[float], list[float], int]:
    """Partial AA and nonidentity AB kernel sums through length maxlen at
    each t of ts, over the quarter tree, and the pruned count of them all.

    ts is a nonempty sequence; delta11_bracket passes the nodes of each
    adaptive_simpson announcement that it has not summed yet, at most
    16. The leading word lengths are built once for the whole block,
    the rest node by node; see the module docstring. Each
    node's sums are bit for bit those of the node alone, repeats and
    order included. The kernel arithmetic runs under one np.errstate:
    at extreme t entries overflow to inf or nan, and those u values are
    pruned by design.
    """
    k = len(ts)
    if maxlen == 0:
        return [0.0] * k, [0.0] * k, 0
    levels = [(0, 0, 0, 0)]  # words of T_A per group, level by level
    for _ in range(maxlen - 1):
        nA, nB, na, nb = levels[-1]
        levels.append((nb + nA + nB + 1, nA + nB + na, nB + na + nb, na + nb + nA))
    # u of all levels in one array per node. Each level holds three
    # segments: the AA value of the chain, the AA values of the B and
    # B^-1 groups, and the AB values of the A and A^-1 groups.
    edges = [0]
    for nA, nB, na, nb in levels:
        edges += [edges[-1] + 1, edges[-1] + 1 + nB + nb, edges[-1] + 1 + nA + nB + na + nb]
    head = 1  # levels built for the whole block, at least the word B
    while head < maxlen and k * _columns(levels, head, maxlen) <= _BLOCK_COLUMNS:
        head += 1
    nodes = [_node_entries(t) for t in ts]
    s_aa: list[float] = []
    s_ab: list[float] = []
    pruned = 0
    # Non-finite entries at extreme t are pruned below, by design.
    with np.errstate(over="ignore", invalid="ignore"):
        e, sh, ch = (np.array(c).reshape(k, 1) for c in zip(*nodes))
        scale = np.array([e, 1.0 / e]).reshape(1, 2, k, 1)
        u_head = np.empty((k, edges[3 * head]))
        block = _build(np.array([[ch, sh], [sh, ch]]), levels, range(head), maxlen, scale, ch, sh, u_head, edges)
        for i, (e, sh, ch) in enumerate(nodes):
            u = np.empty(edges[-1])
            u[: edges[3 * head]] = u_head[i]
            scale = np.array([e, 1.0 / e]).reshape(1, 2, 1)  # A on the right
            _build(block[:, :, i], levels, range(head, maxlen), maxlen, scale, ch, sh, u, edges)
            sums, cut = _kernel_sums(u, edges)
            node_aa = 0.0
            node_ab = 0.0
            for part_c, part_aa, part_ab in zip(sums[0::3], sums[1::3], sums[2::3]):
                node_aa += 2.0 * part_c + 4.0 * part_aa
                node_ab += 4.0 * part_ab
            s_aa.append(node_aa)
            s_ab.append(node_ab)
            pruned += 2 * sum(cut[0::3]) + 4 * (sum(cut[1::3]) + sum(cut[2::3]))
    return s_aa, s_ab, pruned


def _grad_sq_ends(ts: Sequence[float], max_word_length: int) -> tuple[list[tuple[float, float]], int]:
    """(lower, upper) of grad_sq_bracket at each positive finite t of ts,
    the t from _FLAT_T on summed in one _coset_sums call, and the pruned
    count of those sums."""
    kernel_ts = [t for t in ts if t >= _FLAT_T]
    s_aa, s_ab, pruned = _coset_sums(kernel_ts, max_word_length) if kernel_ts else ([], [], 0)
    sums = zip(s_aa, s_ab)
    ends = []
    for t in ts:
        node_aa, node_ab = next(sums) if t >= _FLAT_T else (0.0, 0.0)
        lower = (2.0 / math.pi) * (t + node_aa)
        if t < _TINY_T:
            upper = (2.0 / math.pi) * t
        else:
            try:
                sinh_half = math.sinh(0.5 * t)
            except OverflowError:
                sinh_half = math.inf
            upper = (2.0 / math.pi) * sinh_half * (2.0 - node_ab)
        if lower > upper:
            raise RuntimeError("truncation bracket collapsed, bounds crossed")
        ends.append((lower, upper))
    return ends, pruned


def grad_sq_bracket(t: float, max_word_length: int = 8) -> Bracket:
    """Certified bracket for the squared gradient of the first length.

    Lower bound (2/pi)(t + partial AA sum), at least 2t/pi; upper bound
    (2/pi) sinh(t/2) (2 - partial AB sum), at most (4/pi) sinh(t/2).
    Raising the word length cap tightens both sides monotonically.

    Total over positive finite t:
    - The upper end is inf where sinh(t/2) leaves the double range (t
      above about 1420). There e^(t/2) is inf in the kernel, and every
      word holding an A letter is pruned.
    - Below _FLAT_T = 1e-6 the bracket is the word length 0 one, which
      holds at every t. The AB sum there is under t^2 / 12, so it would
      move the upper end by under 5e-14 relative, and the AA sum moves
      the lower end by less. The kernel's rounding is no smaller there:
      e^(t/2) is within 5e-7 of 1 and the u values of long words
      cancel, so the summed ends crossed by a few ulp at t up to about
      5e-7, and at t = 4.5e-8, L = 10 the AB sum came out 0.0186
      against a true value near 2e-16. Below about 2.2e-16 e^(t/2)
      rounds to 1: A is then the identity in floating point.
    - Below 2^-1020, where halving t would round in the subnormal range,
      2 sinh(t/2) is taken as t, which it equals to double precision.
    - From t of about 38.8 on, u = cosh(l s) of a chain word B^l rounds
      to 1, first for B itself and then, as t grows, for longer l. Those
      terms are dropped and counted in pruned_terms; at L = 1 the lower
      end is then 2t/pi. The budget's pruned_kernel_bound covers only
      the terms pruned at u >= PRUNE_U.
    """
    if t <= 0.0 or not math.isfinite(t):
        raise ValueError("length must be positive and finite")
    _check_word_length(max_word_length)
    ((lower, upper),), pruned = _grad_sq_ends([t], max_word_length)
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

    The gradient bracket ends of the nodes that adaptive_simpson
    announces are computed in one _grad_sq_ends call per announcement,
    at most 16 nodes (y = 0 is a closed form), and each t once across
    both sides; the integrands only read them back.

    Raises TypeError unless max_word_length is an int, ValueError unless
    it is in 0..MAX_WORD_LENGTH and quad_tol is finite and at least
    1e-323, twice the least subnormal, and ConvergenceError, a
    RuntimeError, where quad_tol is below what the quadrature reaches
    (1e-14 from word length 1 on, 1e-300 at 0).
    """
    _check_word_length(max_word_length)
    # Each side gets half of quad_tol, so the least subnormal is too small.
    if not (0.5 * quad_tol > 0.0 and math.isfinite(quad_tol)):
        raise ValueError("quad_tol must be finite and at least 1e-323")

    t_top = 2.0 * math.asinh(1.0)
    y_top = math.sqrt(t_top)
    ends: dict[float, tuple[float, float]] = {}  # t -> _grad_sq_ends of t
    pruned = 0

    def prefetch(ys: list[float]) -> None:
        nonlocal pruned
        ts = [tt for tt in dict.fromkeys(y * y for y in ys if y != 0.0) if tt not in ends]
        if ts:
            node_ends, cut = _grad_sq_ends(ts, max_word_length)
            ends.update(zip(ts, node_ends))
            pruned += cut

    def side(k: int) -> Callable[[float], float]:
        def f(y: float) -> float:
            return 4.0 * y / math.sqrt(ends[y * y][k]) if y else 2.0 * SQRT_2PI

        return f

    half = 0.5 * quad_tol
    v_lo, e_lo, n_lo = adaptive_simpson(side(1), 0.0, y_top, half, prefetch=prefetch)
    v_hi, e_hi, n_hi = adaptive_simpson(side(0), 0.0, y_top, half, prefetch=prefetch)
    lo = v_lo - e_lo
    hi = v_hi + e_hi
    if lo > hi:
        raise RuntimeError("distance bracket collapsed, bounds crossed")
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
