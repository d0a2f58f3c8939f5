"""Linear codes over GF(p^e): canonical form, duals, lattice, distance.

A :class:`LinearCode` is stored in canonical form (RREF generator with
no zero rows), which makes equality and file output stable.  A code
X lies in Y iff G_X @ H_Y^T = 0, with H_Y spanning the Euclidean dual
of Y; H_Y is read off Y's canonical generator, with no elimination.
Duals come in Euclidean and l-Galois flavours; the Galois dual is
computed through the Euclidean dual by one Frobenius map.  The
Euclidean dual costs one elimination of min(k, n - k) rows: a kernel
read off an RREF is, with rows and columns reversed, itself an RREF.

Minimum distance is decided by one information-set enumerator
(Brouwer-Zimmermann): the columns are split greedily into disjoint
information sets, messages of weight 1, 2, ... are listed on each set's
systematic generator (first nonzero coefficient 1), each codeword by one
table add to a codeword of one less weight, written in place into the
array of its level, and the sum over the sets of the weight an unlisted
codeword must still have there is a certified lower bound.  Codewords
are held coordinate-major, one column each, so the adds and the weight
counts run along rows as long as a block.  For odd p a codeword is its
n uint8 coordinates.  For p = 2 it is e bit-planes, each packed along
the coordinate axis into unsigned integers of up to 64 bits (ceil(n / 8)
bytes a plane, rounded up to 1, 2, 4 or a multiple of 8), added by XOR
and weighed by the popcount of the planes' OR.  The ``strategy`` of a
result says how it was obtained:

* ``enum``: q^k <= ``enum_cap``; the enumerator runs uncapped (exact),
* ``info-sets``: q^k > ``enum_cap`` and at least two sets have rank k;
  the enumerator certified d within ``lw_cap`` codewords (exact),
* ``low-weight``: as ``info-sets``, for a code with fewer than two
  full-rank sets (every code with n < 2k), whose further sets of rank
  r < k add to the bound only from level k - r on (exact),
* ``bounds``: ``lw_cap`` ran out first; the enumerator's certified
  (lower, upper) bracket.

Strategy selection and the two caps live in :class:`DistanceBudget`;
the words the enumerator holds at once are bounded by the module
constant ``_CHUNK``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate, chain, islice
from math import comb
from typing import Iterator

import numpy as np

from .gf import FieldMismatchError, FieldSpec
from .matgf import DimensionError, MatGF

__all__ = [
    "DistanceBudget",
    "DistanceResult",
    "LinearCode",
    "UndefinedDistanceError",
]


class UndefinedDistanceError(ValueError):
    """Minimum distance is undefined (the zero code has no nonzero word)."""


@dataclass(frozen=True)
class DistanceBudget:
    """Caps controlling how hard minimum-distance computation may work.

    enum_cap: largest q^k for which the enumerator runs without a cap.
    lw_cap: above ``enum_cap``, the codewords the enumerator may list
        before it settles for a certified bracket.

    The words the enumerator holds at once are bounded by the module
    constant ``_CHUNK``, not by the budget.
    """

    enum_cap: int = 1 << 24
    lw_cap: int = 1 << 26

    def __post_init__(self):
        if self.enum_cap < 0 or self.lw_cap < 0:
            raise ValueError(
                f"distance caps must be >= 0 (enum_cap={self.enum_cap}, "
                f"lw_cap={self.lw_cap})"
            )


@dataclass(frozen=True)
class DistanceResult:
    """Outcome of a minimum-distance computation.

    ``lower == upper`` means the distance is exact; otherwise the pair is
    a certified bracket (every weight below ``lower`` was excluded, and a
    codeword of weight ``upper`` exists).
    """

    lower: int
    upper: int
    # "enum": uncapped enumeration, q^k <= enum_cap; "info-sets":
    # enumeration certified within lw_cap; "low-weight": the same, for a
    # code with fewer than two full-rank information sets; "bounds":
    # lw_cap ran out, lower < upper
    strategy: str

    @property
    def exact(self) -> bool:
        return self.lower == self.upper

    @property
    def d(self) -> int:
        if not self.exact:
            raise ValueError(f"distance not exact: [{self.lower}, {self.upper}]")
        return self.lower

    def __str__(self) -> str:
        if self.exact:
            return str(self.lower)
        return f"≥{self.lower}≤{self.upper}"


@dataclass(frozen=True, slots=True)
class LinearCode:
    """A length-n linear code over GF(p^e) in canonical generator form.

    ``LinearCode(gen)`` wraps a canonical generator, the RREF of any
    generating set with zero rows dropped (:meth:`from_generator` makes
    one); two codes are equal iff their canonical generators are
    identical.  ``k == 0`` is the zero code, ``k == n`` the whole space.
    """

    gen: MatGF
    spec: FieldSpec = field(init=False, repr=False, compare=False)
    n: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "spec", self.gen.spec)
        object.__setattr__(self, "n", self.gen.cols)

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_generator(cls, gen: MatGF) -> "LinearCode":
        """Canonicalize a generating set (RREF, zero rows dropped)."""
        red, pivots = gen.rref()
        return cls(MatGF._of(gen.spec, red.data[: len(pivots)]))

    @classmethod
    def zero(cls, spec: FieldSpec, n: int) -> "LinearCode":
        return cls(MatGF.zeros(spec, 0, n))

    @classmethod
    def full(cls, spec: FieldSpec, n: int) -> "LinearCode":
        return cls(MatGF.identity(spec, n))

    # -- basic attributes -----------------------------------------------------

    @property
    def k(self) -> int:
        return self.gen.rows

    @property
    def is_full(self) -> bool:
        return self.k == self.n

    def __repr__(self) -> str:
        return f"LinearCode([{self.n},{self.k}] over GF({self.spec.q}))"

    def _check_compatible(self, other: "LinearCode") -> None:
        if self.spec != other.spec:
            raise FieldMismatchError("codes over different fields")
        if self.n != other.n:
            raise DimensionError(f"code lengths differ: {self.n} vs {other.n}")

    # -- duals ---------------------------------------------------------------

    def parity_check(self) -> MatGF:
        """An (n - k) x n matrix whose rows span the Euclidean dual, read
        off the canonical generator (its pivots are its rows' leading
        entries) with no elimination; not canonical itself."""
        lead = (self.gen.data != 0).argmax(axis=1) + 1 if self.k else ()
        return self.gen.rref_kernel(lead)

    def euclidean_dual(self) -> "LinearCode":
        """The dual under the ordinary inner product; dim n - k.

        One elimination of min(k, n - k) rows.  A kernel read off an RREF
        is an RREF once its rows and columns are reversed (see
        :meth:`MatGF.rref_kernel`).  So when 2k <= n, the kernel of the
        generator with its columns reversed, read off that matrix's
        k-row RREF and reversed back, is already the dual's canonical
        generator.  Otherwise the n - k rows of :meth:`parity_check`
        are canonicalised; that costs less than eliminating the k rows
        of the reversed generator would.
        """
        spec = self.spec
        if 2 * self.k <= self.n:
            rev = MatGF._of(spec, self.gen.data[:, ::-1]).kernel_basis()
            gen = MatGF._of(spec, rev.data[::-1, ::-1])
            return LinearCode(gen)
        return LinearCode.from_generator(self.parity_check())

    def galois_dual(self, ell: int) -> "LinearCode":
        """The l-Galois dual: the Frobenius power e-l applied to the
        Euclidean dual (ell = 0 gives the Euclidean dual itself)."""
        self.spec.check_ell(ell)
        dual = self.euclidean_dual()
        if ell == 0:
            return dual
        # sigma fixes 0 and 1 and maps nonzero entries to nonzero ones, so
        # it keeps a canonical generator canonical, with the same pivots
        mapped = dual.gen.frobenius_map(self.spec.e - ell)
        return LinearCode(mapped)

    def is_subcode(self, other: "LinearCode") -> bool:
        """True iff self is contained in other: G_self @ H_other^T = 0,
        with H_other spanning the Euclidean dual of other."""
        self._check_compatible(other)
        return (self.gen @ other.parity_check().T).is_zero()

    def __and__(self, other: "LinearCode") -> "LinearCode":
        """Intersection: x @ G_self lies in other iff x @ G_self @ H_other^T
        = 0, with H_other read off other's canonical generator; so one
        kernel of that k x (n - k_other) product gives the messages, and
        their codewords are canonicalised.  The rows of G_self are
        independent, so the result has as many rows as that kernel."""
        self._check_compatible(other)
        msgs = (self.gen @ other.parity_check().T).T.kernel_basis()
        return LinearCode.from_generator(msgs @ self.gen)

    def is_galois_self_orthogonal(self, ell: int) -> bool:
        """True iff the code is contained in its own l-Galois dual."""
        self.spec.check_ell(ell)
        return (self.gen @ self.gen.frobenius_map(ell).T).is_zero()

    def is_galois_dual_containing(self, ell: int) -> bool:
        """True iff the code contains its own l-Galois dual.  The dual has
        dimension n - k, so never when 2k < n; else, with H spanning the
        Euclidean dual, iff sigma^(e-l)(H) @ H^T = 0."""
        self.spec.check_ell(ell)
        if 2 * self.k < self.n:
            return False
        h = self.parity_check()
        return (h.frobenius_map(self.spec.e - ell) @ h.T).is_zero()

    # -- minimum distance -----------------------------------------------------

    def min_distance(self, budget: DistanceBudget | None = None) -> DistanceResult:
        """Minimum Hamming distance under the given budget.

        Raises UndefinedDistanceError for the zero code.
        """
        if budget is None:
            budget = DistanceBudget()
        if self.k == 0:
            raise UndefinedDistanceError("the zero code has no minimum distance")
        k = self.k
        sets = _information_sets(self)
        if self.spec.q**k <= budget.enum_cap:
            d, _ = _info_set_search(self, sets)
            return DistanceResult(d, d, "enum")
        # two full-rank sets need n >= 2k; below that skip the elimination
        head = list(islice(sets, 2)) if 2 * k <= self.n else []
        lower, upper = _info_set_search(self, chain(head, sets), budget.lw_cap)
        if lower < upper:
            return DistanceResult(lower, upper, "bounds")
        two_full = len(head) == 2 and head[1][0] == k
        return DistanceResult(upper, upper, "info-sets" if two_full else "low-weight")


# ----------------------------------------------------------------------
# distance strategies
# ----------------------------------------------------------------------

# Listing this many more words on the first set, which then certifies
# d on its own, costs less time than building one more information set.
_FINISH_WORDS = 1 << 10

# Codewords held in memory at once during enumeration; the words of a
# block's middle levels, from which its last level is built, count toward
# it; each level is one array that the adds write in place, so no other
# copy of a level is held.  A word is n bytes for odd p, and e packed
# bit-planes of ceil(n / 8) bytes each, rounded up to 1, 2, 4 or a
# multiple of 8, for p = 2.
_CHUNK = 1 << 18


def _information_sets(code: LinearCode) -> Iterator[tuple[int, np.ndarray]]:
    """Greedy disjoint information sets, built one at a time, each as
    (rank r, systematic generator).

    The first is the pivot columns of the canonical generator, at no
    cost.  Each further set is the pivots that one RREF, with the unused
    columns first, finds among those columns; a set with r < k is
    completed by k - r pivots among the columns already used.  Every
    generator has an identity on its k pivot columns, so message m gives
    the codeword that reads m there.  Stops when the unused columns have
    rank 0, or are fewer than 2k - n.
    """
    spec = code.spec
    gen = code.gen.data
    k, n = gen.shape
    yield k, gen
    used = (gen != 0).argmax(axis=1).tolist()
    taken = set(used)
    unused = [c for c in range(n) if c not in taken]
    # A set of rank r < 2k - n never counts.  Each canonical generator row
    # has weight at most n - k + 1, so upper <= n - k + 1; such a set adds
    # to the bound only from level k - r on, and k - r >= n - k + 1 >= upper.
    # The first set has listed some level w < upper - 1 while the search
    # runs, so its next level w + 1 < k - r is one of the terms of that
    # set's catch-up cost, which is therefore never the cheapest step.
    # The rank is at most len(unused), which only shrinks.
    while unused and len(unused) >= 2 * k - n:
        order = unused + used
        red, pivots = MatGF._of(spec, gen[:, order]).rref()
        cols = [order[p - 1] for p in pivots if p <= len(unused)]
        if not cols:
            return
        systematic = np.empty((k, n), dtype=np.uint8)
        systematic[:, order] = red.data
        yield len(cols), systematic
        used += cols
        taken = set(cols)
        unused = [c for c in unused if c not in taken]


def _multiples_table(spec: FieldSpec, gen: np.ndarray) -> np.ndarray:
    """The multiples of the rows of a k x n generator as enumerator
    words: ``table[:, i, c - 1]`` is c times row i, one word a column.

    For odd p a word is its n coordinates, n uint8 bytes.  For p = 2 it
    is the e bit-planes of its coordinates (plane s holds bit s of each),
    each packed along the coordinate axis into ``ceil(n / b)`` rows of
    b-bit unsigned integers, b the least of 8, 16, 32 and 64 bits that
    holds n bits or else 64: ceil(n / 8) bytes a plane, rounded up to 1,
    2, 4 or a multiple of 8.  The sum of two such words is their XOR,
    which ``add_arr`` already is for p = 2, and a word's weight is the
    popcount of the OR of its planes (see :func:`_weights`).  Any bit
    order within a row serves both.
    """
    scaled = spec.mul_arr(gen.T[:, :, None], np.arange(1, spec.q, dtype=np.uint8))
    if spec.p != 2:
        return scaled
    n, k, qm1 = scaled.shape
    # bytes in a row: the least power of two that holds n bits, at most 8
    size = min(8, max(1, 1 << (n - 1).bit_length() >> 3))
    rows = -(-n // (8 * size))
    # bit s of every coordinate, coordinates last and padded to whole rows
    planes = np.zeros((spec.e, k, qm1, 8 * size * rows), dtype=np.uint8)
    shifts = np.arange(spec.e, dtype=np.uint8)[:, None, None, None]
    planes[..., :n] = (scaled.transpose(1, 2, 0) >> shifts) & 1
    words = np.packbits(planes, axis=-1).view(f"u{size}")
    return words.transpose(0, 3, 1, 2).reshape(spec.e * rows, k, qm1)


def _weights(spec: FieldSpec, words: np.ndarray, dtype) -> np.ndarray:
    """The Hamming weight of each word (column) of a block of
    :func:`_multiples_table` words, as ``dtype`` (which holds n) or, for
    words of one packed row, as uint8."""
    if spec.p != 2:
        return (words != 0).sum(axis=0, dtype=dtype)
    planes = words.reshape(spec.e, -1, words.shape[1])
    # a reduction over a length-1 axis still copies: skip it for one
    # plane, and for one row, whose counts (at most 64) are the weights
    counts = np.bitwise_count(np.bitwise_or.reduce(planes) if spec.e > 1 else planes[0])
    return counts[0] if len(counts) == 1 else counts.sum(axis=0, dtype=dtype)


def _message_blocks(spec: FieldSpec, scaled: np.ndarray, w: int, chunk: int):
    """The codewords of the weight-w messages whose first nonzero
    coefficient is 1, in blocks of at most ``chunk`` words (or one word).

    ``scaled[:, i, c - 1]`` is c times generator row i, in the word layout
    of :func:`_multiples_table` (n uint8 rows for odd p, e packed
    bit-planes for p = 2), and a block is an array of the table's rows
    and dtype with one word per column.  A block puts u terms on its
    last m positions after a fixed prefix, built level by level from the
    back.  Level 1 is the prefix plus each multiple of a row; level t,
    for each first position i, is the multiples of row i added with one
    table add to the level t - 1 words on positions after i, which in
    lexicographic order are a contiguous column suffix of that level.
    Each such add writes its words into their columns of the level,
    allocated once (``add_arr`` with ``out``): for p = 2 the XOR itself
    writes there, with no temporary word array and no copy; for odd p
    the table lookup's result is copied in.  So every word costs one
    add, and no index array is built.
    Level t only needs first positions u - t to m - t (from 0): then it
    has C(m - u + t, t) (q - 1)^t words (over q - 1 if its first
    coefficient is 1), never more than the next level.  A block is built
    only if its last two levels, which are held at once, have at most
    ``chunk`` words together; else it is split depth first over its
    leading position.
    """
    n, k, qm1 = scaled.shape

    def build(prefix, first: int, left: int, lead: int):
        # positions first.. take ``left`` terms; ``starts[j]`` is where
        # the words with first position first + left - t + j begin
        heads = scaled[:, first + left - 1 :, : 1 if lead and left == 1 else qm1]
        words = spec.add_arr(prefix[:, None, None], heads).reshape(n, -1)
        starts = range(0, words.shape[1], heads.shape[2])
        for t in range(2, left + 1):
            heads = scaled[:, first + left - t : k - t + 1, : 1 if lead and t == left else qm1]
            width = heads.shape[2]
            sizes = [width * (words.shape[1] - s) for s in starts]
            ats = list(accumulate(sizes, initial=0))
            level = np.empty((n, ats[-1]), dtype=scaled.dtype)
            for head, s, at, size in zip(heads.swapaxes(0, 1)[..., None], starts, ats, sizes):
                # a view of the segment's columns, one run of words per coefficient
                out = level[:, at : at + size].reshape(n, width, -1)
                spec.add_arr(head, words[:, None, s:], out)
            words, starts = level, ats[:-1]
        return words

    def tails(prefix, first: int, left: int, lead: int):
        # when ``lead`` is 1 the first term has coefficient 1
        if left == 0:
            yield prefix[:, None]
            return
        m = k - first
        held = comb(m, left) * qm1 ** (left - lead) + comb(m - 1, left - 1) * qm1 ** (left - 1)
        if held <= chunk:
            yield build(prefix, first, left, lead)
            return
        for i in range(first, k - left + 1):
            for c in range(1 if lead else qm1):
                yield from tails(spec.add_arr(prefix, scaled[:, i, c]), i + 1, left - 1, 0)

    yield from tails(np.zeros(n, dtype=scaled.dtype), 0, w, 1)


def _info_set_search(
    code: LinearCode,
    sets: Iterator[tuple[int, np.ndarray]],
    cap: int | None = None,
) -> tuple[int, int]:
    """Brouwer-Zimmermann enumeration over disjoint information sets.

    Set j (rank r_j) lists every message of weight <= w_j on its
    systematic generator, up to scalars.  A word not yet seen has
    message weight > w_j on every set, hence at least w_j + 1 - (k - r_j)
    nonzeros on set j's columns: ``lower`` sums these over the disjoint
    sets, and ``upper`` is the lightest word seen.  All sets are built
    first, one at a time, unless the first set can list all its
    remaining words within ``_FINISH_WORDS``.  Then the cheapest step
    that raises ``lower`` by one goes first: one more level on a set (a
    set with r_j < k catches up to level k - r_j at once).  A set's
    multiples table, in the layout of :func:`_multiples_table` (packed
    bit-planes for p = 2), is built when its first level is listed; the
    first set's level 1 is the canonical generator's rows and needs
    none.  Returns (lower, upper), equal once certified.  With a ``cap``
    on the codewords listed, a step that would exceed it is not started,
    and the bracket so far is returned.
    """
    spec = code.spec
    q, k = spec.q, code.k
    wdtype = np.min_scalar_type(code.n)
    ranks: list[int] = []
    gens: list[np.ndarray] = []
    tables: dict[int, np.ndarray] = {}
    done: list[int] = []

    def add(r: int, gen: np.ndarray) -> None:
        ranks.append(r)
        gens.append(gen)
        done.append(0)

    def bound() -> int:
        return sum(max(0, w + 1 - (k - r)) for w, r in zip(done, ranks))

    def levels(j: int) -> range:
        return range(done[j] + 1, max(done[j] + 1, k - ranks[j]) + 1)

    def cost(v: int) -> int:
        return comb(k, v) * (q - 1) ** (v - 1)

    sets = iter(sets)
    _, gen = next(sets)
    add(k, gen)
    # level 1 of the first set is the canonical generator's rows
    done[0] = 1
    upper = int(np.count_nonzero(gen, axis=1).min())
    if sum(map(cost, range(2, k + 1))) > _FINISH_WORDS:
        for r, gen in sets:
            if bound() >= upper:
                break
            add(r, gen)
    spent = k
    while True:
        lower = bound()
        if lower >= upper or k in done:
            # done[j] == k: set j has listed every codeword
            return upper, upper
        step, j = min((sum(map(cost, levels(j))), j) for j in range(len(ranks)))
        if cap is not None and spent + step > cap:
            return lower, upper
        spent += step
        todo = levels(j)
        if j not in tables:
            tables[j] = _multiples_table(spec, gens[j])
        for v in todo:
            for block in _message_blocks(spec, tables[j], v, _CHUNK):
                upper = min(upper, int(_weights(spec, block, wdtype).min()))
        done[j] = todo[-1]

