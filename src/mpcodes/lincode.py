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
systematic generator (first nonzero coefficient 1), and the sum over the
sets of the weight an unlisted codeword must still have there is a
certified lower bound.  The ``strategy`` of a result says how it was
obtained:

* ``enum``: q^k <= ``enum_cap``; the enumerator runs uncapped (exact),
* ``info-sets``: q^k > ``enum_cap`` and at least two sets have rank k;
  the enumerator certified d within ``lw_cap`` codewords (exact),
* ``low-weight``: as ``info-sets``, for a code with fewer than two
  full-rank sets (every code with n < 2k), whose further sets of rank
  r < k add to the bound only from level k - r on (exact),
* ``bounds``: ``lw_cap`` ran out first; the enumerator's certified
  (lower, upper) bracket.

Strategy selection and caps live in :class:`DistanceBudget`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations, islice, product
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
    chunk: codewords held in memory at once during enumeration.
    """

    enum_cap: int = 1 << 24
    lw_cap: int = 1 << 26
    chunk: int = 1 << 18

    def __post_init__(self):
        if self.enum_cap < 0 or self.lw_cap < 0:
            raise ValueError(
                f"distance caps must be >= 0 (enum_cap={self.enum_cap}, "
                f"lw_cap={self.lw_cap})"
            )
        if self.chunk < 1:
            raise ValueError(f"chunk={self.chunk} must be >= 1")


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


class LinearCode:
    """A length-n linear code over GF(p^e) in canonical generator form.

    The canonical generator is the RREF of any generating set with zero
    rows dropped; two codes are equal iff their canonical generators are
    identical.  ``k == 0`` is the zero code, ``k == n`` the whole space.
    """

    __slots__ = ("spec", "n", "gen")

    def __init__(self, spec: FieldSpec, n: int, gen: MatGF, *, _canonical: bool = False):
        if gen.cols != n:
            raise DimensionError(f"generator has {gen.cols} columns, expected {n}")
        if gen.spec != spec:
            raise FieldMismatchError("generator over a different field")
        if not _canonical:
            red, pivots = gen.rref()
            gen = MatGF(spec, red.data[: len(pivots)])
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "gen", gen)

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("LinearCode is immutable")

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_generator(cls, gen: MatGF) -> "LinearCode":
        """Canonicalize a generating set (RREF, zero rows dropped)."""
        return cls(gen.spec, gen.cols, gen)

    @classmethod
    def zero(cls, spec: FieldSpec, n: int) -> "LinearCode":
        return cls(spec, n, MatGF.zeros(spec, 0, n), _canonical=True)

    @classmethod
    def full(cls, spec: FieldSpec, n: int) -> "LinearCode":
        return cls(spec, n, MatGF.identity(spec, n), _canonical=True)

    # -- basic attributes -----------------------------------------------------

    @property
    def k(self) -> int:
        return self.gen.rows

    @property
    def is_zero(self) -> bool:
        return self.k == 0

    @property
    def is_full(self) -> bool:
        return self.k == self.n

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LinearCode)
            and self.spec == other.spec
            and self.n == other.n
            and self.gen == other.gen
        )

    def __hash__(self) -> int:
        return hash((self.spec, self.n, self.gen))

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
            rev = MatGF(spec, self.gen.data[:, ::-1]).kernel_basis()
            gen = MatGF(spec, rev.data[::-1, ::-1])
            return LinearCode(spec, self.n, gen, _canonical=True)
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
        return LinearCode(self.spec, self.n, mapped, _canonical=True)

    def is_subcode(self, other: "LinearCode") -> bool:
        """True iff self is contained in other: G_self @ H_other^T = 0,
        with H_other spanning the Euclidean dual of other."""
        self._check_compatible(other)
        return (self.gen @ other.parity_check().T).is_zero()

    def __add__(self, other: "LinearCode") -> "LinearCode":
        """Sum of codes: the span of both generating sets."""
        self._check_compatible(other)
        return LinearCode.from_generator(MatGF.vstack([self.gen, other.gen]))

    def __and__(self, other: "LinearCode") -> "LinearCode":
        """Intersection, computed through duality."""
        self._check_compatible(other)
        return (self.euclidean_dual() + other.euclidean_dual()).euclidean_dual()

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
            d, _ = _info_set_search(self, sets, budget.chunk)
            return DistanceResult(d, d, "enum")
        # two full-rank sets need n >= 2k; below that skip the elimination
        head = list(islice(sets, 2)) if 2 * k <= self.n else []
        lower, upper = _info_set_search(self, chain(head, sets), budget.chunk, budget.lw_cap)
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


def _information_sets(code: LinearCode) -> Iterator[tuple[int, np.ndarray]]:
    """Greedy disjoint information sets, built one at a time, each as
    (rank r, systematic generator).

    The first is the pivot columns of the canonical generator, at no
    cost.  Each further set is the pivots that one RREF, with the unused
    columns first, finds among those columns; a set with r < k is
    completed by k - r pivots among the columns already used.  Every
    generator has an identity on its k pivot columns, so message m gives
    the codeword that reads m there.  Stops when the unused columns have
    rank 0.
    """
    spec = code.spec
    gen = code.gen.data
    k, n = gen.shape
    yield k, gen
    used = [int(np.flatnonzero(row)[0]) for row in gen]
    taken = set(used)
    unused = [c for c in range(n) if c not in taken]
    while unused:
        order = unused + used
        red, pivots = MatGF(spec, gen[:, order]).rref()
        cols = [order[p - 1] for p in pivots if p <= len(unused)]
        if not cols:
            return
        systematic = np.empty((k, n), dtype=np.uint8)
        systematic[:, order] = red.data
        yield len(cols), systematic
        used += cols
        taken = set(cols)
        unused = [c for c in unused if c not in taken]


def _message_blocks(spec: FieldSpec, scaled: np.ndarray, w: int, chunk: int):
    """The codewords of the weight-w messages whose first nonzero
    coefficient is 1, in blocks of at most ``chunk`` words (or one word).

    ``scaled[c - 1]`` is c times the generator.  A block too large is
    split depth first over its leading message position; each block adds
    its terms with one table gather and one table add per position.
    """
    qm1, k, n = scaled.shape

    def tails(prefix, last: int, left: int, lead: int):
        # positions after ``last`` take ``left`` more terms; when
        # ``lead`` is 1 the first of them has coefficient 1
        if comb(k - 1 - last, left) * qm1 ** (left - lead) <= chunk:
            supp = np.array(list(combinations(range(last + 1, k), left)), dtype=np.uint16)
            coef = np.array(
                [(0,) * lead + c for c in product(range(qm1), repeat=left - lead)],
                dtype=np.uint8,
            )
            words = np.broadcast_to(prefix, (len(supp), len(coef), n))
            for t in range(left):
                words = spec.add_arr(words, scaled[coef[None, :, t], supp[:, None, t]])
            yield words.reshape(-1, n)
            return
        for i in range(last + 1, k - left + 1):
            for c in range(1 if lead else qm1):
                yield from tails(spec.add_arr(prefix, scaled[c, i]), i, left - 1, 0)

    yield from tails(np.zeros(n, dtype=np.uint8), -1, w, 1)


def _info_set_search(
    code: LinearCode,
    sets: Iterator[tuple[int, np.ndarray]],
    chunk: int,
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
    set with r_j < k catches up to level k - r_j at once).  Returns
    (lower, upper), equal once certified.  With a ``cap`` on the
    codewords listed, a step that would exceed it is not started, and
    the bracket so far is returned.
    """
    spec = code.spec
    q, k = spec.q, code.k
    coefs = np.arange(1, q, dtype=np.uint8)[:, None, None]
    ranks: list[int] = []
    scaled: list[np.ndarray] = []
    done: list[int] = []

    def add(r: int, gen: np.ndarray) -> None:
        ranks.append(r)
        scaled.append(spec.mul_arr(coefs, gen[None]))
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
        for v in todo:
            for block in _message_blocks(spec, scaled[j], v, chunk):
                upper = min(upper, int(np.count_nonzero(block, axis=1).min()))
        done[j] = todo[-1]

