"""Linear codes over GF(p^e): canonical form, duals, lattice, distance.

A :class:`LinearCode` is stored in canonical form (RREF generator with
no zero rows), which makes equality and file output stable.  A code
X lies in Y iff G_X @ H_Y^T = 0, with H_Y spanning the Euclidean dual
of Y.  Duals come in Euclidean and l-Galois flavours; the Galois dual
is computed through the Euclidean dual by one Frobenius map.

Minimum distance supports three strategies:

* full enumeration of the q^k codewords (exact),
* low-weight search: test all vectors of weight w = 1, 2, ... for
  membership against the parity relations (exact once a hit is found),
* otherwise certified (lower, upper) bounds.

Strategy selection and caps live in :class:`DistanceBudget`.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from itertools import combinations, product
from math import comb
from typing import Iterable, Sequence

import numpy as np

from .gf import FieldElement, FieldMismatchError, FieldSpec
from .matgf import DimensionError, MatGF

__all__ = [
    "DistanceBudget",
    "DistanceResult",
    "LinearCode",
    "UndefinedDistanceError",
    "galois_inner_product",
]


class UndefinedDistanceError(ValueError):
    """Minimum distance is undefined (the zero code has no nonzero word)."""


class CapExceededError(RuntimeError):
    """An enumeration or search cap was exceeded."""


@dataclass(frozen=True)
class DistanceBudget:
    """Caps controlling how hard minimum-distance computation may work.

    enum_cap: largest q^k for which full codeword enumeration runs.
    lw_cap: total membership tests allowed for the low-weight search.
    chunk: codewords held in memory at once during enumeration.
    """

    enum_cap: int = 1 << 24
    lw_cap: int = 1 << 26
    chunk: int = 1 << 18


@dataclass(frozen=True)
class DistanceResult:
    """Outcome of a minimum-distance computation.

    ``lower == upper`` means the distance is exact; otherwise the pair is
    a certified bracket (every weight below ``lower`` was excluded, and a
    codeword of weight ``upper`` exists).
    """

    lower: int
    upper: int
    strategy: str  # "enum" | "low-weight" | "bounds"

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

    def contains_vector(self, vec) -> bool:
        """Membership of a single vector (encodings or FieldElements)."""
        row = MatGF.from_rows(self.spec, [list(vec)])
        if row.cols != self.n:
            raise DimensionError(f"vector length {row.cols}, expected {self.n}")
        return (row @ self.gen.kernel_basis().T).is_zero()

    # -- duals ---------------------------------------------------------------

    def euclidean_dual(self) -> "LinearCode":
        """The dual under the ordinary inner product; dim n - k."""
        return LinearCode.from_generator(self.gen.kernel_basis())

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
        return (self.gen @ other.gen.kernel_basis().T).is_zero()

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

    # -- minimum distance -----------------------------------------------------

    def min_distance(self, budget: DistanceBudget | None = None) -> DistanceResult:
        """Minimum Hamming distance under the given budget.

        Raises UndefinedDistanceError for the zero code.
        """
        if budget is None:
            budget = DistanceBudget()
        if self.k == 0:
            raise UndefinedDistanceError("the zero code has no minimum distance")
        q = self.spec.q
        if q**self.k <= budget.enum_cap:
            return DistanceResult(*(2 * (_min_weight_enum(self, budget),)), "enum")
        found, searched_to = _low_weight_search(self, budget)
        if found is not None:
            return DistanceResult(found, found, "low-weight")
        upper = _cheap_upper_bound(self)
        lower = max(searched_to + 1, 1)
        if lower >= upper:
            # bracket collapsed: the bound pair certifies exactness
            return DistanceResult(upper, upper, "low-weight")
        return DistanceResult(lower, upper, "bounds")


# ----------------------------------------------------------------------
# inner products
# ----------------------------------------------------------------------

def galois_inner_product(a, b, ell: int = 0, *, spec: FieldSpec | None = None) -> FieldElement:
    """The l-Galois inner product sum_i a_i * b_i^(p^ell).

    ``a`` and ``b`` are equal-length sequences of FieldElements or
    encodings (pass ``spec`` when using raw encodings).
    """
    a = list(a)
    b = list(b)
    if len(a) != len(b):
        raise DimensionError(f"vector lengths differ: {len(a)} vs {len(b)}")
    for x in a + b:
        if isinstance(x, FieldElement):
            if spec is None:
                spec = x.spec
            elif x.spec != spec:
                raise FieldMismatchError("elements from different fields")
    if spec is None:
        raise ValueError("spec required when passing raw encodings")
    spec.check_ell(ell)
    enc_a = [x.enc if isinstance(x, FieldElement) else spec.check(int(x)) for x in a]
    enc_b = [x.enc if isinstance(x, FieldElement) else spec.check(int(x)) for x in b]
    acc = 0
    for x, y in zip(enc_a, enc_b):
        acc = spec.add(acc, spec.mul(x, spec.frobenius(y, ell)))
    return spec.element(acc)


# ----------------------------------------------------------------------
# distance strategies
# ----------------------------------------------------------------------

def _span_table(spec: FieldSpec, gen: np.ndarray) -> np.ndarray:
    """All q^k combinations of the given generator rows (k small)."""
    q = spec.q
    n = gen.shape[1]
    table = np.zeros((1, n), dtype=np.uint8)
    for row in gen:
        blocks = [table]
        for lam in range(1, q):
            scaled = spec.mul_arr(np.int64(lam), row)
            blocks.append(spec.add_arr(table, scaled[None, :]))
        table = np.vstack(blocks)
    return table


def _min_weight_enum(code: LinearCode, budget: DistanceBudget) -> int:
    """Exact minimum weight by chunked enumeration of all codewords."""
    spec = code.spec
    q = spec.q
    gen = code.gen.data
    k, n = gen.shape
    # inner block: as many trailing generators as fit in one chunk
    k_in = 0
    while k_in < k and q ** (k_in + 1) <= budget.chunk:
        k_in += 1
    k_in = max(k_in, 1) if k else 0
    inner = _span_table(spec, gen[k - k_in :])
    outer_gens = gen[: k - k_in]
    best = n + 1
    for msg in product(range(q), repeat=k - k_in):
        word = np.zeros(n, dtype=np.int64)
        for coef, row in zip(msg, outer_gens):
            if coef:
                word = spec.add_arr(word, spec.mul_arr(np.int64(coef), row))
        block = spec.add_arr(inner, word.astype(inner.dtype)[None, :])
        w = np.count_nonzero(block, axis=1)
        nz = w[w > 0]
        if nz.size:
            m = int(nz.min())
            if m < best:
                best = m
                if best == 1:
                    return 1
    return best


def _low_weight_search(
    code: LinearCode, budget: DistanceBudget
) -> tuple[int | None, int]:
    """Search weights w = 1, 2, ... for a codeword, via parity relations.

    Returns (w, w) on a hit, else (None, w_max) where all weights up to
    w_max were exhausted within the cap.
    """
    spec = code.spec
    q = spec.q
    n, k = code.n, code.k
    parity = code.euclidean_dual().gen.data  # (n-k) x n
    spent = 0
    w = 0
    while w < n:
        w += 1
        cost = comb(n, w) * (q - 1) ** w
        if spent + cost > budget.lw_cap:
            return None, w - 1
        spent += cost
        if _has_weight_w_codeword(spec, parity, n, w):
            return w, w
    return None, n


def _has_weight_w_codeword(spec: FieldSpec, parity: np.ndarray, n: int, w: int) -> bool:
    q = spec.q
    r = parity.shape[0]
    if r == 0:
        return True  # whole space: weight-w words exist for every w <= n
    # value patterns with first value 1, shape (w, V): by linearity every
    # weight-w codeword on a support is a nonzero multiple of one of them
    vals = np.array(
        [(1,) + rest for rest in product(range(1, q), repeat=w - 1)], dtype=np.uint8
    ).T
    for support in combinations(range(n), w):
        cols = parity[:, support]  # r x w
        prods = spec.mul_arr(cols[:, :, None], vals[None, :, :])  # r x w x V
        acc = spec.sum_arr(prods, axis=1)
        if bool(np.any(~acc.any(axis=0))):
            return True
    return False


def _cheap_upper_bound(code: LinearCode) -> int:
    """Certified upper bound: the lightest word among generator rows and
    pairwise row sums."""
    spec = code.spec
    gen = code.gen.data
    best = int(np.count_nonzero(gen, axis=1).min())
    k = gen.shape[0]
    pair_cap = 2000
    count = 0
    for i in range(k):
        for j in range(i + 1, k):
            s = spec.add_arr(gen[i], gen[j])
            wt = int(np.count_nonzero(s))
            if 0 < wt < best:
                best = wt
            count += 1
            if count >= pair_cap:
                return best
    return best
