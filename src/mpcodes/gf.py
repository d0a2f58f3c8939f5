"""Exact arithmetic in finite fields GF(p^e).

A field is described by a :class:`FieldSpec`: a prime ``p``, an extension
degree ``e`` and a monic irreducible modulus polynomial of degree ``e``
over GF(p).  Elements are encoded as integers in ``[0, q)`` with
``q = p^e``: the base-p digits ``d_0, ..., d_{e-1}`` of the encoding are
the coefficients of the residue polynomial ``d_0 + d_1*x + ... +
d_{e-1}*x^(e-1)``.  With this encoding zero is ``0``, one is ``1``, and
the prime subfield occupies the encodings ``0 .. p-1``.

Every operation reads one set of lookup tables (add, sub, mul, neg,
inv and Frobenius), built once in ``FieldSpec.__init__``.  The tables are
generated from direct polynomial arithmetic (``_add_direct`` and
``_mul_direct``), which is kept only as that generator and as the test
reference.  Scalar operations index plain-list copies.  Bulk (numpy)
binary operations make one ``take`` from a flat q*q uint8 table at the
uint16 index ``a*q + b``; characteristic-2 bulk addition is XOR, the
same function.  Two float64 tables, the base-p digits of each element
and its regular representation (the digits of x^s * b), serve the exact
matrix product of :mod:`mpcodes.matgf`.  Fields are limited to q <= 256,
so every entry fits in uint8 (a q x q table is 64 KiB).

The default modulus table uses Conway polynomials, so for instance
GF(4) is built with x^2+x+1, GF(8) with x^3+x+1 and GF(9) with
x^2+2x+2; any other GF(p) gets x - g for its smallest primitive root g.
The primitive-element search that builds the tables also decides
irreducibility (an element of order q-1 exists exactly when the modulus
is irreducible); rejecting a reducible modulus tries every element, up
to about 0.4 s at q = 256.  Text tokens parse to and format from the
same int encodings: a token is a plain encoding integer, or ``a`` /
``a^k`` where ``a`` denotes the canonical primitive element (the
smallest encoding of multiplicative order q-1).
"""

from __future__ import annotations

from math import isqrt
from typing import Iterable

import numpy as np

__all__ = [
    "DEFAULT_MODULI",
    "FieldMismatchError",
    "FieldSpec",
    "field",
    "format_element",
    "parse_element",
]


class FieldMismatchError(ValueError):
    """Raised when values that live in different fields are combined."""


#: Default moduli (coefficients c_0..c_e, monic): Conway polynomials.
DEFAULT_MODULI: dict[int, tuple[int, ...]] = {
    2: (1, 1),
    3: (1, 1),
    4: (1, 1, 1),
    5: (3, 1),
    7: (4, 1),
    8: (1, 1, 0, 1),
    9: (2, 2, 1),
    11: (9, 1),
    13: (11, 1),
    16: (1, 1, 0, 0, 1),
    25: (2, 4, 1),
    27: (1, 2, 0, 1),
    32: (1, 0, 1, 0, 0, 1),
}

# Largest supported field size: every encoding and table entry is a uint8.
_MAX_Q = 256


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


# ----------------------------------------------------------------------
# Polynomial helpers over GF(p).  Polynomials are lists of digits
# c_0..c_deg with no trailing zeros; [] is the zero polynomial.
# ----------------------------------------------------------------------

def _poly_trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_mul(a: list[int], b: list[int], p: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_trim(out)


def _poly_mod(a: list[int], m: list[int], p: int) -> list[int]:
    # m is monic
    a = list(a)
    dm = len(m) - 1
    while len(a) - 1 >= dm and a:
        c = a[-1]
        if c:
            shift = len(a) - 1 - dm
            for t in range(dm):
                a[shift + t] = (a[shift + t] - c * m[t]) % p
        a.pop()
    return _poly_trim(a)


class FieldSpec:
    """The field GF(p^e) with an explicit irreducible modulus.

    Instances are immutable values: equal specs (same p, e, modulus)
    describe the same field.  All arithmetic methods are pure and take
    and return plain integer encodings.
    """

    __slots__ = (
        "p",
        "e",
        "q",
        "modulus",
        "_prim",
        # uint8 numpy tables, read by the bulk operations (ADD, SUB and
        # MUL flat, at a*q + b)
        "_ADD",
        "_SUB",
        "_MUL",
        "_NEG",
        "_FROB",
        # float64, read by MatGF.__matmul__: _DIG[s, a] is digit s of a,
        # _REG[s, b, t] is digit t of x^s * b
        "_DIG",
        "_REG",
        # the same tables as nested lists, read by the scalar operations
        "_add",
        "_sub",
        "_mul",
        "_neg",
        "_inv",
        "_frob",
        "_log",
    )

    def __init__(self, p: int, e: int = 1, modulus: Iterable[int] | None = None):
        if e < 1:
            raise ValueError(f"extension degree e={e} must be >= 1")
        # before the primality test, which is slow for a huge p; as p >= 2,
        # any e > 8 is too large already and min() keeps the power small
        if p ** min(e, 9) > _MAX_Q:
            raise ValueError(
                f"{p}^{e} is too large: fields are limited to q <= {_MAX_Q}"
            )
        if not _is_prime(p):
            raise ValueError(f"p={p} is not prime")
        q = p**e
        # a prime field outside DEFAULT_MODULI gets x - g for the primitive
        # root g that the table build finds; for e == 1 the tables do not
        # depend on the linear modulus
        root_modulus = modulus is None and q not in DEFAULT_MODULI
        if root_modulus and e > 1:
            raise ValueError(f"no default modulus for q={q}; supply one explicitly")
        if modulus is None:
            modulus = DEFAULT_MODULI.get(q, (0, 1))
        modulus = tuple(int(c) % p for c in modulus)
        if len(modulus) != e + 1:
            raise ValueError(
                f"modulus must have degree e={e} (got {len(modulus) - 1})"
            )
        if modulus[-1] != 1:
            raise ValueError("modulus must be monic")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "e", e)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "modulus", modulus)
        self._build_tables()
        if root_modulus:
            object.__setattr__(self, "modulus", ((p - self._prim) % p, 1))

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("FieldSpec is immutable")

    def _build_tables(self) -> None:
        """Build every lookup table from the polynomial reference.

        Raises ``ValueError`` when no element has order q-1, i.e. the
        modulus is reducible; that tries every element, up to about 0.4 s
        at q = 256 (instant for q <= 32)."""
        p, e, q = self.p, self.e, self.q
        n = q - 1
        # exp table: the powers of the smallest element of order q-1
        for g in range(2, q) if q > 2 else (1,):
            powers = [1]
            x = self._mul_direct(1, g)
            while x != 1 and len(powers) < n:
                powers.append(x)
                x = self._mul_direct(x, g)
            if x == 1 and len(powers) == n:
                break
        else:
            # a reducible modulus gives zero divisors, so fewer than q-1 units
            raise ValueError(f"modulus {self.modulus} is reducible over GF({p})")
        exp = np.array(powers, dtype=np.int64)
        log = np.zeros(q, dtype=np.int64)
        log[exp] = np.arange(n)
        lg = log[1:]
        # add and neg act digit-wise on the base-p digits
        weights = p ** np.arange(e)
        digits = (np.arange(q)[:, None] // weights) % p
        add = ((digits[:, None, :] + digits[None, :, :]) % p) @ weights
        neg = (-digits % p) @ weights
        mul = np.zeros((q, q), dtype=np.int64)
        mul[1:, 1:] = exp[(lg[:, None] + lg[None, :]) % n]
        inv = np.zeros(q, dtype=np.int64)
        inv[1:] = exp[-lg % n]
        # row ell of frob is sigma^ell: a -> a^(p^ell)
        frob = np.zeros((e, q), dtype=np.int64)
        frob[:, 1:] = exp[(lg[None, :] * (p ** np.arange(e))[:, None]) % n]
        sub = add[:, neg]
        tables = {"ADD": add, "SUB": sub, "MUL": mul, "NEG": neg, "FROB": frob}
        for name, tab in tables.items():
            flat = tab.ravel() if name in ("ADD", "SUB", "MUL") else tab
            object.__setattr__(self, f"_{name}", flat.astype(np.uint8))
            object.__setattr__(self, f"_{name.lower()}", tab.tolist())
        # x^s is encoded p^s, so x^s * b is mul[p^s, b]
        object.__setattr__(self, "_DIG", digits.T.astype(np.float64))
        object.__setattr__(self, "_REG", digits[mul[weights]].astype(np.float64))
        object.__setattr__(self, "_inv", inv.tolist())
        object.__setattr__(self, "_log", log.tolist())
        object.__setattr__(self, "_prim", g)

    # -- value semantics -------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FieldSpec)
            and self.p == other.p
            and self.e == other.e
            and self.modulus == other.modulus
        )

    def __hash__(self) -> int:
        return hash((self.p, self.e, self.modulus))

    def __repr__(self) -> str:
        return f"FieldSpec(p={self.p}, e={self.e}, modulus={self.modulus})"

    # -- polynomial reference: the table generator -----------------------

    def _digits(self, a: int) -> list[int]:
        p = self.p
        out = []
        for _ in range(self.e):
            a, r = divmod(a, p)
            out.append(r)
        return out

    def _encode(self, digits: list[int]) -> int:
        out = 0
        for c in reversed(digits):
            out = out * self.p + c
        return out

    def _add_direct(self, a: int, b: int) -> int:
        p = self.p
        return self._encode(
            [(x + y) % p for x, y in zip(self._digits(a), self._digits(b))]
        )

    def _mul_direct(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        prod = _poly_mul(self._digits(a), self._digits(b), self.p)
        prod = _poly_mod(prod, list(self.modulus), self.p)
        return self._encode(prod)

    # -- scalar arithmetic on encodings ----------------------------------

    def check_ell(self, ell: int) -> None:
        """Refuse a Galois level outside 0 <= ell < e."""
        if not 0 <= ell < self.e:
            raise ValueError(f"ell={ell} out of range [0, {self.e})")

    def add(self, a: int, b: int) -> int:
        return self._add[a][b]

    def neg(self, a: int) -> int:
        return self._neg[a]

    def sub(self, a: int, b: int) -> int:
        return self._sub[a][b]

    def mul(self, a: int, b: int) -> int:
        return self._mul[a][b]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("zero has no multiplicative inverse")
        return self._inv[a]

    def pow(self, a: int, k: int) -> int:
        if k < 0:
            a, k = self.inv(a), -k
        result, base = 1, a
        while k:
            if k & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            k >>= 1
        return result

    def frobenius(self, a: int, ell: int) -> int:
        """a^(p^ell); ell is reduced modulo e."""
        if ell < 0:
            raise ValueError("Frobenius power must be non-negative")
        return self._frob[ell % self.e][a]

    # -- bulk (numpy) operations on encoding arrays -----------------------

    def _pairwise(self, table: np.ndarray, a, b) -> np.ndarray:
        """table[a, b] of a flat q*q table; the temporaries are the uint16
        index and take's intp copy of it, 10 bytes per output entry."""
        return table.take(np.asarray(a, dtype=np.uint16) * self.q + b)

    def add_arr(self, a, b) -> np.ndarray:
        if self.p == 2:
            return np.bitwise_xor(a, b)
        return self._pairwise(self._ADD, a, b)

    def neg_arr(self, a) -> np.ndarray:
        return self._NEG[a]

    def sub_arr(self, a, b) -> np.ndarray:
        if self.p == 2:
            return np.bitwise_xor(a, b)
        return self._pairwise(self._SUB, a, b)

    def mul_arr(self, a, b) -> np.ndarray:
        return self._pairwise(self._MUL, a, b)

    def sum_arr(self, a, axis: int) -> np.ndarray:
        """Field sum along one axis of an encoding array.  For odd p the
        axis is folded in halves, about log2(length) table adds."""
        a = np.asarray(a)
        if self.p == 2:
            return np.bitwise_xor.reduce(a, axis=axis)
        parts = np.moveaxis(a, axis, 0)
        if len(parts) == 0:
            return np.zeros(parts.shape[1:], dtype=np.uint8)
        while len(parts) > 1:
            half = len(parts) // 2
            # an odd middle entry is carried to the next round as it is
            folded = self._pairwise(self._ADD, parts[:half], parts[-half:])
            parts = np.concatenate([folded, parts[half:-half]])
        return parts[0].astype(np.uint8)

    def frobenius_arr(self, a, ell: int) -> np.ndarray:
        if ell < 0:
            raise ValueError("Frobenius power must be non-negative")
        return self._FROB[ell % self.e][a]


def field(q: int, modulus: Iterable[int] | None = None) -> FieldSpec:
    """Build GF(q) for a prime power q, using the default modulus table."""
    if q < 2:
        raise ValueError(f"q={q} is not a prime power")
    # the smallest divisor >= 2 of q is prime; a composite q has one
    # up to sqrt(q), so without one q itself is prime
    p = next((d for d in range(2, isqrt(q) + 1) if q % d == 0), q)
    e = 0
    r = q
    while r % p == 0:
        r //= p
        e += 1
    if r != 1:
        raise ValueError(f"q={q} is not a prime power")
    return FieldSpec(p, e, modulus)


def parse_element(token: str, spec: FieldSpec) -> int:
    """The encoding of an element token: an encoding integer, or 'a' /
    'a^k' for a power of the primitive element."""
    token = token.strip()
    if not token:
        raise ValueError("empty element token")
    if token == "a":
        return spec._prim
    if token.startswith("a^"):
        try:
            k = int(token[2:])
        except ValueError:
            raise ValueError(f"malformed element token {token!r}") from None
        if not 0 <= k < max(spec.q - 1, 1):
            raise ValueError(
                f"exponent {k} out of range [0, {spec.q - 1}) in {token!r}"
            )
        return spec.pow(spec._prim, k)
    try:
        enc = int(token)
    except ValueError:
        raise ValueError(f"malformed element token {token!r}") from None
    if not 0 <= enc < spec.q:
        raise ValueError(f"encoding {enc} out of range for GF({spec.q})")
    return enc


def format_element(enc: int, spec: FieldSpec) -> str:
    """The token of an encoding; round-trips through :func:`parse_element`."""
    if spec.e == 1 or enc in (0, 1):
        return str(enc)
    k = spec._log[enc]
    return "a" if k == 1 else f"a^{k}"
