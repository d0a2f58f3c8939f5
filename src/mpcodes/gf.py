"""Exact arithmetic in finite fields GF(p^e).

A field is described by a :class:`FieldSpec`: a prime ``p``, an extension
degree ``e`` and a monic irreducible modulus polynomial of degree ``e``
over GF(p).  Elements are encoded as integers in ``[0, q)`` with
``q = p^e``: the base-p digits ``d_0, ..., d_{e-1}`` of the encoding are
the coefficients of the residue polynomial ``d_0 + d_1*x + ... +
d_{e-1}*x^(e-1)``.  With this encoding zero is ``0``, one is ``1``, and
the prime subfield occupies the encodings ``0 .. p-1``.

Scalar multiplication is a direct polynomial product reduced by the
modulus, so correctness does not depend on any lookup table.  Bulk
(numpy) operations use lazily built antilog/log tables; those tables are
generated from the scalar path, so both paths are identical by
construction (and the test suite asserts bit-for-bit agreement).
Scalar inversion in extension fields reads the same tables; the
extended-Euclid ``_inv_direct`` serves fields too large for them and is
the test reference.

The default modulus table uses Conway polynomials, so for instance
GF(4) is built with x^2+x+1, GF(8) with x^3+x+1 and GF(9) with
x^2+2x+2.  Text tokens for elements are ``0``, a plain encoding integer,
or ``a^k`` where ``a`` denotes the canonical primitive element (the
smallest encoding of multiplicative order q-1).
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

__all__ = [
    "DEFAULT_MODULI",
    "FieldElement",
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

# Largest q for which antilog/log tables are built; larger fields keep
# working through the scalar path but refuse bulk array operations.
_TABLE_LIMIT = 1 << 16

# Largest q for which full scalar add/mul lookup tables are kept.  The
# tables are generated from the direct polynomial arithmetic, so they
# are bit-identical to it by construction.
_SCALAR_TABLE_LIMIT = 64


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


def _poly_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    while b:
        # reduce a mod b (b made monic on the fly)
        lead_inv = pow(b[-1], -1, p)
        bm = [(c * lead_inv) % p for c in b]
        a, b = b, _poly_mod(a, bm, p)
    return a


def _poly_powmod(base: list[int], exp: int, m: list[int], p: int) -> list[int]:
    result = [1]
    base = _poly_mod(base, m, p)
    while exp:
        if exp & 1:
            result = _poly_mod(_poly_mul(result, base, p), m, p)
        base = _poly_mod(_poly_mul(base, base, p), m, p)
        exp >>= 1
    return result


def _smallest_primitive_root(p: int) -> int:
    if p == 2:
        return 1
    factors = _prime_factors(p - 1)
    for g in range(2, p):
        if all(pow(g, (p - 1) // f, p) != 1 for f in factors):
            return g
    raise AssertionError("no primitive root found")  # unreachable for prime p


def _prime_factors(n: int) -> list[int]:
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1
    if n > 1:
        out.append(n)
    return out


class FieldSpec:
    """The field GF(p^e) with an explicit irreducible modulus.

    Instances are immutable values: equal specs (same p, e, modulus)
    describe the same field.  All arithmetic methods are pure and take
    and return plain integer encodings; :class:`FieldElement` provides
    an operator-friendly wrapper on top.
    """

    __slots__ = (
        "p",
        "e",
        "q",
        "modulus",
        "_exp",
        "_log",
        "_frob",
        "_prim",
        "_ppow",
        "_add_tab",
        "_mul_tab",
    )

    def __init__(self, p: int, e: int = 1, modulus: Iterable[int] | None = None):
        if not _is_prime(p):
            raise ValueError(f"p={p} is not prime")
        if e < 1:
            raise ValueError(f"extension degree e={e} must be >= 1")
        q = p**e
        if modulus is None:
            if q in DEFAULT_MODULI:
                modulus = DEFAULT_MODULI[q]
            elif e == 1:
                g = _smallest_primitive_root(p)
                modulus = ((p - g) % p, 1)
            else:
                raise ValueError(
                    f"no default modulus for q={q}; supply one explicitly"
                )
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
        object.__setattr__(self, "_exp", None)
        object.__setattr__(self, "_log", None)
        object.__setattr__(self, "_frob", {})
        object.__setattr__(self, "_prim", None)
        object.__setattr__(self, "_ppow", tuple(p**i for i in range(e + 1)))
        object.__setattr__(self, "_add_tab", None)
        object.__setattr__(self, "_mul_tab", None)
        self._check_irreducible()

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("FieldSpec is immutable")

    def _set(self, name, value):
        object.__setattr__(self, name, value)

    def _check_irreducible(self) -> None:
        if self.e == 1:
            return  # every monic linear polynomial is irreducible
        p, e = self.p, self.e
        m = _poly_trim(list(self.modulus))
        # f irreducible of degree e iff gcd(f, x^(p^k) - x) is constant
        # for every 1 <= k < e (any proper factor has degree < e).
        for k in range(1, e):
            xpk = _poly_powmod([0, 1], p**k, m, p)
            diff = list(xpk) + [0] * max(0, 2 - len(xpk))
            diff[1] = (diff[1] - 1) % p
            g = _poly_gcd(m, _poly_trim(diff), p)
            if len(g) > 1:
                raise ValueError(
                    f"modulus {self.modulus} is reducible over GF({p})"
                )

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

    # -- scalar arithmetic on encodings ----------------------------------

    def _digits(self, a: int) -> list[int]:
        p = self.p
        out = []
        for _ in range(self.e):
            a, r = divmod(a, p)
            out.append(r)
        return out

    def _encode(self, digits: list[int]) -> int:
        out = 0
        for c, w in zip(digits, self._ppow):
            out += c * w
        return out

    def check(self, a: int) -> int:
        if not 0 <= a < self.q:
            raise ValueError(f"encoding {a} out of range for GF({self.q})")
        return a

    def _add_direct(self, a: int, b: int) -> int:
        p = self.p
        out = 0
        for w in self._ppow[:-1]:
            out += ((a // w + b // w) % p) * w
        return out

    def add(self, a: int, b: int) -> int:
        if self.e == 1:
            return (a + b) % self.p
        tab = self._add_tab
        if tab is not None:
            return tab[a][b]
        if self.q <= _SCALAR_TABLE_LIMIT:
            tab = [
                [self._add_direct(x, y) for y in range(self.q)]
                for x in range(self.q)
            ]
            self._set("_add_tab", tab)
            return tab[a][b]
        return self._add_direct(a, b)

    def neg(self, a: int) -> int:
        if self.e == 1:
            return (-a) % self.p
        p = self.p
        out = 0
        for w in self._ppow[:-1]:
            out += ((-(a // w)) % p) * w
        return out

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def _mul_direct(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        prod = _poly_mul(self._digits(a), self._digits(b), self.p)
        prod = _poly_mod(prod, list(self.modulus), self.p)
        return self._encode(prod + [0] * (self.e - len(prod)))

    def mul(self, a: int, b: int) -> int:
        if self.e == 1:
            return (a * b) % self.p
        tab = self._mul_tab
        if tab is not None:
            return tab[a][b]
        if self.q <= _SCALAR_TABLE_LIMIT:
            tab = [
                [self._mul_direct(x, y) for y in range(self.q)]
                for x in range(self.q)
            ]
            self._set("_mul_tab", tab)
            return tab[a][b]
        return self._mul_direct(a, b)

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("zero has no multiplicative inverse")
        if self.e == 1:
            return pow(a, -1, self.p)
        if self.q <= _TABLE_LIMIT:
            exp, log = self._tables()
            return int(exp[self.q - 1 - log[a]])
        return self._inv_direct(a)

    def _inv_direct(self, a: int) -> int:
        # a != 0; extended Euclid on (a, modulus): find s with s*a = gcd = const
        p = self.p
        r0, r1 = _poly_trim(self._digits(a)), list(self.modulus)
        s0, s1 = [1], []
        while r1:
            q_poly, rem = _poly_divmod(r0, r1, p)
            r0, r1 = r1, rem
            s0, s1 = s1, _poly_trim(
                [
                    (c0 - c1) % p
                    for c0, c1 in _zip_pad(s0, _poly_mul(q_poly, s1, p))
                ]
            )
        # r0 is a nonzero constant; scale s0 to make s0*a = 1
        c = pow(r0[-1], -1, p)
        s0 = [(x * c) % p for x in s0]
        s0 = _poly_mod(s0, list(self.modulus), p)
        return self._encode(s0 + [0] * (self.e - len(s0)))

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

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
        ell %= self.e
        if ell == 0:
            return a
        if self.q <= _TABLE_LIMIT:
            tab = self._frob.get(ell)
            if tab is None:
                self.frobenius_arr(np.arange(1), ell)  # builds and caches
                tab = self._frob[ell]
            return int(tab[a])
        for _ in range(ell):
            a = self.pow(a, self.p)
        return a

    # -- element helpers --------------------------------------------------

    def element(self, enc: int) -> "FieldElement":
        return FieldElement(self, self.check(int(enc)))

    def zero(self) -> "FieldElement":
        return FieldElement(self, 0)

    def one(self) -> "FieldElement":
        return FieldElement(self, 1)

    def elements(self) -> Iterator["FieldElement"]:
        return (FieldElement(self, x) for x in range(self.q))

    def primitive_element(self) -> "FieldElement":
        """Smallest encoding of multiplicative order q-1."""
        if self._prim is None:
            if self.q == 2:
                self._set("_prim", 1)
            else:
                factors = _prime_factors(self.q - 1)
                for cand in range(2, self.q):
                    if all(
                        self.pow(cand, (self.q - 1) // f) != 1 for f in factors
                    ):
                        self._set("_prim", cand)
                        break
        return FieldElement(self, self._prim)

    # -- bulk (numpy) operations on encoding arrays -----------------------

    def _tables(self) -> tuple[np.ndarray, np.ndarray]:
        if self._exp is None:
            if self.q > _TABLE_LIMIT:
                raise ValueError(
                    f"bulk operations unsupported for q={self.q} > {_TABLE_LIMIT}"
                )
            g = self.primitive_element().enc
            n = self.q - 1
            exp = np.zeros(max(2 * n, 1), dtype=np.int64)
            log = np.zeros(self.q, dtype=np.int64)
            x = 1
            for i in range(n):
                exp[i] = x
                log[x] = i
                x = self.mul(x, g)
            exp[n : 2 * n] = exp[:n]
            self._set("_exp", exp)
            self._set("_log", log)
        return self._exp, self._log

    def add_arr(self, a, b) -> np.ndarray:
        a = np.asarray(a)
        b = np.asarray(b)
        if self.p == 2:
            return np.bitwise_xor(a, b)
        if self.e == 1:
            return (a + b) % self.p
        out = np.zeros(np.broadcast(a, b).shape, dtype=np.int64)
        for w in self._ppow[:-1]:
            out += ((a // w + b // w) % self.p) * w
        return out

    def neg_arr(self, a) -> np.ndarray:
        a = np.asarray(a)
        if self.p == 2:
            return a.copy()
        if self.e == 1:
            return (-a) % self.p
        out = np.zeros(a.shape, dtype=np.int64)
        for w in self._ppow[:-1]:
            out += ((-(a // w)) % self.p) * w
        return out

    def sub_arr(self, a, b) -> np.ndarray:
        if self.p == 2:
            return np.bitwise_xor(np.asarray(a), np.asarray(b))
        return self.add_arr(a, self.neg_arr(b))

    def mul_arr(self, a, b) -> np.ndarray:
        exp, log = self._tables()
        a = np.asarray(a)
        b = np.asarray(b)
        res = exp[log[a] + log[b]]
        return np.where((a == 0) | (b == 0), 0, res)

    def sum_arr(self, a, axis: int) -> np.ndarray:
        """Field sum along one axis of an encoding array."""
        a = np.asarray(a)
        if self.p == 2:
            return np.bitwise_xor.reduce(a, axis=axis)
        if self.e == 1:
            return a.sum(axis=axis) % self.p
        out = None
        for w in self._ppow[:-1]:
            digit = ((a // w) % self.p).sum(axis=axis) % self.p
            term = digit * w
            out = term if out is None else out + term
        return out

    def frobenius_arr(self, a, ell: int) -> np.ndarray:
        if ell < 0:
            raise ValueError("Frobenius power must be non-negative")
        ell %= self.e
        a = np.asarray(a)
        if ell == 0:
            return a.copy()
        tab = self._frob.get(ell)
        if tab is None:
            if self.q > _TABLE_LIMIT:
                raise ValueError(
                    f"bulk operations unsupported for q={self.q} > {_TABLE_LIMIT}"
                )
            base = self._frob.get(1)
            if base is None:
                base = np.array(
                    [self.pow(x, self.p) for x in range(self.q)], dtype=np.int64
                )
                self._frob[1] = base
            tab = base
            for _ in range(ell - 1):
                tab = base[tab]
            self._frob[ell] = tab
        return tab[a]


def _zip_pad(a: list[int], b: list[int]):
    n = max(len(a), len(b))
    return zip(a + [0] * (n - len(a)), b + [0] * (n - len(b)))


def _poly_divmod(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int]]:
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    a = list(a)
    quot = [0] * max(1, len(a) - len(b) + 1)
    inv_lead = pow(b[-1], -1, p)
    while a and len(a) >= len(b):
        c = (a[-1] * inv_lead) % p
        shift = len(a) - len(b)
        if c:
            quot[shift] = c
            for t in range(len(b)):
                a[shift + t] = (a[shift + t] - c * b[t]) % p
        a.pop()
    return _poly_trim(quot), _poly_trim(a)


class FieldElement:
    """A value of a specific GF(p^e), supporting field operators.

    Mixing elements of different fields raises FieldMismatchError.
    Instances are immutable and hashable.
    """

    __slots__ = ("spec", "enc")

    def __init__(self, spec: FieldSpec, enc: int):
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "enc", spec.check(int(enc)))

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("FieldElement is immutable")

    def _coerce(self, other) -> int:
        if isinstance(other, FieldElement):
            if other.spec != self.spec:
                raise FieldMismatchError(
                    f"elements of {self.spec!r} and {other.spec!r} cannot mix"
                )
            return other.enc
        if isinstance(other, int):
            return self.spec.check(other)
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other):
        enc = self._coerce(other)
        if enc is NotImplemented:
            return NotImplemented
        return FieldElement(self.spec, self.spec.add(self.enc, enc))

    __radd__ = __add__

    def __sub__(self, other):
        enc = self._coerce(other)
        if enc is NotImplemented:
            return NotImplemented
        return FieldElement(self.spec, self.spec.sub(self.enc, enc))

    def __mul__(self, other):
        enc = self._coerce(other)
        if enc is NotImplemented:
            return NotImplemented
        return FieldElement(self.spec, self.spec.mul(self.enc, enc))

    __rmul__ = __mul__

    def __truediv__(self, other):
        enc = self._coerce(other)
        if enc is NotImplemented:
            return NotImplemented
        return FieldElement(self.spec, self.spec.div(self.enc, enc))

    def __neg__(self):
        return FieldElement(self.spec, self.spec.neg(self.enc))

    def __pow__(self, k: int):
        return FieldElement(self.spec, self.spec.pow(self.enc, k))

    def inverse(self) -> "FieldElement":
        return FieldElement(self.spec, self.spec.inv(self.enc))

    def frobenius(self, ell: int) -> "FieldElement":
        return FieldElement(self.spec, self.spec.frobenius(self.enc, ell))

    def __bool__(self) -> bool:
        return self.enc != 0

    def __eq__(self, other) -> bool:
        if isinstance(other, FieldElement):
            return self.spec == other.spec and self.enc == other.enc
        if isinstance(other, int):
            return 0 <= other < self.spec.q and self.enc == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.spec, self.enc))

    def __repr__(self) -> str:
        return f"<{format_element(self)} in GF({self.spec.q})>"

    def __str__(self) -> str:
        return format_element(self)


def field(q: int, modulus: Iterable[int] | None = None) -> FieldSpec:
    """Build GF(q) for a prime power q, using the default modulus table."""
    if q < 2:
        raise ValueError(f"q={q} is not a prime power")
    for p in range(2, q + 1):
        if _is_prime(p) and q % p == 0:
            e = 0
            r = q
            while r % p == 0:
                r //= p
                e += 1
            if r != 1:
                raise ValueError(f"q={q} is not a prime power")
            return FieldSpec(p, e, modulus)
    raise ValueError(f"q={q} is not a prime power")


def parse_element(token: str, spec: FieldSpec) -> FieldElement:
    """Parse an element token: '0', an encoding integer, or 'a^k' / 'a'."""
    token = token.strip()
    if not token:
        raise ValueError("empty element token")
    if token == "a":
        return spec.primitive_element()
    if token.startswith("a^"):
        try:
            k = int(token[2:])
        except ValueError:
            raise ValueError(f"malformed element token {token!r}") from None
        if not 0 <= k < max(spec.q - 1, 1):
            raise ValueError(
                f"exponent {k} out of range [0, {spec.q - 1}) in {token!r}"
            )
        return spec.primitive_element() ** k
    try:
        enc = int(token)
    except ValueError:
        raise ValueError(f"malformed element token {token!r}") from None
    if not 0 <= enc < spec.q:
        raise ValueError(f"encoding {enc} out of range for GF({spec.q})")
    return spec.element(enc)


def format_element(x: FieldElement) -> str:
    """Format an element; round-trips through :func:`parse_element`."""
    spec = x.spec
    if spec.e == 1 or x.enc in (0, 1):
        return str(x.enc)
    _, log = spec._tables()
    k = int(log[x.enc])
    return "a" if k == 1 else f"a^{k}"
