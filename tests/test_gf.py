import random
from functools import reduce
from itertools import zip_longest

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpcodes import (
    DEFAULT_MODULI,
    FieldSpec,
    field,
    format_element,
    parse_element,
)
from mpcodes.gf import _poly_mul

ALL_Q = sorted(DEFAULT_MODULI)


def test_default_table_matches_classic_moduli():
    # x^2+x+1, x^3+x+1, x^2+2x+2: theta satisfies the defining relation
    f4 = field(4)
    assert f4.mul(2, 2) == 3  # theta^2 = theta + 1
    f8 = field(8)
    assert f8.pow(2, 3) == 3  # theta^3 = theta + 1
    f9 = field(9)
    assert f9.mul(3, 3) == 4  # theta^2 = theta + 1 (i.e. -2theta-2 mod 3)


@pytest.mark.parametrize("q", ALL_Q)
def test_field_axioms_exhaustive_pairs(q):
    f = field(q)
    add, mul = f.add, f.mul
    for a in range(q):
        for b in range(q):
            assert add(a, b) == add(b, a)
            assert mul(a, b) == mul(b, a)
        assert add(a, 0) == a
        assert mul(a, 1) == a
        assert add(a, f.neg(a)) == 0
        if a:
            assert mul(a, f.inv(a)) == 1
    # associativity/distributivity: every element appears in each slot
    rng = random.Random(q)
    for c in range(q):
        for _ in range(60):
            a, b = rng.randrange(q), rng.randrange(q)
            assert add(add(a, b), c) == add(a, add(b, c))
            assert mul(mul(a, b), c) == mul(a, mul(b, c))
            assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))


@pytest.mark.parametrize("q", ALL_Q)
def test_frobenius_is_field_homomorphism(q):
    f = field(q)
    for ell in range(f.e):
        for a in range(q):
            for b in range(q):
                assert f.frobenius(f.add(a, b), ell) == f.add(
                    f.frobenius(a, ell), f.frobenius(b, ell)
                )
                assert f.frobenius(f.mul(a, b), ell) == f.mul(
                    f.frobenius(a, ell), f.frobenius(b, ell)
                )


@pytest.mark.parametrize("q", [4, 8, 9, 16, 27])
def test_frobenius_composition(q):
    f = field(q)
    for ell in range(f.e):
        for m in range(f.e):
            for a in range(q):
                assert f.frobenius(f.frobenius(a, ell), m) == f.frobenius(
                    a, (ell + m) % f.e
                )


def test_frobenius_fixed_points_and_identity():
    f = field(8)
    assert f.frobenius(0, 2) == 0
    assert f.frobenius(1, 2) == 1
    for a in range(8):
        assert f.frobenius(a, f.e) == a  # sigma^e = id
    # theta^4 = theta^2 + theta over GF(8)
    assert f.frobenius(2, 2) == f.add(4, 2)
    with pytest.raises(ValueError):
        f.frobenius(1, -1)


def test_inverse_errors_and_identities():
    f5 = field(5)
    assert f5.inv(2) == 3
    assert f5.inv(1) == 1
    f4 = field(4)
    assert f4.inv(2) == 3  # theta * (theta+1) = 1
    with pytest.raises(ZeroDivisionError):
        f4.inv(0)


def _trim(c):
    while c and c[-1] == 0:
        c.pop()
    return c


def _euclid_inverse(f, a):
    """a^-1 by extended Euclid on (modulus, a); digit-list polynomials."""
    p = f.p
    r0, r1 = list(f.modulus), _trim(f._digits(a))
    s0, s1 = [], [1]  # invariant: s_i * a = r_i modulo the modulus
    while r1:
        rem, quot = list(r0), [0] * len(r0)
        while len(rem) >= len(r1):
            c, shift = rem[-1] * pow(r1[-1], -1, p) % p, len(rem) - len(r1)
            quot[shift] = c
            for i, x in enumerate(r1):
                rem[shift + i] = (rem[shift + i] - c * x) % p
            _trim(rem)
        prod = _poly_mul(_trim(quot), s1, p)
        diff = [
            (x - y) % p for x, y in zip_longest(s0, prod, fillvalue=0)
        ]
        r0, r1, s0, s1 = r1, rem, s1, _trim(diff)
    scale = pow(r0[0], -1, p)  # r0 is a nonzero constant
    return f._encode([x * scale % p for x in s0])


@pytest.mark.parametrize("q", [q for q in ALL_Q if field(q).e > 1])
def test_table_inverse_matches_euclid(q):
    f = field(q)
    for a in range(1, q):
        assert f.inv(a) == _euclid_inverse(f, a)


def test_primitive_elements():
    assert parse_element("a", field(4)) == 2
    assert parse_element("a", field(2)) == 1
    assert parse_element("a", field(9)) == 3
    # order is exactly q-1
    for q in (4, 5, 8, 9, 16):
        f = field(q)
        g = parse_element("a", f)
        seen = set()
        x = 1
        for _ in range(q - 1):
            seen.add(x)
            x = f.mul(x, g)
        assert x == 1 and len(seen) == q - 1


@pytest.mark.parametrize("q", ALL_Q)
def test_parse_format_roundtrip(q):
    f = field(q)
    for enc in range(q):
        assert parse_element(format_element(enc, f), f) == enc


# Lenient spellings the parser accepts (int() strips signs, leading
# zeros and blanks), with the encoding each gives over GF(8) and GF(5).
LENIENT_TOKENS = {
    "01": 1, "+1": 1, "-0": 0, "a^03": 3, "a^+3": 3, "a^ 3": 3, "a^0": 1,
}


def test_parse_tokens():
    f8 = field(8)
    assert parse_element("a^3", f8) == 3
    assert parse_element("a", f8) == 2
    assert parse_element("0", f8) == 0
    assert parse_element("4", field(5)) == 4
    for f in (f8, field(5)):
        for token, enc in LENIENT_TOKENS.items():
            assert parse_element(token, f) == enc, token
    with pytest.raises(ValueError):
        parse_element("a^7", f8)  # exponent out of range
    with pytest.raises(ValueError):
        parse_element("9", f8)
    with pytest.raises(ValueError, match="encoding 10 out of range"):
        parse_element("1_0", f8)
    with pytest.raises(ValueError):
        parse_element("b^2", f8)
    with pytest.raises(ValueError):
        parse_element("", f8)


def test_user_modulus_validation():
    # x^2 + 1 = (x+1)^2 over GF(2): reducible
    with pytest.raises(ValueError):
        FieldSpec(2, 2, (1, 0, 1))
    # x^2 + 2 = (x+1)(x+2) over GF(3): reducible
    with pytest.raises(ValueError):
        FieldSpec(3, 2, (2, 0, 1))
    # x^2 + 1 is irreducible over GF(3)
    f = FieldSpec(3, 2, (1, 0, 1))
    assert f.mul(3, 3) == 2  # theta^2 = -1 = 2
    # x^8+x^4+x^3+x+1 is irreducible over GF(2), but x has order 51: the
    # primitive-element search must go on past it
    f = FieldSpec(2, 8, (1, 1, 0, 1, 1, 0, 0, 0, 1))
    assert f.pow(2, 51) == 1
    assert sorted(f.pow(f._prim, k) for k in range(255)) == list(range(1, 256))
    # not monic
    with pytest.raises(ValueError):
        FieldSpec(2, 2, (1, 1, 0))
    # wrong degree
    with pytest.raises(ValueError):
        FieldSpec(2, 3, (1, 1, 1))
    with pytest.raises(ValueError):
        FieldSpec(4, 1)  # p not prime
    with pytest.raises(ValueError):
        FieldSpec(2, 0)


def test_reducible_moduli_of_higher_degree_are_rejected():
    # the primitive-element search is bounded: the powers of a zero
    # divisor reach 0, never 1, and the walk must still end
    # x^8+x+1 = (x^2+x+1)(x^6+x^5+x^3+x^2+1) over GF(2)
    with pytest.raises(ValueError, match="is reducible over GF"):
        FieldSpec(2, 8, (1, 1, 0, 0, 0, 0, 0, 0, 1))
    # x^5+x+1 = (x^2+x+1)(x^3+2x^2+1) over GF(3)
    with pytest.raises(ValueError, match="is reducible over GF"):
        FieldSpec(3, 5, (1, 1, 0, 0, 0, 1))


def test_prime_field_default_modulus_is_x_minus_primitive_root():
    # 3 and 6 are the smallest primitive roots of 17 and 251
    assert field(17).modulus == (14, 1)
    assert field(17)._prim == 3
    assert field(251).modulus == (245, 1)
    assert field(251)._prim == 6
    # an explicit linear modulus is kept, with the same tables
    f = FieldSpec(17, 1, (0, 1))
    assert f.modulus == (0, 1)
    assert f._mul == field(17)._mul
    # an extension field outside the table has no default
    with pytest.raises(ValueError, match="no default modulus"):
        field(49)


# Every default field, plus x^2+1 over GF(3), x^4+x^3+x^2+x+1 over GF(2)
# (x has order 5, so the exp-table walk must skip candidate 2) and the
# largest supported sizes.
REFERENCE_FIELDS = {str(q): (q, None) for q in ALL_Q} | {
    "9-x2+1": (9, (1, 0, 1)),
    "16-x4+x3+x2+x+1": (16, (1, 1, 1, 1, 1)),
    "251": (251, None),
    "256": (256, (1, 0, 1, 1, 1, 0, 0, 0, 1)),
}


@pytest.mark.parametrize("name", REFERENCE_FIELDS)
def test_bulk_ops_bit_identical_to_scalar(name):
    # scalar and bulk ops read the same tables, so both are checked
    # against the polynomial reference rather than against each other
    f = field(*REFERENCE_FIELDS[name])
    q, p = f.q, f.p
    xs = np.repeat(np.arange(q), q)
    ys = np.tile(np.arange(q), q)
    pairs = list(zip(xs.tolist(), ys.tolist()))
    neg = [f._mul_direct(p - 1, y) for y in range(q)]  # -y = (p-1)*y
    ref = {
        "add": [f._add_direct(x, y) for x, y in pairs],
        "sub": [f._add_direct(x, neg[y]) for x, y in pairs],
        "mul": [f._mul_direct(x, y) for x, y in pairs],
    }
    for op, want in ref.items():
        assert [getattr(f, op)(x, y) for x, y in pairs] == want, op
        assert getattr(f, op + "_arr")(xs, ys).tolist() == want, op
    assert [f.neg(y) for y in range(q)] == neg
    assert f.neg_arr(np.arange(q)).tolist() == neg
    for a in range(1, q):
        assert f._mul_direct(a, f.inv(a)) == 1
    conj = list(range(q))  # sigma^ell by repeated reference products
    for ell in range(f.e):
        assert [f.frobenius(x, ell) for x in range(q)] == conj
        assert f.frobenius_arr(np.arange(q), ell).tolist() == conj
        conj = [reduce(lambda acc, _: f._mul_direct(acc, x), range(p), 1) for x in conj]


def test_field_size_cap():
    # every table entry is a uint8, so q is limited to 256
    with pytest.raises(ValueError, match="q <= 256"):
        field(257)
    with pytest.raises(ValueError, match="q <= 256"):
        FieldSpec(3, 6, (2, 1, 0, 0, 0, 0, 1))


def test_field_refuses_a_large_prime_quickly():
    # trial division stops at sqrt(q): a linear scan would take minutes
    with pytest.raises(ValueError, match="too large"):
        field(2**31 - 1)
    with pytest.raises(ValueError, match="too large"):
        field(10000019)
    with pytest.raises(ValueError, match="not a prime power"):
        field(2**31 - 2)
    with pytest.raises(ValueError, match="not a prime power"):
        field(257 * 263)


@pytest.mark.parametrize("q", ALL_Q)
def test_sum_arr_matches_sequential_sum(q):
    f = field(q)
    gen = np.random.default_rng(q)
    for length in range(71):
        arr = gen.integers(0, q, (length, 3)).astype(np.uint8)
        for axis, a in ((0, arr), (1, arr.T)):
            want = np.zeros(3, dtype=np.uint8)
            for part in arr:
                want = np.array([f.add(int(x), int(y)) for x, y in zip(want, part)])
            got = f.sum_arr(a, axis=axis)
            assert got.dtype == np.uint8 and np.array_equal(got, want), (length, axis)


def test_sum_arr_matches_scalar_fold():
    rngs = random.Random(3)
    for q in (2, 3, 4, 9):
        f = field(q)
        arr = np.array(
            [[rngs.randrange(q) for _ in range(7)] for _ in range(5)]
        )
        got = f.sum_arr(arr, axis=1)
        for row, g in zip(arr, got):
            acc = 0
            for x in row:
                acc = f.add(acc, int(x))
            assert acc == int(g)


@given(
    q=st.sampled_from([4, 8, 9, 16, 27]),
    ell=st.integers(min_value=0, max_value=4),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_galois_conjugation_swaps_slots(q, ell, data):
    # <a, b>_ell = 0 iff <b, a>_(e-ell) = 0 at the scalar level:
    # raising to p^(e-ell) maps a*b^(p^ell) to b*a^(p^(e-ell))
    f = field(q)
    ell %= f.e
    a = data.draw(st.integers(min_value=0, max_value=q - 1))
    b = data.draw(st.integers(min_value=0, max_value=q - 1))
    lhs = f.mul(a, f.frobenius(b, ell))
    rhs = f.mul(b, f.frobenius(a, (f.e - ell) % f.e))
    assert f.frobenius(lhs, (f.e - ell) % f.e) == rhs
