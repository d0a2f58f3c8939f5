import pytest

from mpcodes import (
    DEFAULT_MODULI,
    FieldSpec,
    LinearCode,
    MatGF,
    MPCode,
    Verdict,
    field,
    format_element,
    parse_element,
)
from mpcodes import io as fmt
from mpcodes.mpcode import check_self_orthogonal

from conftest import FIXTURES, code, mat, random_code, random_matrix


def test_field_header_roundtrip():
    for q in (2, 5, 8, 9, 27):
        spec = field(q)
        line = fmt.field_header(spec)
        assert fmt.parse_field_header(line) == spec
        assert "mod=" not in line  # defaults omit the modulus
    custom = FieldSpec(3, 2, (1, 0, 1))
    line = fmt.field_header(custom)
    assert "mod=1,0,1" in line
    assert fmt.parse_field_header(line) == custom


def test_field_header_errors():
    with pytest.raises(fmt.ParseError, match="line 1"):
        fmt.parse_field_header("matrix 2 2")
    with pytest.raises(fmt.ParseError):
        fmt.parse_field_header("field p=2")
    with pytest.raises(fmt.ParseError):
        fmt.parse_field_header("field p=2 e=2 mod=1,0,1")  # reducible
    with pytest.raises(fmt.ParseError):
        fmt.parse_field_header("field p=2 e=2 bogus=1")
    for bad in ("field p=3 e=1 p=2", "field p=2 e=1 e=2"):
        with pytest.raises(fmt.ParseError, match="repeated field attribute"):
            fmt.parse_field_header(bad)
    for bad in ("field p=x e=1", "field p=2 e=one", "field p=2 e=2 mod=1,x,1"):
        with pytest.raises(fmt.ParseError, match="line 3"):
            fmt.parse_field_header(bad, 3)
    with pytest.raises(fmt.ParseError, match="q <= 256"):
        fmt.parse_field_header("field p=257 e=1")


def test_files_with_one_header_share_one_spec():
    text = (FIXTURES / "f4_2x4_so.mp").read_text()
    first, _ = fmt.load_mp(text)
    second, _ = fmt.load_mp(text)
    assert first.spec is second.spec is field(4)
    assert fmt.parse_field_header("field p=2 e=2 mod=3,1,1") is field(4)
    # a failed header is not kept: it raises on every load
    for _ in range(2):
        with pytest.raises(fmt.ParseError, match="reducible"):
            fmt.parse_field_header("field p=2 e=2 mod=1,0,1")
        with pytest.raises(fmt.ParseError, match="bad field characteristic 'x'"):
            fmt.load_code("field p=x e=1\ncode 3 1\n1 1 1\n")


# x^8+x^4+x^3+x+1: irreducible, but x has order 51, so a is not x
GF256 = FieldSpec(2, 8, (1, 1, 0, 1, 1, 0, 0, 0, 1))


@pytest.mark.parametrize("spec", [field(q) for q in sorted(DEFAULT_MODULI)] + [field(251), GF256],
                         ids=repr)
def test_token_tables_agree_with_parse_and_format_element(spec):
    q = spec.q
    header = fmt.field_header(spec)
    dumped = fmt.dump_matrix(MatGF(spec, [list(range(q))])).splitlines()[-1].split()
    assert dumped == [format_element(x, spec) for x in range(q)]
    tokens = [str(x) for x in range(q)] + ["a"] + [f"a^{k}" for k in range(max(q - 1, 1))]
    loaded = fmt.load_matrix(f"{header}\nmatrix 1 {len(tokens)}\n{' '.join(tokens)}\n")
    assert loaded.data[0].tolist() == [parse_element(t, spec) for t in tokens]


def test_lenient_spellings_and_token_errors():
    # int() accepts signs and leading zeros; they miss the token table
    # and fall back to parse_element
    f4 = fmt.load_matrix("field p=2 e=2\nmatrix 1 4\n01 +1 a^0 a^01\n")
    assert f4.data.tolist() == [[1, 1, 1, 2]]
    with pytest.raises(fmt.ParseError) as exc:
        fmt.load_matrix("field p=2 e=1\nmatrix 1 2\n1 7\n")
    assert str(exc.value) == "line 3: encoding 7 out of range for GF(2)"
    with pytest.raises(fmt.ParseError) as exc:
        fmt.load_code("field p=2 e=2\ncode 2 1\n1 a^3\n")
    assert str(exc.value) == "line 3: exponent 3 out of range [0, 3) in 'a^3'"


def test_matrix_roundtrip(rng):
    for q in (2, 4, 9):
        spec = field(q)
        m = random_matrix(spec, 3, 4, rng)
        assert fmt.load_matrix(fmt.dump_matrix(m)) == m


def test_matrix_parse_errors_carry_line_numbers():
    text = "field p=2 e=1\nmatrix 2 2\n1 0\n1"
    with pytest.raises(fmt.ParseError, match="line 4"):
        fmt.load_matrix(text)
    text = "field p=2 e=1\nmatrix 2 2\n1 0\n1 7"
    with pytest.raises(fmt.ParseError, match="line 4"):
        fmt.load_matrix(text)
    text = "field p=2 e=1\nmatrix 2 2\n1 0"
    with pytest.raises(fmt.ParseError):
        fmt.load_matrix(text)
    with pytest.raises(fmt.ParseError, match="line 5"):
        fmt.load_matrix("field p=2 e=1\nmatrix 1 1\n1\n# fine\nextra")


def test_comments_and_blank_lines_ignored():
    text = """# a matrix file
field p=2 e=2

# the body
matrix 2 2
a a^2

0 1
"""
    m = fmt.load_matrix(text)
    assert m == mat(field(4), ["a a^2", "0 1"])


def test_code_roundtrip_and_canonicalization(rng):
    for q in (2, 3, 4):
        spec = field(q)
        c = random_code(spec, 5, 3, rng)
        assert fmt.load_code(fmt.dump_code(c)) == c
    # non-canonical stored generator is canonicalized on load
    text = "field p=2 e=1\ncode 3 1\n1 1 0\n1 1 0"
    c = fmt.load_code(text)
    assert c.k == 1
    # declared k mismatch rejected
    text = "field p=2 e=1\ncode 3 2\n1 1 0\n1 1 0"
    with pytest.raises(fmt.ParseError, match="rank"):
        fmt.load_code(text)


def test_prime_field_outside_the_default_table_roundtrips(rng):
    spec = field(17)
    c = random_code(spec, 5, 2, rng)
    text = fmt.dump_code(c)
    assert text.splitlines()[0] == "field p=17 e=1 mod=14,1"
    assert fmt.load_code(text) == c


def test_zero_code_file():
    text = "field p=3 e=1\ncode 4 0"
    c = fmt.load_code(text)
    assert c.k == 0 and c.n == 4
    assert fmt.load_code(fmt.dump_code(c)) == c


def test_mp_roundtrip(rng):
    spec = field(4)
    cons = [random_code(spec, 4, rng.randint(0, 4), rng) for _ in range(3)]
    mp = MPCode(cons, random_matrix(spec, 3, 2, rng))
    text = fmt.dump_mp(mp)
    mp2, claims = fmt.load_mp(text)
    assert mp2.defmatrix == mp.defmatrix
    assert mp2.constituents == mp.constituents
    assert claims.mismatches() == []


def test_mp_structure_errors():
    with pytest.raises(fmt.ParseError, match="defmatrix"):
        fmt.load_mp("field p=2 e=1\ncode 2 1\n1 1")
    base = "field p=2 e=1\ndefmatrix\nmatrix 2 1\n1\n1\n"
    with pytest.raises(fmt.ParseError, match="constituent 1"):
        fmt.load_mp(base)
    with pytest.raises(fmt.ParseError, match="out of order"):
        fmt.load_mp(base + "constituent 2\ncode 2 1\n1 1\n")
    with pytest.raises(fmt.ParseError, match="line 6"):
        fmt.load_mp(base + "constituent one\ncode 2 1\n1 1\n")
    # constituent length mismatch
    bad = (
        base
        + "constituent 1\ncode 2 1\n1 1\nconstituent 2\ncode 3 1\n1 1 1\n"
    )
    with pytest.raises(fmt.ParseError):
        fmt.load_mp(bad)


def test_fixture_files_load():
    for path in sorted(FIXTURES.glob("*.mp")):
        strict = "corrupt" not in path.name
        mp, claims = fmt.load_mp(path.read_text(), strict=strict)
        assert len(mp.constituents) == mp.defmatrix.rows
        if strict:
            assert claims.mismatches() == []
        else:
            assert claims.mismatches() == [(1, 2, 1)]


def test_report_lines_golden():
    f4 = field(4)
    c1 = code(f4, ["1 0 0 a a^2", "0 1 0 1 a^2", "0 0 1 1 1"])
    c2 = code(f4, ["1 0 1 a a^2", "0 1 1 a^2 a"])
    a = mat(f4, ["a^2 1 a^2 1", "0 1 a a"])
    rep = check_self_orthogonal(MPCode([c1, c2], a), 1)
    assert fmt.report_lines(rep) == [
        "verdict: holds",
        "product:",
        "matrix 2 2",
        "0 0",
        "0 1",
        "witness 2 2 C2<=dual_1(C2) ok",
    ]
