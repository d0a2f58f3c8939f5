import io
import os
import subprocess
import sys
from contextlib import redirect_stdout

import pytest

from mpcodes import MatGF
from mpcodes.cli import main

from conftest import FIXTURES

SRC = FIXTURES.parent / "src"


def run_cli(*argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        rc = main(list(argv))
    return rc, buf.getvalue()


def fixture(name):
    return str(FIXTURES / name)


def test_info_code_file(tmp_path):
    rc, out = run_cli("info", fixture("rep3_f2.code"))
    assert rc == 0
    assert "[3,1,3]" in out


def test_info_machine_mode(tmp_path):
    rc, out = run_cli("info", fixture("rep3_f2.code"), "--machine")
    assert rc == 0
    assert "n: 3" in out and "k: 1" in out and "d: 3" in out
    assert "strategy: enum" in out


def _facts(out):
    return dict(line.split(": ", 1) for line in out.splitlines() if ": " in line)


def test_mp_distance_from_information_sets():
    """f8_2x5.mp expands to a [50,9] code with two full-rank information
    sets: the default caps certify d = 20 (``info-sets``), and a small
    --lw-cap leaves the enumerator's certified bracket, whose lower bound
    is above 4, the most a test of every vector of weight 1, 2, ... reaches
    within the default cap of 2^26 vectors."""
    rc, out = run_cli("mp", fixture("f8_2x5.mp"), "--machine")
    assert rc == 0
    facts = _facts(out)
    assert (facts["d"], facts["strategy"]) == ("20", "info-sets")
    rc, out = run_cli("mp", fixture("f8_2x5.mp"), "--machine", "--lw-cap", "1000")
    assert rc == 0
    facts = _facts(out)
    assert facts["strategy"] == "bounds" and "d" not in facts
    assert 4 < int(facts["d_lower"]) < 20 <= int(facts["d_upper"])


def test_info_zero_code(tmp_path):
    path = tmp_path / "zero.code"
    path.write_text("field p=2 e=1\ncode 4 0\n")
    rc, out = run_cli("info", str(path))
    assert rc == 0
    assert "[4,0,-]" in out and "undefined" in out


def test_info_parse_error_exit_code(tmp_path):
    path = tmp_path / "bad.code"
    path.write_text("field p=2 e=1\ncode 2 1\n1 7\n")
    rc, _ = run_cli("info", str(path))
    assert rc == 10


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["info", "{bad_header}"], 10),
        (["dual", "{f2}", "--ell", "3"], 11),
        (["verify", "{f2}", "--ell", "1"], 11),
        (["search", "--matrix", "{mat}", "--mode", "so", "--n", "4", "--dims", "1,x"], 11),
        (["check", "{f2}", "--mode", "so", "--ell", "1"], 11),
        (["mp", "{bad_entry}"], 10),
        (["info", "{missing}"], 10),
        (["mp", "{bad_index}"], 10),
        (["info", "{big_field}"], 10),
        (["search", "--matrix", "{mat}", "--mode", "so", "--n", "4", "--dims", "1,1",
          "--count", "0"], 11),
        (["search", "--matrix", "{mat}", "--mode", "so", "--n", "4", "--dims", "1,1",
          "--count", "-1"], 11),
        (["search", "--matrix", "{mat}", "--mode", "so", "--n", "4", "--dims", "1,1",
          "--search-cap", "-1"], 11),
        (["verify", "{f2}", "--oracle-cap", "-5"], 11),
        (["mp", "{f2}", "--enum-cap", "-1"], 11),
        (["mp", "{f2}", "--lw-cap", "-1"], 11),
        (["info", "{zero}", "--enum-cap", "-1"], 11),
        (["check", "{f2}", "--mode", "so", "--lw-cap", "-1"], 10),
        (["verify", "{f2}", "--enum-cap", "-1"], 10),
        (["mp", "{f2}", "--out", "{nodir}/x.code"], 10),
        (["search", "--matrix", "{mat}", "--mode", "so", "--n", "4", "--dims", "1,1",
          "--out", "{nodir}/hit"], 10),
        (["search", "--matrix", "{mat}", "--mode", "so", "--n", "4", "--dims", "1,1",
          "--target", "0"], 11),
        (["search", "--matrix", "{mat}", "--mode", "so", "--n", "100000", "--dims", "1,1",
          "--search-cap", "1"], 11),
        (["info", "{not_utf8}"], 10),
    ],
)
def test_bad_input_exit_codes(tmp_path, argv, expected):
    # parse errors exit 10, other validation errors 11, never 20
    bad_header = tmp_path / "bad_header.code"
    bad_header.write_text("field p=x e=1\ncode 3 1\n1 1 1\n")
    bad_entry = tmp_path / "bad_entry.mp"
    bad_entry.write_text(
        "field p=2 e=1\ndefmatrix\nmatrix 1 1\n1\n"
        "constituent 1\ncode 3 1\n1 7 1\n"
    )
    bad_index = tmp_path / "bad_index.mp"
    bad_index.write_text(
        "field p=2 e=1\ndefmatrix\nmatrix 1 1\n1\n"
        "constituent one\ncode 3 1\n1 1 1\n"
    )
    big_field = tmp_path / "big_field.code"
    big_field.write_text("field p=257 e=1\ncode 3 1\n1 1 1\n")
    zero = tmp_path / "zero.code"
    zero.write_text("field p=2 e=1\ncode 4 0\n")
    not_utf8 = tmp_path / "not_utf8.code"
    not_utf8.write_bytes(b"\xff" + zero.read_bytes())
    paths = {
        "bad_header": str(bad_header),
        "bad_entry": str(bad_entry),
        "bad_index": str(bad_index),
        "big_field": str(big_field),
        "zero": str(zero),
        "not_utf8": str(not_utf8),
        "missing": str(tmp_path / "missing.code"),
        "nodir": str(tmp_path / "no_such_dir"),
        "f2": fixture("f2_2x5_so.mp"),
        "mat": fixture("f2_2x5_so_matrix.mat"),
    }
    rc, _ = run_cli(*(a.format(**paths) for a in argv))
    assert rc == expected


def test_usage_error_exit_code():
    rc, _ = run_cli("check", fixture("f4_2x4_so.mp"))  # --mode missing
    assert rc == 10


def test_mp_expand(tmp_path):
    out_path = tmp_path / "c.code"
    rc, out = run_cli("mp", fixture("f5_3x4_nsc.mp"), "--out", str(out_path))
    assert rc == 0
    assert "[20,5,12]" in out
    rc, out = run_cli("info", str(out_path))
    assert "[20,5,12]" in out


def test_mp_identity_concatenates(tmp_path):
    mp = tmp_path / "id.mp"
    mp.write_text(
        "field p=2 e=1\ndefmatrix\nmatrix 1 1\n1\n"
        "constituent 1\ncode 3 1\n1 1 1\n"
    )
    out_path = tmp_path / "out.code"
    rc, out = run_cli("mp", str(mp), "--out", str(out_path))
    assert rc == 0 and "[3,1,3]" in out


def test_dual_full_rank_path(tmp_path):
    out_path = tmp_path / "d.code"
    rc, out = run_cli(
        "dual", fixture("f5_3x4_nsc.mp"), "--ell", "0", "--out", str(out_path)
    )
    assert rc == 0
    assert "path: full-rank" in out
    assert "[20,15,4]" in out
    assert "dual MP form" in out


def test_dual_partition_path(tmp_path):
    out_path = tmp_path / "d.code"
    rc, out = run_cli("dual", fixture("f2_4x2_rankdef.mp"), "--out", str(out_path))
    assert rc == 0
    assert "path: partition{1,3|2,4}" in out
    assert "[10,3,5]" in out


@pytest.mark.parametrize("name", ["f2_4x2_rankdef.mp", "f4_5x3_rankdef.mp"])
def test_dual_completes_a_rank_deficient_matrix_once(monkeypatch, name):
    # the completion's RankDeficientError picks the partition path, and
    # the dual is read off the expansion with no second completion
    calls = []
    complete = MatGF.complete_to_invertible

    def counted(self):
        calls.append(self.shape)
        return complete(self)

    monkeypatch.setattr(MatGF, "complete_to_invertible", counted)
    rc, out = run_cli("dual", fixture(name), "--machine")
    assert rc == 0 and "path: partition{" in out
    assert len(calls) == 1, calls


def test_dual_galois_level(tmp_path):
    out_path = tmp_path / "d.code"
    rc, out = run_cli(
        "dual", fixture("f8_2x5.mp"), "--ell", "2", "--out", str(out_path)
    )
    assert rc == 0
    assert "[50,41,3]" in out


def test_check_so_exit_codes(tmp_path):
    rc, out = run_cli("check", fixture("f4_2x4_so.mp"), "--mode", "so", "--ell", "1")
    assert rc == 0
    assert "verdict: holds" in out
    assert "witness 2 2 C2<=dual_1(C2) ok" in out
    # same instance fails at ell=0
    rc, out = run_cli("check", fixture("f4_2x4_so.mp"), "--mode", "so", "--ell", "0")
    assert rc == 1
    assert "verdict: fails" in out


def test_check_dc_paths(tmp_path):
    rc, out = run_cli("check", fixture("f9_4x4_dc.mp"), "--mode", "dc", "--ell", "1")
    assert rc == 0 and "verdict: holds" in out
    rc, out = run_cli("check", fixture("f3_4x3_dc.mp"), "--mode", "dc")
    assert rc == 0 and "verdict: holds" in out and "partition search" in out
    # a rank-deficient instance that is not dual-containing fails, exactly
    mp = tmp_path / "rankdef.mp"
    mp.write_text(
        "field p=2 e=1\ndefmatrix\nmatrix 2 1\n1\n1\n"
        "constituent 1\ncode 2 1\n1 0\nconstituent 2\ncode 2 1\n1 0\n"
    )
    rc, out = run_cli("check", str(mp), "--mode", "dc")
    assert rc == 1
    assert "verdict: fails" in out
    assert "note: path: containment product (exact)" in out


def test_dual_names_discarded_zero_rows(tmp_path):
    mp = tmp_path / "zero_row.mp"
    mp.write_text(
        "field p=2 e=1\ndefmatrix\nmatrix 3 2\n1 1\n0 0\n0 1\n"
        "constituent 1\ncode 2 1\n1 0\nconstituent 2\ncode 2 1\n1 1\n"
        "constituent 3\ncode 2 1\n0 1\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-m", "mpcodes", "dual", str(mp), "--machine"],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert "path: partition{1,3} discarded{2}" in proc.stdout.splitlines()


def test_verify_fixture_and_negative_control():
    rc, out = run_cli("verify", fixture("f5_3x4_nsc.mp"))
    assert rc == 0
    assert "result: all-agree" in out
    rc, out = run_cli("verify", fixture("f5_3x4_nsc_corrupt.mp"))
    assert rc == 1
    assert "disagree" in out


def test_verify_checks_dual_containment_of_a_large_code():
    # [20,17] over GF(9): the oracle lists only the 9^3 dual words
    rc, out = run_cli("verify", fixture("f9_4x4_dc.mp"), "--ell", "1")
    assert rc == 0
    assert "check dual-containing oracle: agree" in out.splitlines()
    assert "result: all-agree" in out


def test_verify_skip_lines_on_cap():
    rc, out = run_cli("verify", fixture("f5_3x4_nsc.mp"), "--oracle-cap", "10")
    assert rc == 0
    assert "skip" in out


def test_search_cli_deterministic(tmp_path):
    args = (
        "search", "--matrix", fixture("f2_2x5_so_matrix.mat"), "--mode", "so",
        "--n", "9", "--dims", "1,2", "--target", "24", "--seed", "0",
        "--search-cap", "500",
    )
    rc1, out1 = run_cli(*args)
    rc2, out2 = run_cli(*args)
    assert rc1 == rc2 == 0
    assert out1 == out2  # byte-identical rerun
    assert "[45,3,24]" in out1
    assert "defmatrix" in out1  # candidate MP file on stdout


def test_search_cli_infeasible():
    rc, out = run_cli(
        "search", "--matrix", fixture("f2_2x5_so_matrix.mat"), "--mode", "dc",
        "--n", "4", "--dims", "1,1",
    )
    assert rc == 13
    assert "infeasible" in out


def test_search_cli_no_hit_within_cap():
    rc, out = run_cli(
        "search", "--matrix", fixture("f2_2x5_so_matrix.mat"), "--mode", "so",
        "--n", "9", "--dims", "1,2", "--target", "45", "--search-cap", "30",
    )
    assert rc == 2
    assert "no candidate" in out
