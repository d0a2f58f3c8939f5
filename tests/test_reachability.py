"""Every line of ``src/mpcodes`` runs for a caller, or the ledger says why not.

The probe of ``tests/reachability.py`` runs the golden CLI commands and
every benchmark task once in a fresh interpreter, line-traced in the
package only.  Each counted line that does not run must have an entry in
``tests/unreached.txt`` with a reason from the closed set, and no entry
may name a line that runs.  ``python tests/reachability.py`` lists the
unreached lines and their reasons; ``--write`` rewrites the ledger.
"""

import pytest

import reachability


@pytest.fixture(scope="module")
def unreached():
    return reachability.unreached(reachability.ran_lines())


def test_every_unreached_line_is_listed_and_every_listed_line_is_unreached(unreached):
    unlisted, runs = reachability.compare(unreached, reachability.read_ledger())
    assert not unlisted, "unreached lines the ledger lacks (delete them, or list them " \
        "with a reason): " + "".join(f"\n  {n}:{line} {func}: {text}"
                                     for n, func, text, line in unlisted)
    assert not runs, "ledger entries whose line runs: " + "".join(
        f"\n  {n} {func}: {text}" for n, func, text in runs)


def test_every_ledger_reason_is_from_the_closed_set():
    bad = [entry for entry in reachability.read_ledger()
           if not reachability.valid_reason(entry[3])]
    assert not bad, f"ledger entries without a valid reason: {bad}"


def test_raise_lines_and_raising_handlers_are_not_counted(tmp_path):
    path = tmp_path / "m.py"
    path.write_text(
        "def f(x):\n"
        "    try:\n"
        "        return int(x)\n"
        "    except ValueError:\n"
        "        raise TypeError(\n"
        "            'no')\n"
        "    except KeyError:\n"
        "        return 0\n"
    )
    assert reachability._counted(path) == {1, 2, 3, 7, 8}


def test_compare_matches_by_file_function_and_text_with_multiplicity():
    lines = [("a.py", "f", "return None", 3), ("a.py", "f", "return None", 9),
             ("b.py", "g", "x = 1", 4)]
    entries = [("a.py", "f", "return None", "repr"), ("b.py", "h", "y = 2", "repr")]
    assert reachability.compare(lines, entries) == (
        [("a.py", "f", "return None", 9), ("b.py", "g", "x = 1", 4)],
        [("b.py", "h", "y = 2")])


@pytest.mark.parametrize("reason, valid", [
    ("bench reader", True),
    ("covered: tests/test_gf.py::test_sum_arr_matches_sequential_sum[3]", True),
    ("covered: tests/test_gf.py::no_such_test", False),
    ("covered: tests/no_such_file.py::test_x", False),
    ("validation", False),
    ("UNLISTED", False),
])
def test_valid_reason(reason, valid):
    assert reachability.valid_reason(reason) is valid
