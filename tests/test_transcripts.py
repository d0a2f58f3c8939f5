"""Replay the golden CLI transcripts of ``tests/cli_transcripts.json``.

Every recorded command must give the same exit code, stdout and stderr
byte for byte.  A deliberate output change regenerates the file with
``python tests/make_transcripts.py`` and commits the diff.
"""

import difflib
import json

import pytest

import make_transcripts


def _text(entry):
    return [f"exit code: {entry['rc']}\n", "--- stdout\n", *entry["stdout"],
            "--- stderr\n", *entry["stderr"]]


def test_transcripts_cover_the_command_matrix():
    recorded = json.loads(make_transcripts.TRANSCRIPTS.read_text(encoding="utf-8"))
    assert [e["argv"] for e in recorded] == make_transcripts.commands()


def test_cli_output_matches_transcripts():
    recorded = json.loads(make_transcripts.TRANSCRIPTS.read_text(encoding="utf-8"))
    with make_transcripts.sandbox():
        for want in recorded:
            got = make_transcripts.run(want["argv"])
            if got != want:
                diff = "".join(difflib.unified_diff(
                    _text(want), _text(got), "recorded", "now"))
                pytest.fail(f"mpcodes {' '.join(want['argv'])} changed:\n{diff}")


def test_differences_name_each_changed_added_and_removed_argv():
    old = [{"argv": ["info", "a"], "rc": 0}, {"argv": ["info", "b"], "rc": 0},
           {"argv": ["mp", "c"], "rc": 0}]
    new = [{"argv": ["info", "a"], "rc": 0}, {"argv": ["info", "b"], "rc": 1},
           {"argv": ["dual", "d"], "rc": 0}]
    assert make_transcripts.differences(old, new) == [
        "changed: info b", "added: dual d", "removed: mp c"]
    assert make_transcripts.differences(new, new) == []


@pytest.mark.parametrize("argv", [["--help"], ["-h"], ["tests/cli_transcripts.json"]])
def test_writer_refuses_arguments_and_writes_nothing(argv, tmp_path, monkeypatch, capsys):
    target = tmp_path / "cli_transcripts.json"
    monkeypatch.setattr(make_transcripts, "TRANSCRIPTS", target)
    monkeypatch.setattr(make_transcripts, "record", lambda: pytest.fail("recorded"))
    assert make_transcripts.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("usage: python tests/make_transcripts.py")
    assert not target.exists()
