"""Self-tests of the benchmark: tracing arithmetic, wrapper coverage,
and that its answer checks catch a planted wrong answer.

Run from the repository root: ``python3 -m pytest bench/tests -q``.
"""

import subprocess
import sys
from pathlib import Path

import mpcodes
from mpcodes import cli, mpcode, search

from bench import construct, discover, run, trace
from bench.run import (Context, FailedOperation, Task, WrongAnswer, _check, _run_pass, end_to_end,
                       tail_percentile)

ROOT = Path(__file__).resolve().parents[2]


class FakeClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


def test_self_time_and_parent_links_on_synthetic_tree(monkeypatch, tmp_path):
    # root [0, 10] > a [1, 4] > b [2, 3];  root > c [5, 9]
    monkeypatch.setattr(trace.time, "perf_counter", FakeClock([0, 1, 2, 3, 4, 5, 9, 10]))
    tr = trace.Tracer()
    tr.set_task(7)
    root = tr.open("root")
    a = tr.open("a")
    b = tr.open("b")
    tr.close(b)
    tr.close(a)
    c = tr.open("c")
    tr.close(c)
    tr.close(root)
    assert list(tr.parent) == [-1, root, a, root]
    assert list(tr.task) == [7, 7, 7, 7]
    times = tr.self_times()
    assert times["root"] == (1, 3.0, 10.0)
    assert times["a"] == (1, 2.0, 3.0)
    assert times["b"] == (1, 1.0, 1.0)
    assert times["c"] == (1, 4.0, 4.0)
    tr.write(tmp_path / "spans.tsv")
    rows = [line.split("\t") for line in (tmp_path / "spans.tsv").read_text().splitlines()]
    assert rows[0] == ["name", "start", "end", "parent", "task"]
    assert [(r[0], float(r[1]), float(r[2]), int(r[3]), int(r[4])) for r in rows[1:]] == [
        ("root", 0.0, 10.0, -1, 7), ("a", 1.0, 4.0, 0, 7), ("b", 2.0, 3.0, 1, 7), ("c", 5.0, 9.0, 0, 7)]


def test_wrappers_patch_every_imported_name_and_nest():
    originals = (mpcodes.expand, cli.expand, search.expand, mpcode.expand, cli.dual_general)
    tr = trace.Tracer()
    installed = trace.Installed(tr)
    try:
        wrapped = mpcode.expand
        assert wrapped is not originals[3]
        assert mpcodes.expand is cli.expand is search.expand is wrapped
        assert cli.dual_general is mpcode.dual_general is not originals[4]
        mp, _ = mpcodes.io.load_mp((ROOT / "fixtures" / "f2_2x5_so.mp").read_text())
        tr.active = True
        cli.expand(mp)
        tr.active = False
    finally:
        installed.remove()
    assert (mpcodes.expand, cli.expand, search.expand, mpcode.expand, cli.dual_general) == originals
    names = [tr.names[i] for i in tr.name_id]
    assert names[0] == "mpcode.expand" and tr.parent[0] == -1
    kron = names.index("matgf.kron")
    assert tr.parent[kron] == 0
    assert tr.self_times()["mpcode.expand"][0] == 1


def test_tail_percentile_keeps_ten_samples_beyond():
    assert tail_percentile(39) == 50.0
    assert tail_percentile(40) == 75.0
    assert tail_percentile(137) == 90.0
    assert tail_percentile(1000) == 99.0


def test_sampling_schedule_and_fastest_sample(monkeypatch):
    monkeypatch.setattr(run, "ROUND_EVERY", 0.0)
    tasks = [Task(name, lambda: None, lambda out: None) for name in "abc"]
    first = _run_pass(tasks, first=True)
    extra, burst = run._extra_samples(first.outcomes[0].seconds[0])
    assert burst == run.MAX_BURST and extra == run.MAX_EXTRA
    assert [len(o.seconds) for o in first.outcomes] == [1 + extra * burst] * 3
    assert run._extra_samples(0.15) == (run.EXTRA_SAMPLES, 1)
    assert run._extra_samples(run.REPEAT_BELOW) == (0, 1)
    assert _run_pass(tasks, deadline=0.0).outcomes == []  # nothing starts after the deadline
    partial = run.PassRecord(1.0, [run.Outcome([0.5]), run.Outcome([0.5])])
    first.outcomes[0].seconds = [3.0, 1.0, 2.0]
    e2e, details = end_to_end(tasks, [first, partial], setup_s=1.0, peak_rss_mb=1.0)
    assert details["task_s"]["a"] == 0.5 and details["task_samples"]["c"] == 1 + extra * burst
    assert e2e["wall_s"] == 0.5 + min(first.outcomes[1].seconds + [0.5]) + min(first.outcomes[2].seconds)


def _quick_construct(tmp_path):
    ctx = Context(seed=3, root=ROOT, tmp=tmp_path, quick=True)
    ctx.prepared = construct.prepare(ctx)
    tasks = construct.setup(ctx)
    passes = [_run_pass(tasks)]
    _check(tasks, passes)
    return end_to_end(tasks, passes, setup_s=1.0, peak_rss_mb=1.0)[0]


def test_construct_quick_slice_is_correct(tmp_path):
    assert _quick_construct(tmp_path)["fail_ratio"] == 0


def test_planted_wrong_dual_is_counted(tmp_path, monkeypatch):
    real = mpcode.dual_full_rank

    def wrong_dual(mp, ell=0, **kw):
        dual_mp, dual = real(mp, ell, **kw)
        return dual_mp, mpcodes.LinearCode.full(dual.spec, dual.n)

    monkeypatch.setattr(mpcode, "dual_full_rank", wrong_dual)
    assert _quick_construct(tmp_path)["fail_ratio"] > 0


def test_cli_exit_codes_are_classified(tmp_path):
    ctx = Context(seed=0, root=ROOT, tmp=tmp_path, quick=True)
    task = discover.cli_task(ctx, "k", ["info"], [10, 11], None)
    task.check((10, ""))
    for rc, exc in ((20, FailedOperation), (0, WrongAnswer)):
        try:
            task.check((rc, ""))
        except exc:
            continue
        raise AssertionError(f"exit {rc} not classified as {exc.__name__}")


def test_quick_run_of_every_workload_covers_every_layer():
    proc = subprocess.run(
        [sys.executable, "-m", "bench", "--workload", "all", "--quick",
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert "is zero on every workload" not in proc.stdout


def test_bare_directory_fails_without_a_result(tmp_path):
    (tmp_path / "bench").mkdir()
    for path in (ROOT / "bench").rglob("*"):
        if path.is_file() and "__pycache__" not in path.parts and ".tmp-" not in str(path):
            dest = tmp_path / path.relative_to(ROOT)
            dest.parent.mkdir(parents=True, exist_ok=True)
            dest.write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_text("{}")
    proc = subprocess.run(
        [sys.executable, "-m", "bench", "--workload", "distance", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
