"""Closed-loop benchmark runner.

One client runs a workload's fixed, seeded task list back to back in
this process and thread.  The first pass runs every task; further
passes run the tasks, longest first, until ``--seconds`` have elapsed,
stopping between two tasks, so that the number of samples changes
smoothly with the speed of the host.  In the first pass, every
task whose run took under ``REPEAT_BELOW`` seconds gets extra samples
spread over the pass (the shorter the task, the more, from
``EXTRA_SAMPLES`` to ``MAX_EXTRA``), so short tasks get enough samples
even when a pass is long.  A task under ``BURST_S`` seconds is run
several times back to back for each extra sample, so that some of its
samples find the caches warm rather than as a long task left them.
A task's time is the fastest of its samples: a busy host only ever adds
time to a sample, so the fastest one varies least from run to run.
``wall_s`` (time to finish the task list once) is the sum of the task
times.  Every answer is checked after the timed passes; the references
are computed outside the timed region and outside set-up.

The last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end metrics named in
``BENCHMARK.json``; with ``--trace 1`` they are the per-layer metrics
of one traced pass, run after untraced passes that give the tracing
overhead; the traced pass's spans are written to
``bench/.tmp-spans/<workload>.tsv``.  Lines before it are a
human-readable report (every metric with its unit and better-direction)
and a ``report:`` JSON line with run metadata.

``setup_s`` is the import time of the benchmark and the program, the
median of ``IMPORT_PROBES`` fresh interpreters, plus the median of
``SETUP_REPEATS`` set-ups (field construction, input generation and
warm-up), each done from scratch.  The first set-up makes the tasks;
the other set-ups and the import probes run after the passes, so that
they reach neither the timed passes nor ``peak_rss_mb``, which is read
after the first pass, before any check.  A workload may define
``prepare``, run once before the set-ups and not timed, for seeded input
searches whose cost depends on the seed.

``--workload all`` runs every workload in its own process and prints
one table; in traced mode it fails when a per-layer ``.calls`` metric
is zero on every workload.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SPANS_DIR = ROOT / "bench" / ".tmp-spans"  # every traced run writes its spans here
WORKLOADS = ("construct", "distance", "discover")
SETUP_REPEATS = 5
IMPORT_PROBES = 7
# the imports of a workload process, timed in a fresh interpreter
IMPORT_PROBE = ("import time; t0 = time.perf_counter(); import bench.run as r; "
                "r._import_program(r.ROOT); print(time.perf_counter() - t0)")
REPEAT_BELOW = 0.3
EXTRA_SAMPLES = 2
MAX_EXTRA = 10
EXTRA_S = 0.2  # a short task's extra samples take about this long, or EXTRA_SAMPLES
BURST_S = 0.01  # an extra sample of a shorter task is a burst of back-to-back runs
MAX_BURST = 3
ROUND_EVERY = 1.0
TAIL_LADDER = (99.0, 95.0, 90.0, 75.0, 50.0)

# end-to-end metric -> (unit, better); the first five are in BENCHMARK.json
END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "task_s_p50": ("s", "lower"),
    "task_s_tail": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "fail_ratio": ("ratio", "lower"),
    "d_exact_ratio": ("ratio", "higher"),
    "d_gap_mean": ("count", "lower"),
    "hits_per_s": ("1/s", "higher"),
}
GATED = ("setup_s", "wall_s", "task_s_p50", "task_s_tail", "peak_rss_mb")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


class WrongAnswer(Exception):
    """The program answered, and the answer is wrong."""


class FailedOperation(Exception):
    """The program did not answer (an internal error exit)."""


@dataclass
class Task:
    """One timed call and the check of its answer.

    ``check`` runs after the timed passes and raises WrongAnswer or
    FailedOperation; it may compute and cache references.  ``bracket``
    maps an answer to its distance answers as (lower, upper) pairs, and
    ``search`` marks tasks whose hits count towards ``hits_per_s``.
    ``answer``, applied after the timed call, reduces a large value to
    what ``check`` needs, so that no pass holds the program's outputs.
    """

    name: str
    run: Callable[[], object]
    check: Callable[[object], None]
    bracket: Callable[[object], list] | None = None
    search: bool = False
    answer: Callable[[object], object] | None = None


@dataclass
class Context:
    seed: int
    root: Path
    tmp: Path
    quick: bool
    tracer: object = None
    prepared: object = None


@dataclass
class Outcome:
    seconds: list
    value: object = None
    error: str | None = None
    wrong: str | None = None
    failed: str | None = None
    hits: int = 0


@dataclass
class PassRecord:
    wall: float
    outcomes: list = field(default_factory=list)


def _import_program(root: Path):
    src = root / "src"
    if not (src / "mpcodes" / "__init__.py").is_file():
        raise SystemExit(f"error: {src / 'mpcodes'} not found; run from a checkout of the repository")
    sys.path.insert(0, str(src))
    import mpcodes

    if Path(mpcodes.__file__).resolve().parent != (src / "mpcodes").resolve():
        raise SystemExit(f"error: imported mpcodes from {mpcodes.__file__}, not {src}")
    return mpcodes


def import_seconds() -> list[float]:
    """Import time in IMPORT_PROBES fresh interpreters; like a workload
    process, they write no bytecode."""
    out = []
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run([sys.executable, "-B", "-c", IMPORT_PROBE], cwd=ROOT,
                              capture_output=True, text=True, timeout=120, check=True)
        out.append(float(proc.stdout.split()[-1]))
    return out


def _set_up(mod, ctx) -> tuple[list[Task], float]:
    """The workload's tasks, made from scratch, and the seconds it took."""
    gc.collect()  # every set-up starts with the same collector state
    t0 = time.perf_counter()
    tasks = mod.setup(ctx)
    return tasks, time.perf_counter() - t0


def _workload_module(name: str):
    if name == "construct":
        from bench import construct as mod
    elif name == "distance":
        from bench import distance as mod
    else:
        from bench import discover as mod
    return mod


def _extra_samples(seconds: float) -> tuple[int, int]:
    """(extra samples, runs in each) of a task whose first run took ``seconds``."""
    if seconds >= REPEAT_BELOW:
        return 0, 1
    seconds = max(seconds, 1e-6)
    burst = max(1, min(MAX_BURST, int(BURST_S / seconds)))
    return min(MAX_EXTRA, max(EXTRA_SAMPLES, int(EXTRA_S / (seconds * burst)))), burst


def _run_pass(tasks: list[Task], tracer=None, first: bool = False,
              deadline: float = float("inf")) -> PassRecord:
    """Every task once, in order, or those that start before ``deadline``.

    In the ``first`` pass, a task whose run took under REPEAT_BELOW
    seconds is sampled more times (see ``_extra_samples``), each at least
    ROUND_EVERY seconds after its previous sample: between later tasks
    of the pass, or after it for the last ones.  Spreading the samples
    over the pass keeps a short-lived slowdown of the host from reaching
    every sample of a task.
    """
    rec = PassRecord(0.0)
    due: list[list] = []  # [due time, task, outcome, samples left, runs in each]
    t_pass = time.perf_counter()
    for idx, task in enumerate(tasks):
        if time.perf_counter() >= deadline:
            break
        if tracer is not None:
            tracer.set_task(idx)
        t0 = time.perf_counter()
        try:
            value = task.run()
            out = Outcome([time.perf_counter() - t0])
            out.value = task.answer(value) if task.answer else value
            del value
        except Exception:
            out = Outcome([time.perf_counter() - t0], error=traceback.format_exc(limit=3))
        rec.outcomes.append(out)
        extra, burst = _extra_samples(out.seconds[0]) if first and out.error is None else (0, 1)
        if extra:
            due.append([time.perf_counter() + ROUND_EVERY, task, out, extra, burst])
        due = _sample_due(due, time.perf_counter())
    while due:
        due = _sample_due(due, float("inf"))
    rec.wall = time.perf_counter() - t_pass
    return rec


def _sample_due(due: list[list], now: float) -> list[list]:
    """One more sample (a burst of runs) of every item due by ``now``;
    the items left."""
    for item in due:
        if item[0] > now:
            continue
        _, task, out, _, burst = item
        for _ in range(burst):
            t0 = time.perf_counter()
            try:
                task.run()
            except Exception:
                out.error = traceback.format_exc(limit=3)
            out.seconds.append(time.perf_counter() - t0)
        item[0] = time.perf_counter() + ROUND_EVERY
        item[3] -= 1
    return [item for item in due if item[3] > 0 and item[2].error is None]


def _check(tasks: list[Task], passes: list[PassRecord]) -> None:
    for rec in passes:
        for task, out in zip(tasks, rec.outcomes):
            if out.error is not None:
                out.failed = out.error.strip().splitlines()[-1]
                continue
            try:
                task.check(out.value)
            except WrongAnswer as exc:
                out.wrong = str(exc)
            except FailedOperation as exc:
                out.failed = str(exc)
            if task.search and out.wrong is None and out.failed is None:
                out.hits = len(out.value)


def tail_percentile(samples: int) -> float:
    """Highest ladder percentile with at least ten samples beyond it."""
    for p in TAIL_LADDER:
        if samples * (1 - p / 100) >= 10:
            return p
    return 50.0


def _nearest_rank(sorted_vals: list[float], p: float) -> float:
    k = max(1, -(-len(sorted_vals) * p // 100))  # ceil(n p / 100)
    return sorted_vals[int(k) - 1]


def end_to_end(tasks, passes, setup_s, peak_rss_mb) -> tuple[dict, dict]:
    """End-to-end metrics and report details from untraced passes.

    A task's time is the fastest of its samples, so the sample count of
    the percentiles (and the tail percentile) is fixed by the task list.
    """
    samples = [[t for rec in passes if i < len(rec.outcomes) for t in rec.outcomes[i].seconds]
               for i in range(len(tasks))]
    per_task = [min(s) for s in samples]
    vals = sorted(per_task)
    p_tail = tail_percentile(len(vals))
    outcomes = [o for rec in passes for o in rec.outcomes]
    bad = [o for o in outcomes if o.failed or o.wrong]
    metrics = {
        "setup_s": setup_s,
        "wall_s": sum(per_task),
        "task_s_p50": _nearest_rank(vals, 50.0),
        "task_s_tail": _nearest_rank(vals, p_tail),
        "peak_rss_mb": peak_rss_mb,
        "fail_ratio": len(bad) / len(outcomes),
    }
    brackets = []
    for rec in passes:
        for task, o in zip(tasks, rec.outcomes):
            if task.bracket is not None and o.error is None and o.wrong is None:
                brackets.extend(task.bracket(o.value))
    if brackets:
        metrics["d_exact_ratio"] = sum(lo == up for lo, up in brackets) / len(brackets)
        metrics["d_gap_mean"] = sum(up - lo for lo, up in brackets) / len(brackets)
    search_s = sum(t for task, t in zip(tasks, per_task) if task.search)
    if search_s:
        hits = sum(o.hits for t, o in zip(tasks, passes[0].outcomes) if t.search)
        metrics["hits_per_s"] = hits / search_s
    details = {
        "task_s": {t.name: round(v, 6) for t, v in zip(tasks, per_task)},
        "task_samples": {t.name: len(s) for t, s in zip(tasks, samples)},
        "tasks": len(tasks),
        "passes": len(passes),
        "tail_percentile": p_tail,
        "tail_samples_beyond": int(len(vals) - -(-len(vals) * p_tail // 100)),
        "failures": sorted({f"{t.name}: {o.failed or o.wrong}" for rec in passes
                            for t, o in zip(tasks, rec.outcomes) if o.failed or o.wrong}),
    }
    return metrics, details


def _git_sha(root: Path) -> str:
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def metadata(root: Path) -> dict:
    import numpy

    src_lines = sum(
        len(p.read_text().splitlines()) for p in sorted((root / "src").rglob("*.py"))
    )
    return {
        "git_sha": _git_sha(root),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "src_lines": src_lines,
        "thread_pins": {k: os.environ.get(k) for k in THREAD_VARS},
    }


def run_workload(args) -> int:
    _import_program(ROOT)
    mod = _workload_module(args.workload)
    with tempfile.TemporaryDirectory(prefix=".tmp-", dir=Path(__file__).parent) as tmp:
        t0 = time.perf_counter()
        prepared = mod.prepare(Context(args.seed, ROOT, Path(tmp), args.quick)) \
            if hasattr(mod, "prepare") else None
        prepare_s = time.perf_counter() - t0
        ctx = Context(args.seed, ROOT, Path(tmp), args.quick, prepared=prepared)
        tasks, first_setup_s = _set_up(mod, ctx)

        deadline = time.perf_counter() + (args.seconds / 2 if args.trace else args.seconds)
        passes: list[PassRecord] = [_run_pass(tasks, first=True)]
        # after one pass, as the number of passes depends on speed
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        # longest first from now on, so that a pass cut at the deadline
        # samples the tasks that weigh most in wall_s
        order = sorted(range(len(tasks)), key=lambda i: -min(passes[0].outcomes[i].seconds))
        tasks = [tasks[i] for i in order]
        passes[0].outcomes = [passes[0].outcomes[i] for i in order]
        while time.perf_counter() < deadline:
            passes.append(_run_pass(tasks, deadline=deadline))
        traced = None
        if args.trace:
            from bench.trace import Installed, Tracer, layer_metrics

            tracer = Tracer()
            ctx.tracer = tracer
            installed = Installed(tracer)
            tracer.active = True
            try:
                traced = _run_pass(tasks, tracer)
            finally:
                tracer.active = False
                installed.remove()
        gen_times = [first_setup_s] + [
            _set_up(mod, Context(args.seed, ROOT, Path(tmp), args.quick, prepared=prepared))[1]
            for _ in range(SETUP_REPEATS - 1)]
        import_s = import_seconds()
        setup_s = statistics.median(import_s) + statistics.median(gen_times)
        _check(tasks, passes + ([traced] if traced else []))
        e2e, details = end_to_end(tasks, passes, setup_s, peak_rss_mb)
    details["setup"] = {"import_s": import_s, "samples_s": gen_times, "prepare_s": prepare_s}

    all_passes = passes + ([traced] if traced else [])
    attempted = sum(len(r.outcomes) for r in all_passes)
    failed = sum(1 for r in all_passes for o in r.outcomes if o.failed or o.wrong)
    correct = not any(o.wrong for r in all_passes for o in r.outcomes)

    for name, value in e2e.items():
        unit, better = END_TO_END[name]
        print(f"{args.workload} {name} = {value:.6g} {unit} ({better} is better)")
    print(f"{args.workload} task_s_tail is p{details['tail_percentile']:g} of "
          f"{details['tasks']} per-task times over {details['passes']} pass(es)")
    for line in details["failures"]:
        print(f"{args.workload} FAILED {line}")
    report = {"workload": args.workload, "seed": args.seed, "e2e": e2e,
              "details": details, "meta": metadata(ROOT)}
    if traced is not None:
        overhead = traced.wall / e2e["wall_s"]
        layers = layer_metrics(tracer, overhead)
        report["layers"] = layers
        SPANS_DIR.mkdir(exist_ok=True)
        report["spans"] = str(SPANS_DIR.relative_to(ROOT) / f"{args.workload}.tsv")
        tracer.write(ROOT / report["spans"])
        metrics = {n: {"value": layers[n], "unit": u} for n, u, _ in _per_layer()}
    else:
        metrics = {n: {"value": e2e[n], "unit": END_TO_END[n][0]} for n in GATED}
    print("report: " + json.dumps(report, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def _per_layer():
    from bench.trace import per_layer_names

    return per_layer_names()


def run_all(args) -> int:
    """Each workload in its own process; one table of every metric."""
    reports = {}
    for name in WORKLOADS:
        cmd = [sys.executable, "-m", "bench", "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.quick:
            cmd.append("--quick")
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.splitlines()
        rep = [json.loads(l[len("report: "):]) for l in lines if l.startswith("report: ")]
        if proc.returncode != 0 or not rep:
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            print(f"error: workload {name} exited {proc.returncode}")
            return 1
        reports[name] = (rep[0], json.loads(lines[-1]))
    print(f"{'metric':44s} {'unit':6s} {'better':7s} " + " ".join(f"{w:>12s}" for w in WORKLOADS))
    for metric, (unit, better) in END_TO_END.items():
        cells = [reports[w][0]["e2e"].get(metric) for w in WORKLOADS]
        print(f"{metric:44s} {unit:6s} {better:7s} "
              + " ".join(f"{c:12.5g}" if c is not None else f"{'n/a':>12s}" for c in cells))
    for w in WORKLOADS:
        rep, last = reports[w]
        d = rep["details"]
        print(f"{w}: task_s_tail = p{d['tail_percentile']:g} of {d['tasks']} tasks "
              f"({d['tail_samples_beyond']} beyond), {d['passes']} pass(es), "
              f"attempted {last['attempted']}, failed {last['failed']}, correct {last['correct']}")
    status = 0
    if args.trace:
        for metric, unit, better in _per_layer():
            cells = [reports[w][0]["layers"][metric] for w in WORKLOADS]
            print(f"{metric:44s} {unit:6s} {better:7s} " + " ".join(f"{c:12.5g}" for c in cells))
            if metric.endswith(".calls") and not any(cells):
                print(f"error: {metric} is zero on every workload")
                status = 1
    if not all(reports[w][1]["correct"] for w in WORKLOADS):
        status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m bench", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="a small slice of each workload (for the self-test)")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)
