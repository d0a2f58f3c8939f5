"""In-memory span tracing around the public functions of each layer.

The benchmark installs wrappers on the functions listed in
:data:`WRAPPED` while a traced pass runs; the program itself is not
modified.  A wrapper records one span (name, start, end, parent span,
task id) per call and updates the layer's counters from the call's
arguments and result.  Spans are kept in flat arrays and aggregated
and written out when the run ends.

Scalar ``FieldSpec.add``/``mul`` are deliberately not wrapped: the
oracle makes tens of millions of those calls, so their time lands in
the caller's self time instead.
"""

from __future__ import annotations

import functools
import time
from array import array
from collections import Counter

import numpy as np

# (owner, function name, metric name); the owner is a module or a class.
# Every module that imported the same function object by name is patched
# as well.
WRAPPED = [
    ("gf.FieldSpec", "add_arr", "gf.add_arr"),
    ("gf.FieldSpec", "sub_arr", "gf.sub_arr"),
    ("gf.FieldSpec", "mul_arr", "gf.mul_arr"),
    ("gf.FieldSpec", "sum_arr", "gf.sum_arr"),
    ("gf.FieldSpec", "frobenius_arr", "gf.frobenius_arr"),
    ("matgf.MatGF", "rref", "matgf.rref"),
    ("matgf.MatGF", "__matmul__", "matgf.matmul"),
    ("matgf.MatGF", "kron", "matgf.kron"),
    ("matgf.MatGF", "block_diag", "matgf.block_diag"),
    ("matgf.MatGF", "inverse", "matgf.inverse"),
    ("matgf.MatGF", "kernel_basis", "matgf.kernel_basis"),
    ("lincode.LinearCode", "from_generator", "lincode.from_generator"),
    ("lincode.LinearCode", "galois_dual", "lincode.galois_dual"),
    ("lincode.LinearCode", "euclidean_dual", "lincode.euclidean_dual"),
    ("lincode.LinearCode", "is_subcode", "lincode.is_subcode"),
    ("lincode.LinearCode", "__and__", "lincode.intersect"),
    ("lincode.LinearCode", "min_distance", "lincode.min_distance"),
    ("mpcode", "expand", "mpcode.expand"),
    ("mpcode", "dual_full_rank", "mpcode.dual_full_rank"),
    ("mpcode", "dual_general", "mpcode.dual_general"),
    ("mpcode", "row_partition", "mpcode.row_partition"),
    ("mpcode", "check_self_orthogonal", "mpcode.check_self_orthogonal"),
    ("mpcode", "check_dual_containing_general", "mpcode.check_dual_containing"),
    ("oracle", "enumerate_codewords", "oracle.enumerate_codewords"),
    ("oracle", "dual_by_definition", "oracle.dual_by_definition"),
    ("oracle", "so_by_definition", "oracle.so_by_definition"),
    ("oracle", "is_subset_by_enumeration", "oracle.is_subset_by_enumeration"),
    ("search", "search_mp_codes", "search.search_mp_codes"),
    ("io", "load_mp", "io.load_mp"),
    ("io", "load_code", "io.load_code"),
    ("io", "dump_code", "io.dump_code"),
    ("io", "dump_mp", "io.dump_mp"),
]

CLI_SUBCOMMANDS = ("info", "mp", "dual", "check", "verify", "search")
CLI_CODES = (0, 1, 2, 10, 11, 12, 13, 20)
STRATEGIES = ("enum", "low-weight", "bounds")
VERDICTS = ("holds", "fails", "inconclusive")

# Counters reported next to the per-function calls/self_s pairs:
# name -> (unit, better).
COUNTERS = {
    "gf.elems": ("count", "lower"),
    "gf.bytes_computed": ("bytes", "lower"),
    "matgf.rref.cells": ("count", "lower"),
    "matgf.matmul.temp_bytes_computed": ("bytes", "lower"),
    **{f"lincode.min_distance.strategy.{s}": ("count", "lower") for s in STRATEGIES},
    "lincode.dual_repeat_ratio": ("ratio", "lower"),
    "mpcode.witnesses": ("count", "lower"),
    **{f"mpcode.verdict.{v}": ("count", "higher" if v == "holds" else "lower") for v in VERDICTS},
    "oracle.words_computed": ("count", "lower"),
    "oracle.cap_skips": ("count", "lower"),
    "search.attempts": ("count", "lower"),
    "search.hits": ("count", "higher"),
    "search.hit_ratio": ("ratio", "higher"),
    "io.bytes": ("bytes", "lower"),
    **{f"cli.{c}.s": ("s", "lower") for c in CLI_SUBCOMMANDS},
    **{f"cli.rc.{c}": ("count", "higher" if c == 0 else "lower") for c in CLI_CODES},
    "trace.overhead": ("ratio", "lower"),
}


def per_layer_names() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better), in report order."""
    out = []
    for _, _, metric in WRAPPED:
        out.append((f"{metric}.calls", "count", "lower"))
        out.append((f"{metric}.self_s", "s", "lower"))
    out.extend((name, unit, better) for name, (unit, better) in COUNTERS.items())
    return out


class Tracer:
    """Spans in flat arrays plus named counters.

    ``open``/``close`` nest strictly (one thread), so a span's children
    never overlap and self time is the duration minus the children's
    summed durations.
    """

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.task = array("i")
        self.stack: list[int] = []
        self.counters: Counter = Counter()
        self.current_task = -1
        self.active = False
        self._dualised: set = set()

    def set_task(self, task_id: int) -> None:
        self.current_task = task_id
        self._dualised.clear()

    def open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.task.append(self.current_task)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self.stack.pop()

    def parent_name(self) -> str | None:
        return self.names[self.name_id[self.stack[-1]]] if self.stack else None

    def note_dual(self, code, ell: int) -> None:
        key = (code, ell)
        self.counters["lincode.dual.total"] += 1
        if key in self._dualised:
            self.counters["lincode.dual.repeat"] += 1
        else:
            self._dualised.add(key)

    def self_times(self) -> dict[str, tuple[int, float, float]]:
        """name -> (calls, summed self seconds, summed total seconds)."""
        n = len(self.start)
        if n == 0:
            return {}
        start = np.frombuffer(self.start, dtype=np.float64, count=n)
        end = np.frombuffer(self.end, dtype=np.float64, count=n)
        parent = np.frombuffer(self.parent, dtype=np.int32, count=n)
        names = np.frombuffer(self.name_id, dtype=np.int32, count=n)
        dur = end - start
        child = np.zeros(n)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_s = dur - child
        calls = np.bincount(names, minlength=len(self.names))
        sums = np.bincount(names, weights=self_s, minlength=len(self.names))
        totals = np.bincount(names, weights=dur, minlength=len(self.names))
        return {
            name: (int(calls[i]), float(sums[i]), float(totals[i]))
            for i, name in enumerate(self.names)
        }

    def write(self, path) -> None:
        """All spans as tab-separated name, start, end, parent, task."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart\tend\tparent\ttask\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{self.names[self.name_id[i]]}\t{self.start[i]:.9f}\t"
                    f"{self.end[i]:.9f}\t{self.parent[i]}\t{self.task[i]}\n"
                )


# ----------------------------------------------------------------------
# counters read off arguments and results
# ----------------------------------------------------------------------

def _nbytes(x) -> int:
    return np.asarray(x).nbytes


def _count_gf(tr: Tracer, name, args, kwargs, out) -> None:
    tr.counters["gf.elems"] += out.size
    arrays = [a for a in args[1:] if not isinstance(a, int)]
    tr.counters["gf.bytes_computed"] += out.nbytes + sum(_nbytes(a) for a in arrays)


def _count_rref(tr, name, args, kwargs, out) -> None:
    tr.counters["matgf.rref.cells"] += args[0].rows * args[0].cols


def _count_matmul(tr, name, args, kwargs, out) -> None:
    a, b = args[0], args[1]
    tr.counters["matgf.matmul.temp_bytes_computed"] += a.rows * a.cols * b.cols * 8


def _count_galois_dual(tr, name, args, kwargs, out) -> None:
    ell = args[1] if len(args) > 1 else kwargs["ell"]
    tr.note_dual(args[0], ell)


def _count_distance(tr, name, args, kwargs, out) -> None:
    tr.counters[f"lincode.min_distance.strategy.{out.strategy}"] += 1


def _count_check(tr, name, args, kwargs, out) -> None:
    tr.counters["mpcode.witnesses"] += len(out.witnesses)
    tr.counters[f"mpcode.verdict.{out.verdict.value}"] += 1


def _count_enumerate(tr, name, args, kwargs, out) -> None:
    tr.counters["oracle.words_computed"] += len(out.words)


def _count_oracle_dual(tr, name, args, kwargs, out) -> None:
    tr.counters["oracle.words_computed"] += out.spec.q ** out.k


def _count_search(tr, name, args, kwargs, out) -> None:
    req = args[1]
    # the search stops at the attempt that yields the last requested hit
    attempts = out[-1].attempt if len(out) >= req.count else req.max_candidates
    tr.counters["search.attempts"] += attempts
    tr.counters["search.hits"] += len(out)


def _count_io_load(tr, name, args, kwargs, out) -> None:
    tr.counters["io.bytes"] += len(args[0].encode())


def _count_io_dump(tr, name, args, kwargs, out) -> None:
    tr.counters["io.bytes"] += len(out.encode())


_HOOKS = {
    "gf.add_arr": _count_gf,
    "gf.sub_arr": _count_gf,
    "gf.mul_arr": _count_gf,
    "gf.sum_arr": _count_gf,
    "gf.frobenius_arr": _count_gf,
    "matgf.rref": _count_rref,
    "matgf.matmul": _count_matmul,
    "lincode.galois_dual": _count_galois_dual,
    "lincode.min_distance": _count_distance,
    "mpcode.check_self_orthogonal": _count_check,
    "mpcode.check_dual_containing": _count_check,
    "oracle.enumerate_codewords": _count_enumerate,
    "oracle.dual_by_definition": _count_oracle_dual,
    "search.search_mp_codes": _count_search,
    "io.load_mp": _count_io_load,
    "io.load_code": _count_io_load,
    "io.dump_code": _count_io_dump,
    "io.dump_mp": _count_io_dump,
}


def _wrap(tracer: Tracer, name: str, fn):
    hook = _HOOKS.get(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        idx = tracer.open(name)
        try:
            out = fn(*args, **kwargs)
        except Exception as exc:
            tracer.close(idx)
            if type(exc).__name__ == "OracleCapError" and not (
                tracer.parent_name() or ""
            ).startswith("oracle."):
                tracer.counters["oracle.cap_skips"] += 1
            raise
        tracer.close(idx)
        if hook is not None:
            hook(tracer, name, args, kwargs, out)
        return out

    return wrapper


class Installed:
    """Wrappers patched into the package; ``remove`` restores it."""

    def __init__(self, tracer: Tracer):
        import mpcodes
        from mpcodes import cli, gf, io, lincode, matgf, mpcode, oracle, search

        modules = [mpcodes, gf, matgf, lincode, mpcode, oracle, search, io, cli]
        roots = {m.__name__.rsplit(".", 1)[-1]: m for m in modules[1:]}
        self._undo: list[tuple[object, str, object]] = []
        for owner_path, attr, metric in WRAPPED:
            mod_name, _, cls_name = owner_path.partition(".")
            owner = roots[mod_name]
            if cls_name:
                owner = getattr(owner, cls_name)
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                func = raw.__func__
                self._patch(owner, attr, classmethod(_wrap(tracer, metric, func)))
            else:
                func = raw
                wrapped = _wrap(tracer, metric, func)
                self._patch(owner, attr, wrapped)
                # modules that did `from .x import func`
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is func and mod is not owner:
                            self._patch(mod, key, wrapped)

    def _patch(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def remove(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()


def layer_metrics(tracer: Tracer, overhead: float) -> dict[str, float]:
    """Every per-layer metric from one traced pass."""
    times = tracer.self_times()
    out: dict[str, float] = {}
    for _, _, metric in WRAPPED:
        calls, self_s, _ = times.get(metric, (0, 0, 0.0))
        out[f"{metric}.calls"] = calls
        out[f"{metric}.self_s"] = self_s
    c = tracer.counters
    for name in COUNTERS:
        out[name] = c.get(name, 0)
    for sub in CLI_SUBCOMMANDS:
        out[f"cli.{sub}.s"] = times.get(f"cli.{sub}", (0, 0, 0.0))[2]
    total = c.get("lincode.dual.total", 0)
    out["lincode.dual_repeat_ratio"] = c.get("lincode.dual.repeat", 0) / total if total else 0.0
    attempts = c.get("search.attempts", 0)
    out["search.hit_ratio"] = c.get("search.hits", 0) / attempts if attempts else 0.0
    out["trace.overhead"] = overhead
    return out
