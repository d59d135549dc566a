"""Run one pathfn CLI command in this process, optionally with layer spans.

    python perfbench/tracer.py [--trace] [--spans FILE] -- <pathfn arguments>

With ``--trace`` the public functions of each layer are wrapped under the
names their callers look them up by (``pathfn.differences.eval_exact``,
``pathfn.cli.membership_scan``, ...), so no library source changes.  Every
call records a span (name, start, end, parent) in memory; spans are written
to FILE after the command finishes.  Self time is a span's duration minus
the time its child spans cover.

Prints one JSON object: exit code, wall time of ``pathfn.cli.main``, the
command's stdout and, when tracing, per-span-name aggregates and counters.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
import time
from array import array
from collections import Counter
from typing import Callable, Dict, List, Optional

import pathfn.cli
import pathfn.core.funcs
import pathfn.differences
import pathfn.flow
import pathfn.series

# Modules that look up each evaluator as a global of their own.
_EVAL_CALLERS = (pathfn.cli, pathfn.differences, pathfn.series, pathfn.flow)


class Tracer:
    """Spans in compact arrays: one entry per call of a wrapped function."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.covered = array("d")  # time covered by direct child spans
        self.stack: List[int] = []
        self.counters: Counter = Counter()
        self.eval_args: List[tuple] = []  # (f, x) of every eval_exact call; hashed after the run

    def wrap(self, name: str, fn: Callable, after: Optional[Callable] = None) -> Callable:
        """``fn`` recording a span named ``name``; ``after(args, result)`` adds counters."""
        name_id = len(self.names)
        self.names.append(name)
        names, parents, starts, ends, covered, stack = (
            self.name, self.parent, self.start, self.end, self.covered, self.stack)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            i = len(starts)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            covered.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                ends[i] = t1
                stack.pop()
                if stack:
                    covered[stack[-1]] += t1 - starts[i]
            if after is not None:
                after(args, result)
            return result

        return traced

    def install(self) -> None:
        """Patch each layer's public entry points where their callers find them."""
        counters = self.counters
        eval_args = self.eval_args.append

        def eval_key(args, result):
            eval_args(args[:2])

        def counted(name: str, measure: Callable):
            def after(args, result):
                counters[name] += measure(args, result)
            return after

        exact = self.wrap("core.funcs.eval_exact", pathfn.core.funcs.eval_exact, eval_key)
        approx = self.wrap("core.funcs.eval_approx", pathfn.core.funcs.eval_approx)
        for module in _EVAL_CALLERS:
            for attr, traced in (("eval_exact", exact), ("eval_approx", approx)):
                if hasattr(module, attr):
                    setattr(module, attr, traced)
        cli = pathfn.cli
        self.patch(cli, "parse_func_spec", "core.parse.parse_func_spec")
        self.patch(cli, "membership_scan", "differences.scan",
                   counted("differences.scan.triplets", lambda a, r: r.scanned))
        self.patch(cli, "divergence_probe", "differences.probe",
                   counted("differences.probe.rows", lambda a, r: len(r)))
        self.patch(cli, "identity_residual_scan", "series.identity",
                   counted("series.identity.triplets", lambda a, r: r.checked))
        self.patch(cli, "flow_grid", "flow.grid",
                   counted("flow.grid.vertices", lambda a, r: a[0].r ** a[0].depth() + 1))
        self.patch(cli, "flow_bruteforce", "flow.bruteforce")
        self.patch(pathfn.flow.PiecewiseQuadratic, "eval", "flow.piecewise_eval")

    def patch(self, owner, attr: str, name: str, after: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` by a wrapper recording spans named ``name``.
        A missing attribute leaves that layer's metrics at 0."""
        fn = getattr(owner, attr, None)
        if fn is not None:
            setattr(owner, attr, self.wrap(name, fn, after))

    def aggregate(self) -> Dict[str, dict]:
        """calls, total seconds and self seconds per span name, plus the
        number of evaluator spans whose parent is each span name."""
        out = {n: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "child_evals": 0} for n in self.names}
        exact_id = self.names.index("core.funcs.eval_exact")
        for i in range(len(self.start)):
            entry = out[self.names[self.name[i]]]
            dur = self.end[i] - self.start[i]
            entry["calls"] += 1
            entry["total_s"] += dur
            entry["self_s"] += dur - self.covered[i]
            parent = self.parent[i]
            if self.name[i] == exact_id and parent >= 0:
                out[self.names[self.name[parent]]]["child_evals"] += 1
        return out

    def write_spans(self, path: str, op: str) -> None:
        t0 = self.start[0] if self.start else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({
                "op": op,
                "names": self.names,
                "name": self.name.tolist(),
                "parent": self.parent.tolist(),
                "start_us": [round((t - t0) * 1e6, 1) for t in self.start],
                "end_us": [round((t - t0) * 1e6, 1) for t in self.end],
            }, fh)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", metavar="FILE")
    parser.add_argument("--op", default="")
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv

    entry = pathfn.cli.main
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
        entry = tracer.wrap("cli.main", entry)

    real_stdout, captured = sys.stdout, io.StringIO()
    sys.stdout = captured
    try:
        t0 = time.perf_counter()
        code = entry(argv)
        wall = time.perf_counter() - t0
    finally:
        sys.stdout = real_stdout
    text = captured.getvalue()
    result = {"exit": code, "wall_s": wall, "stdout": text}
    if tracer is not None:
        spans = tracer.aggregate()
        counters = dict(tracer.counters)
        counters["core.funcs.eval_exact.distinct"] = len(set(tracer.eval_args))
        counters["cli.stdout_bytes"] = len(text.encode())
        result.update(spans=spans, counters=counters, span_count=len(tracer.start))
        if args.spans:
            tracer.write_spans(args.spans, args.op)
    json.dump(result, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
