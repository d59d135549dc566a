"""pathfn benchmark: CLI workloads run in fresh processes, every output checked.

    python3 perfbench/run.py --workload scan-exact --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Load: a closed loop with one client.  Each operation is one
``python -m pathfn ...`` child process with the checkout's ``src`` first on
PYTHONPATH and ``PATHFN_JOBS`` removed; the next starts when it has exited.
The library's process-global caches therefore start cold for every
operation, as they do for every CLI user.

``--trace 0`` repeats passes over the workload for ``--seconds`` and reports
end-to-end metrics: the slowest pass's wall time, the largest pass child CPU
time (``os.wait4``), the largest child max-RSS, and the median set-up time.
``--trace 1`` makes one untraced and one traced pass through
``perfbench/tracer.py`` and reports per-layer metrics; end-to-end numbers
never come from traced runs.

Human-readable lines come first; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.  The benchmark exits 2
without a result when the checkout's ``pathfn`` cannot be imported.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

import checks
import oracle
import workloads
from workloads import Op, Workload

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"
SETUP_REPEATS = 3


def declared_units(section: str) -> Dict[str, str]:
    """Metric name -> unit of one BENCHMARK.json section (end_to_end or per_layer)."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


class CheckoutError(RuntimeError):
    pass


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env.pop("PATHFN_JOBS", None)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def verify_checkout(env: Dict[str, str]) -> None:
    """Refuse to measure any pathfn but the one in this checkout's src."""
    probe = subprocess.run(
        [sys.executable, "-c", "import pathfn; print(pathfn.__file__)"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=60,
    )
    if probe.returncode != 0:
        raise CheckoutError(f"cannot import pathfn from {ROOT / 'src'}: {probe.stderr.strip()[-200:]}")
    found = Path(probe.stdout.strip()).resolve()
    if found != ROOT / "src" / "pathfn" / "__init__.py":
        raise CheckoutError(f"pathfn resolves to {found}, not to this checkout's src")


def machine_info() -> Dict[str, object]:
    """Where and what was measured."""
    rev = "unknown"  # a checkout without .git is identified by src_sha256 alone
    if (ROOT / ".git").exists():
        try:
            rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=30).stdout.strip() or rev
        except OSError:
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "revision": rev,
        "src_sha256": digest.hexdigest()[:16],
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


@dataclass
class Outcome:
    code: int
    stdout: str
    stderr: str
    wall_s: float
    cpu_s: float
    maxrss_kib: int


def spawn(argv: List[str], env: Dict[str, str]) -> Outcome:
    """Run one child to completion through ``launch.py``, which times it and
    takes its resource usage from os.wait4.  The launcher and its child form
    their own process group, which is killed if this process is interrupted."""
    OUT_DIR.mkdir(exist_ok=True)
    out, err = OUT_DIR / "stdout", OUT_DIR / "stderr"
    launcher = [sys.executable, str(ROOT / "perfbench" / "launch.py"), str(out), str(err), "--"]
    proc = subprocess.Popen(launcher + argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        report, _ = proc.communicate()
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"launcher failed on {argv[:4]}: exit {proc.returncode}")
    res = json.loads(report)
    return Outcome(res["exit"], out.read_text(), err.read_text(), res["wall_s"], res["cpu_s"], res["maxrss_kib"])


def run_op(op: Op, env: Dict[str, str]) -> Outcome:
    return spawn([sys.executable, "-m", "pathfn", *op.argv], env)


@dataclass
class Tally:
    """Operations attempted and failed, with the reasons."""

    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    decided: List[bool] = field(default_factory=list)

    def add(self, op: Op, errors: List[str], stderr: str = "") -> None:
        self.attempted += 1
        if errors:
            self.failed += 1
            detail = f" (stderr: {stderr.strip()[-200:]})" if stderr.strip() else ""
            self.errors.append(f"{op.name}: {'; '.join(errors)}{detail}")


@dataclass
class Result:
    workload: Workload
    tally: Tally
    metrics: Dict[str, float]
    lines: List[str]
    gate_errors: List[str] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return self.tally.failed == 0 and not self.gate_errors


def _check_op(op: Op, code: int, stdout: str, stderr: str, expected, tally: Tally) -> None:
    result = checks.check(op, code, stdout, expected)
    tally.add(op, result.errors, stderr)
    if result.decided is not None:
        tally.decided.append(result.decided)


def timed_run(wl: Workload, seconds: float, env: Dict[str, str]) -> Result:
    expected = checks.load_expected()
    tally = Tally()
    gate: List[str] = []
    setups = []
    for _ in range(SETUP_REPEATS):
        total = 0.0
        for op in wl.setup:
            o = run_op(op, env)
            total += o.wall_s
            tally.add(op, checks.check_setup(o.code, o.stdout), o.stderr)
        setups.append(total)

    walls: List[float] = []
    cpus: List[float] = []
    rss: List[int] = []
    t_start = time.perf_counter()
    while True:
        wall = cpu = 0.0
        peak = 0
        for op in wl.ops:
            o = run_op(op, env)
            wall += o.wall_s
            cpu += o.cpu_s
            peak = max(peak, o.maxrss_kib)
            _check_op(op, o.code, o.stdout, o.stderr, expected, tally)
            if not walls:
                gate += checks.gate_self_test(op, o.code, o.stdout, expected)
        walls.append(wall)
        cpus.append(cpu)
        rss.append(peak)
        if time.perf_counter() - t_start >= seconds:
            break

    # The slowest pass, not the median: on a shared host the contended speed is
    # the steady one and uncontended bursts make some passes faster, so the
    # slowest of a run's passes varies least from run to run.
    metrics = {
        "wall_s": max(walls),
        "cpu_s": max(cpus),
        "peak_rss_mb": max(rss) / 1024,
        "setup_s": statistics.median(setups),
    }
    lines = [
        f"  passes: {len(walls)}, pass wall median {statistics.median(walls):.4f} s, "
        f"range {min(walls):.4f}..{max(walls):.4f} s; set-ups: {len(setups)} over {len(wl.setup)} specs, "
        f"range {min(setups):.4f}..{max(setups):.4f} s",
    ]
    return Result(wl, tally, metrics, lines, gate)


def run_tracer(op: Op, env: Dict[str, str], spans: Optional[Path]) -> dict:
    """The tracer's report on one operation; an empty report carries its
    stderr when the tracer itself crashed."""
    argv = [sys.executable, str(ROOT / "perfbench" / "tracer.py")]
    if spans is not None:
        argv += ["--trace", "--spans", str(spans), "--op", op.name]
    o = spawn(argv + ["--", *op.argv], env)
    return json.loads(o.stdout) if o.code == 0 else {"crash": o.stderr.strip()[-300:]}


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def traced_run(wl: Workload, env: Dict[str, str]) -> Result:
    expected = checks.load_expected()
    tally = Tally()
    span_dir = OUT_DIR / "spans" / wl.name
    span_dir.mkdir(parents=True, exist_ok=True)
    spans: Dict[str, Dict[str, float]] = {}
    counters: Dict[str, int] = {}
    plain_wall = traced_wall = 0.0
    lines = []
    for op in wl.ops:
        plain = run_tracer(op, env, None)
        traced = run_tracer(op, env, span_dir / f"{op.name}.json")
        crashed = [res["crash"] for res in (plain, traced) if "crash" in res]
        if crashed:
            tally.add(op, [f"tracer crashed: {crashed[0]}"])
            continue
        for res in (plain, traced):
            _check_op(op, res["exit"], res["stdout"], "", expected, tally)
        plain_wall += plain["wall_s"]
        traced_wall += traced["wall_s"]
        self_sum = sum(s["self_s"] for s in traced["spans"].values())
        lines.append(f"  {op.name}: traced {traced['wall_s']:.4f} s, untraced {plain['wall_s']:.4f} s, "
                     f"self times sum to {self_sum:.4f} s ({100 * self_sum / traced['wall_s']:.2f}% "
                     f"of traced wall), {traced['span_count']} spans")
        for name, agg in traced["spans"].items():
            acc = spans.setdefault(name, {})
            for key, value in agg.items():
                acc[key] = acc.get(key, 0) + value
        for name, value in traced["counters"].items():
            counters[name] = counters.get(name, 0) + value

    def span(name: str, key: str) -> float:
        return spans.get(name, {}).get(key, 0)

    ex, ap = "core.funcs.eval_exact", "core.funcs.eval_approx"
    scan_t = counters.get("differences.scan.triplets", 0)
    ident_t = counters.get("series.identity.triplets", 0)
    verts = counters.get("flow.grid.vertices", 0)
    z_evals = span("flow.bruteforce", "child_evals")
    metrics = {
        f"{ex}.calls": span(ex, "calls"),
        f"{ex}.us_per_call": 1e6 * _ratio(span(ex, "total_s"), span(ex, "calls")),
        f"{ex}.distinct_ratio": _ratio(counters.get(f"{ex}.distinct", 0), span(ex, "calls")),
        f"{ap}.calls": span(ap, "calls"),
        f"{ap}.us_per_call": 1e6 * _ratio(span(ap, "total_s"), span(ap, "calls")),
        "differences.scan.triplets": scan_t,
        "differences.scan.self_us_per_triplet": 1e6 * _ratio(span("differences.scan", "self_s"), scan_t),
        "series.identity.triplets": ident_t,
        "series.identity.self_us_per_triplet": 1e6 * _ratio(span("series.identity", "self_s"), ident_t),
        "flow.grid.vertices": verts,
        "flow.grid.self_us_per_vertex": 1e6 * _ratio(span("flow.grid", "self_s"), verts),
        "flow.piecewise_eval.calls": span("flow.piecewise_eval", "calls"),
        "flow.piecewise_eval.us_per_call": 1e6 * _ratio(span("flow.piecewise_eval", "total_s"),
                                                        span("flow.piecewise_eval", "calls")),
        "flow.bruteforce.z_evals": z_evals,
        "flow.bruteforce.self_us_per_z": 1e6 * _ratio(span("flow.bruteforce", "self_s"), z_evals),
        "differences.probe.rows": counters.get("differences.probe.rows", 0),
        "differences.probe.s": span("differences.probe", "total_s"),
        "core.parse.parse_func_spec.s": span("core.parse.parse_func_spec", "total_s"),
        "cli.main.self_s": span("cli.main", "self_s"),
        "cli.stdout_bytes": counters.get("cli.stdout_bytes", 0),
        "trace.overhead_ratio": _ratio(traced_wall, plain_wall),
    }
    lines.append(f"  spans written to {span_dir.relative_to(ROOT)}/")
    return Result(wl, tally, metrics, lines)


def summary(res: Result, seed: int, info: Dict[str, object], units: Dict[str, str]) -> List[str]:
    """Every metric by name with its unit, the failure counts and the run's context."""
    t = res.tally
    head = [f"perfbench {res.workload.name} seed={seed} " + " ".join(f"{k}={v}" for k, v in info.items())]
    notes = [f"  {k}: {v}" for k, v in res.workload.notes.items()]
    values = [f"  {name:38s} {value:.6g} {units[name]}" for name, value in res.metrics.items()]
    values.append(f"  {'fail_ratio':38s} {_ratio(t.failed, t.attempted):.6g} 1  ({t.failed}/{t.attempted})")
    if t.decided:
        values.append(f"  {'decided_ratio':38s} {_ratio(sum(t.decided), len(t.decided)):.6g} 1  "
                      f"({sum(t.decided)}/{len(t.decided)} float scans decisive)")
    errs = [f"  FAILED {e}" for e in t.errors + res.gate_errors]
    return head + notes + res.lines + values + errs


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    env = child_env()
    try:
        verify_checkout(env)
    except (CheckoutError, OSError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    oracle.self_check()
    units = declared_units("per_layer" if args.trace else "end_to_end")
    info = machine_info()
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        wl = workloads.build(name, args.seed)
        res = traced_run(wl, env) if args.trace else timed_run(wl, args.seconds, env)
        if set(res.metrics) != set(units):
            raise RuntimeError(f"metrics {sorted(set(res.metrics) ^ set(units))} differ from BENCHMARK.json")
        print("\n".join(summary(res, args.seed, info, units)), flush=True)
        results.append(res)

    prefix = len(results) > 1
    metrics = {
        (f"{r.workload.name}.{k}" if prefix else k): {"value": v, "unit": units[k]}
        for r in results for k, v in r.metrics.items()
    }
    print(json.dumps({
        "correct": all(r.correct for r in results),
        "attempted": sum(r.tally.attempted for r in results),
        "failed": sum(r.tally.failed for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
