"""Command-line surface: eval, membership, identity, flow, probe, bounds.

Conventions shared by every command:

* rationals cross the boundary as "p/q" strings; floats appear only in
  explicit float mode,
* JSON reports are deterministic (sorted keys; the ``timing_ms`` field is
  the only run-dependent value) and carry ``"schema": "pathfn/1"``,
* exit codes: 0 = pass, 1 = a mathematical violation was found,
  2 = usage error / unsupported request / resource cap.

Output is assembled in memory and written once.
"""

from __future__ import annotations

import argparse
import decimal
import hashlib
import io
import json
import sys
import time
from fractions import Fraction
from math import lcm
from typing import List, Optional, Sequence

from . import __version__
from .core.funcs import FuncExpr, USeries, eval_approx, eval_exact, supports_exact
from .core.parse import parse_func_spec
from .core.points import radix_x_samples, radix_y_set, triplet_count
from .core.scalars import Approx, RationalFormatError, format_rational, parse_rational
from .differences import (
    DEFAULT_TRIPLET_CAP,
    MembershipQuery,
    check_scan_cap,
    divergence_probe,
    membership_scan,
)
from .errors import PathfnError
from .flow import FlowQuery, flow_bruteforce, flow_grid
from .grid import grid_values
from .series import (
    ScanParams,
    check_sufficient_conditions,
    identity_residual_scan,
    lower_chain_check,
)

EXIT_PASS = 0
EXIT_VIOLATION = 1
EXIT_ERROR = 2

SCHEMA = "pathfn/1"


class _UsageError(Exception):
    pass


def _load_func(path: str) -> tuple[FuncExpr, str]:
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise _UsageError(f"cannot read {path}: {exc}") from exc
    return parse_func_spec(raw.decode("utf-8")), hashlib.sha256(raw).hexdigest()


def _rat(text: str, what: str) -> Fraction:
    try:
        return parse_rational(text)
    except RationalFormatError as exc:
        raise _UsageError(f"bad {what}: {exc}") from exc


def _point_literal(tok: str) -> Fraction:
    """A point on the command line: 'p/q', an integer, or a decimal literal
    (decimals are exact rationals; no float round trip)."""
    try:
        return parse_rational(tok)
    except RationalFormatError:
        pass
    try:
        return Fraction(decimal.Decimal(tok))
    except (decimal.InvalidOperation, ValueError) as exc:
        raise _UsageError(f"bad point {tok!r}") from exc


def _root_radix(f: FuncExpr, fallback: int = 2) -> int:
    r = getattr(f, "r", None)
    return r if isinstance(r, int) else fallback


def _report(command: str, inputs: dict, verdict: str, detail: dict, mode: str, t0: float) -> dict:
    return {
        "schema": SCHEMA,
        "tool_version": __version__,
        "command": command,
        "inputs": inputs,
        "mode": mode,
        "verdict": verdict,
        "detail": detail,
        "timing_ms": round((time.perf_counter() - t0) * 1000.0, 3),
    }


def _emit(out: io.StringIO, report: Optional[dict]) -> None:
    if report is not None:
        out.write(json.dumps(report, sort_keys=True, indent=2))
        out.write("\n")


def _common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--mode", choices=("exact", "float"), default="exact")
    p.add_argument("--cap", type=int, default=DEFAULT_TRIPLET_CAP, help="cap on triplets and grid-table size")


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="pathfn", description=__doc__.splitlines()[0])
    top.add_argument("--version", action="version", version=f"pathfn {__version__}")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate a function at points or on a grid (CSV)")
    p.add_argument("--func", required=True, metavar="FILE")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--points", help="comma-separated rationals ('p/q') or decimals in float mode")
    g.add_argument("--grid", type=int, help="all j/B^N for N=GRID (B = function radix, else 2)")
    _common_flags(p)

    p = sub.add_parser("membership", help="scan the steep second-difference bound")
    p.add_argument("--func", required=True, metavar="FILE")
    p.add_argument("--c", required=True)
    p.add_argument("--r", required=True, type=int)
    p.add_argument("--nmax", required=True, type=int)
    p.add_argument("--ydepth", required=True, type=int)
    _common_flags(p)

    p = sub.add_parser("identity", help="verify the series second-difference decomposition exactly")
    p.add_argument("--psi", required=True, metavar="FILE")
    p.add_argument("--r", required=True, type=int)
    p.add_argument("--nmax", required=True, type=int)
    p.add_argument("--ydepth", required=True, type=int)
    _common_flags(p)

    p = sub.add_parser("flow", help="grid flow envelope, optionally cross-checked")
    p.add_argument("--func", required=True, metavar="FILE")
    p.add_argument("--c", required=True)
    p.add_argument("--t", required=True)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--r", type=int, default=None, help="radix (default: function radix, else 2)")
    p.add_argument("--samples", type=int, default=0, help="also emit an x,value CSV with this many rows")
    p.add_argument("--csv", metavar="FILE", default=None, help="write samples to FILE instead of stdout")
    p.add_argument("--crosscheck", type=int, default=None, metavar="DEPTH",
                   help="verify exact agreement with radix brute force at this depth")
    _common_flags(p)

    p = sub.add_parser("probe", help="difference-quotient gaps along zooming stencils")
    p.add_argument("--func", required=True, metavar="FILE")
    p.add_argument("--x", required=True)
    p.add_argument("--N", required=True, type=int, dest="depth")
    p.add_argument("--y", default="1/2")
    p.add_argument("--r", type=int, default=None)
    _common_flags(p)

    p = sub.add_parser("bounds", help="sufficient-condition checker plus the lower-bound chain")
    p.add_argument("--psi", required=True, metavar="FILE")
    p.add_argument("--m", required=True)
    p.add_argument("--alpha", required=True)
    p.add_argument("--r", required=True, type=int)
    p.add_argument("--nmax", type=int, default=4)
    p.add_argument("--ydepth", type=int, default=3)
    p.add_argument("--xdepth", type=int, default=8)
    _common_flags(p)

    return top


def cmd_eval(args, out: io.StringIO) -> int:
    f, _ = _load_func(args.func)
    if args.grid is not None:
        if args.grid < 0:
            raise _UsageError("--grid must be >= 0")
        base = _root_radix(f)
        den = base**args.grid
        check_scan_cap(args.cap, 0, den)
        xs = [Fraction(j, den) for j in range(den + 1)]
    else:
        xs = [_point_literal(tok.strip()) for tok in args.points.split(",")]
    rows: List[str] = []
    if args.mode == "exact":
        if not supports_exact(f):
            raise PathfnError("function has no exact branch; use --mode float")
        if args.grid is not None:
            vals, den = grid_values(f, len(xs) - 1)
            values = [Fraction(v, den) for v in vals]
        else:
            values = [eval_exact(f, x) for x in xs]
        rows.append("x,value")
        rows += [f"{format_rational(x)},{format_rational(v)}" for x, v in zip(xs, values)]
    else:
        rows.append("x,value,error_bound")
        for x in xs:
            v = eval_approx(f, x)
            rows.append(f"{format_rational(x)},{v.value!r},{v.err!r}")
    out.write("\n".join(rows) + "\n")
    return EXIT_PASS


def cmd_membership(args, out: io.StringIO) -> int:
    t0 = time.perf_counter()
    f, digest = _load_func(args.func)
    c = _rat(args.c, "--c")
    if c <= 0:
        raise _UsageError("--c must be positive")
    q = MembershipQuery(
        f=f, c=c, r=args.r, n_max=args.nmax, y_set=radix_y_set(args.r, args.ydepth), mode=args.mode
    )
    report = membership_scan(q, cap=args.cap)
    verdict = {"no-violation": "pass", "violated": "fail", "inconclusive": "inconclusive"}[report.verdict]
    doc = _report(
        "membership",
        {
            "func_sha256": digest,
            "c": str(c),
            "r": args.r,
            "nmax": args.nmax,
            "ydepth": args.ydepth,
        },
        verdict,
        report.as_json(),
        args.mode,
        t0,
    )
    _emit(out, doc)
    if verdict == "pass":
        return EXIT_PASS
    return EXIT_VIOLATION if verdict == "fail" else EXIT_ERROR


def cmd_identity(args, out: io.StringIO) -> int:
    t0 = time.perf_counter()
    psi, digest = _load_func(args.psi)
    if not supports_exact(psi):
        raise PathfnError("identity verification requires an exact-capable generator")
    s = USeries(args.r, psi)
    report = identity_residual_scan(s, args.nmax, radix_y_set(args.r, args.ydepth), cap=args.cap)
    verdict = "pass" if report.offender is None else "fail"
    doc = _report(
        "identity",
        {"psi_sha256": digest, "r": args.r, "nmax": args.nmax, "ydepth": args.ydepth},
        verdict,
        report.as_json(),
        "exact",
        t0,
    )
    _emit(out, doc)
    return EXIT_PASS if report.offender is None else EXIT_VIOLATION


def cmd_flow(args, out: io.StringIO) -> int:
    t0 = time.perf_counter()
    f, digest = _load_func(args.func)
    c = _rat(args.c, "--c")
    t = _rat(args.t, "--t")
    r = args.r if args.r is not None else _root_radix(f)
    q = FlowQuery(f=f, c=c, r=r, t=t, n=args.n, mode=args.mode)
    d = args.crosscheck
    brute_evals = 0 if d is None else (r ** min(d, 6) + 1) * (r**d + 1)
    check_scan_cap(args.cap, brute_evals, r ** q.depth())  # and the r^n + 1 envelope vertices
    pq = flow_grid(q)
    detail = {"envelope": pq.as_json(), "depth": q.depth(), "pieces": len(pq.pieces)}
    verdict = "pass"
    if args.crosscheck is not None:
        mismatches = []
        den = r ** min(args.crosscheck, 6)
        for j in range(den + 1):
            x = Fraction(j, den)
            grid_v = pq.eval(x)
            brute_v = flow_bruteforce(f, t, x, radix_depth=args.crosscheck, r=r)
            if grid_v != brute_v:
                mismatches.append(str(x))
        detail["crosscheck"] = {
            "radix_depth": args.crosscheck,
            "points": den + 1,
            "mismatches": mismatches,
        }
        if mismatches:
            verdict = "fail"
    csv_text = None
    if args.samples:
        lines = ["x,value"]
        for x, v in pq.sample_rows(args.samples):
            lines.append(f"{format_rational(x)},{format_rational(v)}")
        csv_text = "\n".join(lines) + "\n"
        if args.csv:
            with open(args.csv, "w", encoding="utf-8") as fh:
                fh.write(csv_text)
            detail["csv_file"] = args.csv
    doc = _report(
        "flow",
        {"func_sha256": digest, "c": str(c), "t": str(t), "r": r, "n": args.n},
        verdict,
        detail,
        args.mode,
        t0,
    )
    _emit(out, doc)
    if csv_text and not args.csv:
        out.write(csv_text)
    return EXIT_PASS if verdict == "pass" else EXIT_VIOLATION


def cmd_probe(args, out: io.StringIO) -> int:
    f, _ = _load_func(args.func)
    r = args.r if args.r is not None else _root_radix(f)
    y = _rat(args.y, "--y")
    x = _point_literal(args.x)
    mode = "auto" if args.mode == "exact" else "float"
    rows = divergence_probe(f, x, args.depth, y=y, r=r, mode=mode)
    exact_rows = all(not isinstance(row.gap, Approx) for row in rows)
    lines = ["n,delta_plus,delta_minus,gap" if exact_rows else "n,delta_plus,delta_minus,gap,error_bound"]
    for row in rows:
        if exact_rows:
            lines.append(
                f"{row.n},{format_rational(row.dplus)},{format_rational(row.dminus)},{format_rational(row.gap)}"
            )
        else:
            def _v(s):
                return s.value if isinstance(s, Approx) else float(s)

            lines.append(
                f"{row.n},{_v(row.dplus)!r},{_v(row.dminus)!r},{_v(row.gap)!r},{row.gap.err!r}"
            )
    out.write("\n".join(lines) + "\n")
    return EXIT_PASS


def cmd_bounds(args, out: io.StringIO) -> int:
    t0 = time.perf_counter()
    psi, digest = _load_func(args.psi)
    m = _rat(args.m, "--m")
    alpha = _rat(args.alpha, "--alpha")
    s = USeries(args.r, psi)
    params = ScanParams(n_max=args.nmax, y_depth=args.ydepth, x_depth=args.xdepth)
    ys = params.y_set(args.r)
    grid = lcm(*(y.denominator for y in ys)) * args.r**args.nmax
    check_scan_cap(args.cap, triplet_count(args.r, args.nmax, len(ys)), grid)
    report = check_sufficient_conditions(s, m, alpha, params)
    detail = report.as_json()
    ok = report.passed
    if ok and supports_exact(psi):
        chain = lower_chain_check(s, m, radix_x_samples(args.r, min(args.xdepth, 6)))
        detail["lower_chain"] = chain.as_json()
        ok = chain.holds
    verdict = "pass" if ok else "fail"
    doc = _report(
        "bounds",
        {
            "psi_sha256": digest,
            "m": str(m),
            "alpha": str(alpha),
            "r": args.r,
            "nmax": args.nmax,
            "ydepth": args.ydepth,
            "xdepth": args.xdepth,
        },
        verdict,
        detail,
        args.mode,
        t0,
    )
    _emit(out, doc)
    return EXIT_PASS if verdict == "pass" else EXIT_VIOLATION


_COMMANDS = {
    "eval": cmd_eval,
    "membership": cmd_membership,
    "identity": cmd_identity,
    "flow": cmd_flow,
    "probe": cmd_probe,
    "bounds": cmd_bounds,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help; pass both through
        return int(exc.code or 0)
    out = io.StringIO()
    try:
        code = _COMMANDS[args.command](args, out)
    except _UsageError as exc:
        sys.stderr.write(f"pathfn: {exc}\n")
        return EXIT_ERROR
    except PathfnError as exc:
        sys.stderr.write(f"pathfn: {exc}\n")
        return EXIT_ERROR
    except ValueError as exc:
        sys.stderr.write(f"pathfn: {exc}\n")
        return EXIT_ERROR
    sys.stdout.write(out.getvalue())
    return code


def entry() -> None:
    raise SystemExit(main())
