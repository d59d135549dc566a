"""Command-line surface: eval, membership, identity, flow, probe, bounds.

Conventions shared by every command:

* rationals cross the boundary as "p/q" strings; floats appear only in
  explicit float mode,
* JSON reports are deterministic (sorted keys; the ``timing_ms`` field is
  the only run-dependent value) and carry ``"schema": "pathfn/1"``,
* exit codes: 0 = pass, 1 = a mathematical violation was found,
  2 = usage error / unsupported request / resource cap.

Every refusal and all the work come first; then the output is written to
stdout in runs of text as it is encoded, so a refusal (exit 2 with a
message on stderr) leaves stdout empty.
"""

from __future__ import annotations

import sys
import time
from fractions import Fraction
from typing import TYPE_CHECKING, Callable, List, Optional, Sequence

from . import __version__
# Import order sets the heap layout and so peak RSS.  Keep scalars, points,
# funcs, parse, the order eval's and probe's peaks were measured in, although
# alphabetical order read 0.1-0.2 MiB lower in every command when last measured.
from .core.scalars import (_CHUNK_ROWS, _PRINTED_BITS, Approx, RationalFormatError, Scalar, format_rational,
                           parse_rational, to_json, write_json)
from .core.points import radix_x_samples, radix_y_set
from .core.funcs import FuncExpr, USeries, eval_approx, eval_exact_points, radix_product, supports_exact
from .core.parse import parse_func_spec
from .errors import DEFAULT_TRIPLET_CAP, OrbitLimitError, PathfnError, cap_depth, check_scan_cap

if TYPE_CHECKING:
    import argparse

    from .flow import PiecewiseQuadratic

# The layers' entry points, each imported from its module the first time it
# is read from this one (PEP 562), so a command loads only the layers it
# runs.  Commands read them as attributes of ``_lazy`` (this module): a value
# set with ``setattr(pathfn.cli, name, ...)`` is the one a command calls.
_LAZY = {
    "MembershipQuery": "differences",
    "approx_table": "differences",
    "check_radix_scan_cap": "differences",
    "divergence_probe": "differences",
    "membership_scan": "differences",
    "FlowQuery": "flow",
    "flow_bruteforce_count": "flow",
    "flow_bruteforce_points": "flow",
    "flow_grid": "flow",
    "grid_values": "grid",
    "ScanParams": "series",
    "check_sufficient_conditions": "series",
    "identity_residual_scan": "series",
}
_lazy = sys.modules[__name__]


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # __import__, unlike importlib.import_module, shows in ``python -X importtime``
    value = globals()[name] = getattr(__import__(f"pathfn.{module}", fromlist=[name]), name)
    return value


EXIT_PASS = 0
EXIT_VIOLATION = 1
EXIT_ERROR = 2

SCHEMA = "pathfn/1"


def _load_func(path: str, digest: bool = False) -> tuple[FuncExpr, Optional[str]]:
    """The function in ``path`` and, if ``digest``, the SHA-256 of its bytes.

    The digest comes from CPython's built-in SHA-256 module (``_sha2`` from
    3.12, ``_sha256`` before), the one hashlib falls back to without OpenSSL,
    so it is the same hex string; importing hashlib would map OpenSSL's
    libcrypto, about 3.4 MiB, into a process that hashes one small file.
    ``hashlib`` is the fallback for an interpreter built without either."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    f = parse_func_spec(raw.decode("utf-8"))
    if not digest:
        return f, None
    try:
        from _sha2 import sha256
    except ImportError:
        try:
            from _sha256 import sha256
        except ImportError:
            from hashlib import sha256
    return f, sha256(raw).hexdigest()


def _rat(text: str, what: str, decimals: bool = False) -> Fraction:
    """``parse_rational(text, decimals)``, its refusal naming ``what`` (a flag, or a point)."""
    try:
        return parse_rational(text, decimals)
    except RationalFormatError as exc:
        raise ValueError(f"bad {what}: {exc}") from exc


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


def _write_lines(write: Callable[[str], object], lines: Sequence[str]) -> None:
    """Write each line and a newline, ``_CHUNK_ROWS`` lines per call."""
    for i in range(0, len(lines), _CHUNK_ROWS):
        write("\n".join(lines[i:i + _CHUNK_ROWS]) + "\n")


def _emit(report: Optional[dict] = None, lines: Sequence[str] = ()) -> None:
    """Write a command's output to stdout, looked up now: ``report`` as JSON
    and a newline, then ``lines``.  Called once, after the last refusal."""
    write = sys.stdout.write
    if report is not None:
        write_json(report, write)
        write("\n")
    _write_lines(write, lines)


def _common_flags(p: argparse.ArgumentParser, mode: bool = True) -> None:
    if mode:
        p.add_argument("--mode", choices=("exact", "float"), default="exact")
    p.add_argument("--cap", type=int, default=DEFAULT_TRIPLET_CAP,
                   help="cap on triplets, grid-table points, y values, bounds samples, flow and probe "
                        "evaluations, flow sample rows, and the entries each exact point adds to a series table")


def build_parser() -> argparse.ArgumentParser:
    # Imported here, after pathfn's modules are compiled, for the reason
    # given at _COMMAND_LAYER; imported at the top of this module, it raised
    # every command's peak by 0.1-0.4 MiB.
    import argparse

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
    _common_flags(p, mode=False)

    p = sub.add_parser("flow", help="grid flow envelope, optionally cross-checked")
    p.add_argument("--func", required=True, metavar="FILE")
    p.add_argument("--c", required=True)
    p.add_argument("--t", required=True)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--r", type=int, default=None, help="radix (default: function radix, else 2)")
    p.add_argument("--samples", type=int, default=0, help="also emit an x,value CSV with this many rows")
    p.add_argument("--csv", metavar="FILE", default=None, help="write samples to FILE instead of stdout")
    p.add_argument("--crosscheck", type=int, default=None, metavar="DEPTH",
                   help="verify agreement with radix brute force at this depth "
                        "(exact equality; in float mode, overlap of certified intervals)")
    _common_flags(p)

    p = sub.add_parser("probe", help="difference-quotient gaps along zooming stencils")
    p.add_argument("--func", required=True, metavar="FILE")
    p.add_argument("--x", required=True)
    p.add_argument("--N", required=True, type=int, dest="depth")
    p.add_argument("--y", default="1/2")
    p.add_argument("--r", type=int, default=None)
    _common_flags(p)

    p = sub.add_parser("bounds", help="sufficient-condition checker")
    p.add_argument("--psi", required=True, metavar="FILE")
    p.add_argument("--m", required=True)
    p.add_argument("--alpha", required=True)
    p.add_argument("--r", required=True, type=int)
    p.add_argument("--nmax", type=int, default=4)
    p.add_argument("--ydepth", type=int, default=3)
    p.add_argument("--xdepth", type=int, default=8)
    _common_flags(p, mode=False)

    return top


def cmd_eval(args) -> int:
    f, _ = _load_func(args.func)
    if args.grid is not None:
        if args.grid < 0:
            raise ValueError("--grid must be >= 0")
        base = _root_radix(f)
        check_scan_cap(args.cap, 0, base ** cap_depth(args.grid, args.cap))
        xs = radix_x_samples(base, args.grid)
    else:
        xs = [_rat(tok, f"point {tok!r}", decimals=True) for tok in args.points.split(",")]
    rows: List[str] = []
    if args.mode == "exact":
        if not supports_exact(f):
            raise PathfnError("function has no exact branch; use --mode float")
        if args.grid is not None:
            vals, den = _lazy.grid_values(f, len(xs) - 1)
            values = [Fraction(v, den) for v in vals]
        else:
            values = _exact_points(f, xs, args.cap)
        rows.append("x,value")
        rows += [f"{format_rational(x)},{format_rational(v)}" for x, v in zip(xs, values)]
    else:
        values = _lazy.approx_table(f, len(xs) - 1) if args.grid is not None else [eval_approx(f, x) for x in xs]
        rows.append("x,value,error_bound")
        rows += [f"{format_rational(x)},{v.value!r},{v.err!r}" for x, v in zip(xs, values)]
    _emit(lines=rows)
    return EXIT_PASS


def _exact_points(f: FuncExpr, xs: Sequence[Fraction], cap: int) -> List[Fraction]:
    """``eval_exact_points`` under the orbit cap ``cap``, refusing as well,
    before any value is computed, a point whose exact value would be too long
    to print: each entry it adds to a series node's orbit walk adds about
    log2 R bits to the denominator its value is read over, R the product of
    the tree's series radixes."""
    limit = _PRINTED_BITS // max(1, (radix_product(f) - 1).bit_length())
    try:
        return eval_exact_points(f, xs, max_orbit=min(cap, limit))
    except OrbitLimitError as exc:
        if cap <= limit:
            raise
        raise OrbitLimitError(
            f"{exc}: its exact value would have more than {_PRINTED_BITS} bits, too long to print; use --mode float"
        ) from None


def cmd_membership(args) -> int:
    t0 = time.perf_counter()
    f, digest = _load_func(args.func, digest=True)
    c = _rat(args.c, "--c")
    if c <= 0:
        raise ValueError("--c must be positive")
    _lazy.check_radix_scan_cap(args.cap, args.r, args.nmax, args.ydepth)
    q = _lazy.MembershipQuery(
        f=f, c=c, r=args.r, n_max=args.nmax, y_set=radix_y_set(args.r, args.ydepth), mode=args.mode
    )
    report = _lazy.membership_scan(q, cap=args.cap)
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
        to_json(report),
        args.mode,
        t0,
    )
    _emit(doc)
    if verdict == "pass":
        return EXIT_PASS
    return EXIT_VIOLATION if verdict == "fail" else EXIT_ERROR


def cmd_identity(args) -> int:
    t0 = time.perf_counter()
    psi, digest = _load_func(args.psi, digest=True)
    if not supports_exact(psi):
        raise PathfnError("identity verification requires an exact-capable generator")
    s = USeries(args.r, psi)
    _lazy.check_radix_scan_cap(args.cap, args.r, args.nmax, args.ydepth)
    report = _lazy.identity_residual_scan(s, args.nmax, radix_y_set(args.r, args.ydepth), cap=args.cap)
    verdict = "pass" if report.offender is None else "fail"
    doc = _report(
        "identity",
        {"psi_sha256": digest, "r": args.r, "nmax": args.nmax, "ydepth": args.ydepth},
        verdict,
        to_json(report),
        "exact",
        t0,
    )
    _emit(doc)
    return EXIT_PASS if report.offender is None else EXIT_VIOLATION


def cmd_flow(args) -> int:
    t0 = time.perf_counter()
    f, digest = _load_func(args.func, digest=True)
    c = _rat(args.c, "--c")
    t = _rat(args.t, "--t")
    r = args.r if args.r is not None else _root_radix(f)
    q = _lazy.FlowQuery(f=f, c=c, r=r, t=t, n=args.n, mode=args.mode)
    d = args.crosscheck
    if d is not None and d < 0:
        raise ValueError("--crosscheck must be >= 0")
    if args.samples < 0 or args.samples == 1:
        raise ValueError("--samples must be 0 or >= 2")
    if args.csv and not args.samples:
        raise ValueError("--csv needs --samples")
    check_scan_cap(args.cap, args.samples, unit="sample rows")
    xs = () if d is None else radix_x_samples(r, min(d, 6))
    if d is not None:  # refused before flow_grid runs
        # each x compares at least r^d values, so a clamped depth still counts past the cap
        brute_evals = _lazy.flow_bruteforce_count(f, t, xs, cap_depth(d, args.cap), r)
        check_scan_cap(args.cap, brute_evals, unit="brute-force evaluations")
    pq = _lazy.flow_grid(q, cap=args.cap)
    detail = {"envelope": pq.as_report(), "depth": q.depth(), "pieces": len(pq.ks)}
    suffix = ""  # the samples' error_bound column
    if args.mode == "float":  # err is dyadic, so "p/q" prints it exactly
        detail["error_bound"] = format_rational(Fraction(pq.err))
        suffix = "," + detail["error_bound"]
    verdict = "pass"
    if d is not None:
        brute = _lazy.flow_bruteforce_points(f, t, xs, radix_depth=d, r=r, mode=args.mode)
        mismatches = [str(x) for x, b in zip(xs, brute) if _certainly_differ(pq, x, b)]
        detail["crosscheck"] = {
            "radix_depth": d,
            "points": len(xs),
            "mismatches": mismatches,
        }
        if mismatches:
            verdict = "fail"
    lines: List[str] = []
    if args.samples:
        lines.append("x,value,error_bound" if suffix else "x,value")
        lines += [line + suffix for line in pq.sample_lines(args.samples)]
        if args.csv:
            try:
                with open(args.csv, "w", encoding="utf-8") as fh:
                    _write_lines(fh.write, lines)
            except OSError as exc:
                raise ValueError(f"cannot write {args.csv}: {exc}") from exc
            detail["csv_file"] = args.csv
    doc = _report(
        "flow",
        {"func_sha256": digest, "c": str(c), "t": str(t), "r": r, "n": args.n},
        verdict,
        detail,
        args.mode,
        t0,
    )
    _emit(doc, () if args.csv else lines)
    return EXIT_PASS if verdict == "pass" else EXIT_VIOLATION


def _certainly_differ(pq: PiecewiseQuadratic, x: Fraction, brute: Scalar) -> bool:
    """Exact mode: the values differ.  Float mode: [v - err, v + err], v the
    envelope's value, and the brute force's certified interval are disjoint."""
    v = pq.eval(x)
    if not isinstance(brute, Approx):
        return v != brute
    err = Fraction(pq.err)
    return v + err < Fraction(brute.lo()) or v - err > Fraction(brute.hi())


def cmd_probe(args) -> int:
    f, _ = _load_func(args.func)
    r = args.r if args.r is not None else _root_radix(f)
    y = _rat(args.y, "--y")
    x = _rat(args.x, f"point {args.x!r}", decimals=True)
    mode = "auto" if args.mode == "exact" else "float"
    check_scan_cap(args.cap, 3 * (args.depth + 1), unit="point evaluations")
    rows = _lazy.divergence_probe(f, x, args.depth, y=y, r=r, mode=mode)
    exact_rows = all(not isinstance(row.gap, Approx) for row in rows)
    lines = ["n,delta_plus,delta_minus,gap" if exact_rows else "n,delta_plus,delta_minus,gap,error_bound"]
    for row in rows:
        if exact_rows:
            lines.append(
                f"{row.n},{format_rational(row.dplus)},{format_rational(row.dminus)},{format_rational(row.gap)}"
            )
        else:  # every row of a float probe holds Approx values
            lines.append(f"{row.n},{row.dplus.value!r},{row.dminus.value!r},{row.gap.value!r},{row.gap.err!r}")
    _emit(lines=lines)
    return EXIT_PASS


def cmd_bounds(args) -> int:
    t0 = time.perf_counter()
    psi, digest = _load_func(args.psi, digest=True)
    m = _rat(args.m, "--m")
    alpha = _rat(args.alpha, "--alpha")
    if not supports_exact(psi):
        raise PathfnError("bounds requires an exact-capable generator")
    s = USeries(args.r, psi)
    params = _lazy.ScanParams(n_max=args.nmax, y_depth=args.ydepth, x_depth=args.xdepth)
    report = _lazy.check_sufficient_conditions(s, m, alpha, params, cap=args.cap)
    verdict = "pass" if report.passed else "fail"
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
        to_json(report),
        "exact",
        t0,
    )
    _emit(doc)
    return EXIT_PASS if verdict == "pass" else EXIT_VIOLATION


_COMMANDS = {
    "eval": cmd_eval,
    "membership": cmd_membership,
    "identity": cmd_identity,
    "flow": cmd_flow,
    "probe": cmd_probe,
    "bounds": cmd_bounds,
}

# The layer each command runs (it imports the ones below it).  main imports it
# before argparse, so that argparse's objects reuse the heap that compiling
# the layer freed; compiled after argparse, flow's tau2 crosscheck peaked
# 0.3 MiB higher and the exact membership and identity scans 0.1-0.2 MiB.
_COMMAND_LAYER = {
    "membership": "differences",
    "probe": "differences",
    "identity": "series",
    "bounds": "series",
    "flow": "flow",
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] in _COMMAND_LAYER:
        __import__(f"pathfn.{_COMMAND_LAYER[argv[0]]}")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help; pass both through
        return int(exc.code or 0)
    try:
        if args.cap < 0:
            raise ValueError("--cap must be >= 0")
        return _COMMANDS[args.command](args)
    except (PathfnError, ValueError) as exc:
        sys.stderr.write(f"pathfn: {exc}\n")
        return EXIT_ERROR


def entry() -> None:
    raise SystemExit(main())
