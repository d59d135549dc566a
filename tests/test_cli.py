import argparse
import hashlib
import json
import os
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import pathfn.cli as cli
import pathfn.core.funcs
import pathfn.core.scalars
import pathfn.differences
import pathfn.flow
import pathfn.grid
import pathfn.series
from pathfn.core.funcs import eval_exact
from pathfn.core.parse import parse_func_spec
from pathfn.flow import PiecewiseQuadratic
from conftest import (
    SPEC_DIP,
    SPEC_DISTANCE,
    SPEC_PSI0,
    SPEC_TAKAGI2,
    SPEC_U_THETA2,
    SPEC_WEIER_ETA,
)

F = Fraction


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def strip_timing(text: str) -> str:
    return re.sub(r'"timing_ms": [0-9.]+', '"timing_ms": X', text)


# ----------------------------------------------------------------- eval


def test_eval_exact_point(capsys, spec_file):
    code, out, _ = run(capsys, ["eval", "--func", spec_file(SPEC_TAKAGI2), "--points", "1/4"])
    assert code == 0
    assert out.splitlines() == ["x,value", "1/4,1/2"]


def test_eval_grid_row_count(capsys, spec_file):
    code, out, _ = run(capsys, ["eval", "--func", spec_file(SPEC_TAKAGI2), "--grid", "4"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "x,value" and len(lines) == 1 + 17  # j/16 for j = 0..16


def _refuse_work(monkeypatch, *names, module=cli):
    """Make the named entry points of ``module`` fail if a command reaches them."""

    def boom(*args, **kwargs):
        raise AssertionError("work started before the cap check")

    for name in names:
        monkeypatch.setattr(module, name, boom)


def _refuse_library_work(monkeypatch):
    """Make the work inside ``flow_grid`` and ``check_sufficient_conditions``
    fail if a command reaches it, so that their own refusals are tested."""
    _refuse_work(monkeypatch, "membership_scan", "grid_values", "approx_table", module=pathfn.flow)
    _refuse_work(monkeypatch, "_lower_bound_check", "semiconcavity_scan", module=pathfn.series)


def test_eval_grid_cap_exit_2(capsys, spec_file, monkeypatch):
    _refuse_work(monkeypatch, "grid_values", "eval_exact_points", "eval_approx")
    for mode in ("exact", "float"):
        code, out, err = run(
            capsys,
            ["eval", "--func", spec_file(SPEC_TAKAGI2), "--grid", "12", "--cap", "100", "--mode", mode],
        )
        assert code == 2 and out == "" and "4097 points exceeds cap 100" in err


def test_eval_points_orbit_cap_exit_2(capsys, spec_file):
    # 2 has order 5002 mod 5003, so the orbit walk of 1/5003 stops after 100 steps
    code, out, err = run(
        capsys, ["eval", "--func", spec_file(SPEC_TAKAGI2), "--points", "1/5003", "--cap", "100"]
    )
    assert code == 2 and out == "" and "exceeded 100 steps" in err


def test_eval_refuses_a_point_too_long_to_print_before_value_work(capsys, spec_file, monkeypatch):
    # 2 has order 1000002 mod 1000003: the value's denominator would have about
    # 10^6 bits, and the table's entries 10^6 such integers each
    def spy(*args, **kwargs):
        pytest.fail("cycle values computed for a point whose value cannot be printed")

    for module in (pathfn.grid, pathfn.core.funcs):  # where the series rules look it up
        monkeypatch.setattr(module, "close_cycles", spy)
    code, out, err = run(capsys, ["eval", "--func", spec_file(SPEC_TAKAGI2), "--points", "1/1000003"])
    assert code == 2 and out == ""
    assert err == (
        "pathfn: series orbit of 1/1000003 exceeded 14000 steps (radix 2): its exact value "
        "would have more than 14000 bits, too long to print; use --mode float\n"
    )


def test_eval_prints_a_long_orbit_that_fits(capsys, spec_file):
    # 2 has order 8000 mod 16001: a walk of 8000 entries, within the printable size
    code, out, _ = run(capsys, ["eval", "--func", spec_file(SPEC_TAKAGI2), "--points", "1/16001"])
    value = eval_exact(parse_func_spec(json.dumps(SPEC_TAKAGI2)), F(1, 16001))
    assert code == 0 and out == f"x,value\n1/16001,{value}\n"


def test_eval_points_orbit_cap_refuses_before_value_work(capsys, spec_file, monkeypatch):
    # the cap is charged while the sparse table's indices are walked, so the
    # value rules are never reached; uncapped, the same point reaches them
    def refuse(*args, **kwargs):
        raise AssertionError("value work before the orbit cap check")

    for name in ("poly_points", "close_cycles"):  # the grid machinery, where the node rules call it
        monkeypatch.setattr(pathfn.core.funcs, name, refuse)
    code, out, err = run(
        capsys, ["eval", "--func", spec_file(SPEC_TAKAGI2), "--points", "1/5003", "--cap", "100"]
    )
    assert code == 2 and out == "" and "exceeded 100 steps" in err
    with pytest.raises(AssertionError, match="value work"):
        cli.main(["eval", "--func", spec_file(SPEC_TAKAGI2), "--points", "1/5003"])


def test_eval_unsupported_exact_exits_2(capsys, spec_file):
    code, out, err = run(
        capsys, ["eval", "--func", spec_file(SPEC_WEIER_ETA), "--points", "0.5", "--mode", "exact"]
    )
    assert code == 2
    assert "no exact branch" in err


def test_eval_float_mode_bounds(capsys, spec_file):
    code, out, _ = run(
        capsys,
        ["eval", "--func", spec_file(SPEC_WEIER_ETA), "--points", "0.5", "--mode", "float"],
    )
    assert code == 0
    header, row = out.splitlines()
    assert header == "x,value,error_bound"
    x, v, e = row.split(",")
    assert x == "1/2" and abs(float(v)) <= float(e) <= 1e-9


def test_eval_bad_point(capsys, spec_file):
    code, _, err = run(capsys, ["eval", "--func", spec_file(SPEC_TAKAGI2), "--points", "zzz"])
    assert code == 2 and "bad point" in err


@pytest.mark.parametrize("tok", ["inf", "-inf", "Infinity", "NaN"])
def test_points_refuse_a_non_finite_decimal(capsys, spec_file, tok):
    f = spec_file(SPEC_TAKAGI2)
    for argv in (["eval", "--func", f, f"--points={tok}"], ["eval", "--func", f, f"--points=1/2,{tok}", "--mode", "float"],
                 ["probe", "--func", f, f"--x={tok}", "--N", "2", "--mode", "float"]):
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, "") and f"bad point {tok!r}: not a finite number" in err, argv


@pytest.mark.parametrize("tok", ["1e100000", "1e-100000", "-7.5e-5000", "1e4215", "1e-4215", "3.0e-4215"])
def test_points_refuse_a_decimal_too_long_to_print(capsys, spec_file, tok):
    f = spec_file(SPEC_TAKAGI2)
    for argv in (["eval", "--func", f, f"--points={tok}", "--mode", "float"], ["probe", "--func", f, f"--x={tok}", "--N", "2"]):
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, "") and f"bad point {tok!r}: its exact value has more than 14000 bits" in err


def _point(tok):
    """A point on the command line: a rational literal, decimals allowed."""
    return cli._rat(tok, f"point {tok!r}", decimals=True)


def test_point_literals_at_the_bit_limit():
    assert _point("1e4214") == 10**4214
    assert _point("-1e-4214") == F(-1, 10**4214)
    assert _point("0.50000") == F(1, 2)
    # trailing zeros are not digits of the value, and zero is zero at any exponent
    assert _point("1" + "0" * 60000 + "e-60000") == 1
    assert _point("0e-999999999") == _point("0e999999999") == 0


@pytest.mark.parametrize("digits", [4250, 5000])
def test_points_refuse_a_long_ratio_literal_unbuilt(capsys, spec_file, monkeypatch, digits):
    # at 5000 digits Python's int-string limit ended the run with a message that
    # named no point; at 4250 the numerator (about 14100 bits) was accepted.  The
    # point is named by its first 40 characters and its length
    f = spec_file(SPEC_TAKAGI2)
    real = pathfn.core.scalars.Fraction
    monkeypatch.setattr(pathfn.core.scalars, "Fraction",
                        lambda v: pytest.fail("built it") if isinstance(v, str) and len(v) > 4000 else real(v))
    for tok in ("1" * digits + "/3", "3/" + "1" * digits, "-" + "1" * digits):
        want = (f"pathfn: bad point '{tok[:40]}'... ({len(tok)} characters): "
                "its numerator or denominator has more than 4215 digits\n")
        for argv in (["eval", "--func", f, f"--points={tok}", "--mode", "float"], ["probe", "--func", f, f"--x={tok}", "--N", "2"]):
            assert run(capsys, argv) == (2, "", want), argv


def test_ratio_literals_at_the_digit_limit(capsys, spec_file):
    for read in (_point, lambda tok: cli._rat(tok, "--c")):
        assert read("1" * 4215 + "/3") == F(int("1" * 4215), 3)
        assert read("-00007/" + "0" * 4210 + "8") == F(-7, 8)
    with pytest.raises(ValueError, match=r"^bad --m: not a rational literal: '0\.5'$"):
        cli._rat("0.5", "--m")  # decimals are points' alone
    # 4215 digits may still be past 2^14000: that is read off the value
    code, out, err = run(capsys, ["eval", "--func", spec_file(SPEC_TAKAGI2), "--points=1/" + "9" * 4215])
    assert (code, out) == (2, "") and "its exact value has more than 14000 bits" in err


@pytest.mark.parametrize("tok", ["1e999999999", "1e-999999999"])
def test_a_huge_decimal_exponent_is_refused_at_once(spec_file, tok):
    # building this value would take a billion-digit integer
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "pathfn", "eval", "--func", spec_file(SPEC_TAKAGI2), f"--points={tok}", "--mode", "float"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == f"pathfn: bad point {tok!r}: its exact value has more than 14000 bits\n"


def test_missing_file(capsys):
    code, _, err = run(capsys, ["eval", "--func", "/nonexistent.json", "--points", "1/2"])
    assert code == 2 and "cannot read" in err


# ------------------------------------------------------------- membership


def test_membership_pass(capsys, spec_file):
    code, out, _ = run(
        capsys,
        ["membership", "--func", spec_file(SPEC_TAKAGI2), "--c", "2", "--r", "2",
         "--nmax", "6", "--ydepth", "4"],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "pathfn/1"
    assert doc["verdict"] == "pass"
    assert doc["detail"]["worst_margin"] == "0"
    assert doc["detail"]["worst_triplet"] == {"n": 0, "k": 0, "y": "1/2"}


def test_membership_violation_exit_1(capsys, spec_file):
    code, out, _ = run(
        capsys,
        ["membership", "--func", spec_file(SPEC_U_THETA2), "--c", "1/10", "--r", "2",
         "--nmax", "5", "--ydepth", "1"],
    )
    assert code == 1
    doc = json.loads(out)
    assert doc["verdict"] == "fail"
    # margin -2 + 2 (1/10) 2^n grows with n: worst at the deepest level
    assert doc["detail"]["worst_triplet"] == {"n": 5, "k": 0, "y": "1/2"}
    assert doc["detail"]["worst_margin"] == "22/5"


def test_membership_linear_piece_exit_1(capsys, spec_file):
    code, out, _ = run(
        capsys,
        ["membership", "--func", spec_file(SPEC_DISTANCE), "--c", "1", "--r", "2",
         "--nmax", "1", "--ydepth", "1"],
    )
    assert code == 1


def test_membership_rejects_bad_c(capsys, spec_file):
    code, _, err = run(
        capsys,
        ["membership", "--func", spec_file(SPEC_TAKAGI2), "--c", "0", "--r", "2",
         "--nmax", "1", "--ydepth", "1"],
    )
    assert code == 2


def test_membership_cap_exit_2(capsys, spec_file):
    code, _, err = run(
        capsys,
        ["membership", "--func", spec_file(SPEC_TAKAGI2), "--c", "2", "--r", "2",
         "--nmax", "20", "--ydepth", "2", "--cap", "1000"],
    )
    assert code == 2 and "cap" in err


def test_membership_float_report_counts_inconclusive_triplets(capsys, spec_file):
    code, out, _ = run(
        capsys,
        ["membership", "--func", spec_file(SPEC_TAKAGI2), "--c", "2", "--r", "2",
         "--nmax", "3", "--ydepth", "2", "--mode", "float"],
    )
    detail = json.loads(out)["detail"]
    assert code == 2 and detail["verdict"] == "inconclusive"
    assert detail["inconclusive_count"] > 0 and "tol" not in detail
    assert detail["worst_margin"]["error_bound"] < 1e-13


def test_membership_deterministic_reports(capsys, spec_file):
    argv = ["membership", "--func", spec_file(SPEC_TAKAGI2), "--c", "2", "--r", "2",
            "--nmax", "4", "--ydepth", "3"]
    _, out1, _ = run(capsys, argv)
    _, out2, _ = run(capsys, argv)
    assert strip_timing(out1) == strip_timing(out2)
    assert out1 != "" and json.loads(out1)


# --------------------------------------------------------------- identity


def test_identity_pass(capsys, spec_file):
    code, out, _ = run(
        capsys,
        ["identity", "--psi", spec_file(SPEC_DISTANCE), "--r", "2", "--nmax", "6", "--ydepth", "3"],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "pass" and doc["detail"]["offender"] is None


def test_identity_psi0_r3_pass(capsys, spec_file):
    code, out, _ = run(
        capsys,
        ["identity", "--psi", spec_file(SPEC_PSI0), "--r", "3", "--nmax", "4", "--ydepth", "2"],
    )
    assert code == 0


def test_identity_corrupted_evaluator_exit_1(capsys, spec_file, monkeypatch):
    real = pathfn.series.u_eval_exact

    def corrupted(series, p):
        return real(series, p) + F(1, 9)

    monkeypatch.setattr(pathfn.series, "u_eval_exact", corrupted)
    code, out, _ = run(
        capsys,
        ["identity", "--psi", spec_file(SPEC_DISTANCE), "--r", "2", "--nmax", "3", "--ydepth", "1"],
    )
    assert code == 1
    doc = json.loads(out)
    assert doc["verdict"] == "fail" and doc["detail"]["offender"] is not None


def test_identity_cap_exit_2(capsys, spec_file):
    code, _, err = run(
        capsys,
        ["identity", "--psi", spec_file(SPEC_DISTANCE), "--r", "2", "--nmax", "20", "--ydepth", "2",
         "--cap", "1000"],
    )
    assert code == 2 and "cap" in err


def test_identity_unsupported_generator(capsys, spec_file):
    code, _, err = run(
        capsys,
        ["identity", "--psi", spec_file({"kind": "abs_sin"}), "--r", "2", "--nmax", "2",
         "--ydepth", "1"],
    )
    assert code == 2


# ------------------------------------------------------------------- flow


def test_flow_with_crosscheck(capsys, spec_file):
    code, out, _ = run(
        capsys,
        ["flow", "--func", spec_file(SPEC_TAKAGI2), "--c", "2", "--t", "1/4",
         "--crosscheck", "6"],
    )
    assert code == 0
    doc = json.loads(out)
    env = doc["detail"]["envelope"]
    assert env["schema"] == "pathfn/1"
    assert len(env["pieces"]) == 2
    assert doc["detail"]["crosscheck"]["mismatches"] == []


def test_flow_default_depth(capsys, spec_file):
    code, out, _ = run(
        capsys, ["flow", "--func", spec_file(SPEC_TAKAGI2), "--c", "2", "--t", "1/8"]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["detail"]["depth"] == 1 and doc["detail"]["pieces"] == 3


def test_flow_hypothesis_violation_exit_2(capsys, spec_file):
    code, _, err = run(
        capsys,
        ["flow", "--func", spec_file(SPEC_TAKAGI2), "--c", "2", "--t", "1/8", "--n", "0"],
    )
    assert code == 2 and "threshold" in err


def test_flow_not_steep_at_its_depth_exit_2(capsys, spec_file):
    # d passes the depth-0 bound at c = 1 but not the steep bound at depth 5,
    # where brute force finds 31 mismatches with the grid envelope
    base = ["flow", "--func", spec_file(SPEC_DISTANCE), "--c", "1", "--t", "1/64"]
    for extra in ([], ["--crosscheck", "8"]):
        code, out, err = run(capsys, base + extra)
        assert code == 2 and out == "" and "no steepness evidence at c=1" in err
    code, out, err = run(capsys, base + ["--cap", "64"])  # the depth-5 scan's table has 2^6 + 1 points
    assert code == 2 and out == "" and "65 points exceeds cap 64" in err


def test_flow_cap_exit_2(capsys, spec_file, monkeypatch):
    _refuse_library_work(monkeypatch)
    _refuse_work(monkeypatch, "flow_bruteforce_points")
    base = ["flow", "--func", spec_file(SPEC_TAKAGI2), "--c", "2", "--cap", "100"]
    # 2^10 + 1 envelope vertices at t = 1/4096
    code, out, err = run(capsys, base + ["--t", "1/4096"])
    assert code == 2 and out == "" and "1025 points exceeds cap 100" in err
    # two vertices, but (2^6 + 1) (2^8 + 1) brute-force evaluations
    code, out, err = run(capsys, base + ["--t", "1/4", "--crosscheck", "8"])
    assert code == 2 and out == "" and "16705 brute-force evaluations exceeds cap 100" in err


def test_flow_cap_counts_the_depth0_steepness_table(capsys, spec_file, monkeypatch):
    # at r = 30, t = 1 the flow has depth 0, but its depth-0 steepness scan reads
    # a table of 30^3 + 1 points: 26999 triplets, refused before any evaluation
    _refuse_library_work(monkeypatch)
    _refuse_work(monkeypatch, "flow_bruteforce_points")
    argv = ["flow", "--func", spec_file({"kind": "takagi", "r": 30}), "--c", "1", "--t", "1", "--cap", "100"]
    code, out, err = run(capsys, argv)
    assert code == 2 and out == "" and "scan of 26999 triplets exceeds cap 100" in err


def test_flow_exact_without_exact_branch_refuses_before_scans(capsys, spec_file, monkeypatch):
    import pathfn.flow

    monkeypatch.setattr(pathfn.flow, "membership_scan", lambda *a, **k: pytest.fail("steepness scan ran"))
    usin = {"kind": "useries", "r": 2, "psi": {"kind": "sum", "terms": [
        {"kind": "abs_sin"}, {"kind": "scale", "a": "-1/2", "child": {"kind": "dilate", "m": 2, "child": {"kind": "abs_sin"}}}]}}
    argv = ["flow", "--func", spec_file(usin), "--c", "1/8", "--t", "1", "--mode", "exact"]
    code, out, err = run(capsys, argv)
    assert code == 2 and out == "" and "has no exact branch" in err


def test_flow_negative_depths_exit_2(capsys, spec_file, monkeypatch):
    _refuse_work(monkeypatch, "flow_grid", "flow_bruteforce_points")
    base = ["flow", "--func", spec_file(SPEC_TAKAGI2), "--c", "2", "--t", "1/4"]
    code, out, err = run(capsys, base + ["--crosscheck", "-1"])
    assert code == 2 and out == "" and "--crosscheck must be >= 0" in err
    code, out, err = run(capsys, base + ["--n", "-1"])
    assert code == 2 and out == "" and "n must be >= 0" in err


SPEC_SIGNED = {"kind": "sum", "terms": [
    {"kind": "takagi", "r": 2}, {"kind": "scale", "a": "-1/100", "child": {"kind": "distance_power", "p": 2}}]}


def test_flow_crosscheck_cap_counts_signed_windows(capsys, spec_file, monkeypatch):
    # a signed f searches [x - L, x + L] for each x, not r^d + 1 z values: at
    # t = 1/4, d = 3 that is 9 x times 49 z, where the cap used to count 9 * 9
    import pathfn.flow

    _refuse_work(monkeypatch, "flow_grid", "flow_bruteforce_points")
    for name in ("grid_values", "approx_table"):
        monkeypatch.setattr(pathfn.flow, name, lambda *a: pytest.fail("table built before the cap check"))
    base = ["flow", "--func", spec_file(SPEC_SIGNED), "--c", "1"]
    code, out, err = run(capsys, base + ["--t", "1/4", "--crosscheck", "3", "--cap", "100"])
    assert code == 2 and out == "" and "441 brute-force evaluations exceeds cap 100" in err
    code, out, err = run(capsys, base + ["--t", "1/4", "--crosscheck", "3", "--cap", "440"])
    assert code == 2 and "441 brute-force evaluations" in err
    # the window grows like sqrt(t): about 2.7e8 evaluations, refused under the default cap
    code, out, err = run(capsys, base + ["--t", "1000000", "--crosscheck", "10"])
    count = int(re.search(r"scan of (\d+) brute-force evaluations", err).group(1))
    assert code == 2 and out == "" and count > 2 * 10**8


def test_flow_crosscheck_signed_window_runs_at_its_count(capsys, spec_file):
    base = ["flow", "--func", spec_file(SPEC_SIGNED), "--c", "1", "--t", "1/4", "--crosscheck", "3"]
    code, out, _ = run(capsys, base + ["--cap", "441"])
    assert code == 0 and json.loads(out)["detail"]["crosscheck"]["mismatches"] == []


SPEC_TAKAGI3 = {"kind": "takagi", "r": 3}
TAU3_FLOW = ["--c", "3/2", "--t", "1/9", "--r", "3", "--crosscheck", "3"]


def test_flow_float_crosscheck_tau3_passes(capsys, spec_file):
    # the float envelope runs through non-dyadic centre values; comparing them
    # for equality with the exact brute force reported 12 false mismatches
    for mode in ("exact", "float"):
        code, out, _ = run(capsys, ["flow", "--func", spec_file(SPEC_TAKAGI3), *TAU3_FLOW, "--mode", mode])
        doc = json.loads(out)
        assert code == 0 and doc["verdict"] == "pass", mode
        assert doc["detail"]["crosscheck"] == {"mismatches": [], "points": 28, "radix_depth": 3}


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_flow_crosscheck_catches_a_shifted_vertex(capsys, spec_file, monkeypatch, mode):
    # shifting the vertex z = 1/3 up by 1/100, far more than its error bound,
    # must still show as a mismatch in float mode
    real = cli.flow_grid

    def shifted(q, cap):
        pq = real(q, cap=cap)
        assert pq.err < 1e-12
        # over the denominator 100 D, the vertex value v/D is 100 v and 1/100 is D
        vals = tuple(100 * v + (pq.D if F(k, pq.R) == F(1, 3) else 0) for k, v in zip(pq.ks, pq.vals))
        return PiecewiseQuadratic(pq.t, pq.R, pq.ks, 100 * pq.D, vals, pq.err)

    monkeypatch.setattr(cli, "flow_grid", shifted)
    code, out, _ = run(capsys, ["flow", "--func", spec_file(SPEC_TAKAGI3), *TAU3_FLOW, "--mode", mode])
    doc = json.loads(out)
    assert code == 1 and doc["verdict"] == "fail"
    assert "1/3" in doc["detail"]["crosscheck"]["mismatches"]


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_flow_crosscheck_builds_one_table(capsys, spec_file, monkeypatch, mode):
    import pathfn.flow

    sizes = []
    for name in ("grid_values", "approx_table"):
        real = getattr(pathfn.flow, name)
        monkeypatch.setattr(pathfn.flow, name, lambda f, Q, _real=real: sizes.append(Q) or _real(f, Q))
    code, out, _ = run(
        capsys,
        ["flow", "--func", spec_file(SPEC_TAKAGI2), "--c", "2", "--t", "1/8", "--crosscheck", "6", "--mode", mode],
    )
    assert code == 0 and json.loads(out)["detail"]["crosscheck"]["points"] == 65
    # the scan's table on r^(n+1), which holds the envelope's vertices (a float
    # flow rounds them), then one brute-force table
    assert sizes == [4, 64]


def test_flow_samples_are_written_a_run_of_lines_at_a_time(spec_file, monkeypatch):
    # every CSV line was formatted into one list before the first was written
    from pathfn.core.scalars import _CHUNK_ROWS

    formatted, writes = [], []
    real = pathfn.flow.format_ratios

    def counting(nums, den):
        out = real(nums, den)
        if isinstance(nums, range):  # the samples' x column; the envelope's pieces pass tuples
            formatted.append(len(out))
        return out

    class Out:
        def write(self, text):
            writes.append((text, sum(formatted)))

    monkeypatch.setattr(pathfn.flow, "format_ratios", counting)
    monkeypatch.setattr(sys, "stdout", Out())
    argv = ["flow", "--func", spec_file(SPEC_TAKAGI2), "--c", "2", "--t", "1/65536", "--samples", "4097"]
    assert cli.main(argv) == 0
    first = next(i for i, (text, _) in enumerate(writes) if text.startswith("x,value\n"))
    csv, done = writes[first:], 0
    assert "".join(text for text, _ in csv).count("\n") == 4098
    for text, count in csv:
        lines = text.count("\n")
        assert lines <= _CHUNK_ROWS
        done += lines
        assert count <= done + _CHUNK_ROWS  # formatted at most a run ahead of the writes


def test_flow_csv_outputs(capsys, spec_file, tmp_path):
    csv_path = tmp_path / "curve.csv"
    code, out, _ = run(
        capsys,
        ["flow", "--func", spec_file(SPEC_TAKAGI2), "--c", "2", "--t", "1/4",
         "--samples", "9", "--csv", str(csv_path)],
    )
    assert code == 0
    lines = csv_path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "x,value" and len(lines) == 10
    assert lines[1] == "0,0" and lines[-1] == "1,0"
    # H(1/2) = 1/2 at the kink
    assert "1/2,1/2" in lines
    # without --csv the samples follow the report on stdout
    code2, out2, _ = run(
        capsys,
        ["flow", "--func", spec_file(SPEC_TAKAGI2), "--c", "2", "--t", "1/4", "--samples", "5"],
    )
    assert code2 == 0 and "x,value" in out2


def test_flow_csv_to_an_unwritable_path_exits_2(capsys, spec_file, tmp_path):
    # used to end in a FileNotFoundError traceback with exit 1, the code of a violation
    path = tmp_path / "missing" / "x.csv"
    argv = ["flow", "--func", spec_file(SPEC_TAKAGI2), "--c", "2", "--t", "1/4", "--samples", "3", "--csv", str(path)]
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "") and err.startswith(f"pathfn: cannot write {path}: ")
    assert not path.parent.exists()


def test_flow_report_does_not_build_as_json(capsys, spec_file, monkeypatch):
    # the report's pieces are written from the envelope's integers, run by run
    monkeypatch.setattr(PiecewiseQuadratic, "as_json", lambda self: pytest.fail("built the JSON pieces"))
    for extra in (["--samples", "5"], ["--mode", "float", "--crosscheck", "4"]):
        code, out, _ = run(capsys, ["flow", "--func", spec_file(SPEC_TAKAGI2), "--c", "2", "--t", "1/1024", *extra])
        doc, end = json.JSONDecoder().raw_decode(out)
        assert code == 0 and len(doc["detail"]["envelope"]["pieces"]) == doc["detail"]["pieces"] == 257


def test_float_flow_reports_its_error_bound(capsys, spec_file):
    # float flow used to print only the centres' envelope, under an "x,value" header
    argv = ["flow", "--func", spec_file(SPEC_TAKAGI2), "--c", "2", "--t", "1/8", "--samples", "3"]
    outputs = {}
    for mode in ("exact", "float"):
        code, out, _ = run(capsys, argv + ["--mode", mode])
        doc, end = json.JSONDecoder().raw_decode(out)
        assert code == 0
        outputs[mode] = doc["detail"], out[end:].strip().splitlines()
    detail, lines = outputs["exact"]
    assert "error_bound" not in detail and lines[0] == "x,value"
    detail, float_lines = outputs["float"]
    err = detail["error_bound"]
    assert Fraction(err) >= 0 and float_lines[0] == "x,value,error_bound" and len(float_lines) == 4
    for exact_row, float_row in zip(lines[1:], float_lines[1:]):
        x, value = exact_row.split(",")
        fx, fvalue, ferr = float_row.split(",")
        assert fx == x and ferr == err and abs(Fraction(fvalue) - Fraction(value)) <= Fraction(err)


def test_flow_samples_count_against_the_cap(capsys, spec_file, monkeypatch):
    # 200000 sample rows at cap 1000 used to run for 4 s and exit 0
    _refuse_work(monkeypatch, "flow_grid", "flow_bruteforce_points")
    argv = ["flow", "--func", spec_file(SPEC_TAKAGI2), "--c", "2", "--t", "1/4", "--samples", "200000", "--cap", "1000"]
    code, out, err = run(capsys, argv)
    assert code == 2 and out == "" and "scan of 200000 sample rows exceeds cap 1000" in err


@pytest.mark.parametrize(
    "extra, message",
    [(["--csv", "curve.csv"], "--csv needs --samples"), (["--samples", "1"], "--samples must be 0 or >= 2"),
     (["--samples", "-5"], "--samples must be 0 or >= 2")],
    ids=["csv-without-samples", "one-sample", "negative-samples"],
)
def test_flow_bad_sample_flags_exit_2_before_work(capsys, spec_file, monkeypatch, tmp_path, extra, message):
    # --csv without --samples used to exit 0 and write nothing
    _refuse_work(monkeypatch, "flow_grid", "flow_bruteforce_points")
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, ["flow", "--func", spec_file(SPEC_TAKAGI2), "--c", "2", "--t", "1/4"] + extra)
    assert code == 2 and out == "" and message in err
    assert not (tmp_path / "curve.csv").exists()


@pytest.mark.parametrize("extra", [[], ["--crosscheck", "9"]], ids=["samples", "crosscheck"])
@pytest.mark.parametrize("mode", ["exact", "float"])
def test_flow_report_builds_no_fraction_pieces(capsys, spec_file, monkeypatch, mode, extra):
    # the report, the samples and the crosscheck's values come from the
    # envelope's integers; only library callers read Fraction pieces
    import pathfn.flow

    monkeypatch.setattr(pathfn.flow, "Piece", lambda *a: pytest.fail("built a Fraction piece"))
    argv = ["flow", "--func", spec_file(SPEC_TAKAGI2), "--c", "2", "--t", "1/1024", "--samples", "65", "--mode", mode]
    code, out, _ = run(capsys, argv + extra)
    detail = json.loads(out.split("\nx,value")[0])["detail"]
    assert code == 0 and detail["pieces"] == 257 and detail.get("crosscheck", {}).get("mismatches") in (None, [])


@pytest.mark.parametrize(
    "extra, digest",
    [(["--t", "1/65536", "--samples", "4097"], "a5f49682f9f89e6e756c4b31f63bcf20e7572f77853055f3573d5aa029651c91"),
     (["--t", "1/4096", "--mode", "float"], "a5a2d55fbe3b300d9a971cdfb76dafb96da1a1e06c1b48f712d74bfdcb9ef716")],
    ids=["exact-samples", "float"],
)
def test_flow_stdout_is_pinned(capsys, spec_file, extra, digest):
    # sha256 of the whole stdout, timing_ms line and float mode's later
    # error_bound line removed, recorded before the envelope kept its pieces in
    # integers and reports got their own encoder
    code, out, _ = run(capsys, ["flow", "--func", spec_file(SPEC_TAKAGI2), "--c", "2"] + extra)
    assert code == 0
    bound = ['"1/9007199254740992",'] if "float" in extra else []  # 2^-53
    assert re.findall(r'\n    "error_bound": ([^\n]*)', out) == bound
    stripped = re.sub(r'\n  "timing_ms": [^\n]*|\n    "error_bound": [^\n]*', "", out)
    assert hashlib.sha256(stripped.encode()).hexdigest() == digest


# ------------------------------------------------------------------ probe


def test_probe_exact_csv(capsys, spec_file):
    code, out, _ = run(
        capsys, ["probe", "--func", spec_file(SPEC_TAKAGI2), "--x", "1/3", "--N", "12"]
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,delta_plus,delta_minus,gap"
    assert len(lines) == 14  # header + depths 0..12
    for line in lines[1:]:
        gap = Fraction(line.split(",")[3])
        assert gap <= -2


def test_probe_grid_point_with_y(capsys, spec_file):
    code, out, _ = run(
        capsys,
        ["probe", "--func", spec_file(SPEC_TAKAGI2), "--x", "0", "--N", "10", "--y", "1/2"],
    )
    assert code == 0
    for line in out.splitlines()[1:]:
        assert Fraction(line.split(",")[3]) == -2


def test_probe_distance_linear(capsys, spec_file):
    code, out, _ = run(
        capsys, ["probe", "--func", spec_file(SPEC_DISTANCE), "--x", "1/4", "--N", "5"]
    )
    assert code == 0
    gaps = [Fraction(line.split(",")[3]) for line in out.splitlines()[1:]]
    assert gaps[0] == -2 and all(g == 0 for g in gaps[1:])


def test_probe_cap_exit_2(capsys, spec_file, monkeypatch):
    _refuse_work(monkeypatch, "divergence_probe")
    code, out, err = run(
        capsys, ["probe", "--func", spec_file(SPEC_TAKAGI2), "--x", "1/3", "--N", "40", "--cap", "100"]
    )
    assert code == 2 and out == "" and "2583 orbit steps exceeds cap 100" in err


def test_probe_charges_its_orbit_steps(capsys, spec_file, monkeypatch):
    # a depth-n point walks n + 1 orbit entries, so a probe's work grows like N^3;
    # charged 3(N + 1) point evaluations, N = 6000 ran for about 47 s under the
    # default cap.  It is charged 3(N + 1)(N + 2)/2 orbit steps before any work.
    _refuse_work(monkeypatch, "divergence_probe")
    base = ["probe", "--func", spec_file(SPEC_TAKAGI2), "--x", "1/3", "--N"]
    for N, steps in ((3000, 13513503), (6000, 54027003)):
        code, out, err = run(capsys, base + [str(N)])
        assert (code, out) == (2, "") and f"scan of {steps} orbit steps exceeds cap 10000000" in err
    for N in ("1000", "-5000"):  # 1504503 steps run; a negative depth is left to the probe's own refusal
        with pytest.raises(AssertionError, match="work started"):
            cli.main(base + [N])


def test_probe_float_fallback_column(capsys, spec_file):
    code, out, _ = run(
        capsys,
        ["probe", "--func", spec_file(SPEC_TAKAGI2), "--x", "414213562373/1000000000000",
         "--N", "6"],
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,delta_plus,delta_minus,gap,error_bound"
    for line in lines[1:]:
        parts = line.split(",")
        assert float(parts[3]) + float(parts[4]) <= -2


# ----------------------------------------------------------------- bounds


def test_bounds_distance(capsys, spec_file):
    code, out, _ = run(
        capsys,
        ["bounds", "--psi", spec_file(SPEC_DISTANCE), "--m", "1", "--alpha", "0", "--r", "2"],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "pass"
    assert doc["detail"]["c"] == "2"
    assert doc["detail"]["lower_bound_mode"] == "exact"


@pytest.mark.parametrize("spec", [SPEC_DISTANCE, SPEC_TAKAGI2], ids=["distance", "takagi2"])
def test_bounds_makes_no_per_point_exact_evaluation(capsys, spec_file, monkeypatch, spec):
    # condition (i) reads one grid table; the chain it implies is not re-checked
    def refuse(*args, **kwargs):
        raise AssertionError("bounds evaluated a point")

    for module, names in (
        (pathfn.series, ("eval_exact", "u_eval_exact")),
        (pathfn.core.funcs, ("eval_exact", "eval_exact_points")),
        (pathfn.differences, ("eval_exact_points",)),
    ):
        for name in names:
            monkeypatch.setattr(module, name, refuse)
    code, out, _ = run(capsys, ["bounds", "--psi", spec_file(spec), "--m", "1", "--alpha", "0", "--r", "2"])
    assert code == 0 and json.loads(out)["verdict"] == "pass"


def test_bounds_psi0(capsys, spec_file):
    code, out, _ = run(
        capsys,
        ["bounds", "--psi", spec_file(SPEC_PSI0), "--m", "1", "--alpha", "2", "--r", "2"],
    )
    assert code == 0
    assert json.loads(out)["detail"]["c"] == "1"


def test_bounds_cap_exit_2(capsys, spec_file, monkeypatch):
    _refuse_library_work(monkeypatch)
    argv = ["bounds", "--psi", spec_file(SPEC_PSI0), "--m", "1", "--alpha", "2", "--r", "2"]
    # the semiconcavity scan at nmax 6, ydepth 3: 127 * 7 triplets
    code, out, err = run(capsys, argv + ["--nmax", "6", "--cap", "10"])
    assert code == 2 and out == "" and "889 triplets exceeds cap 10" in err
    # at ydepth 1 the 127 triplets fit, but the grid table of 2^7 + 1 points does not
    code, out, err = run(capsys, argv + ["--nmax", "6", "--ydepth", "1", "--cap", "128"])
    assert code == 2 and out == "" and "129 points exceeds cap 128" in err


def test_series_commands_radix_error_exit_2(capsys, spec_file):
    for command in ("identity", "bounds"):
        extra = ["--nmax", "2", "--ydepth", "1"] if command == "identity" else ["--m", "1", "--alpha", "0"]
        code, out, err = run(capsys, [command, "--psi", spec_file(SPEC_DISTANCE), "--r", "1"] + extra)
        assert code == 2 and out == "" and "r must be an integer >= 2" in err


def _refuse_huge_point_sets(monkeypatch):
    """Make building a y set, a sample set or the grid table of ``bounds`` of
    more than 10^6 points fail at once."""

    def guard(real):
        def wrapped(r, depth):
            if r**depth > 10**6:
                raise AssertionError(f"built {r}^{depth} points before the cap check")
            return real(r, depth)

        return wrapped

    def table_guard(f, Q):
        if Q > 10**6:
            raise AssertionError(f"built a table of {Q} + 1 points before the cap check")
        return pathfn.grid.grid_values(f, Q)

    for module, name in ((cli, "radix_y_set"), (cli, "radix_x_samples"), (pathfn.series, "radix_y_set")):
        monkeypatch.setattr(module, name, guard(getattr(module, name)))
    monkeypatch.setattr(pathfn.series, "grid_values", table_guard)


@pytest.mark.parametrize(
    "argv,message",
    [
        (["membership", "--func", SPEC_TAKAGI2, "--c", "2", "--nmax", "1", "--ydepth", "40", "--cap", "100"],
         f"scan of {3 * (2**40 - 1)} triplets exceeds cap 100"),
        (["identity", "--psi", SPEC_DISTANCE, "--nmax", "1", "--ydepth", "40", "--cap", "100"],
         f"scan of {3 * (2**40 - 1)} triplets exceeds cap 100"),
        (["bounds", "--psi", SPEC_DISTANCE, "--m", "1", "--alpha", "0", "--ydepth", "40", "--cap", "100"],
         f"scan of {31 * (2**40 - 1)} triplets exceeds cap 100"),
        (["bounds", "--psi", SPEC_DISTANCE, "--m", "1", "--alpha", "0", "--xdepth", "40", "--cap", "1000"],
         f"scan of {2**40 + 1} sample points exceeds cap 1000"),
    ],
    ids=["membership", "identity", "bounds-ydepth", "bounds-xdepth"],
)
def test_point_sets_are_capped_before_they_are_built(capsys, spec_file, monkeypatch, argv, message):
    _refuse_huge_point_sets(monkeypatch)
    argv = [argv[0], argv[1], spec_file(argv[2]), "--r", "2"] + argv[3:]
    code, out, err = run(capsys, argv)
    assert code == 2 and out == "" and message in err


SPEC_TAKAGI3 = {"kind": "takagi", "r": 3}


@pytest.mark.parametrize(
    "argv",
    [
        ["membership", "--func", SPEC_TAKAGI3, "--c", "1", "--r", "3", "--nmax", "1", "--ydepth", "300000", "--cap", "100"],
        ["membership", "--func", SPEC_TAKAGI3, "--c", "1", "--r", "3", "--nmax", "1", "--ydepth", "30000000",
         "--cap", "100"],
        ["identity", "--psi", SPEC_DISTANCE, "--r", "3", "--nmax", "1", "--ydepth", "300000", "--cap", "100"],
        ["membership", "--func", SPEC_TAKAGI3, "--c", "1", "--r", "3", "--nmax", "300000", "--ydepth", "1",
         "--cap", "100"],
        ["eval", "--func", SPEC_TAKAGI2, "--grid", "20000", "--cap", "100"],
        ["flow", "--func", SPEC_TAKAGI2, "--c", "2", "--t", "1/4", "--n", "20000", "--cap", "100"],
        ["bounds", "--psi", SPEC_DISTANCE, "--m", "1", "--alpha", "0", "--r", "2", "--xdepth", "20000",
         "--cap", "1000"],
        ["flow", "--func", SPEC_TAKAGI2, "--c", "2", "--t", "1/4", "--crosscheck", "63", "--cap", "100"],
    ],
    ids=["membership-ydepth", "membership-ydepth-30M", "identity-ydepth", "membership-nmax", "eval-grid",
         "flow-n", "bounds-xdepth", "flow-crosscheck"],
)
def test_huge_sizes_are_refused_quickly(capsys, spec_file, monkeypatch, argv):
    # counts past Python's int-to-string limit used to end in its conversion
    # error, a crosscheck at depth 63 in an OverflowError, and depth 30000000
    # spent about 20 s building 3^30000000 before the refusal
    _refuse_huge_point_sets(monkeypatch)
    _refuse_library_work(monkeypatch)
    _refuse_work(monkeypatch, "membership_scan", "identity_residual_scan", "grid_values")
    argv = [argv[0], argv[1], spec_file(argv[2])] + argv[3:]
    t0 = time.perf_counter()
    code, out, err = run(capsys, argv)
    assert code == 2 and out == "" and "exceeds cap" in err
    assert time.perf_counter() - t0 < 5.0


def test_bounds_negative_xdepth_exit_2(capsys, spec_file):
    argv = ["bounds", "--psi", spec_file(SPEC_DISTANCE), "--m", "1", "--alpha", "0", "--r", "2", "--xdepth", "-1"]
    code, out, err = run(capsys, argv)
    assert code == 2 and out == "" and "depth must be >= 0" in err


class _ScanReached(Exception):
    pass


@pytest.mark.parametrize(
    "argv",
    [
        ["bounds", "--psi", SPEC_DISTANCE, "--m", "1", "--alpha", "0", "--r", "2", "--nmax", "20"],
        ["flow", "--func", SPEC_TAKAGI2, "--c", "2", "--t", "1/16777216", "--n", "23"],
    ],
    ids=["bounds", "flow"],
)
def test_cap_reaches_the_scans_inside_flow_and_bounds(capsys, spec_file, monkeypatch, argv):
    # both pass the command's own check at cap 2*10^7 (a 14680057- and a
    # 16777215-triplet scan) and used to exit 2 from their inner scans under the
    # library default of 10^7; the spies stop before any scan work
    import pathfn.flow

    caps = []

    def spy(*args, cap=None):
        caps.append(cap)
        raise _ScanReached

    monkeypatch.setattr(pathfn.flow, "membership_scan", spy)
    monkeypatch.setattr(pathfn.series, "semiconcavity_scan", spy)
    with pytest.raises(_ScanReached):
        cli.main([argv[0], argv[1], spec_file(argv[2])] + argv[3:] + ["--cap", "20000000"])
    assert caps == [20000000]


_CAPPED_ENTRY_POINTS = {
    "membership_scan", "semiconcavity_scan", "identity_residual_scan", "flow_grid", "check_sufficient_conditions"
}


def test_every_capped_entry_point_is_called_with_a_cap():
    # a call that omits cap runs under the library default, whatever the caller's cap
    import ast
    import pathlib

    missing = []
    for path in sorted(pathlib.Path(cli.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for call in ast.walk(fn):
                if not isinstance(call, ast.Call):
                    continue
                name = getattr(call.func, "id", getattr(call.func, "attr", None))
                if name in _CAPPED_ENTRY_POINTS and not any(k.arg == "cap" for k in call.keywords):
                    missing.append(f"{path.name}:{call.lineno} {fn.name} -> {name}")
    assert not missing


def test_every_import_is_used_or_exported():
    # an import that a deletion leaves behind; a package __init__ re-exports by design
    import ast
    import pathlib

    unused = []
    for path in sorted(pathlib.Path(cli.__file__).parent.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update({a.asname or a.name.split(".")[0]: node.lineno for a in node.names})
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update({a.asname or a.name: node.lineno for a in node.names})
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
                used.update(ast.literal_eval(node.value))
        where = path.relative_to(path.parents[1])
        unused += [f"{where}:{line} {name}" for name, line in imported.items() if name not in used]
    assert not unused


def test_identity_and_bounds_take_no_mode_flag(capsys, spec_file):
    argvs = {
        "identity": ["identity", "--psi", spec_file(SPEC_DISTANCE), "--r", "2", "--nmax", "2", "--ydepth", "1"],
        "bounds": ["bounds", "--psi", spec_file(SPEC_DISTANCE), "--m", "1", "--alpha", "0", "--r", "2"],
    }
    for argv in argvs.values():
        for mode in ("exact", "float"):
            code, out, err = run(capsys, argv + ["--mode", mode])
            assert code == 2 and out == "" and "unrecognized arguments: --mode" in err
        code, out, _ = run(capsys, argv)
        assert code == 0 and json.loads(out)["mode"] == "exact"


def test_bounds_refuses_a_generator_without_exact_branch_before_work(capsys, spec_file, monkeypatch):
    _refuse_work(monkeypatch, "check_sufficient_conditions")
    code, out, err = run(
        capsys, ["bounds", "--psi", spec_file({"kind": "abs_sin"}), "--m", "1", "--alpha", "0", "--r", "2"]
    )
    assert code == 2 and out == "" and "exact-capable generator" in err


def test_every_mode_flag_runs_float(capsys, spec_file):
    """Each subcommand that accepts --mode honours --mode float: its report says
    so, or its CSV carries the error_bound column."""
    takagi2, takagi3 = spec_file(SPEC_TAKAGI2), spec_file(SPEC_TAKAGI3, "takagi3.json")
    float_runs = {
        "eval": ["--func", takagi2, "--points", "1/3"],
        "membership": ["--func", takagi2, "--c", "1", "--r", "2", "--nmax", "2", "--ydepth", "2"],
        "flow": ["--func", takagi3, *TAU3_FLOW],
        "probe": ["--func", takagi2, "--x", "1/3", "--N", "4"],
    }
    subparsers = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    with_mode = {name for name, p in subparsers.choices.items() if any("--mode" in a.option_strings for a in p._actions)}
    assert with_mode == set(float_runs)
    for command, argv in float_runs.items():
        _, out, _ = run(capsys, [command, *argv, "--mode", "float"])
        if out.startswith("{"):
            assert json.loads(out)["mode"] == "float", command
        else:
            assert out.splitlines()[0].endswith(",error_bound"), command


def test_bounds_theta_fails(capsys, spec_file):
    code, out, _ = run(
        capsys,
        ["bounds", "--psi", spec_file({"kind": "theta_splice", "r": 2}), "--m", "1",
         "--alpha", "2", "--r", "2"],
    )
    assert code == 1
    doc = json.loads(out)
    assert doc["verdict"] == "fail"
    witness = Fraction(doc["detail"]["lower_bound_witness"])
    assert 0 < witness < F(1, 100)


def test_bounds_narrow_dip_has_exact_witness(capsys, spec_file):
    # psi - d = x (x - e) on [0, 1/2], e = 1/(3 * 2^17): negative only on (0, e),
    # narrower than any dyadic sample of the piece reaches
    e = F(1, 3 * 2**17)
    c1 = 1 - e
    psi = {"kind": "poly_spline", "knots": ["0", "1/2", "1"],
           "pieces": [["0", str(c1), "1"], [str(c1 + 1), str(-c1 - 2), "1"]]}
    code, out, _ = run(capsys, ["bounds", "--psi", spec_file(psi), "--m", "1", "--alpha", "2", "--r", "2"])
    assert code == 1
    detail = json.loads(out)["detail"]
    assert detail["lower_bound_mode"] == "exact"
    x = Fraction(detail["lower_bound_witness"])
    assert 0 < x < e
    assert eval_exact(parse_func_spec(json.dumps(psi)), x) - x < 0  # d(x) = x here



def test_bounds_refutes_a_piece_after_an_undecided_one(capsys, spec_file):
    code, out, _ = run(capsys, ["bounds", "--psi", spec_file(SPEC_DIP), "--m", "1", "--alpha", "3", "--r", "2"])
    assert code == 1
    doc = json.loads(out)
    assert doc["verdict"] == "fail"
    detail = doc["detail"]
    assert (detail["passed"], detail["c"]) == (False, None)
    assert detail["lower_bound_mode"] == "exact" and detail["lower_bound_witness"] == "1199/2000"
    assert detail["semiconcavity"]["scanned"] == 7  # (ii) on its depth-0 slice


def test_bounds_passes_a_generator_without_pieces_on_samples(capsys, spec_file):
    code, out, _ = run(capsys, ["bounds", "--psi", spec_file(SPEC_TAKAGI2), "--m", "1", "--alpha", "0", "--r", "2"])
    assert code == 0
    detail = json.loads(out)["detail"]
    assert (detail["passed"], detail["c"]) == (True, "2")
    assert detail["lower_bound_mode"] == "sampled" and detail["lower_bound_witness"] is None


# ------------------------------------------------------------ shared shape


def test_version_flag(capsys):
    code, out, _ = run(capsys, ["--version"])
    assert code == 0


def test_reports_carry_schema_and_inputs(capsys, spec_file):
    _, out, _ = run(
        capsys,
        ["membership", "--func", spec_file(SPEC_TAKAGI2), "--c", "2", "--r", "2",
         "--nmax", "2", "--ydepth", "1"],
    )
    doc = json.loads(out)
    assert doc["schema"] == "pathfn/1"
    assert re.fullmatch(r"[0-9a-f]{64}", doc["inputs"]["func_sha256"])
    assert doc["command"] == "membership"
    assert isinstance(doc["timing_ms"], float)
    assert doc["mode"] == "exact"


# ------------------------------------------------------ flags and digests

# One command per rational flag other than the points; "TOK" is the flag's value.
_RATIONAL_FLAGS = [
    ("--c", ["membership", "--func", "F", "--c=TOK", "--r", "2", "--nmax", "1", "--ydepth", "1"]),
    ("--c", ["flow", "--func", "F", "--c=TOK", "--t", "1/4"]),
    ("--t", ["flow", "--func", "F", "--c", "2", "--t=TOK"]),
    ("--y", ["probe", "--func", "F", "--x", "1/3", "--N", "2", "--y=TOK"]),
    ("--m", ["bounds", "--psi", "P", "--m=TOK", "--alpha", "0", "--r", "2"]),
    ("--alpha", ["bounds", "--psi", "P", "--m", "1", "--alpha=TOK", "--r", "2"]),
]


def _flag_argv(spec_file, argv, tok):
    files = {"F": spec_file(SPEC_TAKAGI2, "takagi2.json"), "P": spec_file(SPEC_DISTANCE, "dist.json")}
    return [files.get(a, a.replace("TOK", tok)) for a in argv]


@pytest.mark.parametrize("digits", [4250, 5000])
@pytest.mark.parametrize("flag, argv", _RATIONAL_FLAGS, ids=[f"{a[0]}{f}" for f, a in _RATIONAL_FLAGS])
def test_rational_flags_refuse_a_long_literal_unbuilt(capsys, spec_file, monkeypatch, flag, argv, digits):
    # at 5000 digits Python's int-string limit ended the run with a message that
    # named no flag; at 4250 the value (about 14100 bits) was accepted
    real = pathfn.core.scalars.Fraction
    monkeypatch.setattr(pathfn.core.scalars, "Fraction",
                        lambda v: pytest.fail("built it") if isinstance(v, str) and len(v) > 4000 else real(v))
    want = f"pathfn: bad {flag}: its numerator or denominator has more than 4215 digits\n"
    for tok in ("1" * digits + "/3", "3/" + "1" * digits, "-" + "1" * digits):
        assert run(capsys, _flag_argv(spec_file, argv, tok)) == (2, "", want), tok


@pytest.mark.parametrize("flag, argv", _RATIONAL_FLAGS, ids=[f"{a[0]}{f}" for f, a in _RATIONAL_FLAGS])
def test_rational_flags_refuse_a_value_past_the_bit_limit(capsys, spec_file, flag, argv):
    # 4215 digits may still be past 2^14000: that is read off the value
    want = f"pathfn: bad {flag}: its exact value has more than 14000 bits\n"
    assert run(capsys, _flag_argv(spec_file, argv, "1/" + "9" * 4215)) == (2, "", want)


@pytest.mark.parametrize("argv, want", [
    (["membership", "--func", "F", "--c", "\u0662", "--r", "2", "--nmax", "1", "--ydepth", "1"],
     "bad --c: not a rational literal: '\u0662'"),
    (["eval", "--func", "F", "--points", "\u0661/\u0663"], "bad point '\u0661/\u0663': not a rational literal: '\u0661/\u0663'"),
    (["flow", "--func", "F", "--c", "2", "--t", "\u0661/\u0664"], "bad --t: not a rational literal: '\u0661/\u0664'"),
    (["probe", "--func", "F", "--x", "\uff11/3", "--N", "2"], "bad point '\uff11/3': not a rational literal: '\uff11/3'"),
], ids=["membership-c", "eval-points", "flow-t", "probe-x"])
def test_literals_with_non_ascii_digits_are_refused(capsys, spec_file, argv, want):
    # ARABIC-INDIC and FULLWIDTH digits are decimal digits to Python, and were read as such
    assert run(capsys, _flag_argv(spec_file, argv, "")) == (2, "", f"pathfn: {want}\n")


@pytest.mark.parametrize("spec, argv, names", [
    ({"kind": "scale", "a": "x" * 5000, "child": {"kind": "distance"}}, ["eval", "--points", "0"], "$.a: "),
    ({"kind": "takagi", "r": "x" * 5000}, ["eval", "--points", "0"], "$.r: "),
    ({"kind": "k" * 5000}, ["eval", "--points", "0"], "$: "),
    (SPEC_TAKAGI2, ["membership", "--c", "y" * 5000, "--r", "2", "--nmax", "1", "--ydepth", "1"], "bad --c: "),
    (SPEC_TAKAGI2, ["eval", "--points", "x" * 5000], "bad point 'xxx"),
    (SPEC_TAKAGI2, ["probe", "--x", "1/" + "0" * 4000, "--N", "2"], "bad point '1/000"),
], ids=["spec-a", "spec-r", "spec-kind", "membership-c", "eval-points", "probe-x"])
def test_an_unreadable_long_literal_is_quoted_short(capsys, spec_file, spec, argv, names):
    # a 5000-character literal was echoed whole: 5 KB of stderr, 10 KB for a point
    code, out, err = run(capsys, [argv[0], "--func", spec_file(spec), *argv[1:]])
    assert (code, out) == (2, "") and err.startswith(f"pathfn: {names}")
    assert len(err.encode()) < 300 and " characters)" in err


def test_running_out_of_memory_exits_2(capsys, spec_file, monkeypatch):
    # an uncaught MemoryError ended in a traceback with exit 1, the code of a violation
    def exhausted(args):
        raise MemoryError

    monkeypatch.setitem(cli._COMMANDS, "eval", exhausted)
    code, out, err = run(capsys, ["eval", "--func", spec_file(SPEC_TAKAGI2), "--points", "0"])
    assert (code, out) == (2, "") and err.startswith("pathfn: out of memory") and err.count("\n") == 1


def test_unexpected_fields_are_named_short(capsys, spec_file):
    # every unexpected field name was echoed whole: one 5000-character key gave
    # a 5034-byte message
    code, out, err = run(capsys, ["eval", "--func", spec_file({"kind": "distance", "k" * 5000: 1}), "--points", "0"])
    assert (code, out) == (2, "") and err.startswith("pathfn: $: unexpected fields (1): 'kkk")
    assert len(err.encode()) < 300 and "(5000 characters)" in err
    spec = {"kind": "distance", "d": 1, "b": 1, "k" * 5000: 1, "a": 1, "c": 1}
    code, out, err = run(capsys, ["eval", "--func", spec_file(spec), "--points", "0"])
    assert (code, out, err) == (2, "", "pathfn: $: unexpected fields (5): 'a', 'b', 'c', ...\n")


@pytest.mark.parametrize("a, want", [
    ('"\u0661"', "not a rational literal: '\u0661'"),
    ('"1/3"'.replace("1", "1" * 4250), "its numerator or denominator has more than 4215 digits"),
    ('"-1"'.replace("1", "1" * 5000), "its numerator or denominator has more than 4215 digits"),
    ("1" * 4250, "its exact value has more than 14000 bits"),
    ("1" * 5000, "its numerator or denominator has more than 4215 digits"),
], ids=["non-ascii", "4250-digits", "5000-digits", "4250-digit-int", "5000-digit-int"])
def test_spec_literals_are_read_as_flags_are(capsys, tmp_path, a, want):
    # a 4250-digit literal (about 14100 bits) was accepted in a spec; at 5000 digits
    # Python's int-string limit refused it with a message that named no field, also
    # when the JSON decoder met the integer unquoted
    path = tmp_path / "spec.json"
    path.write_text(f'{{"kind": "scale", "a": {a}, "child": {{"kind": "takagi", "r": 2}}}}', encoding="utf-8")
    assert run(capsys, ["eval", "--func", str(path), "--points", "1/3"]) == (2, "", f"pathfn: $.a: {want}\n")



@pytest.mark.parametrize("key", ["r", "p", "m"])
def test_int_fields_refuse_an_over_long_integer_without_its_digits(capsys, tmp_path, key):
    # an unquoted 5000-digit integer reached the field as its text, and was refused
    # as "expected an integer, got '-1111...'", all 5000 digits echoed
    doc = {"r": '{"kind": "takagi", "r": N}', "p": '{"kind": "distance_power", "p": N}',
           "m": '{"kind": "dilate", "m": N, "child": {"kind": "distance"}}'}[key]
    path = tmp_path / "spec.json"
    path.write_text(doc.replace("N", "-" + "1" * 5000), encoding="utf-8")
    want = f"pathfn: $.{key}: an integer of 5000 digits, too long to read\n"
    assert run(capsys, ["eval", "--func", str(path), "--points", "0"]) == (2, "", want)


# Three nested scales by (d + 1)/(d + 3), (d + 5)/(d + 7) and (d + 9)/(d + 11),
# d = 10^4000: each literal fits, but f's values are read over about 40 000 bits.
_LONG_SCALES = {"kind": "takagi", "r": 2}
for _i in range(3):
    _LONG_SCALES = {"kind": "scale", "a": f"{10**4000 + 1 + 4 * _i}/{10**4000 + 3 + 4 * _i}", "child": _LONG_SCALES}


@pytest.mark.parametrize("argv, key", [
    (["membership", "--c", "1", "--r", "2", "--nmax", "8", "--ydepth", "4"], "detail.worst_margin"),
    (["bounds", "--m", "1", "--alpha", "1", "--r", "2", "--nmax", "2", "--ydepth", "1", "--xdepth", "2"],
     "detail.semiconcavity.worst_margin"),
    (["flow", "--c", "1", "--t", "1/4"], "detail.envelope.pieces"),
    (["flow", "--c", "1", "--t", "1/4", "--samples", "3", "--csv", "CSV"], "detail.envelope.pieces"),
    (["eval", "--points", "1/3"], "the value at 1/3"),
    (["probe", "--x", "1/3", "--N", "2"], "delta_plus at n = 0"),
], ids=["membership", "bounds", "flow", "flow-samples", "eval", "probe"])
def test_outputs_refuse_a_rational_too_long_to_print(capsys, spec_file, tmp_path, argv, key):
    # past 4300 digits Python's int-string limit ended the run, after the work,
    # with a message that named nothing; flow had written part of its report
    func = spec_file(_LONG_SCALES)
    argv = [a.replace("CSV", str(tmp_path / "out.csv")) for a in argv]
    argv[1:1] = ["--psi" if argv[0] == "bounds" else "--func", func]
    want = f"pathfn: {key}: its exact value has more than 14000 bits, too long to print\n"
    assert run(capsys, argv) == (2, "", want)


# Specs whose piecewise forms were built in full: m copies of the child's pieces
# for a dilation, p + 1 coefficients for a distance power, and a linear search
# per cut of a sum.  They took 9 s to well over 30 s, or ran out of memory.
_BIG_NODES = [
    ('{"kind": "dilate", "m": 1000000000000, "child": {"kind": "distance"}}', "1/3"),
    ('{"kind": "sum", "terms": [{"kind": "dilate", "m": 1000, "child": {"kind": "distance"}}, '
     '{"kind": "dilate", "m": 1001, "child": {"kind": "distance"}}]}', "2/3"),
    ('{"kind": "sum", "terms": [{"kind": "dilate", "m": 10000, "child": {"kind": "distance"}}, '
     '{"kind": "dilate", "m": 10001, "child": {"kind": "distance"}}]}', "2/3"),
    ('{"kind": "distance_power", "p": 1000000000}', None),
]


@pytest.mark.parametrize("doc, value", _BIG_NODES, ids=["dilate-1e12", "sum-1000", "sum-10000", "power-1e9"])
def test_large_dilations_and_powers_end_at_once(tmp_path, doc, value):
    (tmp_path / "f.json").write_text(doc, encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    proc = subprocess.run([sys.executable, "-m", "pathfn", "eval", "--func", "f.json", "--points", "1/3"],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=20)
    if value is None:
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == "pathfn: $: distance power must be an integer from 1 to 16, got 1000000000\n"
    else:
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, f"x,value\n1/3,{value}\n", "")


def _spline_of_degree(degree: int) -> str:
    # x^degree - x^(degree - 1): zero at 0 and at 1, so a valid periodic spline
    coeffs = ["0"] * (degree - 1) + ["-1", "1"]
    return json.dumps({"kind": "poly_spline", "knots": ["0", "1"], "pieces": [coeffs]})


def test_spline_pieces_of_high_degree_are_refused(capsys, tmp_path):
    # certifying the sign of a piece costs O(p^2) per level: flow on x^1000 - x^999
    # (a 5 KB spec) was still running after 30 s
    (tmp_path / "f.json").write_text(_spline_of_degree(1000), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "pathfn", "flow", "--func", "f.json", "--c", "2", "--t", "1/4", "--crosscheck", "2"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=5,
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "pathfn: $: spline piece 0 has 1001 coefficients, more than 17\n"
    # degree 16 is the bound, as for distance_power
    for degree, code in ((16, 0), (17, 2)):
        (tmp_path / "f.json").write_text(_spline_of_degree(degree), encoding="utf-8")
        assert run(capsys, ["eval", "--func", str(tmp_path / "f.json"), "--points", "1/2"])[0] == code, degree


_EVERY_COMMAND = {
    "eval": ["eval", "--func", "F", "--points", "1/3"],
    "membership": ["membership", "--func", "F", "--c", "2", "--r", "2", "--nmax", "1", "--ydepth", "1"],
    "identity": ["identity", "--psi", "P", "--r", "2", "--nmax", "1", "--ydepth", "1"],
    "flow": ["flow", "--func", "F", "--c", "2", "--t", "1/4"],
    "probe": ["probe", "--func", "F", "--x", "1/3", "--N", "2"],
    "bounds": ["bounds", "--psi", "P", "--m", "1", "--alpha", "0", "--r", "2"],
}


@pytest.mark.parametrize("command", sorted(_EVERY_COMMAND))
def test_a_negative_cap_is_refused_up_front(capsys, spec_file, command):
    # flow read "scan of 0 sample rows exceeds cap -1", eval "series orbit of 1/3 exceeded -5 steps"
    for cap in ("-1", "-5"):
        argv = _flag_argv(spec_file, _EVERY_COMMAND[command], "") + ["--cap", cap]
        assert run(capsys, argv) == (2, "", "pathfn: --cap must be >= 0\n"), cap


# The commands whose report prints the SHA-256 of the spec file, and its key.
_DIGESTS = {
    "membership": ("func_sha256", ["membership", "--c", "2", "--r", "2", "--nmax", "2", "--ydepth", "1"]),
    "identity": ("psi_sha256", ["identity", "--r", "2", "--nmax", "2", "--ydepth", "1"]),
    "bounds": ("psi_sha256", ["bounds", "--m", "1", "--alpha", "0", "--r", "2", "--nmax", "2", "--ydepth", "1"]),
    "flow": ("func_sha256", ["flow", "--c", "2", "--t", "1/4"]),
}
# Rational literals and kinds are ASCII, so the non-ASCII bytes ("é", two bytes
# in UTF-8) sit in a repeated name: JSON keeps the last value of a name.
_NON_ASCII = {"func": '{"kind": "é", "kind": "takagi", "r": 2}',
              "psi": '{"kind": "é", "kind": "distance"}'}


def _spec_bytes(command: str, padded: bool) -> bytes:
    text = _NON_ASCII["psi" if _DIGESTS[command][0] == "psi_sha256" else "func"]
    return (text + " " * (1 << 20) + "\n" if padded else text).encode("utf-8")


def _digest_of_report(capsys, tmp_path, command: str, raw: bytes) -> str:
    path = tmp_path / "spec.json"
    path.write_bytes(raw)
    key, argv = _DIGESTS[command]
    flag = "--psi" if key == "psi_sha256" else "--func"
    code, out, err = run(capsys, [argv[0], flag, str(path), *argv[1:]])
    assert code in (0, 1) and err == "", err
    return json.loads(out)["inputs"][key]


@pytest.mark.parametrize("padded", [False, True], ids=["non-ascii", "padded-1MiB"])
@pytest.mark.parametrize("command", sorted(_DIGESTS))
def test_report_digest_is_the_sha256_of_the_spec_bytes(capsys, tmp_path, command, padded):
    raw = _spec_bytes(command, padded)
    assert max(raw) > 0x7F and len(raw) >= (1 << 20 if padded else 1)
    assert _digest_of_report(capsys, tmp_path, command, raw) == hashlib.sha256(raw).hexdigest()


@pytest.mark.parametrize("command", sorted(_DIGESTS))
def test_report_digest_falls_back_to_hashlib(capsys, tmp_path, monkeypatch, command):
    # an interpreter built without CPython's own SHA-256 modules hashes with hashlib
    raw = _spec_bytes(command, padded=True)
    hashed = []
    real = hashlib.sha256
    monkeypatch.setattr(hashlib, "sha256", lambda data: hashed.append(len(data)) or real(data))
    for name in ("_sha2", "_sha256"):
        monkeypatch.setitem(sys.modules, name, None)
    assert _digest_of_report(capsys, tmp_path, command, raw) == real(raw).hexdigest()
    assert hashed == [len(raw)]
