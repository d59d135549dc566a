import dataclasses
import json
import re
from fractions import Fraction

import pytest

import pathfn.cli as cli
import pathfn.core.funcs
import pathfn.series
from conftest import (
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


def _refuse_work(monkeypatch, *names):
    """Make the named CLI entry points fail if a command reaches them."""

    def boom(*args, **kwargs):
        raise AssertionError("work started before the cap check")

    for name in names:
        monkeypatch.setattr(cli, name, boom)


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
    _refuse_work(monkeypatch, "flow_grid", "flow_bruteforce_points")
    base = ["flow", "--func", spec_file(SPEC_TAKAGI2), "--c", "2", "--cap", "100"]
    # 2^10 + 1 envelope vertices at t = 1/4096
    code, out, err = run(capsys, base + ["--t", "1/4096"])
    assert code == 2 and out == "" and "1025 points exceeds cap 100" in err
    # two vertices, but (2^6 + 1) (2^8 + 1) brute-force evaluations
    code, out, err = run(capsys, base + ["--t", "1/4", "--crosscheck", "8"])
    assert code == 2 and out == "" and "16705 brute-force evaluations exceeds cap 100" in err


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

    def shifted(q):
        pq = real(q)
        assert pq.err < 1e-12
        pieces = tuple(dataclasses.replace(p, fz=p.fz + F(1, 100)) if p.z == F(1, 3) else p for p in pq.pieces)
        return dataclasses.replace(pq, pieces=pieces)

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
    assert sizes == [2, 64]  # the envelope's vertices, then one brute-force table


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
    assert code == 2 and out == "" and "123 point evaluations exceeds cap 100" in err


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
    assert doc["detail"]["lower_chain"]["holds"] is True


def test_bounds_psi0(capsys, spec_file):
    code, out, _ = run(
        capsys,
        ["bounds", "--psi", spec_file(SPEC_PSI0), "--m", "1", "--alpha", "2", "--r", "2"],
    )
    assert code == 0
    assert json.loads(out)["detail"]["c"] == "1"


def test_bounds_cap_exit_2(capsys, spec_file, monkeypatch):
    _refuse_work(monkeypatch, "check_sufficient_conditions", "lower_chain_check")
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
