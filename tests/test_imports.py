"""Start-up: ``import pathfn`` is lazy, each subcommand loads only the layers
it runs, and none imports dataclasses, the audits or hashlib: the commands
that print a spec digest take SHA-256 from CPython's built-in module, so no
command maps OpenSSL."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pathfn
import pathfn.cli as cli
from conftest import SPEC_DISTANCE, SPEC_TAKAGI2

ROOT = Path(__file__).resolve().parent.parent

# The modules a command may or may not load; the core layer is always loaded.
OPTIONAL = {"pathfn.differences", "pathfn.series", "pathfn.flow"}
# What no command loads: ``dataclasses`` imports ``inspect``, which imports ``ast``, ``dis`` and ``tokenize``;
# ``pathfn.audit`` holds the oracles that check the layers from outside; ``hashlib`` imports
# ``_hashlib``, which maps OpenSSL's libcrypto.
NEVER = {"dataclasses", "inspect", "pathfn.audit", "hashlib", "_hashlib"}

_REPORT_MODULES = (
    "import json, sys\n"
    "from pathfn import cli\n"
    "code = cli.main(sys.argv[1:])\n"
    "sys.stderr.write(json.dumps([code, sorted(sys.modules)]) + '\\n')\n"
)


def _fresh(code: str, *argv: str, cwd) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, "-c", code, *argv], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


TAKAGI = ["--func", "takagi2.json"]
PSI = ["--psi", "dist.json", "--r", "2"]

_LOADS = [
    ("eval-exact", ["eval", *TAKAGI, "--points", "0,1/3"], set()),
    ("eval-float", ["eval", *TAKAGI, "--points", "1/3", "--mode", "float"], set()),
    ("probe", ["probe", *TAKAGI, "--x", "1/3", "--N", "3"], {"pathfn.differences"}),
    ("membership", ["membership", *TAKAGI, "--c", "1/8", "--r", "2", "--nmax", "2", "--ydepth", "2"],
     {"pathfn.differences"}),
    ("identity", ["identity", *PSI, "--nmax", "2", "--ydepth", "2"],
     {"pathfn.differences", "pathfn.series"}),
    ("bounds", ["bounds", *PSI, "--m", "1", "--alpha", "0"],
     {"pathfn.differences", "pathfn.series"}),
    ("flow", ["flow", *TAKAGI, "--c", "2", "--t", "1/8"], {"pathfn.differences", "pathfn.flow"}),
]


@pytest.mark.parametrize("argv, loads", [case[1:] for case in _LOADS], ids=[case[0] for case in _LOADS])
def test_each_subcommand_loads_only_what_it_runs(tmp_path, argv, loads):
    (tmp_path / "takagi2.json").write_text(json.dumps(SPEC_TAKAGI2), encoding="utf-8")
    (tmp_path / "dist.json").write_text(json.dumps(SPEC_DISTANCE), encoding="utf-8")
    proc = _fresh(_REPORT_MODULES, *argv, cwd=tmp_path)
    code, modules = json.loads(proc.stderr.splitlines()[-1])
    assert code == 0, proc.stderr
    assert OPTIONAL.intersection(modules) == loads
    # value classes are records, built without generated code; a bare
    # interpreter loads neither module, no command runs an audit, and the
    # spec digest does not load OpenSSL
    assert NEVER.isdisjoint(modules), NEVER.intersection(modules)


# What ``pathfn/__init__`` re-exported eagerly, by the module that defines each.
_PUBLIC = {
    "core.funcs": (
        "AbsSin", "Dilate", "Distance", "DistancePower", "FuncExpr", "PolySplinePeriodic", "Scale", "Sin2Pi",
        "Sum", "ThetaSplice", "USeries", "eval_approx", "eval_exact", "sup_abs_bound", "supports_exact",
    ),
    "core.parse": ("parse_func_spec", "to_spec_dict"),
    "core.points": ("Triplet", "radix_x_samples", "radix_y_set"),
    "core.scalars": ("Approx", "Scalar", "parse_rational"),
    "differences": (
        "MembershipQuery", "ProbeRow", "ScanReport", "central_second_diff", "divergence_probe",
        "membership_scan", "semiconcavity_scan", "stencil_slopes",
    ),
    "errors": (
        "AmbiguousEnvelopeError", "FlowConditionError", "FuncSpecError", "OrbitLimitError", "PathfnError",
        "ResourceLimitError", "UnsupportedExactError",
    ),
    "flow": (
        "FlowQuery", "Piece", "PiecewiseQuadratic", "flow_bruteforce_count", "flow_bruteforce_points", "flow_grid",
    ),
    "series": ("ScanParams", "SufficientReport", "check_sufficient_conditions", "u_eval_exact"),
    "audit": (
        "ChainReport", "DominanceReport", "SubdiffWitness", "concave_generator_constant", "crossing_points",
        "dominance_check", "enumerate_triplets", "lower_chain_check", "parabola_eval", "pde_residual",
        "piecewise_from_json", "psi_zero", "sin_cancellation", "steepness_transfer_constant", "subdiff_witnesses",
        "u_delta_identity_residual", "witness_support_violations",
    ),
}


def test_every_public_name_resolves_to_its_module_object():
    names = {name: module for module, group in _PUBLIC.items() for name in group}
    assert len(names) == 65
    star = {}
    exec("from pathfn import *", star)
    listed = set(dir(pathfn))
    for name, module in names.items():
        defined = getattr(importlib.import_module(f"pathfn.{module}"), name)
        assert getattr(pathfn, name) is defined, name
        assert star[name] is defined, name
        assert name in listed, name
    with pytest.raises(AttributeError, match="no_such_name"):
        pathfn.no_such_name


def test_audits_live_only_in_pathfn_audit():
    # the layers that subcommands load no longer define what moved, and the
    # one-point brute force is gone
    layers = [importlib.import_module(f"pathfn.{m}") for m in ("flow", "series", "core.funcs", "core.points")]
    for name in _PUBLIC["audit"] + ("flow_bruteforce",):
        assert not any(hasattr(layer, name) for layer in layers), name
    assert not hasattr(pathfn, "flow_bruteforce") and "flow_bruteforce" not in pathfn.__all__


def test_pathfn_core_reexports_nothing():
    # ``pathfn`` is the one module that re-exports names; the core package holds its submodules only
    import pathfn.core

    for module in ("funcs", "parse", "points", "polys", "scalars"):
        importlib.import_module(f"pathfn.core.{module}")
    public = {name: value for name, value in vars(pathfn.core).items() if not name.startswith("_")}
    assert set(public) == {"funcs", "parse", "points", "polys", "scalars"}
    assert all(value is sys.modules[f"pathfn.core.{name}"] for name, value in public.items())


# Names that tests and perfbench/tracer.py replace on pathfn.cli.
_CLI_LAYER_NAMES = {
    "parse_func_spec": "core.parse",
    "membership_scan": "differences",
    "divergence_probe": "differences",
    "approx_table": "differences",
    "identity_residual_scan": "series",
    "check_sufficient_conditions": "series",
    "flow_grid": "flow",
    "flow_bruteforce_points": "flow",
    "grid_values": "grid",
    "eval_exact_points": "core.funcs",
    "eval_approx": "core.funcs",
    "write_json": "core.scalars",
}


def test_cli_layer_names_are_reachable():
    for name, module in _CLI_LAYER_NAMES.items():
        assert getattr(cli, name) is getattr(importlib.import_module(f"pathfn.{module}"), name), name
    # the CLI calls neither the one-point brute force nor the chain audit
    assert getattr(cli, "flow_bruteforce", None) is None and getattr(cli, "lower_chain_check", None) is None
    with pytest.raises(AttributeError):
        cli.no_such_name


_STUB_BEFORE_IMPORT = (
    "import sys\n"
    "from pathfn import cli\n"
    "from pathfn.errors import PathfnError\n"
    "assert 'pathfn.flow' not in sys.modules\n"
    "def stub(q, cap):\n"
    "    raise PathfnError('stub flow_grid ran')\n"
    "cli.flow_grid = stub\n"
    "sys.exit(cli.main(sys.argv[1:]))\n"
)


def test_a_stub_set_before_its_layer_is_imported_is_the_one_called(tmp_path):
    (tmp_path / "takagi2.json").write_text(json.dumps(SPEC_TAKAGI2), encoding="utf-8")
    proc = _fresh(_STUB_BEFORE_IMPORT, "flow", *TAKAGI, "--c", "2", "--t", "1/8", cwd=tmp_path)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == "pathfn: stub flow_grid ran\n"
