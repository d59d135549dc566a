"""Every demo script, the README quickstart and the README's CLI lines run to
completion against the source tree."""

import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]


def test_readme_quickstart_runs():
    # the README's library example must keep up with the API it shows
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Library quickstart", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", block], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]


def test_readme_cli_lines_run(tmp_path):
    # each command of the README's CLI block, with the spec files it names
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [shlex.split(line, comments=True) for line in block.splitlines() if line.startswith("pathfn ")]
    (tmp_path / "takagi2.json").write_text(json.dumps({"kind": "takagi", "r": 2}), encoding="utf-8")
    (tmp_path / "dist.json").write_text(json.dumps({"kind": "distance"}), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    assert len(lines) == 7
    for i, argv in enumerate(lines):
        proc = subprocess.run([sys.executable, "-m", "pathfn"] + argv[1:], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, (argv, proc.stderr[-2000:])
        if i == 0:
            assert "1/4,1/2" in proc.stdout.splitlines()
