"""Smoke tests of the scripts under scripts/: each runs as a subprocess."""
import os
import subprocess
import sys
from pathlib import Path

import gmc

ROOT = Path(__file__).resolve().parents[1]


def _run_script(name, *args):
    src = str(Path(gmc.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args], capture_output=True, text=True, env=env
    )


def test_property_suites_script_passes_all_six():
    proc = _run_script("run_property_suites.py")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert sum(line.startswith("[ok ]") for line in proc.stdout.splitlines()) == 6


def test_mollifier_study_script_writes_both_tables(tmp_path):
    proc = _run_script("run_mollifier_study.py", "--out-dir", str(tmp_path), "--n", "2,4")
    assert proc.returncode == 0, proc.stderr
    for name in ("torus_comb.csv", "heisenberg_delta.csv"):
        lines = (tmp_path / name).read_text().splitlines()
        assert lines[0] == "n,value_re,value_im,residual"
        assert [line.split(",")[0] for line in lines[1:]] == ["2", "4"]
