"""Smoke tests for the scripts under scripts/, run as subprocesses."""
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, env=env, cwd=ROOT,
                          timeout=120)


def test_run_definability_small():
    proc = run_script("run_definability.py", "--poset-size", "2",
                      "--monoid-size", "2", "--depth", "2")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines.count("   hsp fixed point:        yes") == 2, proc.stdout


def test_run_soundness_sweep_small():
    proc = run_script("run_soundness_sweep.py", "--count", "3",
                      "--model-size", "2")
    assert proc.returncode == 0, proc.stderr
    tallies = [line.split("(")[0].split() for line in proc.stdout.splitlines()]
    assert tallies == [
        ["pos", "{'Proved':", "2,", "'Refuted':", "1,", "'Unknown':", "0}",
         "models=5", "violations=0"],
        ["mon", "{'Proved':", "2,", "'Refuted':", "1,", "'Unknown':", "0}",
         "models=5", "violations=0"],
        ["cat", "{'Proved':", "3,", "'Refuted':", "0,", "'Unknown':", "0}",
         "models=8", "violations=0"]], proc.stdout
