"""scripts/reach.py, the report of the package lines that real traffic never runs, on one scene."""
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_reach_reports_what_one_scene_leaves_unreached():
    argv = [sys.executable, str(ROOT / "scripts" / "reach.py"), "--scenes", "tri_l2", "--workloads"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    names = [line.split(":")[0] for line in lines[:-1]]
    assert "verifier.pair_ratio" in names           # no package code calls it
    assert "geometry._focus_sum" not in names       # every field value is added by it
    assert lines[-1].startswith("reached ") and lines[-1].endswith(" executable lines in src/kellipse")
