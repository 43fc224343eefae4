import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_tracing_installs_on_the_package():
    """bench/tracing.py wraps package callables by name, so deleting or renaming
    one of them must fail here, not first in a benchmark run."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT / "bench")])}
    proc = subprocess.run([sys.executable, "-c", "import kellipse, tracing; tracing.install(kellipse)"],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
