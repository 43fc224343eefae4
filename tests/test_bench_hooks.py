import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def bench_python(code: str) -> subprocess.CompletedProcess:
    """Run `code` in a fresh interpreter that imports the package and bench/."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT / "bench")])}
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc


def test_bench_tracing_installs_on_the_package():
    """bench/tracing.py wraps package callables by name, so deleting or renaming
    one of them must fail here, not first in a benchmark run."""
    bench_python("import kellipse, tracing; tracing.install(kellipse)")


def test_bench_tracing_counts_the_rows_of_each_focus_distance():
    """The benchmark's per-layer rows count one distance_field row per focus
    and point, and one SumField.values row per point, so the field must go on
    calling Metric.distance_field once per focus on the points it is given."""
    proc = bench_python(
        "import numpy as np, kellipse, tracing\n"
        "tr = tracing.install(kellipse)\n"
        "tr.enabled = True\n"
        "f = kellipse.SumField(kellipse.Space.continuum(2, kellipse.Metric.l2()), ((0, 0), (1, 0), (0, 1)))\n"
        "f.values(np.arange(10.0).reshape(5, 2))\n"
        "m = tr.metrics(kellipse)\n"
        "print(m['metric.distance_field.rows'], m['geometry.values.rows'])\n")
    assert proc.stdout.split() == ["15", "5"]       # k * N and N for k = 3 foci, N = 5 points


def test_bench_record_summary_states_the_gain_rule_and_the_bound():
    import importlib.util

    spec = importlib.util.spec_from_file_location("bench_record", ROOT / "scripts" / "bench_record.py")
    bench_record = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_record)

    def runs(parent, change):
        return [{side: {"failed": 0, "attempted": 1, "metrics": {"wall_s": {"value": v}}}
                 for side, v in (("parent", p), ("change", c))} for p, c in zip(parent, change)]

    metric = [{"name": "wall_s", "better": "lower", "bound": 0.25}]
    parent = [1.0, 1.02, 0.98, 1.01, 0.99, 1.0, 1.03, 0.97, 1.0, 1.0]
    faster = [0.9] * 9 + [1.0]          # the tie counts for neither side
    s = bench_record.summary(runs(parent, faster), metric)["wall_s"]
    assert (s["change_wins"], s["pairs"], s["gain"], s["within_bound"]) == (9, 10, True, True)
    s = bench_record.summary(runs(parent, [0.9] * 8 + [1.1] * 2), metric)["wall_s"]
    assert (s["change_wins"], s["gain"]) == (8, False)
    # nine wins by less than the parent's interquartile range are no gain
    s = bench_record.summary(runs(parent, [v - 0.01 for v in parent[:9]] + [1.1]), metric)["wall_s"]
    assert (s["change_wins"], s["gain"]) == (9, False)
    s = bench_record.summary(runs(parent, [1.3] * 10), metric)["wall_s"]
    assert (s["gain"], s["within_bound"]) == (False, False)
    s = bench_record.summary(runs(parent, [1.2] * 10), metric)["wall_s"]
    assert s["within_bound"]
