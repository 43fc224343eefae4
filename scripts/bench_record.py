"""Benchmark a parent revision and this checkout side by side, into one JSON record.

    python3 scripts/bench_record.py --parent REV --out BENCH_N.json \\
        [--workloads cloud3d plane2d certify2d exact1d] [--seeds 802 ... 811]

The parent is exported with `git archive` into a temporary directory and
benchmarked there with its own `bench/run.py`; the change is copied beside it
from this checkout as it stands, tracked and untracked files alike except the
ignored ones (`git ls-files -co --exclude-standard`). The two copies, at
`<tmp>/parent` and `<tmp>/change`, have paths of the same length and no
bytecode caches, so a difference between them is one of code, not of
directory or cache state. Workloads and run length come from BENCHMARK.json. For every
workload and seed the parent and the change run back to back, the parent
first on every other seed, so that slow drift of the machine falls on both
alike; ten seeds (ten pairs, the default) are the fewest from which a gain
may be claimed. Each run takes about the run length plus 10 s.

Before any timing, both trees are byte-compiled (`python -m compileall -q
src`), so that every run imports from fresh `.pyc` files.

The record keeps the final JSON line of every run; per workload and
end-to-end metric, each side's quartiles, the number of pairs the change
wins (ties count for neither side), whether the gain rule holds (the change
wins at least nine tenths of the pairs and its median is better than the
parent's by more than the parent's interquartile range) and whether the
change's median is within the metric's BENCHMARK.json bound of the
parent's (worse by at most that share); per workload, each side's failed and
attempted ops summed over its runs; per workload, keyed by its name, the
per-layer figures of three traced runs of each side (`--trace 1`, seed 7),
the sides back to back with the parent first in the first and third, each
run kept and each side's median per metric, so that host noise of one run
(about 20% on a 2-vCPU machine) does not read as a change of a layer;
each side's `src/` line count per module and in all, as `wc -l
src/kellipse/*.py` gives it; and the machine: core count, Python and numpy
versions.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
TRACE_SEED = 7
TRACE_RUNS = 3


def git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def export(rev: str, into: Path) -> Path:
    """The committed files of `rev`, unpacked under `into`."""
    into.mkdir()
    archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)
    return into


def copy_worktree(into: Path) -> Path:
    """This checkout's tracked and untracked, not ignored, files as they stand, copied under `into`."""
    into.mkdir()
    for name in git("ls-files", "-co", "--exclude-standard").splitlines():
        src = ROOT / name
        if src.is_file():               # a tracked file deleted in the working tree is left out
            (into / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, into / name)
    return into


def bench(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """The final JSON line of one `bench/run.py` run in `checkout`."""
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", str(trace)],
                          cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{checkout}: {workload} seed {seed} exited {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().split("\n")[-1])


def pair(sides: dict, workload: str, seed: int, seconds: float, trace: int, parent_first: bool) -> dict:
    """One run of each side, back to back in the order given, as one record."""
    order = ("parent", "change") if parent_first else ("change", "parent")
    return {"seed": seed, "first": order[0],
            **{side: bench(sides[side], workload, seed, seconds, trace) for side in order}}


def compile_tree(checkout: Path) -> None:
    """Byte-compile `checkout`'s src/, so that every run imports from fresh `.pyc` files."""
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src"], cwd=checkout, check=True)


def src_lines(checkout: Path) -> dict:
    """Newlines per module of src/kellipse in `checkout`, and their total (`wc -l`)."""
    lines = {p.name: p.read_bytes().count(b"\n") for p in sorted((checkout / "src/kellipse").glob("*.py"))}
    return {**lines, "total": sum(lines.values())}


def summary(runs: list, end_to_end: list) -> dict:
    """Per end-to-end metric (BENCHMARK.json's entries): each side's (q1,
    median, q3), the pairs the change wins, and whether the gain rule holds
    and the change's median is within the bound; and each side's failed and
    attempted ops over all runs, with their share."""
    out = {"ops": {}}
    for side in ("parent", "change"):
        failed, attempted = (sum(run[side][key] for run in runs) for key in ("failed", "attempted"))
        out["ops"][side] = {"failed": failed, "attempted": attempted,
                            "failed_share": failed / attempted if attempted else None}
    for spec in end_to_end:
        m, sign = spec["name"], 1 if spec["better"] == "lower" else -1
        value = {side: [run[side]["metrics"][m]["value"] for run in runs] for side in ("parent", "change")}
        q = {side: statistics.quantiles(v, n=4) if len(v) > 1 else v * 3 for side, v in value.items()}
        (q1, parent, q3), change = q["parent"], q["change"][1]
        wins = sum(sign * (p - c) > 0 for p, c in zip(value["parent"], value["change"]))
        out[m] = {**q, "change_wins": wins, "pairs": len(runs),
                  "gain": wins >= 0.9 * len(runs) and sign * (parent - change) > q3 - q1,
                  "within_bound": sign * (change - parent) <= spec["bound"] * abs(parent)}
    return out


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="git revision of the parent")
    ap.add_argument("--out", required=True)
    ap.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seeds", nargs="+", type=int, default=list(range(802, 812)))
    args = ap.parse_args()
    seconds = spec["run_seconds"]

    with tempfile.TemporaryDirectory() as tmp:
        sides = {"parent": export(args.parent, Path(tmp) / "parent"),
                 "change": copy_worktree(Path(tmp) / "change")}
        for path in sides.values():
            compile_tree(path)
        record = {
            "machine": {"cores": os.cpu_count(), "python": platform.python_version(),
                        "numpy": np.__version__, "platform": platform.platform()},
            "revisions": {"parent": git("rev-parse", args.parent),
                          "change": git("rev-parse", "HEAD") + " + working tree"},
            "seconds": seconds,
            "src_lines": {side: src_lines(path) for side, path in sides.items()},
            "started": time.strftime("%Y-%m-%dT%H:%M:%S"),
            "runs": {},
            "summary": {},
        }
        for wl in args.workloads:
            runs = []
            for i, seed in enumerate(args.seeds):
                runs.append(pair(sides, wl, seed, seconds, 0, i % 2 == 0))
                print(wl, seed, {side: runs[-1][side]["metrics"]["wall_s"]["value"] for side in sides},
                      file=sys.stderr)
            record["runs"][wl] = runs
            record["summary"][wl] = summary(runs, spec["end_to_end"])
        record["per_layer"] = {}
        for wl in args.workloads:
            runs = [pair(sides, wl, TRACE_SEED, seconds, 1, i % 2 == 0) for i in range(TRACE_RUNS)]
            record["per_layer"][wl] = {
                "seed": TRACE_SEED, "runs": runs,
                "median": {side: {m: statistics.median(run[side]["metrics"][m]["value"] for run in runs)
                                  for m in runs[0][side]["metrics"]} for side in sides}}
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
