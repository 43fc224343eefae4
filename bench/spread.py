"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 bench/spread.py --workloads plane2d exact1d --seeds 1 2 3 4 5 --seconds 15 [--label NAME]

Runs bench/run.py once per (workload, seed), in that order, and prints for
every metric the median and the spread: the distance between the first and
third quartiles (statistics.quantiles, n=4) as a share of the median, for
the figures run.py reports and for the raw figures kept in its run record.
The summary is saved to .bench_out/sets/<label>.json.
"""
from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from run import SCALINGS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", nargs="+", required=True)
    ap.add_argument("--seeds", nargs="+", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--label", default=time.strftime("set-%Y%m%dT%H%M%S"))
    args = ap.parse_args()
    summary = {"label": args.label, "started": time.strftime("%Y-%m-%d %H:%M:%S"), "workloads": {}}
    for wl in args.workloads:
        runs = []
        for seed in args.seeds:
            before = set(glob.glob(str(ROOT / ".bench_out" / "records" / f"{wl}-s{seed}-t0-*.json")))
            t0 = time.perf_counter()
            proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", wl, "--seed", str(seed),
                                   "--seconds", str(args.seconds), "--trace", "0"],
                                  cwd=ROOT, capture_output=True, text=True)
            took = time.perf_counter() - t0
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                raise SystemExit(f"{wl} seed {seed} exited {proc.returncode}")
            result = json.loads(proc.stdout.strip().split("\n")[-1])
            new = sorted(set(glob.glob(str(ROOT / ".bench_out" / "records" / f"{wl}-s{seed}-t0-*.json"))) - before)
            record = json.loads(Path(new[-1]).read_text())
            runs.append({"seed": seed, "took_s": took, "correct": result["correct"],
                         "attempted": result["attempted"], "failed": result["failed"],
                         "reported": {k: v["value"] for k, v in result["metrics"].items()},
                         **{kind: record[kind] for kind in SCALINGS}})
            print(f"{wl} seed={seed} took={took:.1f}s correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
        table = {}
        for name in runs[0]["reported"]:
            table[name] = {}
            for kind in ("reported",) + SCALINGS:
                vals = [r[kind][name] for r in runs]
                table[name][kind] = {"median": statistics.median(vals), "spread": spread(vals)}
            print(f"  {wl:9s} {name:12s} " + "  ".join(
                f"{kind}: {v['median']:.4g} ({v['spread']:.3f})" for kind, v in table[name].items()))
        summary["workloads"][wl] = {"runs": runs, "metrics": table,
                                    "failed_share": [r["failed"] / r["attempted"] for r in runs]}
    out = ROOT / ".bench_out" / "sets"
    out.mkdir(parents=True, exist_ok=True)
    (out / f"{args.label}.json").write_text(json.dumps(summary, indent=1))
    print(f"saved {out / (args.label + '.json')} (pid {os.getpid()})")


if __name__ == "__main__":
    main()
