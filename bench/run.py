"""Benchmark of kellipse: one seeded workload per call, timed at reference speed.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports the package from ./src (the
package need not be installed). The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end ones; with --trace 1 they are the per-layer ones
of a traced run, which does a fixed number of rounds so that counts repeat.

Process layout:
  * this process orchestrates, relays reference timings and, after the
    workload process has ended, checks every op's output (checks.py);
  * a reference process (refloop.py), which never imports kellipse, times a
    fixed loop before every op while the workload process waits;
  * workload processes (workload.py): SETUP_RUNS fresh processes are timed
    from spawn to the end of set-up (import, loading round 0's inputs, which
    this process generates beforehand); the last of them goes on to run
    whole rounds of ops for --seconds seconds.

Every timed span (an op, or a set-up) loses the hypervisor's steal while it
ran, then is scaled by REF_NOMINAL_CPU_S / (mean CPU time of the reference
loop just before and after it): times are reported in seconds at the
reference speed. The threaded ops of cloud3d get the steal correction only
(see summarize). Raw figures go to the run record in .bench_out/records/.
"""
from __future__ import annotations

import argparse
import json
import os
import pickle
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import inputs
from workload import steal_s

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
WORKLOADS = ("cloud3d", "plane2d", "certify2d", "exact1d")
REF_NOMINAL_CPU_S = 0.0107  # median reference-loop CPU time on the host named in README.md
SCALINGS = ("stealcpu", "raw")   # the first is reported; raw goes to the run record
CPUS = os.cpu_count() or 1
REF_REPS = 3                # loop runs per reference timing (the median is used) ...
REF_REPS_LONG = 15          # ... and for cloud3d, whose runs hold few timed spans
THREADED = {"cloud3d"}      # workloads whose ops run on the tracer's thread pool
SETUP_RUNS = 7
DEADLINE_S = 170

E2E_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "op_p50_ms": "ms", "peak_rss_mb": "MB"}


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    return "s" if name.endswith("_s") else "count"


class Child:
    """A child process spoken to by JSON (or plain) lines over pipes."""

    def __init__(self, argv, env=None):
        self.p = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                  text=True, bufsize=1, env=env, cwd=ROOT)

    def send(self, line: str):
        self.p.stdin.write(line + "\n")
        self.p.stdin.flush()

    def recv(self) -> str:
        line = self.p.stdout.readline()
        if not line:
            raise RuntimeError(f"{self.p.args[1]} ended early with exit code {self.p.wait()}")
        return line

    def finish(self, timeout=30) -> int:
        if self.p.stdin and not self.p.stdin.closed:
            self.p.stdin.close()
        return self.p.wait(timeout=timeout)

    def kill(self):
        if self.p.poll() is None:
            self.p.kill()
        self.p.wait()


def run(args, work: Path):
    with open(work / "round0.pkl", "wb") as fh:
        pickle.dump(inputs.round_inputs(args.workload, args.seed, 0), fh, protocol=pickle.HIGHEST_PROTOCOL)
    env = dict(os.environ, KELLIPSE_THREADS=str(len(os.sched_getaffinity(0))), PYTHONHASHSEED="0")
    children = []
    timer = threading.Timer(DEADLINE_S, lambda: [c.kill() for c in list(children)])
    timer.start()
    try:
        ref = Child([sys.executable, str(HERE / "refloop.py")])
        children.append(ref)

        reps = REF_REPS_LONG if args.workload == "cloud3d" else REF_REPS

        def ref_time():
            ref.send(str(reps))
            return [float(v) for v in ref.recv().split()]

        def spawn(mode):
            c = Child([sys.executable, str(HERE / "workload.py"), "--workload", args.workload,
                       "--seed", str(args.seed), "--mode", mode, "--seconds", str(args.seconds),
                       "--trace", str(args.trace), "--work", str(work)], env=env)
            children.append(c)
            return c

        setups = []
        for _ in range(0 if args.trace else SETUP_RUNS - 1):
            r0 = ref_time()
            s0, t0 = steal_s(), now()
            w = spawn("setup")
            ready = json.loads(w.recv())
            steal = steal_s() - s0
            if w.finish():
                raise RuntimeError("set-up process failed")
            setups.append({"wall": ready["ready"] - t0, "cpu": ready["cpu"], "steal": steal,
                           "refs": [r0, ref_time()]})
        r0 = ref_time()
        s0, t0 = steal_s(), now()
        w = spawn("run")
        ready = json.loads(w.recv())
        steal = steal_s() - s0
        while True:
            msg = json.loads(w.recv())
            if "ref" in msg:
                w.send(json.dumps({"ref": ref_time()}))
            else:
                done = msg["done"]
                break
        if w.finish():
            raise RuntimeError("workload process failed")
        ref.finish()
        setups.append({"wall": ready["ready"] - t0, "cpu": ready["cpu"], "steal": steal,
                       "refs": [r0, done["refs"][0]]})
        return done, setups
    finally:
        timer.cancel()
        for c in children:
            c.kill()


def summarize(done, setups, threaded_ops=False):
    """End-to-end metrics under each scaling kind.

    raw: as measured. stealcpu (reported): each wall time less the
    hypervisor's steal while it ran (steal is spread over all of the
    machine's CPUs, so a span loses steal / CPUs of wall time), then every
    time scaled by the mean CPU time of the reference loop just before and
    after it, except ops that run on several threads
    (threaded_ops): the single-threaded loop runs alone on its core and says
    nothing of their speed, so they keep the steal correction only.
    """
    refs, ops = done["refs"], done["ops"]
    out = {}
    for kind in SCALINGS:
        if kind == "raw":
            f_op = [1.0] * len(ops)
            f_setup = [1.0] * len(setups)
        else:
            f_op = ([1.0] * len(ops) if threaded_ops else
                    [REF_NOMINAL_CPU_S / ((refs[j][1] + refs[j + 1][1]) / 2) for j in range(len(ops))])
            f_setup = [REF_NOMINAL_CPU_S / ((s["refs"][0][1] + s["refs"][1][1]) / 2) for s in setups]
        unstolen = kind == "stealcpu"
        rounds, walls = {}, []
        for op, f in zip(ops, f_op):
            w = (op["wall"] - op["steal"] / CPUS if unstolen else op["wall"]) * f
            acc = rounds.setdefault(op["round"], [0.0, 0.0])
            acc[0] += w
            acc[1] += op["cpu"] * f
            walls.append(w)
        out[kind] = {
            "setup_s": statistics.median((s["wall"] - s["steal"] / CPUS if unstolen else s["wall"]) * f
                                         for s, f in zip(setups, f_setup)),
            "wall_s": statistics.median(v[0] for v in rounds.values()),
            "cpu_s": statistics.median(v[1] for v in rounds.values()),
            "op_p50_ms": 1000 * statistics.median(walls),
            "peak_rss_mb": done["peak_kb"] / 1024,
        }
    return out


def check_all(args, done, work: Path):
    """The problems found in each op's output, by op tag (ops that raised are skipped)."""
    from checks import CHECKS
    ctx = {"work": str(work)}
    problems = {}
    for op in done["ops"]:
        if not op["ok"]:
            continue
        tag = op_tag(op)
        with open(work / f"{tag}.pkl", "rb") as fh:
            rec = pickle.load(fh)
        try:
            errs = CHECKS[args.workload](rec, ctx)
        except Exception as exc:    # an output the checks cannot even read is wrong
            errs = [f"check raised {type(exc).__name__}: {exc}"]
        if errs:
            problems[tag] = errs
    return problems


def op_tag(op) -> str:
    return f"r{op['round']:03d}o{op['op']:02d}"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "kellipse" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'kellipse'}; run from a checkout",
              file=sys.stderr)
        return 2
    work = OUT / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        done, setups = run(args, work)
        problems = check_all(args, done, work)
    except (RuntimeError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    # an op fails when it raises or when a check finds a problem in its output
    attempted = len(done["ops"])
    failed = sum(not op["ok"] or op_tag(op) in problems for op in done["ops"])
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "ref_nominal_cpu_s": REF_NOMINAL_CPU_S, "refs": done["refs"], "ops": done["ops"],
              "peak_kb": done["peak_kb"], "setups": setups, "problems": problems}
    if args.trace:
        layers = dict(done["layers"], **{"host.ref_loop_ms": 1000 * statistics.median(r[0] for r in done["refs"])})
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in layers.items()}
        record["layers"] = layers
        record["wall_s_raw"] = sum(op["wall"] for op in done["ops"])
    else:
        figures = summarize(done, setups, threaded_ops=args.workload in THREADED)
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in figures[SCALINGS[0]].items()}
        record.update(figures)
        print("raw: " + " ".join(f"{k}={v:.6g}" for k, v in figures["raw"].items()))
    (OUT / "records").mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    (OUT / "records" / f"{args.workload}-s{args.seed}-t{args.trace}-{stamp}-{os.getpid()}.json").write_text(
        json.dumps(record, indent=1, default=str))
    for op in done["ops"]:
        if not op["ok"]:
            print(f"op r{op['round']}o{op['op']} raised:\n{op['error']}", file=sys.stderr)
    for tag, errs in list(problems.items())[:10]:
        print(f"check: {tag}: " + "; ".join(errs[:3]), file=sys.stderr)
    # every op that did not fail was checked and passed; `failed` says the rest
    print(json.dumps({"correct": True, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
