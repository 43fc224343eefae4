"""The workload process: imports kellipse from the checkout and runs timed ops.

Started by run.py, one fresh process per set-up or run. It talks to run.py by
JSON lines on its stdin/stdout; everything the package prints goes to
/dev/null. Between ops it asks run.py for a reference-loop timing, which a
separate process makes while this one waits.

    python3 bench/workload.py --workload NAME --seed N --mode setup|run
                              --seconds S --trace 0|1 --work DIR
"""
from __future__ import annotations

import argparse
import json
import os
import pickle
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TRACE_ROUNDS = {"plane2d": 1, "certify2d": 1, "exact1d": 2, "cloud3d": 1}


class Channel:
    def __init__(self):
        self.out = os.fdopen(os.dup(1), "w", buffering=1)
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, 1)
        os.close(devnull)
        sys.stdout = open(os.devnull, "w")

    def send(self, msg):
        self.out.write(json.dumps(msg) + "\n")

    def ask_ref(self):
        self.send({"ref": True})
        return json.loads(sys.stdin.readline())["ref"]


def steal_s() -> float:
    """Time the hypervisor has taken from this machine's CPUs (0 if not shown)."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


# ---------------------------------------------------------------------------
# ops: each returns a function that turns its results into plain data for the
# checks; it is called after the op's timing has stopped
# ---------------------------------------------------------------------------

def _metric(ke, m):
    kind, p = m
    return ke.Metric.lp(p) if kind == "lp" else ke.Metric(kind)


def op_plane2d(ke, data, work):
    out = []
    for s in data["sets"]:
        for c in s["curves"]:
            space = ke.Space.continuum(2, _metric(ke, c["metric"]))
            r_star, arg = ke.min_radius(ke.SumField(space, s["foci"]))
            res = None
            if c["bbox"] is not None:
                e = ke.KEllipse(space, s["foci"], c["r"])
                res = ke.trace_2d(e, ke.TraceConfig(c["bbox"], data["resolution"], data["refine_tol"]))
            out.append((r_star, arg, res))
    return lambda: [
        {"r_star": float(r), "arg": tuple(float(v) for v in a),
         "polylines": None if res is None else [(p.vertices.copy(), bool(p.closed)) for p in res.polylines],
         "boundary": None if res is None else bool(res.boundary_warning)}
        for r, a, res in out]


def op_certify2d(ke, data, work):
    from kellipse.cli import main
    codes = []
    for i, path in enumerate(data["paths"]):
        for t in data["theorems"]:
            codes.append(main(["verify", path, "--theorem", t, "--report", f"{work}/{data['tag']}-{i}-{t}.json"]))
    return lambda: {"codes": codes}


def op_exact1d(ke, data, work):
    out = []
    for inst in data["instances"]:
        mp = inst["map"]
        f = ke.srelu(*mp["params"]) if mp["kind"] == "srelu" else ke.PiecewiseAffine1D(*mp["table"])
        fix = ke.fixed_point_set(f)
        radii = ke.fixed_kellipse_radii(f, inst["foci"])
        scan = [ke.is_fixed_kellipse(f, inst["foci"], r) for r in inst["scan"]]
        space = ke.Space.finite([(p,) for p in inst["points"]], ke.Metric.l1())
        e = ke.KEllipse(space, tuple((x,) for x in inst["plan_foci"]), inst["plan_r"])
        plan = ke.exhaustive_plan(e)
        m = ke.selfmap_from_piecewise(f)
        verdicts = [ke.certify(t, m, e, plan) for t in data["theorems"]]
        out.append((fix, radii, scan, plan, verdicts))

    def parts(u):
        return [(p.lo, p.hi, p.lo_open, p.hi_open) for p in u.parts]

    def report(rep):
        return {"verdict": rep.verdict, "fitted": rep.fitted_constant, "margin": rep.worst_margin,
                "witness": [p[0] for p in rep.witness], "exact": rep.exact, "exhaustive": rep.exhaustive}

    return lambda: [
        {"fix": parts(fix.members), "radii": parts(radii),
         "scan": [(bool(c), c.solution.kind.value, tuple(c.solution.scalars())) for c in scan],
         "plan": ([p[0] for p in plan.on_ellipse], [p[0] for p in plan.off_ellipse], plan.exact),
         "certify": [{"theorem": v.theorem, "existence": v.existence_certified,
                      "uniqueness": v.uniqueness_certified,
                      "reports": {cid: report(r) for cid, r in v.reports.items()}} for v in verdicts]}
        for fix, radii, scan, plan, verdicts in out]


def op_cloud3d(ke, data, work):
    from kellipse.cli import main
    codes = [main(["trace", path, "-o", f"{work}/{data['tag']}-{name}.svg",
                   "--csv", f"{work}/{data['tag']}-{name}.csv"])
             for name, path in zip(data["scenes"], data["paths"])]
    return lambda: {"codes": codes}


OPS = {"plane2d": op_plane2d, "certify2d": op_certify2d, "exact1d": op_exact1d, "cloud3d": op_cloud3d}


def prepare(ke, workload, ops, rnd, work):
    """Write what the CLI-driven workloads read; tag each op's files."""
    for i, data in enumerate(ops):
        data["tag"] = f"r{rnd:03d}o{i:02d}"
        if workload == "certify2d":
            data["paths"] = []
            for j, scene in enumerate(data["scenes"]):
                path = f"{work}/{data['tag']}-scene{j}.json"
                Path(path).write_text(json.dumps(scene), encoding="utf-8")
                data["paths"].append(path)
        elif workload == "cloud3d":
            data["paths"] = [str(ke.fixture_path(name)) for name in data["scenes"]]
    return ops


# ---------------------------------------------------------------------------

def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(OPS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "run"), required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--work", required=True)
    args = ap.parse_args()
    chan = Channel()

    # --- set-up: import the package from the checkout, load round 0 -------
    sys.path.insert(0, str(ROOT / "src"))
    import kellipse as ke
    if Path(ke.__file__).resolve().parent != (ROOT / "src" / "kellipse").resolve():
        raise SystemExit(f"kellipse imported from {ke.__file__}, not from the checkout")
    work = args.work
    rnd = 0
    with open(f"{work}/round0.pkl", "rb") as fh:     # made by run.py, outside the timing
        ops = prepare(ke, args.workload, pickle.load(fh), rnd, work)
    chan.send({"ready": time.clock_gettime(time.CLOCK_MONOTONIC), "cpu": time.process_time()})
    if args.mode == "setup":
        return
    import inputs       # after set-up: later rounds are made here, between timed ops

    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.install(ke)
    run_op = OPS[args.workload]
    records, refs = [], []
    start = time.perf_counter()
    peak_kb = 0
    while True:
        for i, data in enumerate(ops):
            refs.append(chan.ask_ref())
            rec = {"round": rnd, "op": i, "ok": True}
            if tracer:
                tracer.enabled = True
            s0, w0, c0 = steal_s(), time.perf_counter(), time.process_time()
            try:
                dump = run_op(ke, data, work)
            except Exception:
                rec["ok"] = False
                rec["error"] = traceback.format_exc(limit=4)
                dump = None
            rec["wall"] = time.perf_counter() - w0
            rec["cpu"] = time.process_time() - c0
            rec["steal"] = steal_s() - s0
            if tracer:
                tracer.enabled = False
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            if dump is not None:
                with open(f"{work}/{data['tag']}.pkl", "wb") as fh:
                    pickle.dump({"input": data, "output": dump()}, fh, protocol=pickle.HIGHEST_PROTOCOL)
            records.append(rec)
        rnd += 1
        if args.trace and rnd >= TRACE_ROUNDS[args.workload]:
            break
        if not args.trace and time.perf_counter() - start >= args.seconds:
            break
        ops = prepare(ke, args.workload, inputs.round_inputs(args.workload, args.seed, rnd), rnd, work)
    refs.append(chan.ask_ref())
    done = {"ops": records, "refs": refs, "peak_kb": peak_kb}
    if tracer:
        done["layers"] = tracer.metrics(ke)
    chan.send({"done": done})


if __name__ == "__main__":
    main()
