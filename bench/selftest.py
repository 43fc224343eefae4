"""Self-test of the benchmark's checks: each must reject a perturbed output.

    python3 bench/selftest.py

Runs one real op of each workload through kellipse (from ./src), confirms the
checks accept the outputs as they are, then perturbs one thing at a time
(a radius, a point, a verdict, a constant, a witness, an exit code, an
interval endpoint, ...) and confirms the checks reject every perturbed copy.
The 3D checks run on the shipped tri3d_l2 surface at a coarse resolution.
Exits 0 when every case behaves, 1 otherwise.
"""
from __future__ import annotations

import contextlib
import copy
import io
import json
import shutil
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import kellipse as ke  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
import workload  # noqa: E402

FAILURES = []


def expect(name, errs, clean=False):
    ok = (not errs) if clean else bool(errs)
    what = "accepted" if not errs else f"rejected: {errs[0][:100]}"
    print(f"{'ok ' if ok else 'BAD'} {name:44s} {what}")
    if not ok:
        FAILURES.append(name)


def free_axis(point, axes):
    """The coordinate of a traced point that is not on a grid line."""
    return next(a for a in range(len(axes)) if point[a] not in axes[a])


def real_op(name, work, seed=3):
    data = workload.prepare(ke, name, inputs.round_inputs(name, seed, 0)[:1], 0, str(work))[0]
    with contextlib.redirect_stdout(io.StringIO()):
        return {"input": data, "output": workload.OPS[name](ke, data, str(work))()}


def plane2d(work):
    rec = real_op("plane2d", work)
    expect("plane2d as traced", checks.check_plane2d(rec, {}), clean=True)

    def case(name, edit):
        r = copy.deepcopy(rec)
        edit(r["output"])
        expect("plane2d " + name, checks.check_plane2d(r, {}))

    def move_vertex(out, i, delta):
        out[i]["polylines"][0][0][5] += delta

    def along_line(o):
        curve = rec["input"]["sets"][0]["curves"][1]
        v = o[1]["polylines"][0][0]
        free = free_axis(v[5], checks.O.grid_axes(curve["bbox"], rec["input"]["resolution"]))
        move_vertex(o, 1, 1e-6 * np.eye(2)[free])

    case("r_star raised 1e-6", lambda o: o[0].update(r_star=o[0]["r_star"] + 1e-6))
    # the L1 and Linf minima of the even generic sets are flat: step out of them
    for i, step, label in ((4, 2.0, "L1, closed form"), (6, 2.0, "Linf, rotation"),
                           (1, 1e-3, "L2, centre focus"), (3, 1e-3, "Lp, centre focus"),
                           (5, 1e-3, "L2, descent"), (7, 1e-3, "Lp, descent")):
        def off_minimum(o, i=i, step=step):
            s = rec["input"]["sets"][i // 4]
            arg = tuple(np.asarray(o[i]["arg"]) + step)
            o[i].update(arg=arg, r_star=checks.O.field_at(tuple(s["curves"][i % 4]["metric"]), s["foci"], arg))
        case(f"argmin moved {step:g}, r_star matched ({label})", off_minimum)
    foci = rec["input"]["sets"][0]["foci"]
    for metric in (("l2", None), ("lp", 3.0)):
        moved = np.asarray(foci[0]) + 1e-3
        ok = checks.O.no_descent(metric, foci, moved, checks.O.field_at(metric, foci, moved))
        expect(f"plane2d descent check at a moved minimizer ({metric[0]})", [] if ok else ["descends"])
    case("vertex moved along its grid line", along_line)
    case("vertex moved off the grid lines", lambda o: move_vertex(o, 1, np.array([1e-7, 1e-7])))
    case("vertex dropped", lambda o: o[3].update(polylines=[(o[3]["polylines"][0][0][1:], True)]))
    case("vertex repeated", lambda o: o[4].update(
        polylines=[(np.vstack([o[4]["polylines"][0][0], o[4]["polylines"][0][0][:1]]), True)]))
    case("polyline left open", lambda o: o[6].update(polylines=[(o[6]["polylines"][0][0], False)]))
    case("boundary warning raised", lambda o: o[0].update(boundary=True))

    # the fixed flat-valley op of every round: the fault must show
    flat = inputs.plane2d_flat_op()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            out = workload.op_plane2d(ke, flat, str(work))()
        errs = checks.check_plane2d({"input": flat, "output": out}, {})
    except ke.SolverError as exc:
        errs = [f"raised {exc}"]
    expect("plane2d flat valley (known fault)", errs)


def certify2d(work):
    rec = real_op("certify2d", work)
    ctx = {"work": str(work)}
    expect("certify2d as reported", checks.check_certify2d(rec, ctx), clean=True)
    tag = rec["input"]["tag"]

    def case(name, theorem, edit, codes=None):
        path = work / f"{tag}-1-{theorem}.json"
        saved = path.read_text()
        rep = json.loads(saved)
        edit(rep)
        path.write_text(json.dumps(rep))
        r = copy.deepcopy(rec)
        if codes:
            r["output"]["codes"] = codes
        try:
            expect("certify2d " + name, checks.check_certify2d(r, ctx))
        finally:
            path.write_text(saved)

    def cond(rep, cid):
        return next(c for c in rep["conditions"] if c["condition"] == cid)

    def flip(c):
        c["verdict"] = "Pass" if c["verdict"] == "Fail" else "Fail"

    case("verdict flipped (Ek2)", "t1", lambda rep: flip(cond(rep, "Ek2")))
    case("fitted constant off by 1e-9 (Ek3)", "t1",
         lambda rep: cond(rep, "Ek3").update(fitted_constant=cond(rep, "Ek3")["fitted_constant"] * (1 + 1e-9)))
    case("margin off by 1e-9 (E'''k3)", "t4",
         lambda rep: cond(rep, "E'''k3").update(worst_margin=cond(rep, "E'''k3")["worst_margin"] - 1e-9))
    case("witness swapped (E'''k4)", "t4",
         lambda rep: cond(rep, "E'''k4")["witness"].reverse())
    case("uniqueness flag flipped", "t1",
         lambda rep: rep.update(uniqueness_certified=not rep["uniqueness_certified"]))
    codes = list(rec["output"]["codes"])
    codes[-1] = 1 - codes[-1]
    case("exit code flipped (t5)", "t5", lambda rep: None, codes=codes)

    scene = rec["input"]["scenes"][0]
    on, off = checks._plan(ctx, rec["input"]["paths"][0])
    metric, foci, r = ("l1", None), scene["ellipse"]["foci"], scene["ellipse"]["r"]
    bbox, tr = [tuple(b) for b in scene["trace"]["bbox"]], scene["trace"]
    expect("certify2d plan on-set as traced",
           checks.check_points(metric, foci, r, bbox, tr["resolution"], tr["refine_tol"], on), clean=True)
    expect("certify2d plan on-set with a point dropped",
           checks.check_points(metric, foci, r, bbox, tr["resolution"], tr["refine_tol"], on[1:]))
    own_off = checks.halton_offset(metric, foci, r, bbox, scene["seed"], len(off), tr["refine_tol"])
    expect("certify2d plan off-set as sampled", [] if np.array_equal(own_off, off) else ["differs"], clean=True)
    other = checks.halton_offset(metric, foci, r, bbox, scene["seed"] + 1, len(off), tr["refine_tol"])
    expect("certify2d off-set from another seed", [] if np.array_equal(own_off, other) else ["differs"])


def exact1d(work):
    rec = real_op("exact1d", work)
    expect("exact1d as computed", checks.check_exact1d(rec, {}), clean=True)

    def case(name, edit, inst=0):
        r = copy.deepcopy(rec)
        edit(r["output"][inst])
        expect("exact1d " + name, checks.check_exact1d(r, {}))

    def shift_fix(o):
        lo, hi, a, b = o["fix"][0]
        o["fix"][0] = (lo, hi + Fraction(1, 8), a, b) if hi != float("inf") else (lo + Fraction(1, 8), hi, a, b)

    def open_radii(o):
        lo, hi, a, b = o["radii"][0]
        o["radii"][0] = (lo, hi, not a, b)

    def flip_scan(o):
        i = next(j for j, s in enumerate(o["scan"]) if s[1] == "points")
        fixed, kind, vals = o["scan"][i]
        o["scan"][i] = (not fixed, kind, vals)

    def nudge_point(o):
        i = next(j for j, s in enumerate(o["scan"]) if s[1] == "points" and len(s[2]) == 2)
        fixed, kind, vals = o["scan"][i]
        o["scan"][i] = (fixed, kind, (vals[0], vals[1] + Fraction(1, 1000)))

    def report(o, theorem, cid):
        return next(v for v in o["certify"] if v["theorem"] == theorem)["reports"][cid]

    def bump_fitted(o):
        rep = next(rep for v in o["certify"] for rep in v["reports"].values()
                   if isinstance(rep["fitted"], Fraction))
        rep["fitted"] += Fraction(1, 10**6)

    def move_witness(o):
        # to a pair where the Ek3 ratio is not the fitted maximum
        inst = rec["input"]["instances"][0]
        rep = report(o, "t1", "Ek3")
        on, off, _ = o["plan"]
        f = checks.O.Piecewise(*inst["map"]["table"])
        value_at = checks.O.conditions_exact(on, off, f, inst["plan_foci"], inst["plan_r"], ["Ek3"])["Ek3"][3]
        i, j = next((i, j) for i in range(len(on)) for j in range(len(off))
                    if value_at((i, j)) not in (None, rep["fitted"]))
        rep["witness"] = [on[i], off[j]]

    def flip_verdict(o):
        rep = report(o, "t2", "E'k3")
        rep["verdict"] = "Pass" if rep["verdict"] == "Fail" else "Fail"

    for inst in (0, 1):
        case(f"fixed set endpoint moved (instance {inst})", shift_fix, inst)
    case("radii endpoint opened", open_radii)
    case("scan verdict flipped", flip_scan)
    case("level-set point moved 1/1000", nudge_point)
    case("finite fitted constant raised 1e-6", bump_fitted)
    case("verdict flipped (E'k3)", flip_verdict)
    case("witness moved off the maximum (Ek3)", move_witness)


def cloud3d(work):
    scene = json.loads((ROOT / "src" / "kellipse" / "scenes" / "tri3d_l2.json").read_text())
    foci, r, bbox = scene["ellipse"]["foci"], scene["ellipse"]["r"], scene["trace"]["bbox"]
    res = 48
    e = ke.KEllipse(ke.Space.continuum(3, ke.Metric.l2()), foci, r)
    pts = ke.sample_3d(e, ke.TraceConfig(bbox, res, 1e-9)).points
    text = ke.export_csv([tuple(float(c) for c in p) for p in pts])
    parsed = checks.parse_csv(text)
    metric = ("l2", None)
    expect("cloud3d points as sampled (res 48)", checks.check_points(metric, foci, r, bbox, res, 1e-9, parsed),
           clean=True)
    moved = parsed.copy()
    moved[10, free_axis(moved[10], checks.O.grid_axes(bbox, res))] += 1e-6
    expect("cloud3d point moved along its edge", checks.check_points(metric, foci, r, bbox, res, 1e-9, moved))
    expect("cloud3d point dropped", checks.check_points(metric, foci, r, bbox, res, 1e-9, parsed[1:]))
    ctx = {"work": str(work), "cloud_digests": {"tri3d_l2": ("0" * 64, "0" * 64)}}
    rec = {"input": {"scenes": ("tri3d_l2",), "tag": "x"}, "output": {"codes": [0]}}
    (work / "x-tri3d_l2.csv").write_text(text)
    (work / "x-tri3d_l2.svg").write_text("<svg></svg>")
    expect("cloud3d output differing between ops", checks.check_cloud3d(rec, ctx))


def main():
    work = ROOT / ".bench_out" / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        for part in (plane2d, certify2d, exact1d, cloud3d):
            part(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"{len(FAILURES)} case(s) misbehaved" if FAILURES else "every check caught its perturbation")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
