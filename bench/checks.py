"""Checks of each op's outputs against the benchmark's own computations.

Every check_* function returns a list of problems (empty when the output is
right). The package is imported only to rebuild the sample plans of
certify2d, which are inputs to the conditions; those plans are themselves
checked here point by point before the conditions are recomputed on them.
"""
from __future__ import annotations

import hashlib
import json
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

import oracle as O

ROOT = Path(__file__).resolve().parent.parent
AMB_TOL = 1e-9        # grid nodes this close to the level may fall on either side


# ---------------------------------------------------------------------------
# traced points
# ---------------------------------------------------------------------------

def check_points(metric, foci, r, bbox, resolution, refine_tol, pts, masks=None):
    """Traced points: residual, one point per sign-changing grid edge, and none else.

    `masks` may carry the sign-changing edge masks of this grid, with the count
    of near-zero nodes, when the caller has them already.
    """
    pts = np.asarray(pts, dtype=float).reshape(-1, len(bbox))
    errs = []
    tol = refine_tol + 1e-12 * max(1.0, abs(r))
    if len(pts):
        res = np.abs(O.field_rows(metric, foci, pts) - r)
        if res.max() > tol:
            errs.append(f"residual {res.max():.3g} exceeds {tol:.3g} at {pts[int(res.argmax())].tolist()}")
    axes = O.grid_axes(bbox, resolution)
    if masks is None:
        masks = (O.sign_edges_2d if len(bbox) == 2 else O.sign_edges_3d)(metric, foci, r, axes, AMB_TOL)
    edge_masks, ambiguous = masks
    n_edges = sum(int(m.sum()) for m in edge_masks)
    keys, at_node = O.edge_keys(pts, axes)
    if keys is None:
        return errs + ["a point lies on no grid line"]
    slack = 6 * ambiguous + 2 * at_node
    if abs(len(pts) - n_edges) > slack:
        errs.append(f"{len(pts)} points for {n_edges} sign-changing grid edges")
    free = keys[:, 0]
    on_edge = np.ones(len(pts), dtype=bool)
    for a, m in enumerate(edge_masks):
        sel = free == a
        on_edge[sel] = m[tuple(keys[sel, 1:].T)]
    if (~on_edge).sum() > slack:
        errs.append(f"{int((~on_edge).sum())} points on edges without a sign change")
    if len(pts) - len(np.unique(keys, axis=0)) > slack:
        errs.append("two points on one grid edge")
    return errs


def boundary_crossed(edge_masks) -> bool:
    ex, ey = edge_masks
    return bool(ex[:, [0, -1]].any() or ey[[0, -1], :].any())


# ---------------------------------------------------------------------------
# plane2d: min_radius then trace_2d under four metrics
# ---------------------------------------------------------------------------

def check_min_radius(metric, foci, on_focus, r_star, arg):
    errs = []
    at_arg = O.field_at(metric, foci, arg)
    if abs(at_arg - r_star) > 1e-12 * max(1.0, r_star):
        errs.append(f"r_star {r_star!r} is not the field value {at_arg!r} at the returned point")
    if on_focus:
        truth = O.field_at(metric, foci, foci[0])       # the median is the centre focus
    else:
        closed = O.median_closed_form(metric, foci)
        truth = closed[0] if closed else None
    if truth is not None and abs(r_star - truth) > 1e-9 * max(1.0, truth):
        errs.append(f"r_star {r_star!r} differs from the closed form {truth!r}")
    if not O.no_descent(metric, foci, arg, r_star):
        errs.append(f"field descends from the returned minimizer {arg}")
    return errs


def check_plane2d(rec, ctx):
    inp, out = rec["input"], rec["output"]
    errs = []
    curves = [(s, c) for s in inp["sets"] for c in s["curves"]]
    if len(out) != len(curves):
        return [f"{len(out)} results for {len(curves)} curves"]
    for (s, c), o in zip(curves, out):
        metric, foci = tuple(c["metric"]), s["foci"]
        where = f"{metric[0]} k={len(foci)}: "
        errs += [where + e for e in check_min_radius(metric, foci, s["on_focus"], o["r_star"], o["arg"])]
        if c["bbox"] is None:
            continue
        polys = o["polylines"]
        if len(polys) != 1 or not polys[0][1]:
            errs.append(where + f"expected one closed polyline, got {[(len(v), c) for v, c in polys]}")
        pts = np.vstack([v for v, _ in polys]) if polys else np.zeros((0, 2))
        axes = O.grid_axes(c["bbox"], inp["resolution"])
        masks = O.sign_edges_2d(metric, foci, c["r"], axes, AMB_TOL)
        errs += [where + e for e in check_points(metric, foci, c["r"], c["bbox"], inp["resolution"],
                                                 inp["refine_tol"], pts, masks)]
        if o["boundary"] != boundary_crossed(masks[0]):
            errs.append(where + "boundary warning disagrees with the grid")
    return errs


# ---------------------------------------------------------------------------
# certify2d: verify --report on generated scenes
# ---------------------------------------------------------------------------

def _num(v):
    """A report number: floats stay, "inf"/"-inf" and "p/q" strings are parsed."""
    if isinstance(v, str):
        return float(v) if v in ("inf", "-inf") else float(Fraction(v))
    return v


def _close(a, b, rel=1e-12):
    if a is None or b is None:
        return a is None and b is None
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= rel * max(1.0, abs(b))


def halton_offset(metric, foci, r, bbox, seed, count, tol):
    """The off-set samples of a float plan, as documented: Halton points from
    a seeded start index, skipping those within `tol` of the level set."""
    start = random.Random(seed).randint(1, 1000)
    out, i = [], start
    lo, hi = np.array([b[0] for b in bbox]), np.array([b[1] for b in bbox])
    while len(out) < count and i < start + 100 * count:
        batch = np.arange(i, min(i + count, start + 100 * count))
        u = np.array([[O.halton(int(j), b) for b in (2, 3, 5)[:len(bbox)]] for j in batch])
        p = lo + (hi - lo) * u
        keep = np.abs(O.field_rows(metric, foci, p) - r) > tol
        out.extend(p[keep][:count - len(out)].tolist())
        i += len(batch)
    return np.array(out)


def _plan(ctx, path):
    if "ke" not in ctx:
        sys.path.insert(0, str(ROOT / "src"))
        import kellipse
        ctx["ke"] = kellipse
    plan = ctx["ke"].load_scene(path).build_plan()
    return (np.array([[float(c) for c in p] for p in plan.on_ellipse]).reshape(-1, 2),
            np.array([[float(c) for c in p] for p in plan.off_ellipse]).reshape(-1, 2))


def _find(rows, p):
    hit = np.nonzero((rows == np.asarray(p, float)).all(axis=1))[0]
    return int(hit[0]) if len(hit) else -1


def check_report(rep, own, on, off):
    """Compare one theorem's JSON report with recomputed conditions."""
    if sorted(c["condition"] for c in rep["conditions"]) != sorted(own):
        return [f"conditions {[c['condition'] for c in rep['conditions']]}, expected {sorted(own)}"]
    errs = []
    for c in rep["conditions"]:
        cid = c["condition"]
        verdict, fitted, margin, value_at = own[cid]
        if c["verdict"] != verdict:
            errs.append(f"{cid}: verdict {c['verdict']}, recomputed {verdict}")
            continue
        if not _close(_num(c["fitted_constant"]), fitted):
            errs.append(f"{cid}: fitted {c['fitted_constant']}, recomputed {fitted}")
        if not _close(_num(c["worst_margin"]), margin):
            errs.append(f"{cid}: margin {c['worst_margin']}, recomputed {margin}")
        if value_at is None:
            if c["witness"]:
                errs.append(f"{cid}: witness on a vacuous condition")
            continue
        wit = c["witness"]
        pools = [np.vstack([on, off])] if cid == "Ik" else [on, off if cid in O.PAIR_THRESHOLD else on]
        idx = [_find(pool, p) for pool, p in zip(pools, wit)]
        if -1 in idx or len(idx) != len(wit):
            errs.append(f"{cid}: witness {wit} is not a plan point")
            continue
        target = fitted if fitted is not None else margin
        if not _close(value_at(idx), target):
            errs.append(f"{cid}: value {value_at(idx)} at the witness is not the extreme {target}")
    return errs


def check_certify2d(rec, ctx):
    inp, out, work = rec["input"], rec["output"], ctx["work"]
    errs = []
    codes = iter(out["codes"])
    for j, scene in enumerate(inp["scenes"]):
        metric = (scene["space"]["metric"]["kind"], None)
        foci = scene["ellipse"]["foci"]
        r = scene["ellipse"]["r"]
        tr = scene["trace"]
        bbox = [tuple(b) for b in tr["bbox"]]
        where = f"{metric[0]} k={len(foci)}: "
        on, off = _plan(ctx, inp["paths"][j])
        errs += [where + "plan on-set: " + e for e in
                 check_points(metric, foci, r, bbox, tr["resolution"], tr["refine_tol"], on)]
        own_off = halton_offset(metric, foci, r, bbox, scene["seed"], scene["plan"]["off_count"],
                                tr["refine_tol"])
        if own_off.shape != off.shape or not np.array_equal(own_off, off):
            errs.append(where + "plan off-set differs from the Halton samples")
        fallback = np.asarray(scene["map"]["rules"][1]["action"]["point"], float)
        tol = scene["map"]["rules"][0]["region"]["tol"]

        def image(p):
            keep = np.abs(O.field_rows(metric, foci, p) - r) <= tol
            return np.where(keep[:, None], p, fallback)

        for t in inp["theorems"]:
            code = next(codes)
            rep = json.loads((Path(work) / f"{inp['tag']}-{j}-{t}.json").read_text())
            if (rep["plan"]["on"], rep["plan"]["off"]) != (len(on), len(off)):
                errs.append(where + f"{t}: plan sizes {rep['plan']} differ from the rebuilt plan")
            exist_ids, uniq_ids = O.FAMILIES[t]
            own = O.conditions_float(metric, foci, r, on, off, image(on), image(off), exist_ids + uniq_ids)
            errs += [where + f"{t} " + e for e in check_report(rep, own, on, off)]
            fails = any(own[c][0] == O.FAIL for c in exist_ids + uniq_ids)
            if code != (1 if fails else 0):
                errs.append(where + f"{t}: exit code {code}, expected {1 if fails else 0}")
            if t != "t5":
                if rep["existence_certified"] != all(own[c][0] != O.FAIL for c in exist_ids):
                    errs.append(where + f"{t}: existence flag disagrees")
                if rep["uniqueness_certified"] != all(own[c][0] != O.FAIL for c in uniq_ids):
                    errs.append(where + f"{t}: uniqueness flag disagrees")
    return errs


# ---------------------------------------------------------------------------
# exact1d: fixed sets, admissible radii, radius scans, exact certification
# ---------------------------------------------------------------------------

def check_exact_instance(inst, o):
    errs = []
    f = O.Piecewise(*inst["map"]["table"])
    foci = inst["foci"]
    # fixed-point set: membership agrees on every point that can decide it
    ends = [v for p in o["fix"] for v in p[:2] if not math.isinf(v)]
    for x in O.probe_points(f.interesting() + ends):
        if O.union_contains(o["fix"], x) != f.is_fixed(x):
            errs.append(f"fixed set {o['fix']} wrong at {x}")
            break
    # the radius scan: level sets exact, fixedness agrees three ways
    line = O.Line(foci)
    for r, (fixed, kind, vals) in zip(inst["scan"], o["scan"]):
        own_kind, own_vals = level = line.level_set(r)
        if kind != own_kind or tuple(vals) != tuple(own_vals):
            errs.append(f"r={r}: level set {kind} {vals}, expected {own_kind} {own_vals}")
            break
        if kind == "points" and any(O.xi(foci, x) != r for x in vals):
            errs.append(f"r={r}: a level-set point misses sum |x - f_i| = r")
            break
        own = O.kellipse_fixed(f, level)
        if fixed != own or O.union_contains(o["radii"], r) != own:
            errs.append(f"r={r}: is_fixed_kellipse {fixed}, radii set {O.union_contains(o['radii'], r)}, "
                        f"own evaluation {own}")
            break
    # the radii set at and next to each of its endpoints
    eps = Fraction(1, 2 ** 40)
    for lo, hi, _, _ in o["radii"]:
        for x in (lo, hi):
            if math.isinf(x):
                continue
            for y in (x - eps, x, x + eps):
                if y >= 0 and O.union_contains(o["radii"], y) != O.kellipse_fixed(f, line.level_set(y)):
                    errs.append(f"radii set {o['radii']} wrong at {y}")
    # exact certification on the exhaustive finite plan
    r = inst["plan_r"]
    on_exp = [p for p in inst["points"] if O.xi(inst["plan_foci"], p) == r]
    off_exp = [p for p in inst["points"] if O.xi(inst["plan_foci"], p) != r]
    on, off, exact = o["plan"]
    if (list(on), list(off)) != (on_exp, off_exp) or not exact:
        errs.append("exhaustive plan partition or exactness is wrong")
        return errs
    for v in o["certify"]:
        exist_ids, uniq_ids = O.FAMILIES[v["theorem"]]
        own = O.conditions_exact(on, off, f, inst["plan_foci"], r, exist_ids + uniq_ids)
        if set(v["reports"]) != set(own):
            errs.append(f"{v['theorem']}: conditions {sorted(v['reports'])}, expected {sorted(own)}")
            continue
        for cid, rep in v["reports"].items():
            verdict, fitted, margin, value_at = own[cid]
            if (rep["verdict"], rep["fitted"], rep["margin"]) != (verdict, fitted, margin) or not rep["exact"]:
                errs.append(f"{v['theorem']} {cid}: reported {rep['verdict']} {rep['fitted']} {rep['margin']}, "
                            f"recomputed {verdict} {fitted} {margin}")
                continue
            if value_at is not None:
                w = rep["witness"]
                pools = [on + off] if cid == "Ik" else [on, off if cid in O.PAIR_THRESHOLD else on]
                idx = [pool.index(x) if x in pool else -1 for pool, x in zip(pools, w)]
                if -1 in idx or value_at(idx) != (fitted if fitted is not None else margin):
                    errs.append(f"{v['theorem']} {cid}: witness {w} does not realize the extreme")
        if v["existence"] != all(own[c][0] != O.FAIL for c in exist_ids) or \
                v["uniqueness"] != all(own[c][0] != O.FAIL for c in uniq_ids):
            errs.append(f"{v['theorem']}: existence/uniqueness flags disagree")
    return errs


def check_exact1d(rec, ctx):
    inp, out = rec["input"], rec["output"]
    errs = []
    for inst, o in zip(inp["instances"], out):
        errs += [f"{inst['map']['kind']}: " + e for e in check_exact_instance(inst, o)]
    return errs


# ---------------------------------------------------------------------------
# cloud3d: trace --csv on the shipped 3D scenes
# ---------------------------------------------------------------------------

def parse_csv(text):
    lines = text.strip().split("\n")
    if lines[0] != "x,y,z":
        raise ValueError(f"bad CSV header {lines[0]!r}")
    return np.array([[float(t) for t in ln.split(",")] for ln in lines[1:]]).reshape(-1, 3)


def check_cloud3d(rec, ctx):
    inp, out, work = rec["input"], rec["output"], Path(ctx["work"])
    errs = []
    if out["codes"] != [0] * len(inp["scenes"]):
        errs.append(f"exit codes {out['codes']}")
    seen = ctx.setdefault("cloud_digests", {})
    for name in inp["scenes"]:
        csv_path = work / f"{inp['tag']}-{name}.csv"
        svg_path = work / f"{inp['tag']}-{name}.svg"
        digest = (hashlib.sha256(csv_path.read_bytes()).hexdigest(),
                  hashlib.sha256(svg_path.read_bytes()).hexdigest())
        if name in seen:
            # same input as an op already checked in full: the output must repeat
            if digest != seen[name]:
                errs.append(f"{name}: output differs from an earlier op on the same input")
            continue
        seen[name] = digest
        scene = json.loads((ROOT / "src" / "kellipse" / "scenes" / f"{name}.json").read_text())
        m = scene["space"]["metric"]
        metric = (m["kind"], float(m["p"]) if m["kind"] == "lp" else None)
        foci, r, tr = scene["ellipse"]["foci"], scene["ellipse"]["r"], scene["trace"]
        pts = parse_csv(csv_path.read_text())
        errs += [f"{name}: " + e for e in check_points(metric, foci, r, tr["bbox"], tr["resolution"],
                                                       tr.get("refine_tol", 1e-9), pts)]
        svg = svg_path.read_text()
        if not svg.startswith("<?xml") or not svg.rstrip().endswith("</svg>") or \
                svg.count("<circle") != len(pts) + len(foci):
            errs.append(f"{name}: SVG does not hold one dot per point plus the foci")
    return errs


CHECKS = {"plane2d": check_plane2d, "certify2d": check_certify2d,
          "exact1d": check_exact1d, "cloud3d": check_cloud3d}
