"""Seeded inputs for the four workloads.

Every op of a round comes from random.Random("<workload>:<seed>:<round>:<op>"),
so a seed fixes the inputs of every round, and no round repeats another's
inputs (the package memoizes fixed-point sets, and repeated maps would hit
that cache). Inputs are plain data; nothing here imports kellipse.

Ops within a workload are built to cost about the same, so that the median op
is a stable figure:
  * foci sets come in pairs whose sizes add to a constant, and
  * every traced curve gets a bounding box fitted to the curve itself, so a
    grid of a given resolution meets about the same number of edges
    (about 4 * resolution / 1.08) whatever the foci.

The one exception is the last op of every plane2d round, which is the same in
every round and every run: min_radius on a fixed flat valley, where the
package fails (see PLANE_MIN_WIDTH).
"""
from __future__ import annotations

import math
import random
from fractions import Fraction

import numpy as np

from oracle import Line, field_at, level_bbox, min_radius_1d

PLANE_RES = 256                 # grid cells per axis for plane2d traces
PLANE_METRICS = (("l1", None), ("l2", None), ("linf", None), ("lp", 3.0))
PLANE_K_PAIRS = ((3, 8), (5, 6), (7, 4))    # (odd set with its median on a focus, generic set)
PLANE_OPS_PER_ROUND = 3                     # seeded ops, then the fixed flat-valley op
# Nearly collinear foci leave the field a nearly flat valley of minimizers, in
# which min_radius stops short under L2 and raises under Lp (see CHANGES.md).
# Generic sets are redrawn until their foci lie at least this far (rms) from
# their best-fit line; the fixed op of every round keeps one flat valley,
# whose fault is counted in `failed` in every run.
PLANE_MIN_WIDTH = 0.25
PLANE_FLAT_FOCI = ((3.4150310350225865, 5.559331405907358), (2.4951866470312023, 5.165380919750367),
                   (-5.620291917182882, 1.4515599056957296), (-5.61731893502146, 1.5616008681389761))
PLANE_FLAT_METRICS = (("l2", None), ("lp", 3.0))

CERT_RES = 28                   # trace resolution of the float sample plan
CERT_OFF = 128                  # off-set Halton samples per plan
CERT_K = (3, 4, 5)              # L1 scene k; the L2 scene gets 8 - k
CERT_THEOREMS = ("t1", "t4", "t5")
CERT_OPS_PER_ROUND = 1

EXACT_SCAN = 240                # radii per is_fixed_kellipse scan
EXACT_POINTS = 20               # random points of each finite plan (plus foci and on-set points)
EXACT_K = (3, 4, 5)             # SReLU instance k; the table-map instance gets 8 - k
EXACT_OPS_PER_ROUND = 12

CLOUD_SCENES = ("tri3d_l2", "tri3d_lp4")


def _rng(workload, seed, rnd, op):
    return random.Random(f"{workload}:{seed}:{rnd}:{op}")


# ---------------------------------------------------------------------------
# 2D foci sets
# ---------------------------------------------------------------------------

def _foci_on_focus(rng, k):
    """Odd k: a centre plus (k-1)/2 pairs on opposite rays through it.

    For any norm the gradients of the paired distances cancel at the centre,
    so the geometric median is the centre, which is itself a focus.
    """
    c = (rng.uniform(-5, 5), rng.uniform(-5, 5))
    foci = [c]
    for _ in range((k - 1) // 2):
        t = rng.uniform(0, 2 * math.pi)
        u = (math.cos(t), math.sin(t))
        d1, d2 = rng.uniform(1, 6), rng.uniform(1, 6)
        foci.append((c[0] + d1 * u[0], c[1] + d1 * u[1]))
        foci.append((c[0] - d2 * u[0], c[1] - d2 * u[1]))
    return foci


def _foci_generic(rng, k):
    return [(rng.uniform(-6, 6), rng.uniform(-6, 6)) for _ in range(k)]


def _width(foci):
    """Root-mean-square distance of the foci from their best-fit line."""
    p = np.asarray(foci, dtype=float)
    return float(np.linalg.svd(p - p.mean(axis=0), compute_uv=False)[-1]) / math.sqrt(len(p))


def _foci_spread(rng, k):
    while True:
        foci = _foci_generic(rng, k)
        if _width(foci) >= PLANE_MIN_WIDTH:
            return foci


def _curve(metric, foci, rel_r=1.5):
    """Radius and fitted bbox for a level curve enclosing the foci centroid."""
    centre = np.mean(np.asarray(foci, float), axis=0)
    r = rel_r * field_at(metric, foci, centre)
    return r, level_bbox(metric, foci, r, centre)


def plane2d_op(seed, rnd, op):
    rng = _rng("plane2d", seed, rnd, op)
    k_odd, k_even = PLANE_K_PAIRS[op % len(PLANE_K_PAIRS)]
    sets = []
    for foci, on_focus in ((_foci_on_focus(rng, k_odd), True), (_foci_spread(rng, k_even), False)):
        curves = []
        for metric in PLANE_METRICS:
            r, bbox = _curve(metric, foci)
            curves.append({"metric": metric, "r": r, "bbox": bbox})
        sets.append({"foci": foci, "on_focus": on_focus, "curves": curves})
    return {"sets": sets, "resolution": PLANE_RES, "refine_tol": 1e-9}


def plane2d_flat_op():
    """min_radius alone (no trace) on a fixed flat valley; it fails on every run."""
    curves = [{"metric": m, "r": None, "bbox": None} for m in PLANE_FLAT_METRICS]
    return {"sets": [{"foci": list(PLANE_FLAT_FOCI), "on_focus": False, "curves": curves}],
            "resolution": PLANE_RES, "refine_tol": 1e-9}


# ---------------------------------------------------------------------------
# certify2d scenes
# ---------------------------------------------------------------------------

def _cert_scene(rng, metric, k):
    foci = _foci_generic(rng, k)
    r, bbox = _curve(metric, foci)
    fallback = tuple(float(c) for c in np.mean(np.asarray(foci, float), axis=0))
    kind, _ = metric
    return {
        "version": 1,
        "description": "generated for the certify2d benchmark workload",
        "seed": rng.randint(0, 10**6),
        "space": {"kind": "continuum", "dimension": 2, "metric": {"kind": kind}},
        "ellipse": {"foci": [list(f) for f in foci], "r": r},
        "map": {"rules": [
            {"region": {"kind": "on_ellipse", "index": 0, "tol": 1e-9}, "action": {"kind": "identity"}},
            {"region": {"kind": "otherwise"}, "action": {"kind": "constant", "point": list(fallback)}},
        ]},
        "trace": {"bbox": [list(b) for b in bbox], "resolution": CERT_RES, "refine_tol": 1e-9},
        "plan": {"off_count": CERT_OFF},
    }


def certify2d_op(seed, rnd, op):
    rng = _rng("certify2d", seed, rnd, op)
    k = CERT_K[(rnd * CERT_OPS_PER_ROUND + op) % len(CERT_K)]
    return {"scenes": [_cert_scene(rng, ("l1", None), k), _cert_scene(rng, ("l2", None), 8 - k)],
            "theorems": CERT_THEOREMS}


# ---------------------------------------------------------------------------
# exact1d maps
# ---------------------------------------------------------------------------

_SLOPES = (Fraction(-2), Fraction(-1), Fraction(-1, 2), Fraction(0), Fraction(1, 2), Fraction(2), Fraction(3))


def _q(rng, lo, hi, den=4):
    return Fraction(rng.randint(lo * den, hi * den), den)


def _srelu(rng):
    t_l, t_r = -_q(rng, 1, 8), _q(rng, 1, 8)
    a_l, a_r = rng.choice(_SLOPES), rng.choice(_SLOPES)
    # the definition: t + a (x - t) outside the thresholds, identity between them
    table = ((t_l, t_r), ((a_l, t_l * (1 - a_l)), (Fraction(1), Fraction(0)), (a_r, t_r * (1 - a_r))),
             (True, False))
    return {"kind": "srelu", "params": (t_l, a_l, t_r, a_r), "table": table}


def _table_map(rng):
    nb = rng.randint(2, 4)
    bps = tuple(sorted(Fraction(v, 4) for v in rng.sample(range(-32, 33), nb)))
    pieces = []
    for _ in range(nb + 1):
        u = rng.random()
        if u < 0.45:
            pieces.append((Fraction(1), Fraction(0)))
        elif u < 0.55:
            pieces.append((Fraction(1), _q(rng, -2, 2) or Fraction(1)))
        else:
            pieces.append((rng.choice(_SLOPES), _q(rng, -4, 4)))
    owns = tuple(rng.random() < 0.5 for _ in range(nb))
    return {"kind": "table", "table": (bps, tuple(pieces), owns)}


def _exact_instance(rng, mapping, k):
    foci = sorted(Fraction(v, 4) for v in rng.sample(range(-16, 17), k))
    r_star, _, m_hi = min_radius_1d(foci)
    scan = [r_star + Fraction(j - 4, 4) for j in range(EXACT_SCAN)]
    # finite plan: foci, random points, and both level-set points of a radius above r_star
    p = m_hi + _q(rng, 1, 6)
    r = sum(abs(p - f) for f in foci)
    _, on = Line(foci).level_set(r)
    pts = set(foci) | set(on) | {_q(rng, -12, 12) for _ in range(EXACT_POINTS)}
    return {"map": mapping, "foci": tuple(foci), "scan": tuple(scan),
            "points": tuple(sorted(pts)), "plan_foci": tuple(foci), "plan_r": r}


def exact1d_op(seed, rnd, op):
    rng = _rng("exact1d", seed, rnd, op)
    k = EXACT_K[(rnd * EXACT_OPS_PER_ROUND + op) % len(EXACT_K)]
    return {"instances": [_exact_instance(rng, _srelu(rng), k),
                          _exact_instance(rng, _table_map(rng), 8 - k)],
            "theorems": ("t1", "t2", "t3", "t4")}


def cloud3d_op(seed, rnd, op):
    # the shipped surfaces are the input; the seed does not change them
    return {"scenes": CLOUD_SCENES}


ROUNDS = {
    "plane2d": (plane2d_op, PLANE_OPS_PER_ROUND),
    "certify2d": (certify2d_op, CERT_OPS_PER_ROUND),
    "exact1d": (exact1d_op, EXACT_OPS_PER_ROUND),
    "cloud3d": (cloud3d_op, 1),
}


def round_inputs(workload, seed, rnd):
    make, n = ROUNDS[workload]
    ops = [make(seed, rnd, i) for i in range(n)]
    return ops + [plane2d_flat_op()] if workload == "plane2d" else ops
