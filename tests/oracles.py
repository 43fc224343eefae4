"""Scalar reference forms that the tests check the array code against.

The package computes every distance through `Metric.column_norm` on arrays.
These are the independent scalar forms: one point or one pair at a time, in
Python arithmetic (`sum`, `max`, `math.sqrt` and `**`). They agree with the
package bit for bit under L1, L2 and Linf, and within a few ulps under Lp,
where Python's pow and numpy's power may round differently.

`bisect_edges` is the tracer's edge bisection as it was before its rounds
moved from masked copies to bit selects and its L2 norms to a carry of the
fixed axes' squares: the package must return the same points bit for bit.
"""
import math
from dataclasses import dataclass
from enum import Enum
from functools import partial

import numpy as np

from kellipse.geometry import SolverError
from kellipse.metric import Point, exact_div
from kellipse.tracer import BISECT_BUDGET
from kellipse.verifier import SelfMap


def scalar_distance(metric, a, b):
    """Distance between two points; exact for L1/Linf and in dimension 1.

    Lp uses the max-factored form m * (sum((|d|/m)^p))^(1/p) so large
    exponents do not overflow.
    """
    if len(a) != len(b):
        raise ValueError(f"dimension mismatch: {len(a)} vs {len(b)}")
    diffs = [abs(x - y) for x, y in zip(a, b)]
    if len(diffs) == 1:
        return diffs[0]       # every Minkowski metric coincides on the line
    if metric.kind == "l1":
        return sum(diffs)
    if metric.kind == "linf":
        return max(diffs)
    if metric.kind == "l2":
        return math.sqrt(sum(float(d) * float(d) for d in diffs))
    m = float(max(diffs))
    if m == 0.0:
        return 0.0
    s = sum((float(d) / m) ** metric.p for d in diffs)
    return m * s ** (1.0 / metric.p)


def scalar_value(field, x):
    """The sum-of-distances field at x: 0 + d1 + d2 ... in focus order."""
    return sum(scalar_distance(field.space.metric, x, f) for f in field.foci)


@dataclass(frozen=True)
class RadiusGap:
    """Auxiliary gap function: s -> s - r for s > 0, and 0 at s = 0."""

    r: object

    def __call__(self, s):
        if s < 0:
            raise ValueError("gap function domain is s >= 0")
        return s - self.r if s > 0 else 0


def pointwise_margin(condition_id: str, m: SelfMap, e, x, tx=None):
    """Slack of a pointwise condition at one on-set point (negative = violated)."""
    d, f = partial(scalar_distance, e.space.metric), partial(scalar_value, e.field)
    tx = m(x) if tx is None else tx
    if condition_id == "Ek1":
        return (f(x) - f(tx)) - d(x, tx)
    if condition_id == "Ek2":
        return f(tx) - e.r
    if condition_id == "E'k1":
        return (f(x) + f(tx) - 2 * e.r) - d(x, tx)
    if condition_id == "E'k2":
        return e.r - f(tx)
    if condition_id == "E'''k1":
        return -abs(f(tx) - e.r)
    raise ValueError(f"{condition_id!r} is not a pointwise condition")


def pair_ratio(condition_id: str, m: SelfMap, e, x, y, tx=None, ty=None, tau=0):
    """Ratio bound-side for a constant-fitting pair condition.

    Returns None when both sides vanish (any constant works), math.inf when the
    bound side vanishes but the left side does not.
    """
    d = partial(scalar_distance, e.space.metric)
    tx = m(x) if tx is None else tx
    ty = m(y) if ty is None else ty
    num = d(tx, ty)
    if condition_id == "Ek3":
        den = d(tx, x) + d(ty, y)
    elif condition_id == "E'k3":
        den = d(tx, y) + d(ty, x)
    elif condition_id == "E'''k4":
        den = max(d(x, tx), d(y, ty), d(x, ty), d(y, tx), d(x, y))
    elif condition_id == "Bk3":
        den = d(x, y)
    else:
        raise ValueError(f"{condition_id!r} is not a constant-fitting pair condition")
    if den <= tau:
        return None if num <= tau else math.inf
    return exact_div(num, den)


def ik_margin(m: SelfMap, f, k: int, x, tx=None):
    """Slack of the identity-forcing bound at x (negative = violated)."""
    tx = m(x) if tx is None else tx
    drop = scalar_value(f, x) - scalar_value(f, tx)
    return exact_div(drop, k + 1) - scalar_distance(f.space.metric, x, tx)


class PointClass(Enum):
    INTERIOR = "interior"
    ON = "on"
    EXTERIOR = "exterior"


def classify(e, x, tol) -> PointClass:
    """Classify x against the level set; tol=0 compares exactly."""
    if tol < 0:
        raise ValueError("tol must be >= 0")
    v = scalar_value(e.field, x)
    if abs(v - e.r) <= tol:
        return PointClass.ON
    return PointClass.INTERIOR if v < e.r else PointClass.EXTERIOR


def arc_length(polyline) -> float:
    """Euclidean length of a traced polyline, closing edge included."""
    v = polyline.vertices
    if polyline.closed:
        v = np.vstack([v, v[:1]])
    return float(np.linalg.norm(np.diff(v, axis=0), axis=1).sum())


def bisect_edges(f, r, p0, axis, hi, f0, f1, tol):
    """tracer._bisect_edges with masked copies and a (k, N) gap block per axis."""
    pts = np.array(p0, dtype=float)
    n, d = pts.shape
    order = np.argsort(np.broadcast_to(axis, n), kind="stable")
    axes = np.broadcast_to(axis, n)[order]
    spans = [slice(*np.searchsorted(axes, [i, i + 1])) for i in range(d)]     # axis i's edges
    foci = np.array(f.foci, dtype=float)
    gaps = [np.abs(pts[order, i] - foci[:, i, None]) for i in range(d)]     # (k, N) per axis
    a, b = pts[order, axes], np.asarray(hi, dtype=float)[order]
    f0, f1 = f0[order], f1[order]
    below = f0 < 0
    best = np.where(np.abs(f0) <= np.abs(f1), a, b)
    best_res = np.minimum(np.abs(f0), np.abs(f1))
    for _ in range(BISECT_BUDGET):
        if (best_res <= tol).all():
            break
        mid = 0.5 * (a + b)
        for i, s in enumerate(spans):
            g = gaps[i][:, s]
            np.subtract(mid[s], foci[:, i, None], out=g)
            np.abs(g, out=g)
        fm = np.zeros(n)
        for row in f.space.metric.column_norm(gaps):
            fm += row
        fm -= r
        res = np.abs(fm)
        better = res < best_res
        np.copyto(best, mid, where=better)
        np.copyto(best_res, res, where=better)
        same = (fm < 0) == below
        np.copyto(a, mid, where=same)
        np.copyto(b, mid, where=~same)
    pts[order, axes] = best
    unconverged = int((best_res > tol).sum())
    if unconverged:
        best_res = best_res[np.argsort(order)]
        worst = int(np.argmax(best_res))
        raise SolverError(
            f"bisection left {unconverged} of {len(best_res)} crossing edge(s) unconverged "
            f"after {BISECT_BUDGET} halvings; worst residual {best_res[worst]:.3g} > {tol:g}",
            Point(pts[worst].tolist()), float(best_res[worst]))
    return pts
