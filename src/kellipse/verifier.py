"""Self-maps and numeric verification of fixed-figure conditions.

A self-map is an ordered rule table (region mask, action), applied to a list
of points at once; a sample plan pairs on-level-set points with ambient
points, classifying its candidates with one field evaluation per block.
Every condition is computed by one kernel of numpy reductions over
the plan's distance vectors and pairwise distance matrices (in blocks of at
most PAIR_BLOCK entries), on one of two dtypes, with every distance from the
metric's one norm, `Metric.column_norm`. When the plan is exact, the metric
keeps rationals (the line, L1, Linf) and the foci, the radius, the plan
points and their images all have int/Fraction coordinates, the kernel runs
with zero slack on object arrays of Python ints, all scaled by one common
denominator; it finds the witness there and computes the witness's margin
from its own numbers, so the report is "exact": every margin is an int or a
Fraction, as unscaled rational arithmetic gives it. Every other input runs on
float arrays with the slack `metric.TAU_COND`. Pair conditions fit the
minimal feasible constant and report the witness pair (the first in plan
order on ties); every verdict is qualified by whether the plan was
exhaustive.

Condition families (classical contraction types):
  Ek1 Caristi-type descent          Ek2 image-not-interior
  Ek3 Kannan-type pair bound (h < 1/2)
  E'k1/E'k2 reversed counterparts   E'k3 Chatterjea-type (h < 1/2)
  E''k2 slack interior bound (mu < 1)
  E'''k1 image stays on the set     E'''k2 pair spread > r
  E'''k3 gap-penalized nonexpansion E'''k4 Ciric-type max bound (h < 1)
  Ik identity-forcing bound         Bk3 Banach-type variant (h < 1)
"""
from __future__ import annotations

import math
import random
import sys
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .geometry import KEllipse, SolutionKind, SumField, _field, _on_level, solve_1d
from .metric import (STRICT_MARGIN, TAU_COND, TAU_EQ, TAU_IDENT, Point, Space, _coords, _scaled, as_point,
                     exact_div, exact_eq, exact_points, is_exact)

__all__ = [
    "ConfigurationError",
    "OnEllipse",
    "InFiniteSet",
    "InHalfspace",
    "Otherwise",
    "Identity",
    "ConstantPoint",
    "Affine1D",
    "Rational1D",
    "SelfMap",
    "selfmap_from_piecewise",
    "SamplePlan",
    "exhaustive_plan",
    "default_plan",
    "CONDITION_IDS",
    "ConditionReport",
    "check_condition",
    "check_identity_condition",
    "TheoremVerdict",
    "THEOREM_FAMILIES",
    "certify",
    "make_fixing_map",
    "fixed_points_on",
]

class ConfigurationError(RuntimeError):
    """A self-map rule table failed to produce a value (gap or guard hit)."""


# ---------------------------------------------------------------------------
# regions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OnEllipse:
    ellipse: KEllipse
    tol: object = 0

    def __post_init__(self):
        if not ((is_exact(self.tol) or math.isfinite(self.tol)) and self.tol >= 0):
            raise ValueError(f"on_ellipse tol must be a finite number >= 0, got {self.tol!r}")

    def mask(self, P: np.ndarray) -> np.ndarray:
        return np.abs(self.ellipse.field.values(P) - self.ellipse.r) <= self.tol


@dataclass(frozen=True)
class InFiniteSet:
    points: tuple

    def __post_init__(self):
        object.__setattr__(self, "points", tuple(as_point(p) for p in self.points))

    def mask(self, P: np.ndarray) -> np.ndarray:
        out = np.zeros(len(P), dtype=bool)
        for p in self.points:
            if len(p) == P.shape[1]:
                out |= np.logical_and.reduce([col == c for col, c in zip(P.T, p)])
        return out


@dataclass(frozen=True)
class InHalfspace:
    """Points with coeffs . x <= offset."""

    coeffs: tuple
    offset: object

    def mask(self, P: np.ndarray) -> np.ndarray:
        return sum((c * col for c, col in zip(self.coeffs, P.T)), np.zeros(len(P), P.dtype)) <= self.offset


@dataclass(frozen=True)
class Otherwise:
    def mask(self, P: np.ndarray) -> np.ndarray:
        return np.ones(len(P), dtype=bool)


# ---------------------------------------------------------------------------
# actions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Identity:
    def __call__(self, x: Point) -> Point:
        return x


@dataclass(frozen=True)
class ConstantPoint:
    value: Point

    def __post_init__(self):
        object.__setattr__(self, "value", as_point(self.value))

    def __call__(self, x: Point) -> Point:
        return self.value


@dataclass(frozen=True)
class Affine1D:
    slope: object
    intercept: object

    def __call__(self, x: Point) -> Point:
        return Point((self.slope * x[0] + self.intercept,))


@dataclass(frozen=True)
class Rational1D:
    """x -> (a x + b) / (c x + d); the owning rule's region must exclude poles."""

    num: tuple     # (a, b)
    den: tuple     # (c, d)

    def __call__(self, x: Point) -> Point:
        a, b = self.num
        c, d = self.den
        nv = a * x[0] + b
        dv = c * x[0] + d
        if dv == 0:
            raise ConfigurationError(f"rational action evaluated at its pole x={x[0]}")
        return Point((exact_div(nv, dv),))


@dataclass(frozen=True)
class SelfMap:
    """Ordered (region, action) rules; the first matching region wins."""

    rules: tuple

    def __call__(self, x) -> Point:
        return self.map_points([x])[0]

    def map_points(self, points) -> list:
        """Tx for each point, in order. In one walk of the rules each region masks
        the points no earlier region matched; the actions then run in point
        order, so the first point that matches no rule or hits a pole raises."""
        pts = [as_point(x) for x in points]
        P, left = _coords(pts, len(pts[0]) if pts else 0), np.arange(len(pts))
        rule = np.full(len(pts), len(self.rules))
        for j, (region, _) in enumerate(self.rules):
            if len(left):
                hit = region.mask(P[left])
                rule[left[hit]] = j
                left = left[~hit]
        images = []
        for x, j in zip(pts, rule.tolist()):
            if j == len(self.rules):
                raise ConfigurationError(f"no rule matches {x}; add a final Otherwise rule")
            images.append(self.rules[j][1](x))
        return images


def selfmap_from_piecewise(f) -> SelfMap:
    """Wrap a PiecewiseAffine1D as a rule-table self-map on the line: each
    piece's domain, an `Interval`, is its region."""
    rules = [(f.piece_domain(i), Affine1D(a, b)) for i, (a, b) in enumerate(f.pieces)]
    rules.append((Otherwise(), Identity()))   # unreachable; keeps the table total
    return SelfMap(tuple(rules))


# ---------------------------------------------------------------------------
# sample plans
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SamplePlan:
    """On-set and off-set sample points for one level set.

    exhaustive: the plan covers every point of the space (finite spaces).
    exact: rational points, foci and radius in a space that keeps them so
    (`Space.keeps_rationals`): rational images are checked with zero slack.
    _memo: the last result of `_mapped` on the plan; set after construction,
    neither compared nor shown, it dies with the plan.
    """

    space: Space
    on_ellipse: tuple
    off_ellipse: tuple
    seed: int = 0
    exhaustive: bool = False
    exact: bool = False
    _memo: tuple | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def all_points(self) -> tuple:
        return self.on_ellipse + self.off_ellipse


def exhaustive_plan(e: KEllipse) -> SamplePlan:
    """Partition a finite space into on-set and off-set points, exactly
    (`geometry._on_level`)."""
    if not e.space.is_finite:
        raise ValueError("exhaustive plans require a finite space")
    pts = e.space.points
    hits = _on_level(e, pts)
    on = tuple(p for p, hit in zip(pts, hits) if hit)
    off = tuple(p for p, hit in zip(pts, hits) if not hit)
    exact = e.space.keeps_rationals and exact_points(e.r, pts)
    return SamplePlan(e.space, on, off, seed=0, exhaustive=True, exact=exact)


def _radical_inverse(index: np.ndarray, base: int) -> np.ndarray:
    """Halton's radical inverse in `base` of each index, each the float that the
    scalar loop f /= base; out += f * digit gives, digit by digit."""
    out, f, i = np.zeros(len(index)), 1.0, index.copy()
    while i.any():
        f /= base
        out += f * (i % base)
        i //= base
    return out


_HALTON_BASES = (2, 3, 5)
# Largest off_count of a plan. An off-set point costs up to 330 bytes on the
# line (a Point of a Fraction, its set entry and its share of the candidate
# draws) and up to 270 bytes in 2D and 3D (tracemalloc peak of default_plan at
# 1,024 and 4,096 points), so a plan at the bound holds about 22 MB.
MAX_PLAN_POINTS = 1 << 16


def default_plan(e: KEllipse, seed: int = 0, off_count: int = 512,
                 window=None, trace_config=None) -> SamplePlan:
    """Build the standard plan for a level set.

    Finite spaces get the exhaustive partition. On a 1D continuum the on-set
    points come from the exact level-set solve and the off-set points are
    seeded dyadic rationals (exact arithmetic end to end). In 2D/3D the on-set
    points are traced vertices / cloud points and the off-set points are
    Halton samples, both floating point. An off_count outside
    [1, MAX_PLAN_POINTS] is a ValueError, raised before any point is drawn.
    """
    if not 1 <= off_count <= MAX_PLAN_POINTS:
        raise ValueError(f"off_count {off_count} is outside [1, MAX_PLAN_POINTS = {MAX_PLAN_POINTS}]")
    if e.space.is_finite:
        return exhaustive_plan(e)
    if e.space.dimension == 1:
        return _plan_1d(e, seed, off_count, window)
    return _plan_nd(e, seed, off_count, trace_config)


def _plan_1d(e: KEllipse, seed: int, off_count: int, window) -> SamplePlan:
    sol = solve_1d([f[0] for f in e.foci], e.r)
    on: list[Point] = []
    if sol.kind is SolutionKind.POINTS:
        on = [Point((x,)) for x in sol.points]
    elif sol.kind is SolutionKind.INTERVAL:
        lo, hi = sol.interval
        on = [Point((lo,)), Point((Fraction(lo + hi, 2),)), Point((hi,))]
    on = [p for p in on if e.space.contains(p)]

    foci_vals = [f[0] for f in e.foci]
    if window is None:
        span = e.r + 1
        window = (min(foci_vals) - span, max(foci_vals) + span)
    lo_w, hi_w = window
    rng = random.Random(seed)
    seen = {p[0] for p in on}
    isolated = [] if e.space.membership is None else [
        p.lo for p in e.space.membership.parts if p.is_point and p.lo not in seen]
    off = _off_level(e, isolated)
    seen.update(p[0] for p in off)
    # dyadic candidates in blocks of the missing count, drawn and kept in the
    # order one draw at a time would keep them
    attempts, budget = 0, 50 * off_count
    while len(off) < off_count and attempts < budget:
        draws = [Fraction(rng.randint(int(lo_w * 64), int(hi_w * 64)), 64)
                 for _ in range(min(off_count - len(off), budget - attempts))]
        attempts += len(draws)
        for p in _off_level(e, [x for x in draws if x not in seen and e.space.contains(Point((x,)))]):
            if p[0] not in seen:
                off.append(p)
                seen.add(p[0])
    exact = exact_points(e.r, e.foci)
    return SamplePlan(e.space, tuple(on), tuple(off), seed=seed, exhaustive=False, exact=exact)


def _off_level(e: KEllipse, xs: list) -> list:
    """The points (x,) for x in xs, in order, at which the line field is not r."""
    pts = [Point((x,)) for x in xs]
    return [p for p, hit in zip(pts, _on_level(e, pts)) if not hit]


def _plan_nd(e: KEllipse, seed: int, off_count: int, trace_config) -> SamplePlan:
    from .tracer import TraceConfig, sample_3d, trace_2d

    if trace_config is None:
        F, r = np.array(e.foci, dtype=float), float(e.r)
        trace_config = TraceConfig(bbox=tuple(zip(F.min(axis=0) - r, F.max(axis=0) + r)), resolution=64)
    on_pts = (trace_2d(e, trace_config).all_vertices() if e.space.dimension == 2
              else sample_3d(e, trace_config).points)
    on = [Point(row) for row in on_pts.tolist()]

    # Halton candidates in blocks of the missing count, kept when off the set
    lo, hi = np.array(trace_config.bbox).T
    off: list = []
    i = start = random.Random(seed).randint(1, 1000)
    while len(off) < off_count and i < start + 100 * off_count:
        index = np.arange(i, min(i + off_count - len(off), start + 100 * off_count))
        i += len(index)
        P = lo + (hi - lo) * np.column_stack([_radical_inverse(index, b) for b in _HALTON_BASES[:len(lo)]])
        off += P[~(np.abs(e.field.values(P) - e.r) <= trace_config.refine_tol)].tolist()
    off = [Point(p) for p in off]
    return SamplePlan(e.space, tuple(on), tuple(off), seed=seed, exhaustive=False, exact=False)


# ---------------------------------------------------------------------------
# conditions
# ---------------------------------------------------------------------------

POINTWISE_IDS = ("Ek1", "Ek2", "E'k1", "E'k2", "E'''k1")
PAIR_FIT = {"Ek3": Fraction(1, 2), "E'k3": Fraction(1, 2), "E'''k4": 1, "Bk3": 1}
CONDITION_IDS = POINTWISE_IDS + tuple(PAIR_FIT) + ("E''k2", "E'''k2", "E'''k3", "Ik")

PASS, FAIL, VACUOUS = "Pass", "Fail", "Vacuous"


@dataclass(frozen=True)
class ConditionReport:
    condition_id: str
    verdict: str
    fitted_constant: object | None      # minimal feasible h or mu; may be math.inf
    worst_margin: object                # slack of the tightest sample (negative = violated)
    witness: tuple                      # points realizing the worst margin
    exhaustive: bool = False
    exact: bool = False
    notes: str = ""

    @property
    def passed(self) -> bool:
        return self.verdict == PASS


# The condition kernel computes every pair at once, so no package code calls
# pair_ratio. It stays only because bench/tracing.py wraps it by name, which
# tests/test_bench_hooks.py guards; it goes when the benchmark counts pairs
# another way. The tests' scalar form is in tests/oracles.py.
def pair_ratio(condition_id: str, m: SelfMap, e: KEllipse, x: Point, y: Point,
               tx: Point | None = None, ty: Point | None = None, tau=0):
    """Ratio bound-side for a constant-fitting pair condition.

    Returns None when both sides vanish (any constant works), math.inf when the
    bound side vanishes but the left side does not.
    """
    d = e.space.metric.distance
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


@dataclass(frozen=True)
class _Mapped:
    """Tx for the first len(images) plan points, and how many leading rows
    rational arithmetic decides (-1: not even the foci and radius). For those
    rows P and TP hold the points and images and r the radius, all times one
    common denominator D as Python ints, and FP and FTP the field at P and TP
    on the foci times D.
    """

    images: tuple
    exact_rows: int = -1
    D: int = 1
    r: int = 0
    P: np.ndarray | None = None
    TP: np.ndarray | None = None
    FP: np.ndarray | None = None
    FTP: np.ndarray | None = None


def _mapped(m: SelfMap, plan: SamplePlan, f: SumField, r, condition_ids) -> _Mapped:
    """Map the plan points the conditions read, and scale the rows that
    rational arithmetic decides: on an exact plan under a metric that keeps
    rationals (any metric on the line, L1 and Linf), with int/Fraction foci
    and radius, the on-set rows when their points and images are exact, and
    every row when the off-set ones are too. Every margin is then exact.

    The plan keeps the last result and serves it again to a call on the same
    m, f and r, compared by identity, unless that call reads every plan
    point and the kept one mapped the on-set points alone. All three are
    immutable and held by the plan, so no id is reused; the map must be a
    pure function, as the `fixed_point_set` memo assumes of maps. So the
    theorem families certified in turn on one plan and map share one mapping.
    """
    # Ik reads every image, and so does a pair fit when there are on-set
    # points to pair; the other conditions read the on-set images alone
    every = "Ik" in condition_ids or bool(plan.on_ellipse and any(cid in PAIR_FIT for cid in condition_ids))
    memo = plan._memo
    if memo and all(a is b for a, b in zip(memo, (m, f, r))) and (memo[3] or not every):
        return memo[4]
    images = m.map_points(plan.all_points if every else plan.on_ellipse)
    mapped = _Mapped(images)
    if plan.exact and f.space.keeps_rationals and exact_points(r, f.foci):
        points, n = plan.all_points[:len(images)], len(plan.on_ellipse)
        rows = 0
        if exact_points(r, points[:n], images[:n]):
            rows = len(points) if exact_points(r, points[n:], images[n:]) else n
        D, rs, (foci, P, TP) = _scaled(r, (f.foci, points[:rows], images[:rows]), f.space.dimension)
        metric = f.space.metric
        mapped = _Mapped(images, rows, D, rs, P, TP, _field(metric, foci, P), _field(metric, foci, TP))
    object.__setattr__(plan, "_memo", (m, f, r, every, mapped))
    return mapped


def _fit_report(condition_id, fitted, threshold, strict, witness, meta) -> ConditionReport:
    margin = threshold - fitted if fitted != math.inf else -math.inf
    verdict = PASS if fitted != math.inf and fitted < threshold - strict else FAIL
    return ConditionReport(condition_id, verdict, fitted, margin, witness, **meta)


def check_condition(condition_id: str, m: SelfMap, e: KEllipse, plan: SamplePlan) -> ConditionReport:
    """Evaluate one condition over a plan and report verdict/constant/witness.

    The plan points the condition reads are mapped once and handed to the
    condition kernel, which runs on one of two dtypes. Exact inputs (see
    `_mapped`) are scaled to Python ints on one common denominator and
    checked with zero slack; the witness's margin is then computed from its
    own int/Fraction numbers, so every margin is rational. Every other input
    gives float arrays, checked with slack TAU_COND and strict margin
    STRICT_MARGIN; its report has exact=False.
    """
    if condition_id not in CONDITION_IDS:
        raise ValueError(f"unknown condition id {condition_id!r}; choose from {CONDITION_IDS}")
    if condition_id == "Ik":
        return check_identity_condition(m, e.field, plan)
    return _check(condition_id, e.field, e.r, plan, _mapped(m, plan, e.field, e.r, (condition_id,)))


def check_identity_condition(m: SelfMap, f: SumField, plan: SamplePlan) -> ConditionReport:
    """Check d(x, Tx) <= (sum-field drop)/(k+1), for k foci, over the whole plan.

    A passing point is necessarily a fixed point (the bound self-collapses);
    the report notes the last passing point that moves by more than
    TAU_IDENT, which only float rounding can produce. The check runs in the
    condition kernel on exact or float arrays, as in check_condition.
    """
    return _check("Ik", f, 0, plan, _mapped(m, plan, f, 0, ("Ik",)))


# ---------------------------------------------------------------------------
# the condition kernel: every condition as array reductions over the plan
# ---------------------------------------------------------------------------

PAIR_BLOCK = 1 << 18   # most entries in one temporary of a blocked pair reduction


def _divide(num, den, fill, tau) -> np.ndarray:
    """num / den where den > tau, else fill, on float arrays."""
    return np.divide(num, den, out=np.full(num.shape, fill, dtype=den.dtype), where=den > tau)


def _first_ratio(sides) -> tuple:
    """(flat index, value) of the first largest num/den, in row-major order,
    of int arrays sides = (num, den) >= 0: a Fraction, or math.inf where
    den = 0 < num, or -1 where both are 0 (a skipped pair).

    Python's int true division rounds correctly, so it is monotone: the exact
    maximum lies among the entries whose float quotient is the largest. Those
    are compared by integer cross-multiplication, in order, so that ties keep
    the first (the float filter of Fortune & Van Wyk 1993 and Shewchuk 1997).
    """
    num, den = (a.ravel() for a in sides)
    live = den > 0
    q = np.where(num > 0, math.inf, -1.0)
    try:
        q[live] = (num[live] / den[live]).astype(float)
    except OverflowError:       # a ratio beyond the largest float: saturate, still monotone
        q[live] = [_quotient(a, b) for a, b in zip(num[live].tolist(), den[live].tolist())]
    flat = int(q.argmax())
    top = q.item(flat)
    if top < 0 or top == math.inf:
        return flat, top
    for c in np.flatnonzero(q == top)[1:].tolist():
        if num[c] * den[flat] > num[flat] * den[c]:
            flat = c
    return flat, Fraction(num[flat], den[flat])


def _quotient(a: int, b: int) -> float:
    """a / b, or the largest float when it is larger."""
    try:
        return a / b
    except OverflowError:
        return sys.float_info.max


def _extreme(rows: int, cols: int, dim: int, block, largest: bool, first=None):
    """(value, i, j) of the first largest (or smallest) entry, in row-major
    order, of the (rows, cols) matrix that block(i0, i1) yields row slice by
    row slice; None when the matrix is empty. first(slice) gives a slice's
    (flat index, value): by default its argmax or argmin. A slice holds
    PAIR_BLOCK // (cols * dim) rows, at least one, so that its (rows, cols,
    dim) coordinate gaps stay within PAIR_BLOCK entries whenever one row does."""
    if rows == 0 or cols == 0:
        return None
    step = max(1, PAIR_BLOCK // (cols * dim))
    best = None
    for i0 in range(0, rows, step):
        vals = block(i0, min(rows, i0 + step))
        if first:
            flat, v = first(vals)
        else:
            flat = int(vals.argmax() if largest else vals.argmin())
            v = vals.item(flat)
        if best is None or (v > best[0] if largest else v < best[0]):
            best = (v, i0 + flat // cols, flat % cols)
    return best


def _check(condition_id, f: SumField, r, plan: SamplePlan, mapped: _Mapped) -> ConditionReport:
    """One condition over the plan, the points mapped as `mapped` holds them.
    Pair reductions run in blocks; ties keep the first witness in plan order.
    On exact rows the search runs on D times every distance, as Python ints;
    the witness's margin is then computed from its own int/Fraction numbers,
    so that its value and type are those of unscaled rational arithmetic (a
    pair ratio is the same with or without the scale).
    """
    on = plan.on_ellipse
    n = len(on)
    rows = len(plan.all_points) if condition_id in PAIR_FIT or condition_id == "Ik" else n
    if not rows or condition_id != "Ik" and not on:
        return ConditionReport(condition_id, VACUOUS, None, 0, (), plan.exhaustive, mapped.exact_rows >= 0,
                               "empty plan" if condition_id == "Ik" else "no on-set samples")
    points, images = plan.all_points[:rows], mapped.images[:rows]
    exact = rows <= mapped.exact_rows
    meta = dict(exhaustive=plan.exhaustive, exact=exact)
    tau, strict = (0, 0) if exact else (TAU_COND, STRICT_MARGIN)
    metric, dim = f.space.metric, f.space.dimension
    if exact:
        P, TP, rs = mapped.P[:rows], mapped.TP[:rows], mapped.r
    else:
        P, TP, rs = _coords(points, dim, False), _coords(images, dim, False), float(r)
    X, TX, Y, TY = P[:n], TP[:n], P[n:], TP[n:]
    off = points[n:]

    def own(i):
        """Point i and its image as one-row arrays of their own int/Fraction numbers."""
        return _coords(points[i:i + 1], dim, True), _coords(images[i:i + 1], dim, True)

    if condition_id == "Ik":
        k, step = len(f.foci), metric.rowwise(P, TP)
        if exact:       # (k + 1) D times the margin
            margins = (mapped.FP[:rows] - mapped.FTP[:rows]) - (k + 1) * step
        else:
            margins = (f.values(P) - f.values(TP)) / (k + 1) - step
        i = int(margins.argmin())
        if exact:
            p, tp = own(i)
            worst = ((f.values(p) - f.values(tp)) / Fraction(k + 1) - metric.rowwise(p, tp)).item(0)
        else:
            worst = margins.item(i)
        ident = Fraction(TAU_IDENT) * mapped.D if exact else TAU_IDENT
        moved = np.flatnonzero((margins >= -tau) & (step > ident))
        notes = f"passing point {points[moved[-1]]} is not fixed" if len(moved) else ""
        return ConditionReport("Ik", PASS if worst >= -tau else FAIL, None, worst,
                               (points[i],), **meta, notes=notes)

    if condition_id in POINTWISE_IDS:
        def pointwise(X, TX, r, fx, ftx):
            """The margins at X, given the field at X (read by Ek1 and E'k1
            alone) and at TX."""
            if condition_id == "Ek1":
                return (fx - ftx) - metric.rowwise(X, TX)
            if condition_id == "Ek2":
                return ftx - r
            if condition_id == "E'k1":
                return (fx + ftx - 2 * r) - metric.rowwise(X, TX)
            if condition_id == "E'k2":
                return r - ftx
            return -np.abs(ftx - r)

        def fields(X, TX):
            return f.values(X) if condition_id in ("Ek1", "E'k1") else None, f.values(TX)

        margins = pointwise(X, TX, rs, *((mapped.FP[:n], mapped.FTP[:n]) if exact else fields(X, TX)))
        i = int(margins.argmin())
        if exact:
            x, tx = own(i)
            worst = pointwise(x, tx, r, *fields(x, tx)).item(0)
        else:
            worst = margins.item(i)
        verdict = PASS if worst >= -tau else FAIL
        return ConditionReport(condition_id, verdict, None, worst, (on[i],), **meta)

    if condition_id in PAIR_FIT:
        sx, sy = metric.rowwise(X, TX), metric.rowwise(Y, TY)

        def sides(i0, i1):
            x, tx = X[i0:i1], TX[i0:i1]
            num = metric.pairwise(tx, TY)
            if condition_id == "Ek3":
                den = sx[i0:i1, None] + sy
            elif condition_id == "E'k3":
                den = metric.pairwise(tx, Y) + metric.pairwise(x, TY)
            elif condition_id == "E'''k4":
                den = np.maximum(sx[i0:i1, None], sy)
                for term in (metric.pairwise(x, TY), metric.pairwise(tx, Y), metric.pairwise(x, Y)):
                    den = np.maximum(den, term)
            else:
                den = metric.pairwise(x, Y)
            return num, den

        def ratios(i0, i1):
            num, den = sides(i0, i1)
            # -1 marks a skipped pair: both sides vanish, so any constant works
            out = _divide(num, den, -1, tau)
            out[(den <= tau) & (num > tau)] = math.inf
            return out

        if exact:
            best = _extreme(n, len(off), dim, sides, largest=True, first=_first_ratio)
        else:
            best = _extreme(n, len(off), dim, ratios, largest=True)
        if best is None or best[0] < 0:
            return ConditionReport(condition_id, VACUOUS, None, 0, (), **meta,
                                   notes="no informative pairs")
        fitted, i, j = best
        return _fit_report(condition_id, fitted, PAIR_FIT[condition_id], strict, (on[i], off[j]), meta)

    if condition_id == "E''k2":
        deficit = rs - (mapped.FTP[:n] if exact else f.values(TX))
        short = deficit > 0
        if exact:
            i, need = _first_ratio((np.where(short, deficit, 0), np.where(short, metric.rowwise(X, TX), 1)))
        else:
            need = _divide(deficit, metric.rowwise(X, TX), math.inf, tau)
            need[~short] = 0
            i = int(need.argmax())
            need = need.item(i)
        fitted = need if short[i] else 0
        return _fit_report(condition_id, fitted, 1, strict, (on[i],), meta)

    if condition_id == "E'''k2":
        def margins(i0, i1):
            out = metric.pairwise(TX[i0:i1], TX) - rs
            keep = np.arange(n) > np.arange(i0, i1)[:, None]
            keep &= (X[i0:i1, None, :] != X[None, :, :]).any(axis=-1)
            out[~keep] = math.inf
            return out

        best = _extreme(n, n, dim, margins, largest=False)
        if best is None or best[0] == math.inf:
            return ConditionReport(condition_id, VACUOUS, None, 0, (), **meta,
                                   notes="fewer than two distinct on-set samples")
        worst, i, j = best
        if exact:
            worst = (metric.pairwise(own(i)[1], own(j)[1]) - r).item(0)
        return ConditionReport(condition_id, PASS if worst > -tau else FAIL,
                               None, worst, (on[i], on[j]), **meta)

    if condition_id == "E'''k3":
        def penalty(X, TX, r):     # the radius gap s -> s - r, 0 at s = 0, of the step s
            step = metric.rowwise(X, TX)
            return np.where(step > 0, step - r, 0)

        def margins(x, tx, gap, X, TX):
            return (metric.pairwise(x, X) - gap[:, None]) - metric.pairwise(tx, TX)

        gap = penalty(X, TX, rs)
        worst, i, j = _extreme(n, n, dim, lambda i0, i1: margins(X[i0:i1], TX[i0:i1], gap[i0:i1], X, TX),
                               largest=False)
        if exact:
            (x, tx), (y, ty) = own(i), own(j)
            worst = margins(x, tx, penalty(x, tx, r), y, ty).item(0)
        verdict = PASS if worst >= -tau else FAIL
        return ConditionReport(condition_id, verdict, None, worst, (on[i], on[j]), **meta)

    raise AssertionError(f"unhandled condition {condition_id}")


# ---------------------------------------------------------------------------
# theorem-level certification
# ---------------------------------------------------------------------------

# family -> (label, existence condition ids, uniqueness condition ids). For
# k >= 2, t4 existence is never certified on two or more on-set points: two
# points x, y of one level set have k d(x, y) <= sum_i (d(x, c_i) + d(c_i, y))
# = 2r, so d(x, y) <= r, and E'''k1 puts Tx and Ty on the set, where E'''k2
# asks d(Tx, Ty) > r.
THEOREM_FAMILIES = {
    "t1": ("caristi-kannan", ("Ek1", "Ek2"), ("Ek3",)),
    "t2": ("chatterjea", ("E'k1", "E'k2"), ("E'k3",)),
    "t3": ("caristi-slack", ("Ek1", "E''k2"), ("Ek3",)),
    "t4": ("ciric", ("E'''k1", "E'''k2", "E'''k3"), ("E'''k4",)),
}


@dataclass(frozen=True)
class TheoremVerdict:
    theorem: str
    family: str
    existence_certified: bool
    uniqueness_certified: bool
    reports: dict
    exhaustive: bool

    @property
    def qualifier(self) -> str:
        return "exact (exhaustive plan)" if self.exhaustive else "certified on samples"


def certify(theorem: str, m: SelfMap, e: KEllipse, plan: SamplePlan) -> TheoremVerdict:
    """Aggregate one condition family into existence/uniqueness flags.

    The plan points are mapped, the rows that rational arithmetic decides are
    settled and scaled, and the field is taken at them and at their images,
    once for a plan and map: families certified in turn on the same plan and
    map share that work (`_mapped`). Vacuous conditions do not block
    certification; any Fail does. On finite spaces with exhaustive plans the
    verdict is exact, otherwise it holds on the sampled plan only.
    """
    key = theorem.lower()
    if key not in THEOREM_FAMILIES:
        raise ValueError(f"unknown theorem {theorem!r}; choose from {sorted(THEOREM_FAMILIES)}")
    family, existence_ids, uniqueness_ids = THEOREM_FAMILIES[key]
    ids = existence_ids + uniqueness_ids
    mapped = _mapped(m, plan, e.field, e.r, ids)
    reports = {cid: _check(cid, e.field, e.r, plan, mapped) for cid in ids}
    existence = all(reports[cid].verdict != FAIL for cid in existence_ids)
    uniqueness = all(reports[cid].verdict != FAIL for cid in uniqueness_ids)
    return TheoremVerdict(key, family, existence, uniqueness, reports, plan.exhaustive)


def make_fixing_map(ellipses, fallback) -> SelfMap:
    """The canonical map fixing each listed level set: identity on their union,
    a constant fallback elsewhere. The fallback must lie on none of the sets."""
    ellipses = list(ellipses)
    if not ellipses:
        raise ValueError("need at least one level set")
    fb = as_point(fallback)
    rules = []
    for e in ellipses:
        v = e.field.value(fb)
        if exact_eq(v, e.r):
            raise ValueError(f"fallback {fb} lies on the level set (field value {v} = r)")
        tol = 0 if (e.space.is_finite or e.space.dimension == 1) else TAU_EQ
        rules.append((OnEllipse(e, tol), Identity()))
    rules.append((Otherwise(), ConstantPoint(fb)))
    return SelfMap(tuple(rules))


def fixed_points_on(m: SelfMap, plan: SamplePlan) -> list[Point]:
    """Plan points x with d(x, Tx) within the identification tolerance.

    The tolerance is 0 only for a rational step on an exact plan; a float
    step (a float map on a rational plan, say) gets TAU_IDENT.
    """
    points, dim = plan.all_points, plan.space.dimension
    steps = plan.space.metric.rowwise(_coords(points, dim), _coords(m.map_points(points), dim))
    return [x for x, step in zip(points, steps.tolist())
            if step <= (0 if plan.exact and is_exact(step) else TAU_IDENT)]
