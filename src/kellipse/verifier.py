"""Self-maps and numeric verification of fixed-figure conditions.

A self-map is an ordered rule table (region mask, action), applied to a list
of points at once; a sample plan pairs on-level-set points with ambient
points, classifying its candidates with one `SumField.values` call per
block. Every condition is computed by one kernel of numpy reductions over
the plan's distance vectors and pairwise distance matrices (in blocks of at
most PAIR_BLOCK entries), on one of two dtypes, with every distance from the
metric's one norm, `Metric.column_norm`. When the plan is exact, the metric
keeps rationals (the line, L1, Linf) and the foci, the radius, the plan
points and their images all have int/Fraction coordinates, the kernel runs
on object arrays in rational arithmetic with zero slack, and the report is
"exact": every margin is an int or a Fraction. Every other input runs on
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
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .geometry import KEllipse, SolutionKind, SumField, solve_1d
from .metric import (_FRACTION, STRICT_MARGIN, TAU_COND, TAU_EQ, TAU_IDENT, Point, Space, _coords,
                     as_point, exact_div, exact_eq, exact_points, is_exact)

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

    def mask(self, P: np.ndarray) -> np.ndarray:
        if self.tol < 0:
            raise ValueError("tol must be >= 0")
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
    """

    space: Space
    on_ellipse: tuple
    off_ellipse: tuple
    seed: int = 0
    exhaustive: bool = False
    exact: bool = False

    @property
    def all_points(self) -> tuple:
        return self.on_ellipse + self.off_ellipse


def exhaustive_plan(e: KEllipse) -> SamplePlan:
    """Partition a finite space into on-set and off-set points, exactly."""
    if not e.space.is_finite:
        raise ValueError("exhaustive plans require a finite space")
    pts = e.space.points
    on, off = [], []
    for p, v in zip(pts, e.field.values(_coords(pts, e.space.dimension)).tolist()):
        (on if exact_eq(v, e.r) else off).append(p)
    exact = e.space.keeps_rationals and exact_points(e.r, pts)
    return SamplePlan(e.space, tuple(on), tuple(off), seed=0, exhaustive=True, exact=exact)


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


def default_plan(e: KEllipse, seed: int = 0, off_count: int = 512,
                 window=None, trace_config=None) -> SamplePlan:
    """Build the standard plan for a level set.

    Finite spaces get the exhaustive partition. On a 1D continuum the on-set
    points come from the exact level-set solve and the off-set points are
    seeded dyadic rationals (exact arithmetic end to end). In 2D/3D the on-set
    points are traced vertices / cloud points and the off-set points are
    Halton samples, both floating point.
    """
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
    values = e.field.values(_coords([(x,) for x in xs], 1)).tolist()
    return [Point((x,)) for x, v in zip(xs, values) if not exact_eq(v, e.r)]


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


def _runs_exact(plan: SamplePlan, f: SumField, points, images, r) -> bool:
    """Rational arithmetic decides a check: an exact plan under a metric that
    keeps rationals (any metric on the line, L1 and Linf), with int/Fraction
    foci, radius, points and images. Every margin is then exact."""
    return plan.exact and f.space.keeps_rationals and exact_points(r, f.foci, points, images)


def _fit_report(condition_id, fitted, threshold, strict, witness, meta) -> ConditionReport:
    margin = threshold - fitted if fitted != math.inf else -math.inf
    verdict = PASS if fitted != math.inf and fitted < threshold - strict else FAIL
    return ConditionReport(condition_id, verdict, fitted, margin, witness, **meta)


def check_condition(condition_id: str, m: SelfMap, e: KEllipse, plan: SamplePlan) -> ConditionReport:
    """Evaluate one condition over a plan and report verdict/constant/witness.

    The plan points the condition reads are mapped once and handed to the
    condition kernel, which runs on one of two dtypes. Exact inputs (see
    `_runs_exact`) give object arrays of int/Fraction, checked with zero
    slack, so every margin is rational. Every other input gives float arrays,
    checked with slack TAU_COND and strict margin STRICT_MARGIN; its report
    has exact=False.
    """
    if condition_id not in CONDITION_IDS:
        raise ValueError(f"unknown condition id {condition_id!r}; choose from {CONDITION_IDS}")
    if condition_id == "Ik":
        return check_identity_condition(m, e.field, plan)
    return _check(condition_id, e.field, e.r, e.k, plan, _images(m, plan, (condition_id,)))


def check_identity_condition(m: SelfMap, f: SumField, plan: SamplePlan) -> ConditionReport:
    """Check d(x, Tx) <= (sum-field drop)/(k+1), for k foci, over the whole plan.

    A passing point is necessarily a fixed point (the bound self-collapses);
    the report notes the last passing point that moves by more than
    TAU_IDENT, which only float rounding can produce. The check runs in the
    condition kernel on exact or float arrays, as in check_condition.
    """
    return _check("Ik", f, 0, len(f.foci), plan, _images(m, plan, ("Ik",)))


def _images(m: SelfMap, plan: SamplePlan, condition_ids) -> list:
    """Tx for each plan point the conditions read, in plan order, each point
    mapped once: every point for Ik, and for a pair fit when the plan has
    on-set points to pair; otherwise the on-set points alone."""
    pairs = plan.on_ellipse and any(cid in PAIR_FIT for cid in condition_ids)
    points = plan.all_points if "Ik" in condition_ids or pairs else plan.on_ellipse
    return m.map_points(points)


# ---------------------------------------------------------------------------
# the condition kernel: every condition as array reductions over the plan
# ---------------------------------------------------------------------------

PAIR_BLOCK = 1 << 18   # most entries in one temporary of a blocked pair reduction


def _divide(num, den, fill, tau, exact: bool) -> np.ndarray:
    """num / den where den > tau, else fill. Exact denominators become
    Fractions first: an int over an int would give a float."""
    if exact:
        den = _FRACTION(den)
    return np.divide(num, den, out=np.full(num.shape, fill, dtype=den.dtype), where=den > tau)


def _extreme(rows: int, cols: int, dim: int, block, largest: bool):
    """(value, i, j) of the first largest (or smallest) entry, in row-major
    order, of the (rows, cols) matrix that block(i0, i1) yields row slice by
    row slice; None when the matrix is empty. A slice holds PAIR_BLOCK //
    (cols * dim) rows, at least one, so that its (rows, cols, dim) coordinate
    gaps stay within PAIR_BLOCK entries whenever one row does."""
    if rows == 0 or cols == 0:
        return None
    step = max(1, PAIR_BLOCK // (cols * dim))
    best = None
    for i0 in range(0, rows, step):
        vals = block(i0, min(rows, i0 + step))
        flat = int(vals.argmax() if largest else vals.argmin())
        v = vals.item(flat)
        if best is None or (v > best[0] if largest else v < best[0]):
            best = (v, i0 + flat // cols, flat % cols)
    return best


def _check(condition_id, f: SumField, r, k: int, plan: SamplePlan, images) -> ConditionReport:
    """One condition over the plan. images lists Tx for the plan points in
    plan order, at least for those the condition reads: the on-set points,
    then, for the pair fits and Ik, the off-set points. Pair reductions run
    in blocks; ties keep the first witness in plan order."""
    on = plan.on_ellipse
    n = len(on)
    points = plan.all_points if condition_id in PAIR_FIT or condition_id == "Ik" else on
    if not points or condition_id != "Ik" and not on:
        return ConditionReport(condition_id, VACUOUS, None, 0, (), plan.exhaustive,
                               _runs_exact(plan, f, (), (), r),
                               "empty plan" if condition_id == "Ik" else "no on-set samples")
    images = images[:len(points)]
    exact = _runs_exact(plan, f, points, images, r)
    meta = dict(exhaustive=plan.exhaustive, exact=exact)
    tau, strict = (0, 0) if exact else (TAU_COND, STRICT_MARGIN)
    metric, dim = f.space.metric, f.space.dimension
    r = r if exact else float(r)
    P, TP = _coords(points, dim, exact), _coords(images, dim, exact)
    X, TX, Y, TY = P[:n], TP[:n], P[n:], TP[n:]
    off = points[n:]

    if condition_id == "Ik":
        step = metric.rowwise(P, TP)
        margins = (f.values(P) - f.values(TP)) / (Fraction(k + 1) if exact else k + 1) - step
        i = int(margins.argmin())
        moved = np.flatnonzero((margins >= -tau) & (step > TAU_IDENT))
        notes = f"passing point {points[moved[-1]]} is not fixed" if len(moved) else ""
        return ConditionReport("Ik", PASS if margins[i] >= -tau else FAIL, None, margins.item(i),
                               (points[i],), **meta, notes=notes)

    if condition_id in POINTWISE_IDS:
        ftx = f.values(TX)
        if condition_id == "Ek1":
            margins = (f.values(X) - ftx) - metric.rowwise(X, TX)
        elif condition_id == "Ek2":
            margins = ftx - r
        elif condition_id == "E'k1":
            margins = (f.values(X) + ftx - 2 * r) - metric.rowwise(X, TX)
        elif condition_id == "E'k2":
            margins = r - ftx
        else:
            margins = -np.abs(ftx - r)
        i = int(margins.argmin())
        verdict = PASS if margins[i] >= -tau else FAIL
        return ConditionReport(condition_id, verdict, None, margins.item(i), (on[i],), **meta)

    if condition_id in PAIR_FIT:
        sx, sy = metric.rowwise(X, TX), metric.rowwise(Y, TY)

        def ratios(i0, i1):
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
            # -1 marks a skipped pair: both sides vanish, so any constant works
            out = _divide(num, den, -1, tau, exact)
            out[(den <= tau) & (num > tau)] = math.inf
            return out

        best = _extreme(n, len(off), dim, ratios, largest=True)
        if best is None or best[0] < 0:
            return ConditionReport(condition_id, VACUOUS, None, 0, (), **meta,
                                   notes="no informative pairs")
        fitted, i, j = best
        return _fit_report(condition_id, fitted, PAIR_FIT[condition_id], strict, (on[i], off[j]), meta)

    if condition_id == "E''k2":
        deficit = r - f.values(TX)
        short = deficit > 0
        need = _divide(deficit, metric.rowwise(X, TX), math.inf, tau, exact)
        need[~short] = 0
        i = int(need.argmax())
        fitted = need.item(i) if short[i] else 0
        return _fit_report(condition_id, fitted, 1, strict, (on[i],), meta)

    if condition_id == "E'''k2":
        def margins(i0, i1):
            out = metric.pairwise(TX[i0:i1], TX) - r
            keep = np.arange(n) > np.arange(i0, i1)[:, None]
            keep &= (X[i0:i1, None, :] != X[None, :, :]).any(axis=-1)
            out[~keep] = math.inf
            return out

        best = _extreme(n, n, dim, margins, largest=False)
        if best is None or best[0] == math.inf:
            return ConditionReport(condition_id, VACUOUS, None, 0, (), **meta,
                                   notes="fewer than two distinct on-set samples")
        worst, i, j = best
        return ConditionReport(condition_id, PASS if worst > -tau else FAIL,
                               None, worst, (on[i], on[j]), **meta)

    if condition_id == "E'''k3":
        step = metric.rowwise(X, TX)
        penalty = np.where(step > 0, step - r, 0)    # the radius gap s -> s - r, 0 at s = 0

        def margins(i0, i1):
            return ((metric.pairwise(X[i0:i1], X) - penalty[i0:i1, None])
                    - metric.pairwise(TX[i0:i1], TX))

        worst, i, j = _extreme(n, n, dim, margins, largest=False)
        verdict = PASS if worst >= -tau else FAIL
        return ConditionReport(condition_id, verdict, None, worst, (on[i], on[j]), **meta)

    raise AssertionError(f"unhandled condition {condition_id}")


# ---------------------------------------------------------------------------
# theorem-level certification
# ---------------------------------------------------------------------------

# family -> (label, existence condition ids, uniqueness condition ids)
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

    The plan points are mapped once for the whole family. Vacuous conditions
    do not block certification; any Fail does. On finite spaces with
    exhaustive plans the verdict is exact, otherwise it holds on the sampled
    plan only.
    """
    key = theorem.lower()
    if key not in THEOREM_FAMILIES:
        raise ValueError(f"unknown theorem {theorem!r}; choose from {sorted(THEOREM_FAMILIES)}")
    family, existence_ids, uniqueness_ids = THEOREM_FAMILIES[key]
    ids = existence_ids + uniqueness_ids
    images = _images(m, plan, ids)
    reports = {cid: _check(cid, e.field, e.r, e.k, plan, images) for cid in ids}
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
