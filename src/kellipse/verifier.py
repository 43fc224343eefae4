"""Self-maps and numeric verification of fixed-figure conditions.

A self-map is an ordered rule table (region predicate, action); a sample plan
pairs on-level-set points with ambient points. A report is "exact" when every
margin in it is an int or a Fraction: the plan is exact and the foci, the
radius, the plan points and their images under the map all have int/Fraction
coordinates. Such checks run as scalar loops in rational arithmetic with zero
slack. Every other plan is checked by numpy array reductions over the pairwise
distance matrices, in blocks of at most PAIR_BLOCK entries, with a 1e-9 slack.
Pair conditions fit the minimal feasible constant and report the witness pair
(the first in plan order on ties); every verdict is qualified by whether the
plan was exhaustive.

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
from itertools import combinations

import numpy as np

from .geometry import (KEllipse, PointClass, SolutionKind, SumField, classify,
                       solve_1d)
from .metric import TAU_EQ, Point, Space, as_point

__all__ = [
    "ConfigurationError",
    "OnEllipse",
    "InFiniteSet",
    "InInterval",
    "InHalfspace",
    "Otherwise",
    "Identity",
    "ConstantPoint",
    "Affine1D",
    "Rational1D",
    "SelfMap",
    "evaluate",
    "selfmap_from_piecewise",
    "SamplePlan",
    "exhaustive_plan",
    "default_plan",
    "RadiusGap",
    "CONDITION_IDS",
    "ConditionReport",
    "check_condition",
    "check_identity_condition",
    "check_Ik",
    "TheoremVerdict",
    "THEOREM_FAMILIES",
    "certify",
    "make_fixing_map",
    "fixed_points_on",
]

TAU_COND = 1e-9     # inequality slack on floating-point plans (0 when exact)
TAU_IDENT = 1e-9    # fixed-point identification tolerance
STRICT_MARGIN = 1e-9  # required gap below open-interval constant thresholds


class ConfigurationError(RuntimeError):
    """A self-map rule table failed to produce a value (gap or guard hit)."""


# ---------------------------------------------------------------------------
# regions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OnEllipse:
    ellipse: KEllipse
    tol: object = 0

    def matches(self, x: Point) -> bool:
        return classify(self.ellipse, x, self.tol) is PointClass.ON


@dataclass(frozen=True)
class InFiniteSet:
    points: tuple

    def __post_init__(self):
        object.__setattr__(self, "points", tuple(as_point(p) for p in self.points))

    def matches(self, x: Point) -> bool:
        return any(x == p for p in self.points)


@dataclass(frozen=True)
class InInterval:
    """1D interval predicate; None endpoints mean unbounded."""

    lo: object = None
    hi: object = None
    lo_open: bool = False
    hi_open: bool = False

    def matches(self, x: Point) -> bool:
        v = x[0]
        if self.lo is not None and (v < self.lo or (v == self.lo and self.lo_open)):
            return False
        if self.hi is not None and (v > self.hi or (v == self.hi and self.hi_open)):
            return False
        return True


@dataclass(frozen=True)
class InHalfspace:
    """Points with coeffs . x <= offset."""

    coeffs: tuple
    offset: object

    def matches(self, x: Point) -> bool:
        return sum(c * v for c, v in zip(self.coeffs, x)) <= self.offset


class Otherwise:
    def matches(self, x: Point) -> bool:
        return True

    def __repr__(self) -> str:
        return "Otherwise()"

    def __eq__(self, other) -> bool:
        return isinstance(other, Otherwise)

    def __hash__(self) -> int:
        return hash("Otherwise")


# ---------------------------------------------------------------------------
# actions
# ---------------------------------------------------------------------------

class Identity:
    def __call__(self, x: Point) -> Point:
        return x

    def __repr__(self) -> str:
        return "Identity()"

    def __eq__(self, other) -> bool:
        return isinstance(other, Identity)

    def __hash__(self) -> int:
        return hash("Identity")


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
        return Point((_div(nv, dv),))


def _is_exact(v) -> bool:
    return isinstance(v, (int, Fraction)) and not isinstance(v, bool)


def _div(num, den):
    if _is_exact(num) and _is_exact(den):
        return Fraction(num, den) if isinstance(num, int) and isinstance(den, int) \
            else Fraction(num) / Fraction(den)
    return num / den


@dataclass(frozen=True)
class SelfMap:
    """Ordered (region, action) rules; the first matching region wins."""

    rules: tuple

    def __call__(self, x) -> Point:
        pt = as_point(x)
        for region, action in self.rules:
            if region.matches(pt):
                return action(pt)
        raise ConfigurationError(f"no rule matches {pt}; add a final Otherwise rule")


def evaluate(self_map: SelfMap, x) -> Point:
    """Apply the first matching rule's action to x."""
    return self_map(x)


def selfmap_from_piecewise(f) -> SelfMap:
    """Wrap a PiecewiseAffine1D as a rule-table self-map on the line."""
    rules = []
    for i, (a, b) in enumerate(f.pieces):
        dom = f.piece_domain(i)
        lo = None if dom.lo == -math.inf else dom.lo
        hi = None if dom.hi == math.inf else dom.hi
        rules.append((InInterval(lo, hi, dom.lo_open, dom.hi_open), Affine1D(a, b)))
    rules.append((Otherwise(), Identity()))   # unreachable; keeps the table total
    return SelfMap(tuple(rules))


# ---------------------------------------------------------------------------
# sample plans
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SamplePlan:
    """On-set and off-set sample points for one level set.

    exhaustive: the plan covers every point of the space (finite spaces).
    exact: the points, foci and radius are rational, so a map whose images
    are rational too is checked in rational arithmetic (zero slack).
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
    on, off = [], []
    for p in e.space.points:
        v = e.field.value(p)
        target = on if _exact_eq(v, e.r) else off
        target.append(p)
    exact = (_is_exact(e.r)
             and all(all(_is_exact(c) for c in p) for p in e.space.points))
    return SamplePlan(e.space, tuple(on), tuple(off), seed=0, exhaustive=True, exact=exact)


def _exact_eq(v, r) -> bool:
    if _is_exact(v) and _is_exact(r):
        return v == r
    return abs(v - r) <= TAU_EQ


def _halton(index: int, base: int) -> float:
    out, f = 0.0, 1.0
    i = index
    while i > 0:
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
    off: list[Point] = []
    seen = {p[0] for p in on}
    if e.space.membership is not None:
        for iso in e.space.membership.isolated:
            if iso not in seen and not _exact_eq(e.field.value(Point((iso,))), e.r):
                off.append(Point((iso,)))
                seen.add(iso)
    attempts = 0
    while len(off) < off_count and attempts < 50 * off_count:
        attempts += 1
        x = Fraction(rng.randint(int(lo_w * 64), int(hi_w * 64)), 64)
        if x in seen:
            continue
        p = Point((x,))
        if not e.space.contains(p):
            continue
        if _exact_eq(e.field.value(p), e.r):
            continue
        off.append(p)
        seen.add(x)
    exact = _is_exact(e.r) and all(_is_exact(f[0]) for f in e.foci)
    return SamplePlan(e.space, tuple(on), tuple(off), seed=seed, exhaustive=False, exact=exact)


def _plan_nd(e: KEllipse, seed: int, off_count: int, trace_config) -> SamplePlan:
    from .tracer import TraceConfig, sample_3d, trace_2d

    if trace_config is None:
        r = float(e.r)
        bbox = tuple(
            (min(float(f[a]) for f in e.foci) - r, max(float(f[a]) for f in e.foci) + r)
            for a in range(e.space.dimension)
        )
        trace_config = TraceConfig(bbox=bbox, resolution=64, refine_tol=1e-9)
    if e.space.dimension == 2:
        result = trace_2d(e, trace_config)
        on_pts = result.all_vertices()
    else:
        result = sample_3d(e, trace_config)
        on_pts = result.points
    on = [Point(tuple(float(c) for c in row)) for row in on_pts]

    rng = random.Random(seed)
    start = rng.randint(1, 1000)
    off: list[Point] = []
    i = start
    while len(off) < off_count and i < start + 100 * off_count:
        u = [_halton(i, _HALTON_BASES[a]) for a in range(e.space.dimension)]
        p = Point(tuple(lo + (hi - lo) * ua for (lo, hi), ua in zip(trace_config.bbox, u)))
        i += 1
        if classify(e, p, trace_config.refine_tol) is not PointClass.ON:
            off.append(p)
    return SamplePlan(e.space, tuple(on), tuple(off), seed=seed, exhaustive=False, exact=False)


# ---------------------------------------------------------------------------
# conditions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RadiusGap:
    """Auxiliary gap function: s -> s - r for s > 0, and 0 at s = 0."""

    r: object

    def __call__(self, s):
        if s < 0:
            raise ValueError("gap function domain is s >= 0")
        return s - self.r if s > 0 else 0


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


class _Worst:
    """Tracks the minimum margin and its witness, first occurrence winning ties."""

    def __init__(self):
        self.margin = None
        self.witness = ()

    def update(self, margin, witness):
        if self.margin is None or margin < self.margin:
            self.margin = margin
            self.witness = witness


def _tx(m: SelfMap, x: Point, cache: dict) -> Point:
    if x not in cache:
        cache[x] = m(x)
    return cache[x]


def pointwise_margin(condition_id: str, m: SelfMap, e: KEllipse, x: Point, tx: Point | None = None):
    """Slack of a pointwise condition at one on-set point (negative = violated)."""
    d = e.space.metric.distance
    f = e.field
    tx = m(x) if tx is None else tx
    if condition_id == "Ek1":
        return (f.value(x) - f.value(tx)) - d(x, tx)
    if condition_id == "Ek2":
        return f.value(tx) - e.r
    if condition_id == "E'k1":
        return (f.value(x) + f.value(tx) - 2 * e.r) - d(x, tx)
    if condition_id == "E'k2":
        return e.r - f.value(tx)
    if condition_id == "E'''k1":
        return -abs(f.value(tx) - e.r)
    raise ValueError(f"{condition_id!r} is not a pointwise condition")


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
    return _div(num, den)


def _rational(*point_lists) -> bool:
    return all(_is_exact(c) for pts in point_lists for p in pts for c in p)


def _runs_exact(plan: SamplePlan, foci, points, images, r=0) -> bool:
    """Rational arithmetic decides a check: an exact plan whose foci, radius,
    points and images are all int/Fraction. Every margin is then exact."""
    return plan.exact and _is_exact(r) and _rational(foci, points, images)


def _fit_report(condition_id, fitted, threshold, strict, witness, meta) -> ConditionReport:
    margin = threshold - fitted if fitted != math.inf else -math.inf
    verdict = PASS if fitted != math.inf and fitted < threshold - strict else FAIL
    return ConditionReport(condition_id, verdict, fitted, margin, witness, **meta)


def check_condition(condition_id: str, m: SelfMap, e: KEllipse, plan: SamplePlan) -> ConditionReport:
    """Evaluate one condition over a plan and report verdict/constant/witness.

    Exact inputs (see `_runs_exact`) go through the scalar rational loop with
    zero slack; every other plan goes through the float array kernels with
    slack TAU_COND, and its report has exact=False.
    """
    if condition_id not in CONDITION_IDS:
        raise ValueError(f"unknown condition id {condition_id!r}; choose from {CONDITION_IDS}")
    if condition_id == "Ik":
        return check_identity_condition(m, e.field, len(e.foci), plan)

    on, off = plan.on_ellipse, plan.off_ellipse
    if not on:
        return ConditionReport(condition_id, VACUOUS, None, 0, (), plan.exhaustive,
                               _runs_exact(plan, e.foci, (), (), e.r), "no on-set samples")
    cache: dict = {}
    points = on + off if condition_id in PAIR_FIT else on
    images = [_tx(m, x, cache) for x in points]
    exact = _runs_exact(plan, e.foci, points, images, e.r)
    meta = dict(exhaustive=plan.exhaustive, exact=exact)
    if exact:
        return _check_exact(condition_id, m, e, plan, cache, meta)
    return _check_float(condition_id, e, points, images, len(on), meta)


def _check_exact(condition_id, m, e, plan, cache, meta) -> ConditionReport:
    """The scalar loop over an exact plan: rational arithmetic, zero slack."""
    if condition_id in POINTWISE_IDS:
        worst = _Worst()
        for x in plan.on_ellipse:
            worst.update(pointwise_margin(condition_id, m, e, x, _tx(m, x, cache)), (x,))
        verdict = PASS if worst.margin >= 0 else FAIL
        return ConditionReport(condition_id, verdict, None, worst.margin, worst.witness, **meta)

    if condition_id in PAIR_FIT:
        fitted = None
        witness = ()
        for x in plan.on_ellipse:
            tx = _tx(m, x, cache)
            for y in plan.off_ellipse:
                ratio = pair_ratio(condition_id, m, e, x, y, tx, _tx(m, y, cache))
                if ratio is None:
                    continue
                if fitted is None or ratio > fitted:
                    fitted, witness = ratio, (x, y)
        if fitted is None:
            return ConditionReport(condition_id, VACUOUS, None, 0, (), **meta,
                                   notes="no informative pairs")
        return _fit_report(condition_id, fitted, PAIR_FIT[condition_id], 0, witness, meta)

    if condition_id == "E''k2":
        fitted = 0
        witness = ()
        for x in plan.on_ellipse:
            tx = _tx(m, x, cache)
            deficit = e.r - e.field.value(tx)
            if deficit <= 0:
                need = 0
            else:
                step = e.space.metric.distance(x, tx)
                need = math.inf if step <= 0 else _div(deficit, step)
            if need > fitted or not witness:
                fitted, witness = need, (x,)
        return _fit_report(condition_id, fitted, 1, 0, witness, meta)

    if condition_id == "E'''k2":
        pairs = [(x, y) for x, y in combinations(plan.on_ellipse, 2) if x != y]
        if not pairs:
            return ConditionReport(condition_id, VACUOUS, None, 0, (), **meta,
                                   notes="fewer than two distinct on-set samples")
        d = e.space.metric.distance
        worst = _Worst()
        for x, y in pairs:
            worst.update(d(_tx(m, x, cache), _tx(m, y, cache)) - e.r, (x, y))
        return ConditionReport(condition_id, PASS if worst.margin > 0 else FAIL,
                               None, worst.margin, worst.witness, **meta)

    if condition_id == "E'''k3":
        gap = RadiusGap(e.r)
        d = e.space.metric.distance
        worst = _Worst()
        for x in plan.on_ellipse:
            tx = _tx(m, x, cache)
            penalty = gap(d(x, tx))
            for y in plan.on_ellipse:
                ty = _tx(m, y, cache)
                worst.update((d(x, y) - penalty) - d(tx, ty), (x, y))
        verdict = PASS if worst.margin >= 0 else FAIL
        return ConditionReport(condition_id, verdict, None, worst.margin, worst.witness, **meta)

    raise AssertionError(f"unhandled condition {condition_id}")


# ---------------------------------------------------------------------------
# float kernels: every condition as array reductions over the plan
# ---------------------------------------------------------------------------

PAIR_BLOCK = 1 << 18   # most float entries in one temporary of a blocked pair reduction


def _coords(points, dim: int) -> np.ndarray:
    return np.array(points, dtype=float).reshape(len(points), dim)


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
        v = float(vals.flat[flat])
        if best is None or (v > best[0] if largest else v < best[0]):
            best = (v, i0 + flat // cols, flat % cols)
    return best


def _check_float(condition_id, e, points, images, n_on, meta) -> ConditionReport:
    """Float path of check_condition. points/images list the on-set samples
    first (n_on of them), then the off-set samples of the pair-fit conditions."""
    metric, f, r = e.space.metric, e.field, float(e.r)
    dim = e.space.dimension
    P, TP = _coords(points, dim), _coords(images, dim)
    X, TX, Y, TY = P[:n_on], TP[:n_on], P[n_on:], TP[n_on:]
    on, off = points[:n_on], points[n_on:]

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
        worst = float(margins[i])
        verdict = PASS if worst >= -TAU_COND else FAIL
        return ConditionReport(condition_id, verdict, None, worst, (on[i],), **meta)

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
            out = np.divide(num, den, out=np.full(num.shape, -1.0), where=den > TAU_COND)
            out[(den <= TAU_COND) & (num > TAU_COND)] = math.inf
            return out

        best = _extreme(len(on), len(off), dim, ratios, largest=True)
        if best is None or best[0] < 0:
            return ConditionReport(condition_id, VACUOUS, None, 0, (), **meta,
                                   notes="no informative pairs")
        fitted, i, j = best
        return _fit_report(condition_id, fitted, PAIR_FIT[condition_id], STRICT_MARGIN,
                           (on[i], off[j]), meta)

    if condition_id == "E''k2":
        deficit = r - f.values(TX)
        step = metric.rowwise(X, TX)
        short = deficit > 0
        need = np.divide(deficit, step, out=np.full(len(on), math.inf), where=step > TAU_COND)
        need[~short] = 0.0
        i = int(need.argmax())
        fitted = float(need[i]) if short[i] else 0
        return _fit_report(condition_id, fitted, 1, STRICT_MARGIN, (on[i],), meta)

    n = len(on)
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
        return ConditionReport(condition_id, PASS if worst > -TAU_COND else FAIL,
                               None, worst, (on[i], on[j]), **meta)

    if condition_id == "E'''k3":
        step = metric.rowwise(X, TX)
        penalty = np.where(step > 0, step - r, 0.0)    # RadiusGap(r) of each step

        def margins(i0, i1):
            return ((metric.pairwise(X[i0:i1], X) - penalty[i0:i1, None])
                    - metric.pairwise(TX[i0:i1], TX))

        worst, i, j = _extreme(n, n, dim, margins, largest=False)
        verdict = PASS if worst >= -TAU_COND else FAIL
        return ConditionReport(condition_id, verdict, None, worst, (on[i], on[j]), **meta)

    raise AssertionError(f"unhandled condition {condition_id}")


def ik_margin(m: SelfMap, f: SumField, k: int, x: Point, tx: Point | None = None):
    """Slack of the identity-forcing bound at x (negative = violated)."""
    d = f.space.metric.distance
    tx = m(x) if tx is None else tx
    return _div(f.value(x) - f.value(tx), k + 1) - d(x, tx)


def check_identity_condition(m: SelfMap, f: SumField, k: int | None, plan: SamplePlan) -> ConditionReport:
    """Check d(x, Tx) <= (sum-field drop)/(k+1) over the whole plan.

    A passing point is necessarily a fixed point (the bound self-collapses);
    the report notes any numerical counterexample to that consequence. Exact
    inputs are checked in rational arithmetic, others by float arrays.
    """
    k = len(f.foci) if k is None else k
    points = plan.all_points
    if not points:
        return ConditionReport("Ik", VACUOUS, None, 0, (), plan.exhaustive, plan.exact,
                               "empty plan")
    cache: dict = {}
    images = [_tx(m, x, cache) for x in points]
    exact = _runs_exact(plan, f.foci, points, images)
    notes = ""
    if exact:
        d = f.space.metric.distance
        worst = _Worst()
        for x, tx in zip(points, images):
            margin = ik_margin(m, f, k, x, tx)
            worst.update(margin, (x,))
            if margin >= 0 and d(x, tx) > TAU_IDENT:
                notes = f"passing point {x} is not fixed"   # unreachable in exact arithmetic
        worst_margin, witness, tau = worst.margin, worst.witness, 0
    else:
        dim = f.space.dimension
        X, TX = _coords(points, dim), _coords(images, dim)
        step = f.space.metric.rowwise(X, TX)
        margins = (f.values(X) - f.values(TX)) / (k + 1) - step
        i = int(margins.argmin())
        worst_margin, witness, tau = float(margins[i]), (points[i],), TAU_COND
        moved = np.flatnonzero((margins >= -tau) & (step > TAU_IDENT))
        if len(moved):
            notes = f"passing point {points[moved[-1]]} is not fixed"
    verdict = PASS if worst_margin >= -tau else FAIL
    return ConditionReport("Ik", verdict, None, worst_margin, witness,
                           plan.exhaustive, exact, notes)


def check_Ik(m: SelfMap, f: SumField, k: int, plan: SamplePlan) -> ConditionReport:
    """Alias of check_identity_condition under the condition's report id."""
    return check_identity_condition(m, f, k, plan)


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

    @property
    def all_passed(self) -> bool:
        return self.existence_certified and self.uniqueness_certified


def certify(theorem: str, m: SelfMap, e: KEllipse, plan: SamplePlan) -> TheoremVerdict:
    """Aggregate one condition family into existence/uniqueness flags.

    Vacuous conditions do not block certification; any Fail does. On finite
    spaces with exhaustive plans the verdict is exact, otherwise it holds on
    the sampled plan only.
    """
    key = theorem.lower()
    if key not in THEOREM_FAMILIES:
        raise ValueError(f"unknown theorem {theorem!r}; choose from {sorted(THEOREM_FAMILIES)}")
    family, existence_ids, uniqueness_ids = THEOREM_FAMILIES[key]
    reports = {cid: check_condition(cid, m, e, plan) for cid in existence_ids + uniqueness_ids}
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
        if _exact_eq(v, e.r):
            raise ValueError(f"fallback {fb} lies on the level set (field value {v} = r)")
        tol = 0 if (e.space.is_finite or e.space.dimension == 1) else TAU_EQ
        rules.append((OnEllipse(e, tol), Identity()))
    rules.append((Otherwise(), ConstantPoint(fb)))
    return SelfMap(tuple(rules))


def fixed_points_on(m: SelfMap, plan: SamplePlan) -> list[Point]:
    """Plan points x with d(x, Tx) within the identification tolerance."""
    d = plan.space.metric.distance
    tau = 0 if plan.exact else TAU_IDENT
    return [x for x in plan.all_points if d(x, m(x)) <= tau]
