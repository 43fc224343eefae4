"""k-ellipse geometry: sum-of-distances fields, level sets, and minimum radius.

A k-ellipse with foci x1..xk and radius r is the r-level set of the
sum-of-distances field f(x) = sum_i d(x, xi). Its smallest nonempty radius is
attained at the geometric median of the foci. On the real line the level-set
equation sum_i |x - xi| = r is piecewise linear and solved exactly in rational
arithmetic.
"""
from __future__ import annotations

import bisect
import functools
import itertools
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

import numpy as np

from .intervals import Interval, IntervalUnion
from .metric import (_FRACTION, TAU_OPT, Metric, Point, Space, _coords, _scaled, as_exact, as_point,
                     as_ratio, exact_eq, exact_points, float_below, is_exact, scaled_ints)

__all__ = [
    "SumField",
    "KEllipse",
    "SolverError",
    "min_radius",
    "weiszfeld",
    "SolutionKind",
    "LevelSolution1D",
    "solve_1d",
    "LineField",
    "line_field",
    "members_finite",
    "nonempty",
]

MAX_ITER = 10_000
LINE_SEARCH_HALVINGS = 60
# The Linf linear program pivots a (k + d + 1) x (2kd + k + 1) tableau: 2 MiB
# of floats at this cap, and one Fraction per entry when the float basis fails
# to prove itself. 180 foci in 3D take 232,024 entries and 0.13 s (2 vCPUs).
MAX_LP_ENTRIES = 1 << 18


class SolverError(RuntimeError):
    """Raised when an iterative solver fails to converge; carries the best iterate."""

    def __init__(self, message: str, best_point: Point, best_value: float):
        super().__init__(message)
        self.best_point = best_point
        self.best_value = best_value


@dataclass(frozen=True)
class SumField:
    """The field x -> sum of distances from x to a fixed list of foci."""

    space: Space
    foci: tuple

    def __post_init__(self):
        foci = tuple(self.space.require_member(f) for f in self.foci)
        if not foci:
            raise ValueError("a sum-of-distances field needs at least one focus")
        object.__setattr__(self, "foci", foci)

    @property
    def k(self) -> int:
        return len(self.foci)

    def value(self, x):
        """The field at one point: the one row of `values`, as a Python number
        (an int or Fraction when exact, a float otherwise)."""
        pt = as_point(x)
        if pt.dim != self.space.dimension:
            raise ValueError(f"point {pt} does not match space dimension {self.space.dimension}")
        return self.values(_coords((pt,), pt.dim)).item(0)

    def values(self, pts: np.ndarray) -> np.ndarray:
        """Vectorized field over the rows of `pts` (N, d) array.

        Float output, or object output for an object array of int/Fraction
        rows: each sum then runs 0 + d1 + d2 ... in focus order, in Python
        arithmetic.
        """
        return _field(self.space.metric, self.foci, pts)


def _field(metric: Metric, foci, pts: np.ndarray) -> np.ndarray:
    """The `_focus_sum` of `metric.distance_field(pts, c)` over the foci c:
    float, or object for an object array `pts`."""
    exact = isinstance(pts, np.ndarray) and pts.dtype.kind == "O"
    return _focus_sum((metric.distance_field(pts, c) for c in foci), len(pts), object if exact else float)


def _focus_sum(terms, shape=(), dtype=float) -> np.ndarray:
    """The sum of the per-focus `terms`, each of `shape`: from zeros, one
    focus at a time in focus order with +=. Every sum of focus distances in
    the package is this one, so that the field, the tracer's tiles and
    bisection rounds, and damped Newton's objective round alike; numpy's
    pairwise .sum() would round otherwise from 8 terms on. `terms` may be a
    generator, so that one focus's term is alive at a time."""
    total = np.zeros(shape, dtype=dtype)
    for t in terms:
        total += t
    return total


def _on_level(e: KEllipse, pts) -> list[bool]:
    """Whether the field is r at each point of pts: on ints (`_scaled`) when r,
    the foci and pts are exact in a space that keeps rationals, else by
    `exact_eq` of each `SumField.values` entry and r."""
    dim = e.space.dimension
    if e.space.keeps_rationals and exact_points(e.r, e.foci, pts):
        _, r, (foci, P) = _scaled(e.r, (e.foci, pts), dim)
        return (_field(e.space.metric, foci, P) == r).tolist()
    return [exact_eq(v, e.r) for v in e.field.values(_coords(pts, dim)).tolist()]


@dataclass(frozen=True)
class KEllipse:
    """The level set {x : sum_i d(x, xi) = r} of a sum-of-distances field."""

    space: Space
    foci: tuple
    r: object   # finite real >= 0; int/Fraction preserved for exact work

    def __post_init__(self):
        object.__setattr__(self, "foci", tuple(self.space.require_member(f) for f in self.foci))
        if not self.foci:
            raise ValueError("a k-ellipse needs at least one focus")
        if not (is_exact(self.r) or math.isfinite(self.r)):
            raise ValueError(f"radius must be finite, got {self.r}")
        if self.r < 0:
            raise ValueError(f"radius must be >= 0, got {self.r}")

    @property
    def k(self) -> int:
        return len(self.foci)

    @functools.cached_property
    def field(self) -> SumField:
        return SumField(self.space, self.foci)


# ---------------------------------------------------------------------------
# minimum radius (geometric median)
# ---------------------------------------------------------------------------

def min_radius(field: SumField):
    """Minimum of the sum-of-distances field and a point attaining it.

    Finite spaces take the minimum over the point list. In dimension 1 the
    minimizer is the weighted median of the foci (exact). Above it, L1 (and
    Lp with p = 1) takes the per-axis median, Linf in the plane the median in
    the rotated coordinates (x + y, x - y) and Linf in 3D and above a linear
    program, all exact for rational foci. L2 and Lp take damped Newton
    (`weiszfeld`), which stops only when the dual bracket has closed to
    TAU_OPT * max(1, r), and raises SolverError otherwise. r* is
    SumField.value at the argmin, bit for bit, and the argmin is a point of
    the space.
    """
    value, arg, _ = _minimum(field)
    return value, arg


def _minimum(field: SumField) -> tuple:
    """(r*, argmin, lower): lower <= r* bounds the minimum, and equals r* for exact foci."""
    if field.space.is_finite:
        pts = field.space.points
        value, best = min(zip(field.values(_coords(pts, field.space.dimension)).tolist(), pts))
        return value, best, value
    if field.space.dimension == 1:
        lo, hi = line_field(f[0] for f in field.foci).median
        mid = Point((lo if lo == hi else Fraction(lo + hi, 2),))
        arg = mid if field.space.contains(mid) else Point((lo,))   # lo, a focus, minimizes too
        value = field.value(arg)
        return value, arg, value
    metric = field.space.metric
    if metric.kind == "l1" or metric.p == 1 or len(field.foci) == 1:
        med, r_star = _median(field.foci, rotate=False)
    elif metric.kind == "linf" and field.space.dimension == 2:
        med, r_star = _median(field.foci, rotate=True)
    elif metric.kind == "linf":
        med, r_star = _linf_median(field.foci)
    else:
        res = weiszfeld(field.foci, metric)
        return res.value, res.point, res.lower
    # float foci give a float argmin; the field there, summed in floats, may sit
    # on either side of the exact minimum, so the bound is the float below it
    arg = Point(med if all(is_exact(c) for f in field.foci for c in f) else map(float, med))
    value = field.value(arg)
    return value, arg, value if is_exact(value) else min(value, float_below(r_star))


def _median(foci, rotate: bool) -> tuple:
    """(argmin, r*) of the L1 field of the foci, exact, from the per-axis `line_field`.

    The argmin is the middle of each axis's median interval. With `rotate`
    (Linf in the plane) the medians are taken of x + y and x - y, since
    max(|a|, |b|) = (|a + b| + |a - b|) / 2 makes the field half the L1 field
    of the rotated foci.
    """
    cols = [[as_exact(c) for c in col] for col in zip(*foci)]
    if rotate:
        cols = [[a + b for a, b in zip(*cols)], [a - b for a, b in zip(*cols)]]
    lines = [line_field(col) for col in cols]
    med = [lo if lo == hi else Fraction(lo + hi, 2) for lo, hi in (lf.median for lf in lines)]
    r_star = sum(lf.r_star for lf in lines)
    if rotate:
        med, r_star = [Fraction(med[0] + med[1], 2), Fraction(med[0] - med[1], 2)], Fraction(r_star, 2)
    return med, r_star


def _linf_median(foci) -> tuple:
    """(argmin, r*) of the Linf field of the foci in any dimension, exact, by linear programming.

    The dual bracket, max sum_i <u_i, a_i> over sum_i u_i = 0 and
    ||u_i||_1 <= 1, is a linear program: u_i = p_i - q_i, a slack s_i in each
    focus row ||u_i||_1 + s_i = 1, and the balance rows sum_i u_ij = 0. Its
    dual is the Weber problem, min sum_i y_i over y_i >= |x_j - a_ij|, so an
    optimal basis prices the balance rows at the argmin x (Love, Morris &
    Wesolowsky 1988, ch. 2). Bland's rule pivots in floats from the slacks
    and the p_0j. A's columns hold at most two entries +-1, so each basis has
    determinant +-2^m and the float rows [A | b] stay exact; only the reduced
    costs round. The final basis is kept if it proves itself in Fractions,
    its feasible u closing the bracket at its x (the verified basis of
    Applegate, Cook, Dash & Espinoza 2007); otherwise Bland's rule runs again
    in Fractions.
    """
    k, d = len(foci), len(foci[0])
    entries = (k + d + 1) * (2 * k * d + k + 1)
    if entries > MAX_LP_ENTRIES:
        raise ValueError(f"Linf linear program of {entries} tableau entries exceeds "
                         f"MAX_LP_ENTRIES = {MAX_LP_ENTRIES}")
    a = _FRACTION(np.array(foci, dtype=object))
    focus, balance = np.repeat(np.eye(k, dtype=int), d, axis=1), np.tile(np.eye(d, dtype=int), k)
    c = np.r_[a.ravel(), -a.ravel(), np.zeros(k, int)]
    table = np.block([[focus, focus, np.eye(k, dtype=int), np.ones((k, 1), int)],
                      [balance, -balance, np.zeros((d, k + 1), int)], [-c, 0]])
    start = [2 * k * d + i for i in range(k)] + list(range(d))
    for exact in (False, True):
        t = _FRACTION(table) if exact else table.astype(float)
        basis = _simplex(t, start)
        cb, z = c[basis], np.zeros(len(c), dtype=object)
        z[basis] = _FRACTION(t[:-1, -1])
        u = (z[:k * d] - z[k * d:2 * k * d]).reshape(k, d)
        # y = cb B^-1 prices p_0j at y_0 + x_j and s_0 at y_0
        x = cb @ _FRACTION(t[:-1, :d]) - cb @ _FRACTION(t[:-1, 2 * k * d])
        r_star = Metric.linf().rowwise(x, a).sum()
        if not u.sum(axis=0).any() and (np.abs(u).sum(axis=1) <= 1).all() and (u * a).sum() == r_star:
            return list(x), r_star
    raise SolverError(f"Bland's rule in Fractions stopped after {MAX_ITER} pivots",
                      Point(map(float, x)), float(r_star))


def _simplex(t: np.ndarray, columns: list) -> list:
    """Pivot the tableau t onto the feasible basis `columns`, row r onto
    column columns[r], then by Bland's rule (1977) toward an optimum.

    t holds the rows [A | b] over the reduced costs [-c | 0] of max c.z
    subject to Az = b, z >= 0. Bland's rule enters the first column of
    negative reduced cost and leaves the row of least ratio, then of least
    basic column, for at most MAX_ITER pivots. Returns each row's basic column.
    """
    basis = list(columns)

    def pivot(r, j):
        t[r] /= t[r, j]
        rest = np.flatnonzero(t[:, j])
        rest = rest[rest != r]
        t[rest] -= t[rest, j][:, None] * t[r]
        basis[r] = j

    for r, j in enumerate(columns):
        pivot(r, j)
    for _ in range(MAX_ITER):
        enter = np.flatnonzero(t[-1, :-1] < 0)
        if not enter.size:
            break
        j = enter[0]
        pivot(min(np.flatnonzero(t[:-1, j] > 0), key=lambda r: (t[r, -1] / t[r, j], basis[r])), j)
    return basis


# ---------------------------------------------------------------------------
# the dual bracket: for u_i of dual norm <= 1 with sum_i u_i = 0,
#   f(y) = sum_i ||y - a_i|| >= sum_i <u_i, y - a_i> = sum_i <u_i, x - a_i>
# for every y and x (Love, Morris & Wesolowsky 1988, ch. 2)
# ---------------------------------------------------------------------------

def _lower(p: float, v: np.ndarray, n: np.ndarray, u: np.ndarray) -> float:
    """A lower bound on the minimum of the Lp field, 1 < p < inf, from the
    gaps v_i = x - a_i (norms n) at a point x and the rows u, which it
    overwrites: the terms' gradients as `_newton_step` returns them.

    The foci at x take equal shares of minus the others' rows; the mean is
    then subtracted and the rows rescaled into the dual-norm ball, giving
    dual rows u_i and the bound sum_i <u_i, v_i>, whatever x and u are.
    Gradients moved to the Newton point, where they balance, leave it short
    of f(x) only to second order in the step (the Hessian of a norm
    annihilates v_i); at a focus that minimizes it equals f(x), less rounding.
    """
    free = n == 0
    if free.any():
        u[free] = -u[~free].sum(axis=0) / free.sum()
    u -= u.mean(axis=0)
    u /= max(1.0, float(_dual_norm(u, p).max()))
    # rounding allowance: the rows sum to zero and lie in the ball only up to
    # rounding, and some minimizer lies in the foci's bounding box, within
    # max_i |v_ij| of x on each axis
    return float((u * v).sum() - (v.size + len(v)) * np.finfo(float).eps * np.abs(v).sum())


def _gradients(v: np.ndarray, p: float) -> np.ndarray:
    """Rows g_i with <g_i, v_i> = ||v_i||_p and dual norm 1, for 1 < p < inf:
    each term's gradient (0 where v_i = 0)."""
    a, s = np.abs(v), np.sign(v)
    m = a.max(axis=1, keepdims=True)
    w = a / np.where(m > 0, m, 1.0)
    total = (w ** p).sum(axis=1, keepdims=True)
    return s * w ** (p - 1) / np.where(total > 0, total, 1.0) ** ((p - 1) / p)


def _dual_norm(u: np.ndarray, p: float) -> np.ndarray:
    """The norm dual to Lp of each row (1 < p < inf): Lq with 1/p + 1/q = 1."""
    a = np.abs(u)
    q = p / (p - 1)
    m = a.max(axis=1)
    return m * ((a / np.where(m > 0, m, 1.0)[:, None]) ** q).sum(axis=1) ** (1 / q)


# ---------------------------------------------------------------------------
# solvers stopped by the bracket
# ---------------------------------------------------------------------------

@dataclass
class WeiszfeldResult:
    point: Point
    value: float         # SumField.value at point under the solver's metric, bit for bit
    lower: float         # certified lower bound on the minimum: value - lower <= TAU_OPT * max(1, value)
    trace: list          # field value at every accepted iterate
    iterations: int
    converged: bool      # the bracket has closed


def weiszfeld(foci, metric: Metric = Metric.l2(), max_iter: int = MAX_ITER) -> WeiszfeldResult:
    """The geometric median under `metric`, L2 or Lp with p > 1, by damped Newton with a monotone line search.

    The Newton step solves the closed-form Hessian of the field, sum_i
    (p - 1) / n_i (diag(|v_i| / n_i)^(p - 2) - g_i g_i^T) for gaps v_i of
    norm n_i and gradients g_i (Overton 1983 for L2), capped at the foci's
    extent and halved until the field is no higher. The nearest focus
    replaces the iterate when the field is no higher there; at a focus the
    step is Vardi & Zhang's (2000): along the steepest descent of the other
    terms' gradient R, scaled by (||R||_q - m) / sum_i 1 / n_i for m
    coincident foci. The value trace is non-increasing. Returns once the
    dual bracket has closed; raises SolverError when the budget is spent
    first, or when no halving of the Newton step leaves the field no higher,
    and ValueError for L1, Linf and p = 1, whose minima min_radius takes
    exactly. The objective is SumField.value under `metric`, bit for bit.
    """
    if metric.kind not in ("l2", "lp") or metric.p == 1:
        raise ValueError(f"damped Newton needs L2 or Lp with p > 1, got {metric.label}")
    p = metric.p or 2.0
    pts = np.array(foci, dtype=float)
    x = pts.mean(axis=0)
    extent = max(1.0, float(np.ptp(pts, axis=0).max()))

    def obj(y):
        return float(_focus_sum(metric.rowwise(y, pts)))

    val, lower = obj(x), -math.inf
    trace = [val]
    for it in range(max_iter):
        n = metric.rowwise(x, pts)
        j = int(np.argmin(n))
        if n[j] > 0 and (at := obj(pts[j])) <= val:
            x, val = pts[j].copy(), at
            n = metric.rowwise(x, pts)
            trace.append(val)
        v = x - pts
        step, u = _newton_step(v, n, p, extent)
        lower = _lower(p, v, n, u)
        if val - lower <= TAU_OPT * max(1.0, val):
            return WeiszfeldResult(Point(tuple(float(c) for c in x)), val, lower, trace, it, True)
        t = 1.0
        for _ in range(LINE_SEARCH_HALVINGS):
            cand = obj(x + t * step)
            if cand <= val:
                break
            t *= 0.5
        if cand > val or np.array_equal(x + t * step, x):
            break
        x, val = x + t * step, cand
        trace.append(val)
    raise SolverError(f"damped Newton stopped with the bracket open by {val - lower:.3g} "
                      f"after {len(trace) - 1} accepted iterates ({max_iter} steps allowed)",
                      Point(tuple(float(c) for c in x)), val)


def _newton_step(v: np.ndarray, n: np.ndarray, p: float, extent: float) -> tuple:
    """The damped Newton step at gaps v (norms n), and the terms' gradients
    moved to the Newton point: each plus its Hessian times the step. At a
    focus (some n_i = 0) it is Vardi & Zhang's step, or no step when the
    focus minimizes (all foci at it included), and the gradients themselves.
    """
    free = n == 0
    g = _gradients(v, p)
    grad = g.sum(axis=0)
    if free.any():
        rq = float(_dual_norm(grad[None], p)[0])
        if rq <= free.sum():
            return np.zeros_like(grad), g
        step = -(rq - free.sum()) / (1 / n[~free]).sum() * _gradients(grad[None], p / (p - 1))[0]
        return step, g
    c = (p - 1) / n
    curv = c[:, None] * np.maximum(np.abs(v) / n[:, None], np.finfo(float).eps) ** (p - 2)
    hess = np.diag(curv.sum(axis=0)) - np.einsum("i,ij,il->jl", c, g, g)
    hess += np.finfo(float).eps * c.sum() * np.eye(len(grad))
    try:
        step = -np.linalg.solve(hess, grad)
    except np.linalg.LinAlgError:     # a singular Hessian: the least-norm step
        step = -np.linalg.lstsq(hess, grad, rcond=None)[0]
    size = float(np.linalg.norm(step))
    if size > extent:
        step *= extent / size
    return step, g + (curv * step - c[:, None] * g * (g @ step)[:, None])


# ---------------------------------------------------------------------------
# exact 1D level-set solving
# ---------------------------------------------------------------------------

class SolutionKind(Enum):
    EMPTY = "empty"
    POINTS = "points"
    INTERVAL = "interval"


@dataclass(frozen=True)
class LevelSolution1D:
    """Exact solution of sum_i |x - xi| = r on the line.

    Either empty, one or two points, or (at the minimum radius with an even
    focus count) a whole flat segment.
    """

    kind: SolutionKind
    points: tuple = ()
    interval: tuple | None = None

    @property
    def is_empty(self) -> bool:
        return self.kind is SolutionKind.EMPTY

    def scalars(self) -> tuple:
        """Solution points (interval endpoints for the flat case)."""
        if self.kind is SolutionKind.POINTS:
            return self.points
        if self.kind is SolutionKind.INTERVAL:
            return self.interval
        return ()


@dataclass(frozen=True, slots=True)
class LineField:
    """The field x -> sum_i |x - fs[i]| of exact sorted foci fs on the line.

    On piece i, between fs[i-1] and fs[i] (unbounded tails at i = 0 and
    i = k), the field equals (2i - k) x + intercepts[i]; the intercepts come
    from prefix sums of fs. at[j] is the field at fs[j]: it falls up to the
    lower median fs[(k-1)//2] and rises from the upper median fs[k//2] on,
    so bisection over it finds the piece of a radius on either branch.

    `solve` works on one common denominator D, the lcm of the focus
    denominators (Knuth, TAOCP vol. 2, 4.5.1): C[i] = intercepts[i] * D and
    A[j] = at[j] * D are Python ints. `fs`, `intercepts` and `at` keep the
    foci's own types, since `value`, `median` and `r_star` return them.
    """

    fs: tuple
    intercepts: tuple
    at: tuple
    D: int
    C: tuple
    A: tuple

    @property
    def median(self) -> tuple:
        """Exact weighted-median interval (lo, hi), lo == hi for odd k."""
        k = len(self.fs)
        return self.fs[(k - 1) // 2], self.fs[k // 2]

    @property
    def r_star(self):
        return self.at[(len(self.fs) - 1) // 2]

    def value(self, x):
        """The field at x: exact for int/Fraction x, infinite at +-inf."""
        if x in (-math.inf, math.inf):
            return math.inf
        i = bisect.bisect_right(self.fs, x)
        return (2 * i - len(self.fs)) * x + self.intercepts[i]

    def solve(self, r) -> LevelSolution1D:
        """Exactly solve field(x) = r, for r = n/d, in integers: one Fraction per branch point."""
        n, d = as_ratio(r)
        k, A = len(self.fs), self.A
        m = (k - 1) // 2
        nD, star = n * self.D, d * A[m]
        if nD < star:
            return LevelSolution1D(SolutionKind.EMPTY)
        if nD == star:
            lo, hi = self.median
            if lo == hi:
                return LevelSolution1D(SolutionKind.POINTS, (lo,))
            return LevelSolution1D(SolutionKind.INTERVAL, interval=(lo, hi))
        # r lies on piece i (left) with at[i] < r <= at[i-1], on piece j (right)
        # with at[j-1] < r <= at[j]; as every A[j] is an int, A[j] < nD/d exactly
        # when A[j] < ceil(nD/d)
        up = -(-nD // d)
        i = (k + 1) // 2 - bisect.bisect_left(A[m::-1], up)
        j = bisect.bisect_left(A, up, k // 2)
        dD = d * self.D
        return LevelSolution1D(SolutionKind.POINTS, (Fraction(nD - self.C[i] * d, (2 * i - k) * dD),
                                                     Fraction(nD - self.C[j] * d, (2 * j - k) * dD)))


def line_field(foci) -> LineField:
    """The memoized exact line field of 1D foci (ints stay ints, other foci become Fractions)."""
    foci = tuple(foci)
    return _line_field(tuple(map(type, foci)), tuple(map(as_ratio, foci)))


@functools.lru_cache(maxsize=64)
def _line_field(types: tuple, ratios: tuple) -> LineField:
    # the memo is keyed on ints, which hash and compare faster than Fractions;
    # `types` keeps 1, 1.0 and Fraction(1) apart, since the median that
    # solve_1d returns at r* keeps its focus's type
    fs = tuple(sorted(n if t is int else Fraction(n, d) for t, (n, d) in zip(types, ratios)))
    k = len(fs)
    if k == 0:
        raise ValueError("a 1D field needs at least one focus")
    prefix = (0, *itertools.accumulate(fs))
    intercepts = tuple(prefix[-1] - 2 * p for p in prefix)
    at = tuple((2 * j + 2 - k) * f + intercepts[j + 1] for j, f in enumerate(fs))   # from piece j + 1
    # the foci set D; intercepts and at are sums of their multiples
    D, scaled = scaled_ints(fs + intercepts + at)
    return LineField(fs, intercepts, at, D, tuple(scaled[k:2 * k + 1]), tuple(scaled[2 * k + 1:]))


def solve_1d(foci, r) -> LevelSolution1D:
    """Exactly solve sum_i |x - xi| = r over the reals.

    The field is piecewise linear with slope 2i - k after passing i foci.
    With r = n/d and the memoized line field on one common denominator D,
    the piece of each branch is found by integer bisection with the key
    ceil(nD/d), and each branch point is the one Fraction
    (nD - C[i] d) / ((2i - k) d D), so returned points satisfy the equation
    with zero error.
    """
    return line_field(foci).solve(r)


def _level_set_1d(e: KEllipse) -> IntervalUnion:
    """The exact level set of a 1D continuum, intersected with its membership."""
    sol = solve_1d([f[0] for f in e.foci], e.r)
    if sol.kind is SolutionKind.INTERVAL:
        level = IntervalUnion((Interval(*sol.interval),))
    else:
        level = IntervalUnion(tuple(map(Interval.point, sol.points)))
    # the membership first, so that equal ends keep the solution's own numbers
    return level if e.space.membership is None else e.space.membership.intersect(level)


def members_finite(e: KEllipse) -> list[Point]:
    """All space points lying exactly on the level set.

    Finite spaces are scanned directly (exact comparison when the arithmetic
    stayed rational). On a 1D continuum the exact level set, intersected
    with the membership restriction if there is one, must be finitely many
    points; a segment of it raises ValueError.
    """
    if e.space.is_finite:
        pts = e.space.points
        return [p for p, hit in zip(pts, _on_level(e, pts)) if hit]
    if e.space.dimension == 1:
        level = _level_set_1d(e)
        if not all(p.is_point for p in level.parts):
            raise ValueError("level set meets the space in a segment; member list is infinite")
        return [Point((p.lo,)) for p in level.parts]
    raise ValueError("members_finite requires a finite space or a 1D continuum")


def nonempty(e: KEllipse) -> bool:
    """Whether the level set contains at least one space point.

    On the line the exact level set, intersected with the membership
    restriction if there is one, is tested for emptiness. Above it r is
    compared with the certified lower bound on the minimum radius, below
    which the set is certainly empty.
    """
    if e.space.is_finite:
        return bool(members_finite(e))
    if e.space.dimension == 1:
        return not _level_set_1d(e).is_empty
    return e.r >= _minimum(e.field)[2]
