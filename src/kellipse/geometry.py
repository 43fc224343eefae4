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

from .metric import Point, Space, as_point

__all__ = [
    "SumField",
    "KEllipse",
    "PointClass",
    "SolverError",
    "distance_sum",
    "classify",
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

TAU_OPT = 1e-9      # optimizer value tolerance
MAX_ITER = 10_000


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
        pt = as_point(x)
        if pt.dim != self.space.dimension:
            raise ValueError(f"point {pt} does not match space dimension {self.space.dimension}")
        d = self.space.metric.distance
        return sum(d(pt, f) for f in self.foci)

    def values(self, pts: np.ndarray) -> np.ndarray:
        """Vectorized field over the rows of `pts` (N, d) array; float output."""
        total = np.zeros(len(pts))
        for f in self.foci:
            total += self.space.metric.distance_field(pts, f)
        return total


def distance_sum(field: SumField, x):
    """Sum of distances from x to the field's foci."""
    return field.value(x)


@dataclass(frozen=True)
class KEllipse:
    """The level set {x : sum_i d(x, xi) = r} of a sum-of-distances field."""

    space: Space
    foci: tuple
    r: object   # real >= 0; int/Fraction preserved for exact work

    def __post_init__(self):
        object.__setattr__(self, "foci", tuple(self.space.require_member(f) for f in self.foci))
        if not self.foci:
            raise ValueError("a k-ellipse needs at least one focus")
        if self.r < 0:
            raise ValueError(f"radius must be >= 0, got {self.r}")

    @property
    def k(self) -> int:
        return len(self.foci)

    @functools.cached_property
    def field(self) -> SumField:
        return SumField(self.space, self.foci)


class PointClass(Enum):
    INTERIOR = "interior"
    ON = "on"
    EXTERIOR = "exterior"


def classify(e: KEllipse, x, tol) -> PointClass:
    """Classify x against the level set; tol=0 compares exactly."""
    if tol < 0:
        raise ValueError("tol must be >= 0")
    v = e.field.value(x)
    if abs(v - e.r) <= tol:
        return PointClass.ON
    return PointClass.INTERIOR if v < e.r else PointClass.EXTERIOR


# ---------------------------------------------------------------------------
# minimum radius (geometric median)
# ---------------------------------------------------------------------------

def _exact(x):
    if isinstance(x, (int, Fraction)) and not isinstance(x, bool):
        return x
    return Fraction(x)


def min_radius(field: SumField):
    """Minimum of the sum-of-distances field and a point attaining it.

    Finite spaces take the minimum over the point list. In dimension 1 the
    minimizer is the weighted median of the foci (exact). Euclidean fields use
    Weiszfeld iteration; other metrics use compass/pattern search started at
    the coordinate-wise median of the foci.
    """
    if field.space.is_finite:
        best = min(field.space.points, key=lambda p: (field.value(p), p))
        return field.value(best), best
    if field.space.dimension == 1:
        lo, hi = line_field(f[0] for f in field.foci).median
        arg = Point((lo if lo == hi else Fraction(lo + hi, 2),))
        return field.value(arg), arg
    if len(field.foci) == 1:
        arg = field.foci[0]
        return field.value(arg), arg
    if field.space.metric.kind == "l2":
        res = weiszfeld(field.foci)
        return res.value, res.point
    pt, val = _pattern_search(field)
    return val, pt


@dataclass
class WeiszfeldResult:
    point: Point
    value: float
    trace: list          # field value at every accepted iterate
    iterations: int
    converged: bool


_PROBE_DIRS = {}  # dimension -> unit compass directions, cached


def _compass_dirs(dim: int) -> np.ndarray:
    if dim not in _PROBE_DIRS:
        dirs = [v for v in itertools.product((-1.0, 0.0, 1.0), repeat=dim) if any(v)]
        arr = np.array(dirs)
        _PROBE_DIRS[dim] = arr / np.linalg.norm(arr, axis=1)[:, None]
    return _PROBE_DIRS[dim]


def weiszfeld(foci, start=None, step_tol: float = 1e-12, max_iter: int = MAX_ITER) -> WeiszfeldResult:
    """Weiszfeld iteration for the Euclidean geometric median.

    If an iterate lands on (within TAU_EQ of) a focus the focus is tested for
    optimality by a compass-direction descent probe; with no descent direction
    the focus is returned, otherwise iteration continues from the descended
    point. The value trace is non-increasing.
    """
    pts = np.array([[float(c) for c in f] for f in foci])
    k, dim = pts.shape
    x = pts.mean(axis=0) if start is None else np.array([float(c) for c in as_point(start)])
    scale = max(1.0, float(np.abs(pts).max()))

    def obj(v):
        return float(np.sqrt(((pts - v) ** 2).sum(axis=1)).sum())

    trace = [obj(x)]
    for it in range(max_iter):
        d = np.sqrt(((pts - x) ** 2).sum(axis=1))
        if (d < 1e-9 * scale).any():
            # at a focus the update is singular; keep the focus only if no
            # compass direction descends
            moved, x_new, val = _probe(obj, x, dim, scale, trace[-1], 1e-15 * scale)
            if not moved:
                return WeiszfeldResult(Point(tuple(float(c) for c in x)), trace[-1], trace, it + 1, True)
            x = x_new
            trace.append(val)
            continue
        w = 1.0 / d
        x_new = (pts * w[:, None]).sum(axis=0) / w.sum()
        val = obj(x_new)
        prev = trace[-1]
        trace.append(val)
        move = float(np.linalg.norm(x_new - x))
        x = x_new
        if move <= step_tol * scale or prev - val <= 1e-9 * max(1.0, prev):
            # the approach is sublinear when the optimum sits at a focus;
            # finish with a monotone compass polish instead of iterating on
            x, val = _polish(obj, x, dim, scale, trace[-1], trace)
            return WeiszfeldResult(Point(tuple(float(c) for c in x)), val, trace, it + 1, True)
    raise SolverError(f"weiszfeld did not converge in {max_iter} iterations",
                      Point(tuple(float(c) for c in x)), trace[-1])


def _probe(obj, x, dim, scale, current, accept):
    """One-sided compass descent probe; returns (moved, point, value)."""
    dirs = _compass_dirs(dim)
    h = 0.5 * scale
    while h > 1e-13 * scale:
        for v in dirs:
            cand = x + h * v
            val = obj(cand)
            if val < current - accept:
                return True, cand, val
        h *= 0.5
    return False, x, current


def _polish(obj, x, dim, scale, current, trace, budget: int = 20_000):
    """Shrinking-step compass descent; accepts only strict improvements."""
    dirs = _compass_dirs(dim)
    h = 1e-2 * scale
    while h > 1e-13 * scale and budget > 0:
        improved = False
        for v in dirs:
            cand = x + h * v
            val = obj(cand)
            budget -= 1
            if val < current - 1e-16 * max(1.0, current):
                x, current = cand, val
                trace.append(val)
                improved = True
                break
        if not improved:
            h *= 0.5
    return x, current


def _pattern_search(field: SumField, max_iter: int = MAX_ITER):
    """Compass search with shrinking step over the full sign-vector stencil."""
    pts = np.array([[float(c) for c in f] for f in field.foci])
    x = np.median(pts, axis=0)
    scale = max(1.0, float(np.ptp(pts, axis=0).max()))
    dirs = np.array([v for v in itertools.product((-1.0, 0.0, 1.0), repeat=pts.shape[1]) if any(v)])
    best = float(field.values(x[None, :])[0])
    h = scale
    it = 0
    while h > 1e-12 * scale and it < max_iter:
        cands = x[None, :] + h * dirs
        vals = field.values(cands)
        j = int(np.argmin(vals))
        if vals[j] < best - 1e-15 * scale:
            x, best = cands[j], float(vals[j])
        else:
            h *= 0.5
        it += 1
    if it >= max_iter:
        raise SolverError(f"pattern search did not converge in {max_iter} iterations",
                          Point(tuple(float(c) for c in x)), best)
    return Point(tuple(float(c) for c in x)), best


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

    @classmethod
    def empty(cls) -> "LevelSolution1D":
        return cls(SolutionKind.EMPTY)

    @classmethod
    def at_points(cls, *xs) -> "LevelSolution1D":
        return cls(SolutionKind.POINTS, points=tuple(sorted(xs)))

    @classmethod
    def flat(cls, lo, hi) -> "LevelSolution1D":
        return cls(SolutionKind.INTERVAL, interval=(lo, hi))

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
    """

    fs: tuple
    intercepts: tuple
    at: tuple

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
        """Exactly solve field(x) = r: one exact division per branch."""
        r = _exact(r)
        if r < self.r_star:
            return LevelSolution1D.empty()
        if r == self.r_star:
            lo, hi = self.median
            return LevelSolution1D.at_points(lo) if lo == hi else LevelSolution1D.flat(lo, hi)
        k = len(self.fs)
        # r lies on piece i (left) with at[i] < r <= at[i-1], on piece j (right)
        # with at[j-1] < r <= at[j]
        i = (k + 1) // 2 - bisect.bisect_left(self.at[(k - 1) // 2::-1], r)
        j = bisect.bisect_left(self.at, r, k // 2)
        return LevelSolution1D.at_points(Fraction(r - self.intercepts[i], 2 * i - k),
                                         Fraction(r - self.intercepts[j], 2 * j - k))


def line_field(foci) -> LineField:
    """The memoized exact line field of 1D foci (ints stay ints, floats become Fractions)."""
    foci = tuple(foci)
    return _line_field(foci, tuple(map(type, foci)))


@functools.lru_cache(maxsize=64)
def _line_field(foci: tuple, types: tuple) -> LineField:
    # `types` only keys the memo: 1, 1.0 and Fraction(1) are equal and hash
    # alike, but the median that solve_1d returns at r* keeps its focus's type
    fs = tuple(sorted(_exact(f) for f in foci))
    k = len(fs)
    if k == 0:
        raise ValueError("a 1D field needs at least one focus")
    prefix = (0, *itertools.accumulate(fs))
    intercepts = tuple(prefix[-1] - 2 * p for p in prefix)
    at = tuple((2 * j + 2 - k) * f + intercepts[j + 1] for j, f in enumerate(fs))   # from piece j + 1
    return LineField(fs, intercepts, at)


def solve_1d(foci, r) -> LevelSolution1D:
    """Exactly solve sum_i |x - xi| = r over the reals.

    The field is piecewise linear with slope 2i - k after passing i foci;
    the piece of each branch is found by bisection over the memoized line
    field and solved by exact rational arithmetic, so returned points satisfy
    the equation with zero error.
    """
    return line_field(foci).solve(r)


def members_finite(e: KEllipse) -> list[Point]:
    """All space points lying exactly on the level set.

    Finite spaces are scanned directly (exact comparison when the arithmetic
    stayed rational). A 1D continuum with a membership restriction intersects
    the exact 1D solution with the membership predicate.
    """
    if e.space.is_finite:
        out = []
        for p in e.space.points:
            v = e.field.value(p)
            if _exactly_equal(v, e.r):
                out.append(p)
        return out
    if e.space.dimension == 1:
        sol = solve_1d([f[0] for f in e.foci], e.r)
        if sol.kind is SolutionKind.INTERVAL:
            member = e.space.membership
            if member is None:
                raise ValueError("level set is a whole segment; member list is infinite")
            lo, hi = sol.interval
            inside = [p for p in member.isolated if lo <= p <= hi]
            for ilo, ihi in member.intervals:
                if max(lo, ilo) <= min(hi, ihi):
                    raise ValueError("level set intersects the space in a segment; member list is infinite")
            return [Point((p,)) for p in sorted(inside)]
        return [Point((x,)) for x in sol.points if e.space.contains(Point((x,)))]
    raise ValueError("members_finite requires a finite space or a 1D continuum")


def _exactly_equal(v, r) -> bool:
    exact = isinstance(v, (int, Fraction)) and isinstance(r, (int, Fraction))
    if exact:
        return v == r
    return abs(v - r) <= 1e-9


def nonempty(e: KEllipse) -> bool:
    """Whether the level set contains at least one space point."""
    if e.space.is_finite:
        return bool(members_finite(e))
    r_star, _ = min_radius(e.field)
    if e.space.dimension == 1:
        if e.space.membership is None:
            return e.r >= r_star
        return bool(members_finite(e))
    return e.r >= r_star - TAU_OPT

