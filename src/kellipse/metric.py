"""Points, Minkowski metrics, metric spaces (continuum, finite, or mixed), and
the numeric policy: every float tolerance and the exact-number helpers.

Coordinates may be int, float, or Fraction. Every distance the package
computes comes from one norm, `Metric.column_norm`, on arrays;
`Metric.column_norm_along` is that norm with all columns but one carried
over from call to call, equal to it bit for bit; `_coords` is
the one rule for a point array's dtype: object (int/Fraction kept) unless
every coordinate is a float. Exact types are preserved wherever the metric
allows (L1, Linf, and any metric in dimension 1), so that finite-space and 1D
analyses stay rational end to end. `Metric.distance` is the one-row case of
`Metric.rowwise`.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

if TYPE_CHECKING:
    from .intervals import IntervalUnion

__all__ = [
    "TAU_EQ",
    "Point",
    "as_point",
    "Metric",
    "Space",
    "sample_points",
    "AxiomViolation",
    "AxiomReport",
    "verify_metric_axioms",
]

# the float tolerances; exact (int/Fraction) comparisons take no slack
TAU_EQ = 1e-9         # absolute: float coordinates, or a float field value and r, that coincide
TAU_OPT = 1e-9        # relative to max(1, r): gap at which min_radius's dual bracket is closed
REFINE_TOL = 1e-9     # absolute: default bound on |field - r| at every traced point
PRUNE_SLACK = 1e-9    # relative to 1 + |r|: added to the Lipschitz reach when the sign grid prunes a block
TAU_COND = 1e-9       # absolute: a condition's inequality slack on float plans
TAU_IDENT = 1e-9      # absolute: the step d(x, Tx) within which a float point is fixed
STRICT_MARGIN = 1e-9  # absolute: the gap a float constant needs below an open threshold
TAU_TRI = 1e-9        # absolute: the triangle-inequality excess verify_metric_axioms reports
P_MIN = 1.0
P_MAX = 64.0    # larger p overflows double powers; reject at construction


def is_exact(v) -> bool:
    """Whether v is an exact number: an int or a Fraction, not a bool."""
    return isinstance(v, (int, Fraction)) and not isinstance(v, bool)


def exact_points(r, *groups) -> bool:
    """Whether the radius r and every coordinate of every point in the groups are exact."""
    return is_exact(r) and all(is_exact(c) for pts in groups for p in pts for c in p)


def as_exact(x):
    """x as an exact number: an int or Fraction as it is, any other real as its Fraction."""
    return x if is_exact(x) else Fraction(x)


def as_ratio(x) -> tuple:
    """x as (n, d) with x == n/d and d > 0, as `Fraction(x)` takes it."""
    try:
        return x.as_integer_ratio()
    except AttributeError:      # numpy integers have none
        q = Fraction(x)
        return int(q.numerator), int(q.denominator)


def scaled_ints(values) -> tuple:
    """(D, ints) for exact numbers `values`: D the lcm of their denominators
    (1 for none), and each value times D as a Python int, in order."""
    ratios = [as_ratio(v) for v in values]
    D = math.lcm(*(d for _, d in ratios))
    return D, [n * (D // d) for n, d in ratios]


def _scaled(r, groups, dim: int) -> tuple:
    """(D, r, arrays) for an exact radius and groups of points: each number
    times D, the lcm of all their denominators, as a Python int, and each
    group as an (n, dim) object array."""
    D, ints = scaled_ints([r, *(c for group in groups for p in group for c in p)])
    arrays, at = [], 1
    for group in groups:
        arrays.append(np.array(ints[at:at + len(group) * dim], dtype=object).reshape(len(group), dim))
        at += len(group) * dim
    return D, ints[0], arrays


def float_below(q) -> float:
    """The largest float <= the exact number q."""
    f = float(q)
    return f if f <= q else math.nextafter(f, -math.inf)


def exact_div(num, den):
    """num / den, a Fraction when both are exact (an int over an int would give a float)."""
    return Fraction(num) / den if is_exact(num) and is_exact(den) else num / den


_FRACTION = np.frompyfunc(Fraction, 1, 1)   # elementwise exact conversion into an object array


def fmt_num(v) -> str:
    """Exact, deterministic text of a number: floats by repr (so inf and -inf),
    ints and Fractions by str (n or p/q), None as "-"."""
    if v is None:
        return "-"
    if isinstance(v, float):
        return repr(float(v))
    return str(v)


def exact_eq(v, r) -> bool:
    """v == r, exactly when both are exact numbers, else within TAU_EQ."""
    if is_exact(v) and is_exact(r):
        return v == r
    return abs(v - r) <= TAU_EQ


class Point(tuple):
    """An n-dimensional coordinate tuple (n >= 1, all coordinates finite)."""

    __slots__ = ()

    def __new__(cls, coords: Iterable):
        pt = super().__new__(cls, coords)
        if len(pt) == 0:
            raise ValueError("a point needs at least one coordinate")
        for c in pt:
            if is_exact(c):
                continue
            if not isinstance(c, float) or not math.isfinite(c):
                raise ValueError(f"coordinate {c!r} is not a finite real")
        return pt

    @property
    def dim(self) -> int:
        return len(self)

    def __repr__(self) -> str:
        return "Point(" + ", ".join(str(c) for c in self) + ")"


def as_point(value) -> Point:
    """Coerce a scalar, sequence, or Point into a Point."""
    if isinstance(value, Point):
        return value
    if isinstance(value, (int, float, Fraction)) and not isinstance(value, bool):
        return Point((value,))
    return Point(value)


@dataclass(frozen=True)
class Metric:
    """A Minkowski metric: L1, L2, Linf, or general Lp with p in [1, 64]."""

    kind: str                 # "l1" | "l2" | "linf" | "lp"
    p: float | None = None

    def __post_init__(self):
        if self.kind not in ("l1", "l2", "linf", "lp"):
            raise ValueError(f"unknown metric kind {self.kind!r}")
        if self.kind == "lp":
            if self.p is None:
                raise ValueError("lp metric requires an exponent p")
            p = float(self.p)
            if not math.isfinite(p) or not (P_MIN <= p <= P_MAX):
                raise ValueError(f"lp exponent must lie in [{P_MIN}, {P_MAX}], got {self.p}")
        elif self.p is not None:
            raise ValueError(f"metric kind {self.kind!r} takes no exponent")

    @classmethod
    def l1(cls) -> "Metric":
        return cls("l1")

    @classmethod
    def l2(cls) -> "Metric":
        return cls("l2")

    @classmethod
    def linf(cls) -> "Metric":
        return cls("linf")

    @classmethod
    def lp(cls, p) -> "Metric":
        return cls("lp", float(p))

    @property
    def label(self) -> str:
        if self.kind == "lp":
            return f"Lp({self.p:g})"
        return {"l1": "L1", "l2": "L2", "linf": "Linf"}[self.kind]

    def distance(self, a: Sequence, b: Sequence):
        """Distance between two points: the one row of `rowwise`, as a Python
        number, an int or Fraction when exact (L1/Linf and dimension 1 on exact
        coordinates), a float otherwise."""
        if len(a) != len(b):
            raise ValueError(f"dimension mismatch: {len(a)} vs {len(b)}")
        ab = _coords((a, b), len(a))
        return self.rowwise(ab[:1], ab[1:]).item(0)

    def distance_field(self, pts: np.ndarray, focus: Sequence) -> np.ndarray:
        """Vectorized distances from every row of `pts` (N, d) to one focus."""
        pts, focus = _arrays(pts, focus)
        d = np.abs(pts - focus)
        if d.ndim == 1:
            d = d[:, None]
        return self._norm(d)

    def pairwise(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Distance matrix (n, m) between the rows of `a` (n, d) and `b` (m, d).

        Float entries, or int/Fraction ones in an object array (exact on the
        line and under L1 and Linf), each the value `distance` gives.
        """
        a, b = _arrays(a, b)
        return self.rowwise(a[:, None, :], b[None, :, :])

    def rowwise(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Distances between corresponding rows of `a` and `b` (broadcast, last axis d)."""
        a, b = _arrays(a, b)
        return self._norm(np.abs(a - b))

    def _norm(self, d: np.ndarray) -> np.ndarray:
        """The norm of the nonnegative coordinate gaps `d` along its last axis."""
        return self.column_norm([d[..., i] for i in range(d.shape[-1])])

    def column_norm(self, g: list) -> np.ndarray:
        """The norm of the gap columns `g` (one array per axis), which it leaves as they are.

        The columns are combined one at a time in axis order, which is the
        left-to-right order numpy uses to sum fewer than 8 terms, so each value
        equals the last-axis reduction bit for bit, without its cost on a
        short axis. A single gap is its own norm under every metric. Object
        gaps stay exact under L1 and Linf: each sum and maximum runs in Python
        arithmetic, and a maximum keeps the first of equal gaps, as max() does.
        Under L2 and Lp each object gap becomes its float first. Lp uses the
        max-factored form m * (sum((g/m)^p))^(1/p), so large exponents do not
        overflow.
        """
        if len(g) == 1:
            return g[0]
        if self.kind in ("l2", "lp") and _holds_objects(g[0]):
            g = [gi.astype(float) for gi in g]
        if self.kind == "l1":
            return _fold(np.add, g)
        if self.kind == "l2":
            # one square at a time through one scratch buffer, summed in axis order
            acc, tmp = g[0] * g[0], np.empty_like(g[0])
            for gi in g[1:]:
                acc += np.multiply(gi, gi, out=tmp)
            return np.sqrt(acc, out=acc)
        m = _fold(np.maximum, g)
        if self.kind == "linf":
            return m
        mm = np.where(m > 0, m, 1.0)        # m is 0 only where every gap is, and so the norm
        terms = [gi / mm for gi in g]
        for t in terms:
            t **= self.p
        s = _fold(np.add, terms)
        s **= 1.0 / self.p
        return np.multiply(m, s, out=s)

    def column_norm_along(self, g: list, axis: int):
        """The function col -> column_norm(g with g[axis] replaced by col), bit for bit.

        For norms of many points that differ in one coordinate only. Under L2
        with float columns the fixed axes are squared here, once: the sum of
        the squares before `axis` is kept, and each square after it, since
        IEEE addition is commutative (col^2 + carry is carry + col^2) but does
        not reassociate. g's fixed columns are not kept. Every other metric
        keeps them, unchanged, and takes column_norm with col put in.
        """
        if self.kind != "l2" or len(g) == 1 or any(_holds_objects(gi) for gi in g):
            return lambda col: self.column_norm(g[:axis] + [col] + g[axis + 1:])
        carry = None                # the squares before axis, summed in axis order
        for gi in g[:axis]:
            carry = gi * gi if carry is None else np.add(carry, gi * gi, out=carry)
        after = [gi * gi for gi in g[axis + 1:]]

        def norm(col):
            acc = np.multiply(col, col)
            if carry is not None:
                acc += carry
            for s in after:
                acc += s
            return np.sqrt(acc, out=acc)
        return norm


def _coords(points, dim: int, exact: bool | None = None) -> np.ndarray:
    """(n, dim) coordinates: object ones (int/Fraction kept) when exact, else
    float; exact=None means exact unless every coordinate is a float."""
    exact = not all(isinstance(c, float) for p in points for c in p) if exact is None else exact
    return np.array(points, dtype=object if exact else float).reshape(len(points), dim)


def _arrays(a, b) -> tuple:
    """a and b as float arrays, or as object arrays when either one is an
    object array (exact int/Fraction coordinates)."""
    dtype = object if _holds_objects(a) or _holds_objects(b) else float
    return np.asarray(a, dtype=dtype), np.asarray(b, dtype=dtype)


def _holds_objects(a) -> bool:
    return isinstance(a, np.ndarray) and a.dtype.kind == "O"


def _fold(op, g: list) -> np.ndarray:
    """op(...op(op(g[0], g[1]), g[2])..., g[-1]) into one new array (len(g) >= 2)."""
    acc = op(g[0], g[1])
    for gi in g[2:]:
        op(acc, gi, out=acc)
    return acc


@dataclass(frozen=True)
class Space:
    """A continuum of a given dimension, or a finite point set, with a metric.

    A 1D continuum may carry a membership restriction, an exact
    `IntervalUnion` such as {-2} U {-1} U [0, inf) (a mixed space); every
    sampling operation respects it.
    """

    metric: Metric
    dimension: int
    points: tuple | None = None          # Finite variant, None for continuum
    membership: IntervalUnion | None = None

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError("dimension must be >= 1")
        if self.points is not None:
            if not self.points:
                raise ValueError("a finite space needs at least one point")
            for p in self.points:
                if len(p) != self.dimension:
                    raise ValueError(f"point {p} does not match dimension {self.dimension}")
            if self.membership is not None:
                raise ValueError("membership restriction applies to continuum spaces only")
        if self.membership is not None and self.dimension != 1:
            raise ValueError("membership restrictions are supported in dimension 1 only")
        if self.membership is not None and self.membership.is_empty:
            raise ValueError("a membership restriction needs at least one part")

    @classmethod
    def continuum(cls, dimension: int, metric: Metric, membership: IntervalUnion | None = None) -> "Space":
        return cls(metric=metric, dimension=dimension, membership=membership)

    @classmethod
    def finite(cls, points: Iterable, metric: Metric) -> "Space":
        # deduplicate while keeping first-seen order (equal numbers hash equal)
        seen = tuple(dict.fromkeys(as_point(p) for p in points))
        if not seen:
            raise ValueError("a finite space needs at least one point")
        return cls(metric=metric, dimension=seen[0].dim, points=seen)

    @property
    def is_finite(self) -> bool:
        return self.points is not None

    @property
    def keeps_rationals(self) -> bool:
        """Whether distances between rational points are rational (the line, L1, Linf)."""
        return self.dimension == 1 or self.metric.kind in ("l1", "linf")

    def contains(self, p) -> bool:
        pt = as_point(p)
        if pt.dim != self.dimension:
            return False
        if self.is_finite:
            return pt in self.points
        if self.membership is not None:
            return self.membership.contains(pt[0])
        return True

    def require_member(self, p) -> Point:
        pt = as_point(p)
        if pt.dim != self.dimension:
            raise ValueError(f"point {pt} does not match space dimension {self.dimension}")
        if not self.contains(pt):
            raise ValueError(f"point {pt} is not a member of the space")
        return pt


def sample_points(space: Space, n: int, seed: int) -> list[Point]:
    """Draw n deterministic points from the space (seeded).

    Continuum spaces sample uniformly in (-10, 10) on every axis; finite
    spaces sample from the point list; membership restrictions are honored by
    sampling each isolated point / interval, isolated points first. An
    interval that meets (-10, 10) is cut to it; one beyond it is sampled
    itself, over at most the window's width from its finite end.
    """
    rng = random.Random(seed)
    if space.is_finite:
        return [rng.choice(space.points) for _ in range(n)]
    lo_w, hi_w = -10.0, 10.0
    if space.membership is not None:
        parts = space.membership.parts
        entries = [p for p in parts if p.is_point] + [p for p in parts if not p.is_point]
        out = []
        for _ in range(n):
            entry = rng.choice(entries)
            if entry.is_point:
                out.append(Point((entry.lo,)))
                continue
            lo, hi = float(entry.lo), float(entry.hi)
            if lo < hi_w and hi > lo_w:
                lo, hi = max(lo, lo_w), min(hi, hi_w)
            elif hi == math.inf:
                hi = lo + (hi_w - lo_w)
            elif lo == -math.inf:
                lo = hi - (hi_w - lo_w)
            out.append(Point((rng.uniform(lo, hi),)))
        return out
    return [Point(tuple(rng.uniform(lo_w, hi_w) for _ in range(space.dimension))) for _ in range(n)]


@dataclass(frozen=True)
class AxiomViolation:
    axiom: str                # "nonnegativity" | "identity" | "symmetry" | "triangle"
    points: tuple
    amount: float


@dataclass(frozen=True)
class AxiomReport:
    metric: Metric
    sample_count: int
    seed: int
    violations: tuple

    @property
    def ok(self) -> bool:
        return not self.violations


# Largest sample_count of verify_metric_axioms. A triple costs up to 1,010
# bytes in 3D, 690 on the line and 360 in a finite space (tracemalloc peak at
# 1,000 and 4,000 triples), so a check at the bound peaks at about 66 MB.
MAX_AXIOM_SAMPLES = 1 << 16


def verify_metric_axioms(space: Space, sample_count: int, seed: int = 0) -> AxiomReport:
    """Check the metric axioms on seeded sample triples.

    Each distance column (d(a, b), d(b, a), d(a, a), d(a, c), d(b, c)) is one
    `rowwise` call over the triples. Violations are report content, not
    errors: the report lists each offending triple with the violated axiom
    and the violation amount, triple by triple in sample order. A triangle
    excess counts when it is above TAU_TRI. A sample_count outside
    [3, MAX_AXIOM_SAMPLES] is a ValueError, raised before any point is drawn.
    """
    if sample_count < 3:
        raise ValueError("sample_count must be >= 3")
    if sample_count > MAX_AXIOM_SAMPLES:
        raise ValueError(f"sample_count {sample_count} is above MAX_AXIOM_SAMPLES = {MAX_AXIOM_SAMPLES}")
    metric = space.metric
    samples = sample_points(space, 3 * sample_count, seed)
    S = _coords(samples, space.dimension)
    A, B, C = S[0::3], S[1::3], S[2::3]
    dab = metric.rowwise(A, B)
    columns = (dab, metric.rowwise(B, A), metric.rowwise(A, A), Metric.linf().rowwise(A, B),
               metric.rowwise(A, C) - (dab + metric.rowwise(B, C)))
    violations: list[AxiomViolation] = []
    for i, (ab, ba, aa, apart, gap) in enumerate(zip(*(c.tolist() for c in columns))):
        a, b, c = samples[3 * i: 3 * i + 3]
        if ab < 0:
            violations.append(AxiomViolation("nonnegativity", (a, b), float(-ab)))
        if ab != ba:
            violations.append(AxiomViolation("symmetry", (a, b), float(abs(ab - ba))))
        if aa != 0:
            violations.append(AxiomViolation("identity", (a,), float(aa)))
        if ab <= TAU_EQ and apart > TAU_EQ:
            violations.append(AxiomViolation("identity", (a, b), float(ab)))
        if gap > TAU_TRI:
            violations.append(AxiomViolation("triangle", (a, b, c), float(gap)))
    return AxiomReport(metric, sample_count, seed, tuple(violations))
