"""Exact fixed-point analysis of piecewise-affine maps on the real line.

Covers the SReLU activation (three affine pieces, identity in the middle) and
general breakpoint/piece tables: exact fixed-point sets, and the exact set of
radii r for which the 1D level set of a sum-of-distances field is contained in
the fixed-point set.
"""
from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .geometry import LevelSolution1D, SolutionKind, line_field, solve_1d
from .intervals import Interval, IntervalUnion, NEG_INF, POS_INF
from .metric import is_exact

__all__ = [
    "PiecewiseAffine1D",
    "srelu",
    "FixedSet1D",
    "fixed_point_set",
    "fixed_kellipse_radii",
    "FixedEllipseCheck",
    "is_fixed_kellipse",
]


@dataclass(frozen=True)
class PiecewiseAffine1D:
    """A total single-valued piecewise-affine map on the reals.

    pieces[i] = (slope, intercept) applies between breakpoints[i-1] and
    breakpoints[i] (unbounded tails at the ends). By convention a breakpoint
    belongs to the piece on its right; owns_left[j] = True hands breakpoint j
    to the piece on its left instead.
    """

    breakpoints: tuple
    pieces: tuple
    owns_left: tuple = ()

    def __post_init__(self):
        # floats convert exactly (binary rationals)
        bps = tuple(map(Fraction, self.breakpoints))
        pieces = tuple((Fraction(a), Fraction(b)) for a, b in self.pieces)
        owns = tuple(bool(o) for o in self.owns_left) or (False,) * len(bps)
        if len(pieces) != len(bps) + 1:
            raise ValueError(f"need {len(bps) + 1} pieces for {len(bps)} breakpoints, got {len(pieces)}")
        if len(owns) != len(bps):
            raise ValueError("owns_left length must match breakpoints")
        if any(bps[i] >= bps[i + 1] for i in range(len(bps) - 1)):
            raise ValueError("breakpoints must be strictly increasing")
        object.__setattr__(self, "breakpoints", bps)
        object.__setattr__(self, "pieces", pieces)
        object.__setattr__(self, "owns_left", owns)
        # the fixed_point_set memo hashes the map on every lookup
        object.__setattr__(self, "_hash", hash((bps, pieces, owns)))

    def __hash__(self) -> int:
        return self._hash

    def piece_index(self, x) -> int:
        i = bisect_left(self.breakpoints, x)
        if i < len(self.breakpoints) and self.breakpoints[i] == x:
            return i if self.owns_left[i] else i + 1
        return i

    def piece_domain(self, i: int) -> Interval:
        lo = self.breakpoints[i - 1] if i > 0 else NEG_INF
        hi = self.breakpoints[i] if i < len(self.breakpoints) else POS_INF
        lo_open = self.owns_left[i - 1] if i > 0 else True
        hi_open = not self.owns_left[i] if i < len(self.breakpoints) else True
        return Interval(lo, hi, lo_open, hi_open)

    def __call__(self, x):
        a, b = self.pieces[self.piece_index(x)]
        if is_exact(x):
            return a * Fraction(x) + b
        return float(a) * x + float(b)


def srelu(t_l, a_l, t_r, a_r) -> PiecewiseAffine1D:
    """The S-shaped rectified linear unit.

    Three pieces: t_l + a_l (x - t_l) below t_l, the identity between the
    thresholds, t_r + a_r (x - t_r) above t_r. Continuous at both thresholds
    by construction.
    """
    t_l, a_l, t_r, a_r = map(Fraction, (t_l, a_l, t_r, a_r))
    if t_l > t_r:
        raise ValueError(f"left threshold {t_l} exceeds right threshold {t_r}")
    left = (a_l, t_l * (1 - a_l))
    right = (a_r, t_r * (1 - a_r))
    if t_l == t_r:
        return PiecewiseAffine1D((t_l,), (left, right), (True,))
    return PiecewiseAffine1D((t_l, t_r), (left, (Fraction(1), Fraction(0)), right), (True, False))


@dataclass(frozen=True)
class FixedSet1D:
    """The exact solution set of f(x) = x for a piecewise-affine map: its
    intervals and isolated points, held as one `IntervalUnion`, whose
    `contains` decides membership."""

    members: IntervalUnion

    @property
    def intervals(self) -> tuple:
        return tuple(p for p in self.members.parts if not p.is_point)

    @property
    def isolated(self) -> tuple:
        return tuple(p.lo for p in self.members.parts if p.is_point)

    @property
    def is_empty(self) -> bool:
        return self.members.is_empty

    def contains(self, x) -> bool:
        """Whether x is a fixed point."""
        return self.members.contains(x)

    def __str__(self) -> str:
        return str(self.members)


@lru_cache(maxsize=256)
def fixed_point_set(f: PiecewiseAffine1D) -> FixedSet1D:
    """Solve f(x) = x exactly, piece by piece.

    Identity pieces contribute their whole sub-interval; a piece with slope
    a != 1 contributes the single candidate b/(1-a) when it lies inside the
    piece's domain. Adjacent results merge. Maps are immutable, so results
    are memoized.
    """
    parts = []
    for i, (a, b) in enumerate(f.pieces):
        dom = f.piece_domain(i)
        if dom.is_empty:
            continue
        if a == 1:
            if b == 0:
                parts.append(dom)
            continue
        c = b / (1 - a)
        if dom.contains(c):
            parts.append(Interval.point(c))
    return FixedSet1D(IntervalUnion.of(parts))


def fixed_kellipse_radii(f: PiecewiseAffine1D, foci) -> IntervalUnion:
    """The exact set {r >= r_star : every level-set point is fixed by f}.

    Above the minimum radius the level set consists of one point on each of
    the two strictly monotone branches of the sum-of-distances field, so the
    admissible radii are the intersection of the field images of the fixed
    set restricted to each branch. The minimum radius itself is admissible
    exactly when its full level set (a point, or the flat median segment) is
    contained in the fixed set.
    """
    fixed = fixed_point_set(f)
    fix = fixed.members
    field = line_field(map(Fraction, foci))
    m_lo, m_hi = field.median
    xi = field.value

    right = fix.intersect(IntervalUnion.of([Interval(m_hi, POS_INF)]))
    left = fix.intersect(IntervalUnion.of([Interval(NEG_INF, m_lo)]))
    # the field is strictly increasing right of the median, decreasing left of it
    right_r = IntervalUnion.of([
        Interval(xi(p.lo), xi(p.hi), p.lo_open, p.hi_open) for p in right.parts
    ])
    left_r = IntervalUnion.of([
        Interval(xi(p.hi), xi(p.lo), p.hi_open, p.lo_open) for p in left.parts
    ])
    radii = right_r.intersect(left_r)

    r_star = field.r_star
    star_ok = _level_fixed(fixed, field.solve(r_star))
    return radii.with_point(r_star) if star_ok else radii.without_point(r_star)


def _level_fixed(fixed: FixedSet1D, sol: LevelSolution1D) -> bool:
    """Whether the 1D level set `sol` is nonempty and lies in the fixed set:
    each of its points, or its whole flat segment."""
    if sol.kind is SolutionKind.POINTS:
        return all(fixed.contains(x) for x in sol.points)
    return sol.kind is SolutionKind.INTERVAL and fixed.members.contains_interval(Interval(*sol.interval))


@dataclass(frozen=True)
class FixedEllipseCheck:
    fixed: bool
    solution: LevelSolution1D

    def __bool__(self) -> bool:
        return self.fixed


def is_fixed_kellipse(f: PiecewiseAffine1D, foci, r) -> FixedEllipseCheck:
    """Whether the whole (nonempty) 1D level set is fixed by f.

    An empty level set reports False, matching the r >= r_star domain of
    fixed_kellipse_radii.
    """
    sol = solve_1d(foci, r)
    return FixedEllipseCheck(_level_fixed(fixed_point_set(f), sol), sol)
