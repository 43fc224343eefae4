"""Exact 1D interval-union algebra.

Endpoints are int/Fraction (or +-math.inf); open/closed flags are tracked per
endpoint so unions of fixed-point sets and radius sets stay exact even for
discontinuous piecewise maps. Infinite endpoints are always open. The same
types hold every exact subset of the line: fixed sets, radius sets, the
membership restriction of a mixed space and the regions of a 1D self-map.
`IntervalUnion.contains` is the one membership test of such a set: it decides
in integer arithmetic, on the part ends scaled by one common denominator.
"""
from __future__ import annotations

import functools
import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .metric import as_ratio, fmt_num, is_exact, scaled_ints

NEG_INF = -math.inf
POS_INF = math.inf


@dataclass(frozen=True)
class Interval:
    lo: object
    hi: object
    lo_open: bool = False
    hi_open: bool = False

    def __post_init__(self):
        if self.lo == NEG_INF and not self.lo_open:
            object.__setattr__(self, "lo_open", True)
        if self.hi == POS_INF and not self.hi_open:
            object.__setattr__(self, "hi_open", True)

    @classmethod
    def point(cls, x) -> "Interval":
        return cls(x, x)

    @property
    def is_empty(self) -> bool:
        if self.lo > self.hi:
            return True
        return self.lo == self.hi and (self.lo_open or self.hi_open)

    @property
    def is_point(self) -> bool:
        return self.lo == self.hi and not (self.lo_open or self.hi_open)

    def contains(self, x) -> bool:
        above = x > self.lo or (x == self.lo and not self.lo_open)
        below = x < self.hi or (x == self.hi and not self.hi_open)
        return above and below

    def mask(self, P: np.ndarray) -> np.ndarray:
        """`contains` of each row's first coordinate, as a self-map region; an
        infinite end takes no comparison."""
        v = P[:, 0]
        out = np.ones(len(P), dtype=bool)
        if self.lo != NEG_INF:
            out &= (v > self.lo) if self.lo_open else (v >= self.lo)
        if self.hi != POS_INF:
            out &= (v < self.hi) if self.hi_open else (v <= self.hi)
        return out

    def contains_interval(self, other: "Interval") -> bool:
        if other.is_empty:
            return True
        lo_ok = self.lo < other.lo or (self.lo == other.lo and (not self.lo_open or other.lo_open))
        hi_ok = other.hi < self.hi or (other.hi == self.hi and (not self.hi_open or other.hi_open))
        return lo_ok and hi_ok

    def intersect(self, other: "Interval") -> "Interval":
        if self.lo > other.lo or (self.lo == other.lo and self.lo_open):
            lo, lo_open = self.lo, self.lo_open
        else:
            lo, lo_open = other.lo, other.lo_open
        if self.hi < other.hi or (self.hi == other.hi and self.hi_open):
            hi, hi_open = self.hi, self.hi_open
        else:
            hi, hi_open = other.hi, other.hi_open
        return Interval(lo, hi, lo_open, hi_open)

    def __str__(self) -> str:
        if self.is_point:
            return "{" + fmt_num(self.lo) + "}"
        lb = "(" if self.lo_open else "["
        rb = ")" if self.hi_open else "]"
        return f"{lb}{fmt_num(self.lo)}, {fmt_num(self.hi)}{rb}"


def _touches(a: Interval, b: Interval) -> bool:
    """Whether a (ending first) overlaps or abuts b with no gap."""
    if b.lo < a.hi:
        return True
    if b.lo == a.hi:
        return not (a.hi_open and b.lo_open)
    return False


@dataclass(frozen=True)
class IntervalUnion:
    """A normalized (sorted, disjoint, merged) union of intervals."""

    parts: tuple = ()

    @classmethod
    def of(cls, intervals) -> "IntervalUnion":
        items = [iv for iv in intervals if not iv.is_empty]
        items.sort(key=lambda iv: (iv.lo, iv.lo_open))
        merged: list[Interval] = []
        for iv in items:
            if merged and _touches(merged[-1], iv):
                last = merged[-1]
                if iv.hi > last.hi or (iv.hi == last.hi and not iv.hi_open):
                    merged[-1] = Interval(last.lo, iv.hi, last.lo_open, iv.hi_open)
            else:
                merged.append(iv)
        return cls(tuple(merged))

    @classmethod
    def empty(cls) -> "IntervalUnion":
        return cls(())

    @property
    def is_empty(self) -> bool:
        return not self.parts

    @functools.cached_property
    def _cuts(self) -> tuple:
        """(D, cuts) for `contains`: D the lcm of the denominators of the finite
        part ends, and each end e in order as an int on the doubled scale 2D:
        2eD at a closed start or an open end, 2eD + 1 at an open start or a
        closed end, e itself when infinite: increasing, as the parts are disjoint."""
        ends = [(e, bump) for p in self.parts for e, bump in ((p.lo, p.lo_open), (p.hi, not p.hi_open))]
        D, ints = scaled_ints([e for e, _ in ends if e not in (NEG_INF, POS_INF)])
        ints = iter(ints)
        return D, tuple(e if e in (NEG_INF, POS_INF) else 2 * next(ints) + bump for e, bump in ends)

    def contains(self, x) -> bool:
        """Whether x (an int, Fraction, float or numpy number) lies in the union,
        decided on ints: x = n/m has the key 2q + (rem > 0) for divmod(nD, m) =
        (q, rem), and lies in the union when an odd number of cuts are at most
        its key. +-inf and NaN lie in no union."""
        # is_exact first: isfinite would convert a Fraction to a float in Python
        if not (is_exact(x) or math.isfinite(x)):
            return False
        n, m = as_ratio(x)
        D, cuts = self._cuts
        q, rem = divmod(n * D, m)
        return bisect_right(cuts, 2 * q + (rem > 0)) % 2 == 1

    def contains_interval(self, iv: Interval) -> bool:
        # parts are maximal, so containment must happen within a single part
        return any(p.contains_interval(iv) for p in self.parts)

    def intersect(self, other: "IntervalUnion") -> "IntervalUnion":
        out = []
        for a in self.parts:
            for b in other.parts:
                c = a.intersect(b)
                if not c.is_empty:
                    out.append(c)
        return IntervalUnion.of(out)

    def with_point(self, x) -> "IntervalUnion":
        return IntervalUnion.of(list(self.parts) + [Interval.point(x)])

    def without_point(self, x) -> "IntervalUnion":
        out = []
        for p in self.parts:
            if not p.contains(x):
                out.append(p)
                continue
            left = Interval(p.lo, x, p.lo_open, True)
            right = Interval(x, p.hi, True, p.hi_open)
            out.extend(iv for iv in (left, right) if not iv.is_empty)
        return IntervalUnion(tuple(out))

    def __str__(self) -> str:
        if not self.parts:
            return "{}"
        return " U ".join(str(p) for p in self.parts)
