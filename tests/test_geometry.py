import math
import random
from fractions import Fraction

import numpy as np
import pytest

import kellipse as ke
from kellipse import (KEllipse, Metric, PointClass, Space, SumField, classify,
                      distance_sum, members_finite, min_radius, solve_1d,
                      weiszfeld)
from kellipse.geometry import SolutionKind


def brute_min_1d(foci, lo, hi, step=1e-3):
    """Grid-scan oracle for the 1D field minimum."""
    xs = np.arange(lo, hi + step, step)
    vals = sum(np.abs(xs - f) for f in foci)
    i = int(np.argmin(vals))
    return vals[i], xs[i]


# ---------------------------------------------------------------------------
# field values and classification
# ---------------------------------------------------------------------------

def test_distance_sum_line(line):
    f = SumField(line, ((-1,), (0,), (1,)))
    assert distance_sum(f, (-3,)) == 9        # 2 + 3 + 4
    assert distance_sum(f, (0,)) == 2


def test_distance_sum_l1_plane(plane_l1):
    f = SumField(plane_l1, ((1, 0), (0, 0), (0, 1)))
    assert f.value((0, 0)) == 2


def test_classify(line_ellipse, plane_l1):
    e = KEllipse(plane_l1, ((1, 0), (0, 0), (0, 1)), 3)
    assert classify(e, (0, 0), 1e-9) is PointClass.INTERIOR
    assert classify(line_ellipse, (3,), 1e-9) is PointClass.ON
    assert classify(line_ellipse, (100,), 1e-9) is PointClass.EXTERIOR


def test_classify_k1_circle_reduction(plane_l2):
    e = KEllipse(plane_l2, ((2, 1),), 3)
    rng = random.Random(8)
    for _ in range(500):
        p = (rng.uniform(-6, 8), rng.uniform(-6, 8))
        d = plane_l2.metric.distance(p, (2, 1))
        expect = (PointClass.ON if abs(d - 3) <= 1e-9
                  else PointClass.INTERIOR if d < 3 else PointClass.EXTERIOR)
        assert classify(e, p, 1e-9) is expect


def test_foci_must_belong_to_space():
    sp = Space.finite([(0,), (1,)], Metric.l1())
    with pytest.raises(ValueError):
        KEllipse(sp, ((7,),), 1)
    with pytest.raises(ValueError):
        KEllipse(Space.continuum(2, Metric.l2()), ((1,),), 1)   # dim mismatch


def test_field_is_built_once_per_ellipse():
    sp = Space.continuum(2, Metric.l2())
    e = KEllipse(sp, ((0, 0), (1, 0)), 3)
    assert e.field is e.field
    assert e.field == SumField(sp, e.foci)
    twin = KEllipse(sp, ((0, 0), (1, 0)), 3)
    assert twin == e and hash(twin) == hash(e)      # the cached field leaves both alone
    assert e != KEllipse(sp, ((0, 0), (1, 0)), 4)
    assert len({e, twin}) == 1


# ---------------------------------------------------------------------------
# minimum radius
# ---------------------------------------------------------------------------

def test_min_radius_1d_median(line):
    f = SumField(line, ((-1,), (0,), (1,)))
    r_star, argmin = min_radius(f)
    assert r_star == 2 and argmin == (0,)
    bv, bx = brute_min_1d([-1, 0, 1], -3, 3)
    assert abs(float(r_star) - bv) <= 2e-3 and abs(float(argmin[0]) - bx) <= 2e-3


def test_min_radius_1d_even_k_exact(line):
    f = SumField(line, ((0,), (1,), (5,), (6,)))
    r_star, argmin = min_radius(f)
    assert r_star == 10 and 1 <= argmin[0] <= 5


def test_min_radius_symmetric_l2(plane_l2):
    f = SumField(plane_l2, ((-1, 0), (1, 0), (0, 1), (0, -1)))
    r_star, argmin = min_radius(f)
    assert r_star == pytest.approx(4, abs=1e-8)
    assert max(abs(c) for c in argmin) <= 1e-6


def test_min_radius_single_focus(plane_l2, plane_l1):
    for sp in (plane_l2, plane_l1):
        r_star, argmin = min_radius(SumField(sp, ((5, 0),)))
        assert r_star == 0 and tuple(argmin) == (5, 0)


def test_min_radius_finite_space():
    sp = Space.finite([(-1,), (0,), (1,), (4,)], Metric.l1())
    r_star, argmin = min_radius(SumField(sp, ((-1,), (0,), (1,))))
    assert r_star == 2 and argmin == (0,)


def test_min_radius_global_lower_bound(plane_l2):
    f = SumField(plane_l2, ((0, 0), (3, 1), (-2, 2), (1, -4)))
    r_star, _ = min_radius(f)
    rng = random.Random(12)
    for _ in range(1000):
        x = (rng.uniform(-6, 6), rng.uniform(-6, 6))
        assert r_star <= f.value(x) + 1e-9


@pytest.mark.parametrize("metric", [Metric.l1(), Metric.linf(), Metric.lp(4)],
                         ids=lambda m: m.label)
def test_min_radius_pattern_search_vs_grid(metric):
    sp = Space.continuum(2, metric)
    f = SumField(sp, ((1, 0), (0, 0), (0, 1)))
    r_star, _ = min_radius(f)
    xs = np.linspace(-1, 2, 301)
    pts = np.column_stack([g.ravel() for g in np.meshgrid(xs, xs, indexing="ij")])
    grid_min = f.values(pts).min()
    assert r_star <= grid_min + 1e-9
    assert r_star >= grid_min - 0.05      # grid is coarse; solver must not undershoot


def test_weiszfeld_monotone_descent():
    rng = random.Random(3)
    for _ in range(50):
        k = rng.randint(2, 6)
        foci = [tuple(rng.uniform(-5, 5) for _ in range(2)) for _ in range(k)]
        res = weiszfeld(foci)
        for prev, cur in zip(res.trace, res.trace[1:]):
            assert cur <= prev + 1e-12


def test_weiszfeld_duplicate_foci_weighting(plane_l2):
    # a duplicated focus pulls the median toward it
    res = weiszfeld(((0, 0), (0, 0), (0, 0), (10, 0)))
    assert res.value == pytest.approx(10, abs=1e-6)
    assert abs(res.point[0]) <= 1e-6 and abs(res.point[1]) <= 1e-6


# ---------------------------------------------------------------------------
# exact 1D level sets
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("foci,r,expected", [
    ([-1, 0, 1], 15, (-5, 5)),
    ([-2, 0, 2], 6, (-2, 2)),
    ([-2, 0, 2], 27, (-9, 9)),
    ([-1, 0, 1], 2, (0,)),            # r at the minimum, unique median
])
def test_solve_1d_points(foci, r, expected):
    sol = solve_1d(foci, r)
    assert sol.kind is SolutionKind.POINTS
    assert sol.points == expected


def test_solve_1d_empty_below_minimum():
    assert solve_1d([-1, 0, 1], 1).is_empty


def test_solve_1d_flat_segment_even_k():
    sol = solve_1d([0, 1, 5, 6], 10)
    assert sol.kind is SolutionKind.INTERVAL
    assert sol.interval == (1, 5)


def test_solve_1d_duplicate_foci():
    sol = solve_1d([0, 0], 4)
    assert sol.points == (-2, 2)
    assert solve_1d([0, 0], 0).points == (0,)


def test_solve_1d_exactness_and_no_missed_roots():
    rng = random.Random(2024)
    for _ in range(200):
        k = rng.randint(1, 6)
        foci = [Fraction(rng.randint(-512, 512), 64) for _ in range(k)]
        r_star = sum(abs(sorted(foci)[(k - 1) // 2] - f) for f in foci)
        r = r_star + Fraction(rng.randint(0, 640), 64)
        sol = solve_1d(foci, r)
        for x in sol.points:
            assert sum(abs(x - f) for f in foci) == r      # exact rational identity
        # brute-force sign scan must not reveal roots the solver missed
        pts = sorted(float(x) for x in sol.scalars())
        flat = (float(sol.interval[0]), float(sol.interval[1])) \
            if sol.kind is SolutionKind.INTERVAL else None
        lo = float(min(foci) - r)
        hi = float(max(foci) + r)
        xs = np.arange(lo, hi, 1e-3)
        vals = sum(np.abs(xs - float(f)) for f in foci) - float(r)
        sign_flips = np.nonzero(np.diff(np.signbit(vals)))[0]
        for i in sign_flips:
            bracket_lo, bracket_hi = xs[i] - 1e-3, xs[i + 1] + 1e-3
            near_point = any(bracket_lo <= p <= bracket_hi for p in pts)
            in_flat = flat is not None and bracket_hi >= flat[0] - 1e-3 \
                and bracket_lo <= flat[1] + 1e-3
            assert near_point or in_flat, \
                f"missed root near {xs[i]} for foci={foci} r={r}"


def test_solve_1d_monotone_branches():
    rng = random.Random(77)
    for _ in range(50):
        k = rng.randint(1, 5)
        foci = [Fraction(rng.randint(-64, 64), 8) for _ in range(k)]
        r_star = sum(abs(sorted(foci)[(k - 1) // 2] - f) for f in foci)
        radii = sorted({r_star + Fraction(rng.randint(1, 200), 16) for _ in range(4)})
        prev_hi, prev_lo = None, None
        for r in radii:
            sol = solve_1d(foci, r)
            x_lo, x_hi = min(sol.points), max(sol.points)
            if prev_hi is not None:
                assert x_hi > prev_hi and x_lo < prev_lo
            prev_hi, prev_lo = x_hi, x_lo


# ---------------------------------------------------------------------------
# finite membership
# ---------------------------------------------------------------------------

def test_members_finite_examples():
    sp4 = Space.finite([(-4,), (-1,), (0,), (1,), (2,), (18,)], Metric.l1())
    e4 = KEllipse(sp4, ((-1,), (0,), (1,), (2,)), 18)
    assert members_finite(e4) == [(-4,)]

    sp5 = Space.finite([(-1,), (0,), (1,), (4,), (12,)], Metric.l1())
    e5 = KEllipse(sp5, ((-1,), (0,), (1,)), 12)
    assert members_finite(e5) == [(4,)]


def test_members_finite_mixed_space():
    mem = ke.Membership(isolated=(-2, -1), intervals=((0, math.inf),))
    sp = Space.continuum(1, Metric.l1(), mem)
    e = KEllipse(sp, ((-2,), (0,), (2,)), 21)
    assert members_finite(e) == [(7,)]


def test_nonempty():
    sp = Space.finite([(-1,), (0,), (1,), (4,)], Metric.l1())
    assert ke.nonempty(KEllipse(sp, ((-1,), (0,), (1,)), 12))     # attained at 4
    assert not ke.nonempty(KEllipse(sp, ((-1,), (0,), (1,)), 11))
    line = Space.continuum(1, Metric.l1())
    assert ke.nonempty(KEllipse(line, ((-1,), (0,), (1,)), 2))
    assert not ke.nonempty(KEllipse(line, ((-1,), (0,), (1,)), 1))


def test_convexity_midpoint_property():
    rng = random.Random(9)
    for metric in (Metric.l1(), Metric.l2(), Metric.linf(), Metric.lp(4)):
        sp = Space.continuum(2, metric)
        f = SumField(sp, ((1, 0), (0, 0), (0, 1)))
        for _ in range(1000):
            a = np.array([rng.uniform(-8, 8), rng.uniform(-8, 8)])
            b = np.array([rng.uniform(-8, 8), rng.uniform(-8, 8)])
            mid = tuple(0.5 * (a + b))
            assert f.value(mid) <= 0.5 * (f.value(tuple(a)) + f.value(tuple(b))) + 1e-9
