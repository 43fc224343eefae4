import itertools
import math
import random
import time
import warnings
from fractions import Fraction

import numpy as np
import pytest

import kellipse as ke
from kellipse import (KEllipse, Metric, Space, SumField,
                      members_finite, min_radius, solve_1d, weiszfeld)
from kellipse import geometry
from kellipse.geometry import SolutionKind, SolverError, _line_field, _lower, _minimum
from kellipse.metric import TAU_OPT, is_exact
from oracles import PointClass, classify, scalar_distance, scalar_value


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
    assert f.value((-3,)) == 9        # 2 + 3 + 4
    assert f.value((0,)) == 2


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


@pytest.mark.parametrize("r", (math.inf, -math.inf, math.nan, np.float64(math.inf)))
def test_radius_must_be_finite(r):
    with pytest.raises(ValueError, match="radius must be finite"):
        KEllipse(Space.continuum(1, Metric.l1()), ((0,),), r)


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


def test_min_radius_argmin_on_a_mixed_line_is_a_member():
    # the median interval of -2 and 0 is [-2, 0], whose midpoint -1 is no member
    # of {-2} U [0, inf); its lower end, a focus, is one and minimizes too
    membership = ke.IntervalUnion.of((ke.Interval.point(-2), ke.Interval(0, math.inf)))
    sp = Space.continuum(1, Metric.l1(), membership)
    r_star, argmin = min_radius(SumField(sp, ((-2,), (0,))))
    assert (r_star, argmin) == (2, (-2,)) and sp.contains(argmin)
    # a midpoint that is a member is kept
    assert min_radius(SumField(sp, ((0,), (4,)))) == (4, (2,))


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
    x = np.array([rng.uniform(-6, 6) for _ in range(2000)]).reshape(1000, 2)
    assert (r_star <= f.values(x) + 1e-9).all()


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
# the dual bracket and the solvers it stops
# ---------------------------------------------------------------------------

# two tight pairs of foci, nearly on one line: the field is a nearly flat valley
ROUNDING = 1e-12     # the bracket holds up to rounding, relative to max(1, r)
FLAT_VALLEY = ((3.4150310350225865, 5.559331405907358), (2.4951866470312023, 5.165380919750367),
               (-5.620291917182882, 1.4515599056957296), (-5.61731893502146, 1.5616008681389761))


def scipy_polish(field, start):
    """Nelder-Mead from `start`: it finds a lower field value if the start is not a minimizer."""
    from scipy.optimize import minimize
    res = minimize(lambda y: float(field.values(np.asarray(y)[None, :])[0]), np.asarray(start, float),
                   method="Nelder-Mead", options={"xatol": 1e-10, "fatol": 1e-13, "maxiter": 20_000})
    return res.fun


@pytest.mark.parametrize("metric", [Metric.l2(), Metric.lp(3)], ids=lambda m: m.label)
def test_min_radius_flat_valley(metric):
    field = SumField(Space.continuum(2, metric), FLAT_VALLEY)
    for _ in range(3):
        t0 = time.perf_counter()
        r, arg = min_radius(field)
        assert time.perf_counter() - t0 < 0.05
    res = weiszfeld(FLAT_VALLEY, metric)
    assert res.converged and (res.value, res.point) == (r, arg)
    truth = min(scipy_polish(field, np.mean(FLAT_VALLEY, axis=0)), scipy_polish(field, arg))
    assert abs(r - truth) <= TAU_OPT * max(1.0, r)
    assert res.lower <= r and res.lower <= truth + ROUNDING * truth
    for prev, cur in zip(res.trace, res.trace[1:]):
        assert cur <= prev


def test_weiszfeld_raises_when_the_budget_leaves_the_bracket_open():
    with pytest.raises(SolverError, match="bracket open") as info:
        weiszfeld(FLAT_VALLEY, max_iter=2)
    assert info.value.best_value > weiszfeld(FLAT_VALLEY).value


def test_nonempty_against_the_certified_lower_bound():
    sp = Space.continuum(2, Metric.l2())
    lower = weiszfeld(FLAT_VALLEY).lower
    assert ke.nonempty(KEllipse(sp, FLAT_VALLEY, lower))
    # below the certified bound the set is empty, even within TAU_OPT of r*
    assert not ke.nonempty(KEllipse(sp, FLAT_VALLEY, lower - TAU_OPT / 2))


def bracket_at(field, x):
    """The dual bound that the solvers take at x."""
    pts, x = np.array(field.foci, float), np.asarray(x, float)
    return _lower(field.space.metric.p or 2.0, x - pts, field.space.metric.rowwise(x, pts))


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("metric", [Metric.l2(), Metric.lp(3), Metric.lp(4)], ids=lambda m: m.label)
def test_dual_bound_never_exceeds_the_field(metric, dim):
    rng = np.random.default_rng([dim, len(metric.label)])
    space = Space.continuum(dim, metric)
    for trial in range(4):
        foci = rng.uniform(-5, 5, (int(rng.integers(2, 8)), dim))
        if trial % 2:
            foci = np.vstack([foci, foci[:1]])       # a repeated focus
        field = SumField(space, tuple(map(tuple, foci)))
        floor = float(field.values(rng.uniform(-7, 7, (1000, dim))).min())
        r, arg = min_radius(field)
        for x in [*rng.uniform(-7, 7, (3, dim)), foci[0], arg]:
            assert bracket_at(field, x) <= floor + ROUNDING * max(1.0, floor)
        _, _, lower = _minimum(field)
        assert lower <= floor + ROUNDING * max(1.0, floor) and r - lower <= TAU_OPT * max(1.0, r)


@pytest.mark.parametrize("metric,dim", [(Metric.l1(), 2), (Metric.l1(), 3), (Metric.linf(), 2)],
                         ids=["L1-2d", "L1-3d", "Linf-2d"])
def test_closed_form_minima_are_exact(metric, dim):
    # the field is piecewise linear with breaks on the grid of focus coordinates
    # (rotated by 45 degrees for Linf), so some grid node attains its minimum
    rng = random.Random(f"{metric.label}{dim}")
    space = Space.continuum(dim, metric)
    for _ in range(30):
        foci = tuple(tuple(Fraction(rng.randint(-20, 20), rng.randint(1, 4)) for _ in range(dim))
                     for _ in range(rng.randint(1, 6)))
        field = SumField(space, foci)
        r, arg = min_radius(field)
        assert is_exact(r) and all(is_exact(c) for c in arg)
        if metric.kind == "l1":
            nodes = itertools.product(*({f[i] for f in foci} for i in range(dim)))
        else:
            nodes = ((Fraction(s + t, 2), Fraction(s - t, 2))
                     for s in {a + b for a, b in foci} for t in {a - b for a, b in foci})
        assert r == min(scalar_value(field, nd) for nd in nodes) == field.value(arg)
        assert _minimum(field)[2] == r


def test_nonempty_at_the_exact_minimum_of_float_foci():
    # the field at the rounded argmin, summed in floats, can exceed the exact
    # minimum of the float foci; the level set at that minimum is a point
    rng = random.Random(17)
    for metric, nodes in ((Metric.linf(), lambda s, t: (Fraction(s + t, 2), Fraction(s - t, 2))),
                          (Metric.l1(), lambda s, t: (s, t))):
        sp = Space.continuum(2, metric)
        for _ in range(60):
            foci = tuple((rng.uniform(-9, 9), rng.uniform(-9, 9)) for _ in range(rng.randint(2, 7)))
            exact = [tuple(map(Fraction, f)) for f in foci]
            us, vs = ({a + b for a, b in exact}, {a - b for a, b in exact}) if metric.kind == "linf" \
                else ({a for a, _ in exact}, {b for _, b in exact})
            r_star = min(sum(scalar_distance(metric, nodes(s, t), f) for f in exact) for s in us for t in vs)
            _, _, lower = _minimum(SumField(sp, foci))
            assert lower <= r_star and ke.nonempty(KEllipse(sp, foci, r_star))


@pytest.mark.parametrize("metric,dim", [(Metric.l2(), 2), (Metric.lp(3), 3), (Metric.linf(), 3)],
                         ids=["L2-2d", "Lp3-3d", "Linf-3d"])
def test_min_radius_of_coincident_foci(metric, dim):
    foci = ((1.5,) * dim,) * 3
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _minimum(SumField(Space.continuum(dim, metric), foci)) == (0.0, foci[0], 0.0)
        if metric.kind != "linf":
            res = weiszfeld(foci, metric)
            assert res.converged and (res.value, res.point, res.lower) == (0.0, foci[0], 0.0)


def linf_linear_program(foci):
    """min sum_i t_i subject to -t_i <= x_j - a_ij <= t_i: the Linf minimum, exactly."""
    from scipy.optimize import linprog
    k, dim = foci.shape
    rows, rhs = [], []
    for i, j, s in itertools.product(range(k), range(dim), (1, -1)):
        row = np.zeros(dim + k)
        row[j], row[dim + i] = s, -1
        rows.append(row)
        rhs.append(s * foci[i, j])
    return linprog(np.r_[np.zeros(dim), np.ones(k)], A_ub=np.array(rows), b_ub=rhs,
                   bounds=[(None, None)] * (dim + k), method="highs").fun


def linf_cases():
    """Seeded Linf foci in 3D and above: generic sets, then coincident, collinear,
    duplicated, two-focus, 5D and rational ones."""
    rng = np.random.default_rng(31)
    cases = [rng.uniform(-5, 5, (int(rng.integers(2, 9)), dim)) for dim in (3, 3, 3, 4) for _ in range(4)]
    base = rng.uniform(-5, 5, (4, 3))
    cases += [np.repeat(base[:1], 3, axis=0), base[0] + np.outer(np.linspace(-2, 3, 5), base[1]),
              np.vstack([base, base[:2], base[:1]]), base[:2], rng.uniform(-5, 5, (7, 5))]
    rational = [tuple(tuple(map(Fraction, rng.integers(-20, 21, d).tolist(), rng.integers(1, 7, d).tolist()))
                      for _ in range(k)) for k, d in ((3, 3), (6, 4), (5, 5))]
    return [tuple(map(tuple, f)) for f in cases] + rational


def test_linf_minimum_against_a_linear_program(monkeypatch):
    kinds, simplex = [], geometry._simplex

    def spy(t, columns):
        kinds.append(t.dtype.kind)
        return simplex(t, columns)

    monkeypatch.setattr(geometry, "_simplex", spy)
    for foci in linf_cases():
        space = Space.continuum(len(foci[0]), Metric.linf())
        truth = linf_linear_program(np.array(foci, dtype=float))
        arg, r_star = geometry._linf_median(foci)
        exact = SumField(space, tuple(tuple(map(Fraction, f)) for f in foci))
        r, x, lower = _minimum(exact)
        # rational foci: the Fraction minimum, attained at a Fraction point
        assert type(r) is Fraction and all(type(c) is Fraction for c in x)
        assert list(x) == arg and r == r_star == lower == exact.value(x)
        assert abs(r - truth) <= ROUNDING * max(1.0, truth)
        if not all(is_exact(c) for f in foci for c in f):
            # float foci: the same point, rounded, and the float just below r*
            r, y, lower = _minimum(SumField(space, foci))
            assert y == tuple(map(float, x)) and lower <= r_star
            assert abs(r - truth) <= ROUNDING * max(1.0, truth)
    assert "O" not in kinds      # every float basis proved itself


def test_linf_linear_program_is_bounded_before_allocation(monkeypatch):
    rng = np.random.default_rng(3)
    foci = [tuple(map(float, p)) for p in rng.uniform(-5, 5, (180, 3))]
    space = Space.continuum(3, Metric.linf())
    entries = (180 + 3 + 1) * (2 * 180 * 3 + 180 + 1)
    assert entries <= geometry.MAX_LP_ENTRIES
    r, x, lower = _minimum(SumField(space, tuple(foci)))
    assert abs(r - linf_linear_program(np.array(foci))) <= ROUNDING * r and lower <= r

    def no_tableau(*args, **kwargs):
        raise AssertionError("np.block ran")

    monkeypatch.setattr(geometry.np, "block", no_tableau)
    with pytest.raises(ValueError, match="MAX_LP_ENTRIES"):
        min_radius(SumField(space, tuple(foci) * 2))


def test_linf_minimum_pivots_in_fractions_when_the_float_basis_fails(monkeypatch):
    # a float pass that stops at its start basis leaves the bracket open; Bland's
    # rule then runs again in Fractions and still reaches the exact minimum
    kinds, simplex = [], geometry._simplex

    def stop_at_start(t, columns):
        kinds.append(t.dtype.kind)
        if t.dtype.kind == "f":
            t[-1] = 0.0         # no negative reduced cost: no pivot after the start
        return simplex(t, columns)

    for foci in linf_cases()[:16:5]:
        expected = geometry._linf_median(foci)
        monkeypatch.setattr(geometry, "_simplex", stop_at_start)
        kinds.clear()
        assert geometry._linf_median(foci) == expected and kinds == ["f", "O"]
        monkeypatch.undo()


def test_newton_steps_past_a_singular_hessian():
    # the Hessian of two L3 foci at their midpoint is singular; the least-norm
    # step is taken, and the minimum is their distance
    field = SumField(Space.continuum(2, Metric.lp(3)), ((1.784653, -0.528892), (-1.582579, -2.279749)))
    r, _, lower = _minimum(field)
    d = field.space.metric.distance(*field.foci)
    assert lower <= d <= r + ROUNDING * d and r - lower <= TAU_OPT * max(1.0, r)


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("metric", [Metric.l2(), Metric.lp(2), Metric.lp(3), Metric.lp(4)],
                         ids=lambda m: m.label)
def test_min_radius_is_the_field_at_its_argmin(metric, dim):
    """Damped Newton's objective is the field under the space's own metric,
    Lp(2) included, its focus distances added as SumField.values adds them,
    so r* is the field at the returned argmin bit for bit, also from 8 foci
    on, where numpy's pairwise .sum() would round otherwise."""
    rng = random.Random(f"{metric.label}-{dim}")
    for k in range(1, 14):
        foci = tuple(tuple(rng.uniform(-10, 10) for _ in range(dim)) for _ in range(k))
        f = SumField(Space.continuum(dim, metric), foci)
        r_star, arg = min_radius(f)
        assert r_star == f.value(arg), (k, foci)


@pytest.mark.parametrize("p", [2.0, 1.5, 3.0, 4.0])
def test_newton_against_nelder_mead(p):
    # generic foci, repeated foci and sets whose median is a focus, in 2D and 3D
    rng = np.random.default_rng(int(10 * p))
    for dim in (2, 3):
        metric = Metric.l2() if p == 2 else Metric.lp(p)
        for shape in ("generic", "repeated", "star"):
            foci = rng.uniform(-5, 5, (int(rng.integers(3, 8)), dim))
            if shape == "repeated":
                foci = np.vstack([foci, foci[:2], foci[:1]])
            elif shape == "star":        # spokes around a centre focus pull it nowhere
                foci = np.vstack([foci[:1], foci[:1] + 2 * np.eye(dim), foci[:1] - 2 * np.eye(dim)])
            res = weiszfeld(foci, metric)
            field = SumField(Space.continuum(dim, metric), tuple(map(tuple, foci)))
            truth = scipy_polish(field, res.point)
            assert res.lower <= truth + ROUNDING * truth and res.value - truth <= TAU_OPT * max(1.0, truth)
            if shape == "star":
                assert res.point == tuple(foci[0]) and res.value - res.lower <= ROUNDING * res.value


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


def solve_1d_by_piece_loop(foci, r):
    """Reference: the piece-by-piece solver, trying all k + 1 pieces of the field."""
    fs = sorted(x if type(x) in (int, Fraction) else Fraction(x) for x in foci)
    k = len(fs)
    r = r if type(r) in (int, Fraction) else Fraction(r)
    m_lo, m_hi = fs[(k - 1) // 2], fs[k // 2]
    r_star = sum(abs(m_lo - f) for f in fs)
    if r < r_star:
        return (SolutionKind.EMPTY, ())
    if r == r_star:
        return (SolutionKind.POINTS, (m_lo,)) if m_lo == m_hi else (SolutionKind.INTERVAL, (m_lo, m_hi))
    total, prefix, solutions = sum(fs), 0, []
    for i in range(k + 1):
        slope = 2 * i - k
        if slope != 0:
            x = Fraction(r - (total - 2 * prefix), slope)
            if (i == 0 or x >= fs[i - 1]) and (i == k or x <= fs[i]) and x not in solutions:
                solutions.append(x)
        prefix += fs[i] if i < k else 0
    return (SolutionKind.POINTS, tuple(sorted(solutions)))


def typed(values):
    return tuple((type(v), v) for v in values)


def as_type(t, v):
    """The Fraction v as a t; as an int only when v is integral."""
    return v if t is int and v.denominator != 1 else t(v)


def test_solve_1d_matches_piece_loop_with_types_across_a_shared_memo():
    rng = random.Random(515)
    cast = (int, Fraction, float)
    for _ in range(400):
        k = rng.randint(1, 7)
        base = [Fraction(rng.randint(-24, 24), rng.choice((1, 1, 2, 4))) for _ in range(k)]
        for _ in range(rng.randint(0, 2)):                    # duplicate foci
            base[rng.randrange(k)] = base[rng.randrange(k)]
        base = [Fraction(round(b)) if rng.random() < 0.5 else b for b in base]
        fs = sorted(base)
        r_star = sum(abs(fs[(k - 1) // 2] - f) for f in fs)
        at_foci = sorted({sum(abs(b - f) for f in fs) for b in fs})
        between = [(a + b) / 2 for a, b in zip(at_foci, at_foci[1:])]
        radii = [r_star - Fraction(1, 3), r_star, *at_foci, *between, at_foci[-1] + Fraction(7, 5)]
        # the same values as int, Fraction and float foci, in turn, so one memo
        # entry could be handed to a caller of another type if the key let it
        for kind in rng.sample(cast, 3) + [None]:                # None: mixed types
            foci = [as_type(kind or rng.choice(cast), b) for b in base]
            for r in radii:
                r = as_type(rng.choice(cast), r)
                got = solve_1d(foci, r)
                want_kind, want = solve_1d_by_piece_loop(foci, r)
                assert got.kind is want_kind, (foci, r)
                assert typed(got.scalars()) == typed(want), (foci, r)


def test_line_field_memo_is_bounded():
    for i in range(_line_field.cache_info().maxsize + 50):
        assert solve_1d([i, i + 1, Fraction(i, 3)], 10 ** 6).kind is SolutionKind.POINTS
    info = _line_field.cache_info()
    assert info.maxsize is not None and info.currsize <= info.maxsize


def test_line_field_memo_hits_equal_foci_that_are_other_objects():
    f = ke.srelu(-6, 2, 6, 3)
    for foci, copy in [((-5, 1, 4), (-5, 1, 4)),
                       ((Fraction(-9, 4), Fraction(1, 3), Fraction(7, 2)),
                        (Fraction(-18, 8), Fraction(2, 6), Fraction(14, 4)))]:
        assert all(a == b and a is not b for a, b in zip(foci, copy) if type(a) is Fraction)
        _line_field.cache_clear()
        ke.fixed_kellipse_radii(f, foci)
        for r in (10, Fraction(21, 2), 11):
            ke.is_fixed_kellipse(f, copy, r)
        info = _line_field.cache_info()
        # fixed_kellipse_radii keys its entry as Fractions, so int foci miss once more
        want_misses = 2 if type(foci[0]) is int else 1
        assert (info.misses, info.hits) == (want_misses, 4 - want_misses), info


def test_line_field_memo_keeps_equal_foci_of_each_type_apart():
    _line_field.cache_clear()
    # the exact type of the median and of r*: ints stay ints, the rest become Fractions
    kinds = {int: int, float: Fraction, Fraction: Fraction, np.int64: Fraction}
    for t, exact in kinds.items():
        foci = tuple(map(t, (-2, 1, 3)))
        sol = solve_1d(foci, 5)             # r* = 5 at the median 1
        assert typed(sol.points) == ((exact, 1),), t
        assert typed((geometry.line_field(foci).r_star,)) == ((exact, 5),), t
    assert _line_field.cache_info().currsize == len(kinds)


@pytest.mark.parametrize("den", [3, 7, 11, 3 * 7 * 11])
def test_solve_1d_matches_piece_loop_on_coprime_denominators(den):
    rng = random.Random(den)
    for _ in range(60):
        k = rng.randint(1, 6)
        foci = [Fraction(rng.randint(-5 * den, 5 * den), rng.choice((den, 1, 2 * den))) for _ in range(k)]
        fs = sorted(foci)
        r_star = sum(abs(fs[(k - 1) // 2] - f) for f in fs)
        for r in (r_star - Fraction(1, den), r_star, r_star + Fraction(1, 13 * den),
                  r_star + Fraction(rng.randint(1, 400), rng.choice((1, den, 17))), float(r_star) + 0.1):
            want_kind, want = solve_1d_by_piece_loop(foci, r)
            got = solve_1d(foci, r)
            assert got.kind is want_kind and typed(got.scalars()) == typed(want), (foci, r)


def test_solve_1d_matches_piece_loop_on_float_foci():
    # 0.1 is 3602879701896397 / 2**55, so the common denominator of these foci is 2**55
    assert geometry.line_field([0.1, 0.5, -3.0]).D == 2 ** 55
    rng = random.Random(55)
    for _ in range(200):
        foci = [rng.choice((0.1, 0.3, 1e-3, 2.5, -0.7, 1 / 3)) * rng.randint(-9, 9)
                for _ in range(rng.randint(1, 6))]
        for r in (0.35, 1, Fraction(7, 3), 12.1, sum(abs(foci[0] - f) for f in foci)):
            want_kind, want = solve_1d_by_piece_loop(foci, r)
            got = solve_1d(foci, r)
            assert got.kind is want_kind and typed(got.scalars()) == typed(want), (foci, r)


def test_min_radius_1d_median_keeps_focus_types(line):
    # equal foci of different types keep their input order, so the median's type does too
    for foci, want in [((1, 2, 3), (2, 2)), ((Fraction(1), 2, Fraction(3)), (Fraction(2), 2)),
                       ((1.0, 2.0, 3.0), (2.0, Fraction(2))), ((0, 1, 5, 6), (Fraction(10), Fraction(3))),
                       ((0, 1, 1.0, 6), (6.0, 1)), ((0, 1.0, 1, 6), (6.0, Fraction(1)))]:
        value, arg = min_radius(SumField(line, tuple((f,) for f in foci)))
        assert typed((value, arg[0])) == typed(want), foci


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
    mem = ke.IntervalUnion.of((ke.Interval.point(-2), ke.Interval.point(-1), ke.Interval(0, math.inf)))
    sp = Space.continuum(1, Metric.l1(), mem)
    e = KEllipse(sp, ((-2,), (0,), (2,)), 21)
    assert members_finite(e) == [(7,)]


def test_members_finite_mixed_space_flat_segment_touching_the_half_line():
    # the flat segment [-1, 0] of foci (-1, 0) at r = 1 meets {-2, -1} U [0, inf)
    # in the isolated point -1 and the end 0 of the half-line: two points
    mem = ke.IntervalUnion.of((ke.Interval.point(-2), ke.Interval.point(-1), ke.Interval(0, math.inf)))
    sp = Space.continuum(1, Metric.l1(), mem)
    assert members_finite(KEllipse(sp, ((-1,), (0,)), 1)) == [(-1,), (0,)]
    with pytest.raises(ValueError, match="segment"):
        members_finite(KEllipse(sp, ((0,), (2,)), 2))     # [0, 2] lies in the half-line


def test_nonempty_mixed_space_flat_segment_inside_the_half_line():
    mem = ke.IntervalUnion.of((ke.Interval.point(-2), ke.Interval.point(-1), ke.Interval(0, math.inf)))
    sp = Space.continuum(1, Metric.l1(), mem)
    assert ke.nonempty(KEllipse(sp, ((0,), (2,)), 2))          # the whole segment [0, 2]
    assert not ke.nonempty(KEllipse(sp, ((-2,), (-1,)), 2))     # {-5/2, -1/2}: neither a member


def test_nonempty():
    sp = Space.finite([(-1,), (0,), (1,), (4,)], Metric.l1())
    assert ke.nonempty(KEllipse(sp, ((-1,), (0,), (1,)), 12))     # attained at 4
    assert not ke.nonempty(KEllipse(sp, ((-1,), (0,), (1,)), 11))
    line = Space.continuum(1, Metric.l1())
    assert ke.nonempty(KEllipse(line, ((-1,), (0,), (1,)), 2))
    assert not ke.nonempty(KEllipse(line, ((-1,), (0,), (1,)), 1))


def test_nonempty_on_the_line_is_the_exact_level_set():
    # with float foci the float r* can lie below the exact minimum, where the
    # exact level set is empty
    rng = random.Random(3)
    line = Space.continuum(1, Metric.l1())
    for _ in range(2000):
        foci = tuple((rng.uniform(-9, 9),) for _ in range(rng.randint(1, 7)))
        r = min_radius(SumField(line, foci))[0]
        assert ke.nonempty(KEllipse(line, foci, r)) == (not solve_1d([f[0] for f in foci], r).is_empty)


def test_convexity_midpoint_property():
    rng = random.Random(9)
    for metric in (Metric.l1(), Metric.l2(), Metric.linf(), Metric.lp(4)):
        sp = Space.continuum(2, metric)
        f = SumField(sp, ((1, 0), (0, 0), (0, 1)))
        # 1000 pairs (a, b), drawn a then b; the field by rows
        ab = np.array([rng.uniform(-8, 8) for _ in range(4000)]).reshape(1000, 2, 2)
        a, b = ab[:, 0], ab[:, 1]
        assert (f.values(0.5 * (a + b)) <= 0.5 * (f.values(a) + f.values(b)) + 1e-9).all()
