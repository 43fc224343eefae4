"""The condition kernel of the verifier against plain scalar loops.

The reference below walks the plan pair by pair with the scalar oracles of
tests/oracles.py (scalar_distance, pointwise_margin, pair_ratio, ik_margin)
and the first-occurrence tie rule, under the float slack TAU_COND, or under
zero slack on exact inputs. check_condition must give the same verdict and
witness points, and the same constants and margins: on float plans bit for
bit under L1, L2 and Linf, within 1e-12 relative under Lp; on exact plans
equal in value and type.
"""
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import combinations

import numpy as np
import pytest

import kellipse.verifier as verifier
from kellipse import (Affine1D, ConstantPoint, Identity, InFiniteSet, InHalfspace,
                      KEllipse, Metric, Otherwise, Point, SamplePlan, SelfMap, Space,
                      SumField, check_condition, default_plan, exhaustive_plan,
                      make_fixing_map, min_radius)
from kellipse.cli import main
from kellipse.metric import STRICT_MARGIN, TAU_COND, TAU_IDENT
from kellipse.verifier import CONDITION_IDS, FAIL, PAIR_FIT, PASS, POINTWISE_IDS, VACUOUS
from oracles import RadiusGap, ik_margin, pair_ratio, pointwise_margin, scalar_distance, scalar_value

METRICS = (Metric.l1(), Metric.l2(), Metric.linf(), Metric.lp(3))


# ---------------------------------------------------------------------------
# the scalar reference
# ---------------------------------------------------------------------------

def _first_min(items):
    best = None
    for margin, witness in items:
        if best is None or margin < best[0]:
            best = (margin, witness)
    return best


def scalar_reference(cid, m, e, plan, slack=TAU_COND):
    """(verdict, fitted constant, worst margin, witness, notes) by plain loops.

    slack is TAU_COND on float inputs and 0 on exact ones, where the strict
    margin of the constant fits is 0 as well.
    """
    on, off = plan.on_ellipse, plan.off_ellipse

    d = partial(scalar_distance, e.space.metric)
    if cid == "Ik":
        k = len(e.foci)
        margin, witness = _first_min((ik_margin(m, e.field, k, x), (x,)) for x in plan.all_points)
        moved = [x for x in plan.all_points
                 if ik_margin(m, e.field, k, x) >= -slack and d(x, m(x)) > TAU_IDENT]
        notes = f"passing point {moved[-1]} is not fixed" if moved else ""
        return (PASS if margin >= -slack else FAIL), None, margin, witness, notes
    if cid in POINTWISE_IDS:
        margin, witness = _first_min((pointwise_margin(cid, m, e, x), (x,)) for x in on)
        return (PASS if margin >= -slack else FAIL), None, margin, witness, ""
    if cid in PAIR_FIT:
        fitted, witness = None, ()
        for x in on:
            for y in off:
                ratio = pair_ratio(cid, m, e, x, y, tau=slack)
                if ratio is not None and (fitted is None or ratio > fitted):
                    fitted, witness = ratio, (x, y)
        if fitted is None:
            return VACUOUS, None, 0, (), "no informative pairs"
        return _fit(fitted, PAIR_FIT[cid], witness, slack)
    if cid == "E''k2":
        fitted, witness = 0, ()
        for x in on:
            tx = m(x)
            deficit = e.r - scalar_value(e.field, tx)
            need = 0
            if deficit > 0:
                step = d(x, tx)
                need = math.inf if step <= slack else _ratio(deficit, step)
            if need > fitted or not witness:
                fitted, witness = need, (x,)
        return _fit(fitted, 1, witness, slack)
    if cid == "E'''k2":
        pairs = [(x, y) for x, y in combinations(on, 2) if x != y]
        if not pairs:
            return VACUOUS, None, 0, (), "fewer than two distinct on-set samples"
        margin, witness = _first_min((d(m(x), m(y)) - e.r, (x, y)) for x, y in pairs)
        return (PASS if margin > -slack else FAIL), None, margin, witness, ""
    assert cid == "E'''k3"
    gap = RadiusGap(e.r)
    margin, witness = _first_min(((d(x, y) - gap(d(x, m(x)))) - d(m(x), m(y)), (x, y))
                                 for x in on for y in on)
    return (PASS if margin >= -slack else FAIL), None, margin, witness, ""


def _fit(fitted, threshold, witness, slack):
    margin = threshold - fitted if fitted != math.inf else -math.inf
    strict = STRICT_MARGIN if slack else 0
    verdict = PASS if fitted != math.inf and fitted < threshold - strict else FAIL
    return verdict, fitted, margin, witness, ""


def _ratio(num, den):
    """num / den, a Fraction when both are exact (int / int is a float)."""
    exact = all(type(v) in (int, Fraction) for v in (num, den))
    return Fraction(num) / den if exact else num / den


# ---------------------------------------------------------------------------
# seeded maps and plans
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AffineND:
    """x -> A x + b, for the property test only."""

    matrix: tuple
    offset: tuple

    def __call__(self, x):
        return Point(tuple(sum(a * v for a, v in zip(row, x)) + b
                           for row, b in zip(self.matrix, self.offset)))


def _point(rng, dim, scale=5.0):
    return Point(tuple(rng.uniform(-scale, scale) for _ in range(dim)))


def _affine(rng, dim):
    matrix = tuple(tuple(rng.choice((0.0, 0.5, -0.5, 1.0, rng.uniform(-1, 1))) for _ in range(dim))
                   for _ in range(dim))
    return AffineND(matrix, tuple(rng.uniform(-2, 2) for _ in range(dim)))


def random_case(rng, dim, metric, kind):
    space = Space.continuum(dim, metric)
    foci = tuple(_point(rng, dim, 3.0) for _ in range(rng.randint(1, 4)))
    on = [_point(rng, dim) for _ in range(rng.randint(1, 9))]
    off = [_point(rng, dim) for _ in range(rng.randint(0, 11))]
    # duplicates, within and across the two lists, make ties
    on += rng.sample(on, rng.randint(0, len(on)))
    off += rng.sample(on, rng.randint(0, min(2, len(on))))
    rng.shuffle(on)
    rng.shuffle(off)
    e = KEllipse(space, foci, SumField(space, foci).value(on[0]))    # on[0] lies on the set
    if kind == "identity-on-set":
        rules = ((InFiniteSet(tuple(on)), Identity()), (Otherwise(), ConstantPoint(_point(rng, dim))))
    elif kind == "constant":
        rules = ((Otherwise(), ConstantPoint(_point(rng, dim))),)
    elif kind == "affine":
        action = Affine1D(rng.uniform(-1, 1), rng.uniform(-2, 2)) if dim == 1 else _affine(rng, dim)
        rules = ((Otherwise(), action),)
    else:
        rules = ((InFiniteSet(tuple(rng.sample(on, 1))), Identity()),
                 (InHalfspace(tuple(rng.uniform(-1, 1) for _ in range(dim)), 0.0), _affine(rng, dim)),
                 (Otherwise(), ConstantPoint(_point(rng, dim))))
    plan = SamplePlan(space, tuple(on), tuple(off), seed=0, exhaustive=False, exact=False)
    return SelfMap(rules), e, plan


def _rational(rng):
    """An int, or a Fraction of denominator 1, 2 or 4 (integral ones included)."""
    v = Fraction(rng.randint(-16, 16), rng.choice((1, 2, 4)))
    return v.numerator if v.denominator == 1 and rng.random() < 0.5 else v


def _rational_point(rng, dim):
    return Point(tuple(_rational(rng) for _ in range(dim)))


def _rational_affine(rng, dim):
    entries = (0, 1, -1, Fraction(1, 2), Fraction(-1, 2))
    matrix = tuple(tuple(rng.choice(entries + (Fraction(_rational(rng), 4),)) for _ in range(dim))
                   for _ in range(dim))
    return AffineND(matrix, tuple(_rational(rng) for _ in range(dim)))


def exact_case(rng, dim, metric, kind, line=False):
    """A rational plan and a map with int/Fraction images.

    line: the exact plan of a rational k-ellipse on the line (dim 1), with
    rational off-set samples. Otherwise the exhaustive plan of a finite space
    of rational points, whose radius is the field's most common value there,
    so that several points lie on the set.
    """
    if line:
        space = Space.continuum(1, metric)
        foci = tuple(Point((_rational(rng),)) for _ in range(rng.randint(1, 4)))
        r_star, _ = min_radius(SumField(space, foci))
        e = KEllipse(space, foci, r_star + rng.choice((0, Fraction(1, 2), 1, 3)))
        plan = default_plan(e, seed=rng.randint(0, 99), off_count=rng.randint(0, 12))
    else:
        space = Space.finite([_rational_point(rng, dim) for _ in range(rng.randint(4, 14))], metric)
        field = SumField(space, tuple(rng.sample(space.points, rng.randint(1, min(3, len(space.points))))))
        values = [scalar_value(field, p) for p in space.points]
        e = KEllipse(space, field.foci, max(values, key=values.count))
        plan = exhaustive_plan(e)
    on = plan.on_ellipse
    assert plan.exact and on
    if kind == "identity-on-set":
        rules = ((InFiniteSet(on), Identity()), (Otherwise(), ConstantPoint(_rational_point(rng, dim))))
    elif kind == "constant":
        rules = ((Otherwise(), ConstantPoint(_rational_point(rng, dim))),)
    elif kind == "affine":
        rules = ((Otherwise(), _rational_affine(rng, dim)),)
    else:
        rules = ((InFiniteSet(tuple(rng.sample(on, 1))), Identity()),
                 (InHalfspace(tuple(_rational(rng) for _ in range(dim)), 0), _rational_affine(rng, dim)),
                 (Otherwise(), ConstantPoint(_rational_point(rng, dim))))
    return SelfMap(rules), e, plan


def _same_number(a, b, metric):
    if a is None or b is None or math.isinf(a) or math.isinf(b) or metric.kind != "lp":
        return a == b
    return math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-300)


def _assert_matches(cid, m, e, plan, exact=False):
    rep = check_condition(cid, m, e, plan)
    verdict, fitted, margin, witness, notes = scalar_reference(cid, m, e, plan, 0 if exact else TAU_COND)
    where = f"{cid} {e.space.metric.label} dim {e.space.dimension}"
    assert rep.exact == exact, where
    assert rep.verdict == verdict, where
    assert rep.witness == witness, where
    assert rep.notes == notes, where
    assert all(type(p) is Point for p in rep.witness), where
    if exact:
        assert (rep.fitted_constant, rep.worst_margin) == (fitted, margin), where
    else:
        assert _same_number(rep.fitted_constant, fitted, e.space.metric), (where, rep.fitted_constant, fitted)
        assert _same_number(rep.worst_margin, margin, e.space.metric), (where, rep.worst_margin, margin)
    assert type(rep.worst_margin) is type(margin), where
    assert type(rep.fitted_constant) is type(fitted), where


KINDS = ("identity-on-set", "constant", "affine", "mixed")


@pytest.mark.parametrize("dim", (1, 2, 3))
@pytest.mark.parametrize("metric", METRICS, ids=lambda mt: mt.label)
def test_float_kernels_match_scalar_loops(dim, metric):
    rng = random.Random(f"kernels:{dim}:{metric.label}")
    for trial in range(24):
        kind = KINDS[trial % len(KINDS)]
        if kind == "mixed" and dim == 1:
            kind = "affine"
        m, e, plan = random_case(rng, dim, metric, kind)
        for cid in CONDITION_IDS:
            _assert_matches(cid, m, e, plan)
    if dim == 1 or metric.kind in ("l1", "linf"):    # the metrics that keep rationals
        for trial in range(12):
            m, e, plan = exact_case(rng, dim, metric, KINDS[trial % len(KINDS)], line=dim == 1 and trial >= 6)
            for cid in CONDITION_IDS:
                _assert_matches(cid, m, e, plan, exact=True)


@pytest.mark.parametrize("block", (1, 5, 64))
def test_blocked_reductions_cross_block_boundaries(monkeypatch, block):
    monkeypatch.setattr(verifier, "PAIR_BLOCK", block)
    rng = random.Random(f"blocks:{block}")
    for metric in METRICS:
        for kind in KINDS:
            m, e, plan = random_case(rng, 2, metric, kind)
            for cid in CONDITION_IDS:
                _assert_matches(cid, m, e, plan)
    for kind in KINDS:
        for metric, dim, line in ((Metric.l1(), 1, True), (Metric.l1(), 2, False), (Metric.linf(), 3, False)):
            m, e, plan = exact_case(rng, dim, metric, kind, line)
            for cid in CONDITION_IDS:
                _assert_matches(cid, m, e, plan, exact=True)


def test_ties_keep_the_first_pair_across_blocks(monkeypatch):
    # a constant map makes every Bk3 ratio 0: the first (x, y) must win
    monkeypatch.setattr(verifier, "PAIR_BLOCK", 1)
    space = Space.continuum(2, Metric.l2())
    e = KEllipse(space, ((0.0, 0.0), (1.0, 0.0)), 4.0)
    on = tuple(Point((float(i), 1.0)) for i in range(5))
    off = tuple(Point((float(i), -3.0)) for i in range(4))
    plan = SamplePlan(space, on + on, off, exact=False)
    m = SelfMap(((Otherwise(), ConstantPoint((0.5, 0.5))),))
    rep = check_condition("Bk3", m, e, plan)
    assert rep.fitted_constant == 0.0 and rep.witness == (on[0], off[0])
    rep = check_condition("E'''k3", m, e, plan)
    assert rep.witness == scalar_reference("E'''k3", m, e, plan)[3]


def test_identity_notes_name_the_last_passing_point_that_moves():
    # a step of 1.5e-9 toward the single focus passes Ik within the slack,
    # yet moves the point by more than TAU_IDENT
    space = Space.continuum(2, Metric.l2())
    e = KEllipse(space, ((0.0, 0.0),), 5.0)
    on = tuple(Point((5.0 * math.cos(t), 5.0 * math.sin(t))) for t in (0.1, 0.7, 1.3, 2.9))
    m = SelfMap(((Otherwise(), AffineND(((1 - 3e-10, 0.0), (0.0, 1 - 3e-10)), (0.0, 0.0))),))
    plan = SamplePlan(space, on, (Point((9.0, 9.0)),), exact=False)
    rep = check_condition("Ik", m, e, plan)
    assert rep.notes == scalar_reference("Ik", m, e, plan)[4]
    assert rep.notes == f"passing point {on[-1]} is not fixed"


def test_pairwise_matches_scalar_distance():
    rng = random.Random(5)
    for metric in METRICS:
        for dim in (1, 2, 3):
            a = [_point(rng, dim) for _ in range(6)]
            b = [_point(rng, dim) for _ in range(4)] + [a[0]]
            mat = metric.pairwise(np.array(a), np.array(b))
            assert mat.shape == (6, 5)
            for i, x in enumerate(a):
                for j, y in enumerate(b):
                    assert float(mat[i, j]) == metric.distance(x, y)
            rows = metric.rowwise(np.array(a[:5]), np.array(b))
            for x, y, v in zip(a, b, rows):
                assert float(v) == metric.distance(x, y)
            # int/Fraction points: equal in value and type
            qa = [_rational_point(rng, dim) for _ in range(6)]
            qb = [_rational_point(rng, dim) for _ in range(4)] + [qa[0]]
            mat = metric.pairwise(np.array(qa, dtype=object), np.array(qb, dtype=object)).tolist()
            assert [[(type(v), v) for v in row] for row in mat] == \
                [[(type(d), d) for d in (metric.distance(x, y) for y in qb)] for x in qa]


@pytest.mark.parametrize("dim", (2, 3))
@pytest.mark.parametrize("metric", METRICS, ids=lambda mt: mt.label)
def test_scalar_distance_oracle_tracks_the_array_norm(metric, dim):
    # Python's pow and numpy's power may round Lp powers differently; every
    # other norm takes the same float operations in the same order
    rng = random.Random(f"oracle:{dim}:{metric.label}")
    a = [_point(rng, dim) for _ in range(2000)] + [Point((1.5,) * dim)]
    b = [_point(rng, dim) for _ in range(2000)] + [Point((1.5,) * dim)]
    got = metric.rowwise(np.array(a), np.array(b))
    expect = np.array([scalar_distance(metric, x, y) for x, y in zip(a, b)])
    if metric.kind == "lp":
        np.testing.assert_array_max_ulp(got, expect, maxulp=8)
    else:
        assert got.tolist() == expect.tolist()


# ---------------------------------------------------------------------------
# which path runs: "exact" only from rational arithmetic
# ---------------------------------------------------------------------------

def test_float_map_on_rational_plan_is_not_exact(line_ellipse):
    plan = default_plan(line_ellipse, seed=7, off_count=48)
    assert plan.exact
    m = SelfMap(((Otherwise(), Affine1D((0.1 + 0.2) / 0.3, 0)),))
    rep = check_condition("E'''k1", m, line_ellipse, plan)
    assert rep.verdict == PASS and not rep.exact
    assert -TAU_COND <= rep.worst_margin < 0        # about -3.6e-15: float rounding
    for cid in CONDITION_IDS:
        assert not check_condition(cid, m, line_ellipse, plan).exact, cid


def test_rational_map_on_rational_plan_stays_exact(line_ellipse):
    plan = default_plan(line_ellipse, seed=7, off_count=48)
    m = SelfMap(((Otherwise(), Affine1D(Fraction(1, 2), Fraction(1, 3))),))
    for cid in CONDITION_IDS:
        rep = check_condition(cid, m, line_ellipse, plan)
        assert rep.exact, cid
        for value in (rep.worst_margin, rep.fitted_constant):
            assert value is None or value in (math.inf, -math.inf) or type(value) in (int, Fraction), cid
    rep = check_condition("E'''k1", m, line_ellipse, plan)
    assert rep.worst_margin == min(pointwise_margin("E'''k1", m, line_ellipse, x)
                                   for x in plan.on_ellipse)
    assert isinstance(rep.worst_margin, Fraction)


def test_exact_flag_requires_rational_images_of_every_used_point():
    # the map is rational on the level set and float elsewhere: the pointwise
    # checks read on-set images only and stay exact; the pair fits do not
    sp = Space.finite([(-4,), (-1,), (0,), (1,), (2,), (18,)], Metric.l1())
    e = KEllipse(sp, ((-1,), (0,), (1,), (2,)), 18)
    m = SelfMap(((InFiniteSet(((-4,),)), ConstantPoint((0,))),
                 (Otherwise(), ConstantPoint((0.5,)))))
    plan = verifier.exhaustive_plan(e)
    assert plan.exact and plan.on_ellipse == ((-4,),)
    assert check_condition("Ek1", m, e, plan).exact
    assert not check_condition("Ek3", m, e, plan).exact
    assert not check_condition("Ik", m, e, plan).exact


@pytest.mark.parametrize("metric, points, foci", (
    (Metric.l2(), ((0, 0), (3, 4), (1, 1), (6, 8), (2, 0)), ((0, 0), (3, 4))),
    (Metric.lp(3), ((0, 0), (3, 4), (5, 0), (0, 5), (2, 0)), ((0, 0),)),
), ids=("L2", "Lp(3)"))
def test_finite_plane_under_a_root_metric_takes_the_float_path(metric, points, foci):
    # int coordinates, but distances in the plane are roots, computed in
    # floats: the checks take the float path and slack, and neither the plan
    # nor any report is exact
    sp = Space.finite(points, metric)
    e = KEllipse(sp, foci, 5)
    m = make_fixing_map([e], (2, 0))
    plan = exhaustive_plan(e)
    assert not plan.exact and plan.on_ellipse
    for cid in CONDITION_IDS:
        _assert_matches(cid, m, e, plan)


@pytest.mark.parametrize("metric, points, exact", (
    ("l2", [[0, 0], [3, 4], [1, 1], [6, 8], [2, 0]], False),
    ("l1", [[0, 0], [3, 4], [1, 1], [6, 8], [2, 0]], True),
    ("linf", [[0, 0], [3, 4], [1, 1], [6, 8], [2, 0]], True),
    ("l2", [[0], [5], [1], [6], [2]], True),
))
def test_report_plan_is_exact_only_under_a_rational_metric(metric, points, exact, tmp_path):
    foci = points[:2]
    scene = {"version": 1, "space": {"kind": "finite", "points": points, "metric": {"kind": metric}},
             "ellipse": {"foci": foci, "r": 5},
             "map": {"rules": [{"region": {"kind": "otherwise"},
                                "action": {"kind": "constant", "point": points[-1]}}]}}
    path, report = tmp_path / "scene.json", tmp_path / "report.json"
    path.write_text(json.dumps(scene))
    main(["verify", str(path), "--theorem", "t4", "--report", str(report)])
    data = json.loads(report.read_text())
    assert data["plan"]["exact"] is exact
    assert all(c["exact"] is exact for c in data["conditions"])
    sp = Space.finite([tuple(p) for p in points], Metric(metric))
    assert exhaustive_plan(KEllipse(sp, [tuple(p) for p in foci], 5)).exact is exact
