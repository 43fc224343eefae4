"""The float array kernels of the verifier against plain scalar loops.

The reference below walks the plan pair by pair with the public scalar
helpers (pointwise_margin, pair_ratio, ik_margin) and the first-occurrence
tie rule, under the float slack TAU_COND. check_condition must give the same
verdict and witness points, and the same constants and margins: bit for bit
under L1, L2 and Linf, within 1e-12 relative under Lp.
"""
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

import kellipse.verifier as verifier
from kellipse import (Affine1D, ConstantPoint, Identity, InFiniteSet, InHalfspace,
                      KEllipse, Metric, Otherwise, Point, SamplePlan, SelfMap, Space,
                      SumField, check_condition, default_plan)
from kellipse.verifier import (CONDITION_IDS, FAIL, PAIR_FIT, PASS, POINTWISE_IDS,
                               STRICT_MARGIN, TAU_COND, TAU_IDENT, VACUOUS, RadiusGap,
                               ik_margin, pair_ratio, pointwise_margin)

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


def scalar_reference(cid, m, e, plan):
    """(verdict, fitted constant, worst margin, witness, notes) by plain loops."""
    on, off = plan.on_ellipse, plan.off_ellipse
    d = e.space.metric.distance
    if cid == "Ik":
        k = len(e.foci)
        margin, witness = _first_min((ik_margin(m, e.field, k, x), (x,)) for x in plan.all_points)
        moved = [x for x in plan.all_points
                 if ik_margin(m, e.field, k, x) >= -TAU_COND and d(x, m(x)) > TAU_IDENT]
        notes = f"passing point {moved[-1]} is not fixed" if moved else ""
        return (PASS if margin >= -TAU_COND else FAIL), None, margin, witness, notes
    if cid in POINTWISE_IDS:
        margin, witness = _first_min((pointwise_margin(cid, m, e, x), (x,)) for x in on)
        return (PASS if margin >= -TAU_COND else FAIL), None, margin, witness, ""
    if cid in PAIR_FIT:
        fitted, witness = None, ()
        for x in on:
            for y in off:
                ratio = pair_ratio(cid, m, e, x, y, tau=TAU_COND)
                if ratio is not None and (fitted is None or ratio > fitted):
                    fitted, witness = ratio, (x, y)
        if fitted is None:
            return VACUOUS, None, 0, (), "no informative pairs"
        return _fit(fitted, PAIR_FIT[cid], witness)
    if cid == "E''k2":
        fitted, witness = 0, ()
        for x in on:
            tx = m(x)
            deficit = e.r - e.field.value(tx)
            need = 0
            if deficit > 0:
                step = d(x, tx)
                need = math.inf if step <= TAU_COND else deficit / step
            if need > fitted or not witness:
                fitted, witness = need, (x,)
        return _fit(fitted, 1, witness)
    if cid == "E'''k2":
        pairs = [(x, y) for x, y in combinations(on, 2) if x != y]
        if not pairs:
            return VACUOUS, None, 0, (), "fewer than two distinct on-set samples"
        margin, witness = _first_min((d(m(x), m(y)) - e.r, (x, y)) for x, y in pairs)
        return (PASS if margin > -TAU_COND else FAIL), None, margin, witness, ""
    assert cid == "E'''k3"
    gap = RadiusGap(e.r)
    margin, witness = _first_min(((d(x, y) - gap(d(x, m(x)))) - d(m(x), m(y)), (x, y))
                                 for x in on for y in on)
    return (PASS if margin >= -TAU_COND else FAIL), None, margin, witness, ""


def _fit(fitted, threshold, witness):
    margin = threshold - fitted if fitted != math.inf else -math.inf
    verdict = PASS if fitted != math.inf and fitted < threshold - STRICT_MARGIN else FAIL
    return verdict, fitted, margin, witness, ""


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


def _same_number(a, b, metric):
    if a is None or b is None or math.isinf(a) or math.isinf(b) or metric.kind != "lp":
        return a == b
    return math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-300)


def _assert_matches(cid, m, e, plan):
    rep = check_condition(cid, m, e, plan)
    verdict, fitted, margin, witness, notes = scalar_reference(cid, m, e, plan)
    where = f"{cid} {e.space.metric.label} dim {e.space.dimension}"
    assert not rep.exact, where
    assert rep.verdict == verdict, where
    assert rep.witness == witness, where
    assert rep.notes == notes, where
    assert all(type(p) is Point for p in rep.witness), where
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


@pytest.mark.parametrize("block", (1, 5, 64))
def test_blocked_reductions_cross_block_boundaries(monkeypatch, block):
    monkeypatch.setattr(verifier, "PAIR_BLOCK", block)
    rng = random.Random(f"blocks:{block}")
    for metric in METRICS:
        for kind in KINDS:
            m, e, plan = random_case(rng, 2, metric, kind)
            for cid in CONDITION_IDS:
                _assert_matches(cid, m, e, plan)


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
                    assert _same_number(float(mat[i, j]), metric.distance(x, y), metric)
            rows = metric.rowwise(np.array(a[:5]), np.array(b))
            for x, y, v in zip(a, b, rows):
                assert _same_number(float(v), metric.distance(x, y), metric)


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
