import dataclasses
import math
import random
from fractions import Fraction
from functools import partial

import numpy as np
import pytest

import kellipse as ke
from kellipse import (Affine1D, ConfigurationError, ConstantPoint, Identity,
                      InFiniteSet, InHalfspace, Interval, KEllipse, Metric,
                      OnEllipse, Otherwise, Rational1D, SelfMap, Space, certify,
                      check_condition, check_identity_condition, default_plan,
                      exhaustive_plan, fixed_points_on, make_fixing_map,
                      selfmap_from_piecewise)
from kellipse import geometry, verifier
from kellipse.metric import TAU_EQ, exact_eq, is_exact
from kellipse.verifier import FAIL, PASS, THEOREM_FAMILIES, VACUOUS, _radical_inverse
from oracles import PointClass, classify, ik_margin, pair_ratio, pointwise_margin, scalar_distance


def line_map(on_points, on_value, else_value):
    return SelfMap((
        (InFiniteSet(tuple((p,) for p in on_points)), ConstantPoint((on_value,))),
        (Otherwise(), ConstantPoint((else_value,))),
    ))


COLLAPSE_T = line_map((-3, 3), 0, -3)     # level set -> 0, rest -> -3
OUTWARD_S = line_map((-3, 3), 5, 0)       # level set -> 5, rest -> 0
FAR_H = line_map((-3, 3), 10, 0)          # level set -> 10, rest -> 0


@pytest.fixture
def plan9(line_ellipse):
    return default_plan(line_ellipse, seed=7, off_count=48)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def test_evaluate_rule_table(line_ellipse):
    assert COLLAPSE_T((3,)) == (0,)
    assert COLLAPSE_T((-3,)) == (0,)
    assert COLLAPSE_T((5,)) == (-3,)


def test_evaluate_identity_and_rational():
    ident = SelfMap(((Otherwise(), Identity()),))
    assert ident((7,)) == (7,)
    recip = SelfMap(((Otherwise(), Rational1D((0, 1), (1, 1))),))
    assert recip((0,)) == (1,)
    assert recip((1,)) == (Fraction(1, 2),)
    with pytest.raises(ConfigurationError):
        recip((-1,))     # pole not excluded by any region


def test_evaluate_no_matching_rule():
    gap = SelfMap(((Interval(0, 1), Identity()),))
    with pytest.raises(ConfigurationError):
        gap((5,))


def test_affine_action_exact():
    m = SelfMap(((Otherwise(), Affine1D(Fraction(1, 2), 3)),))
    assert m((Fraction(1, 3),)) == (Fraction(19, 6),)


def test_selfmap_from_piecewise_matches_direct_evaluation():
    f = ke.srelu(-6, 2, 6, 3)
    m = selfmap_from_piecewise(f)
    for x in (-8, -6, Fraction(-11, 2), 0, 6, 10):
        assert m((x,)) == (f(x),)


# ---------------------------------------------------------------------------
# sample plans
# ---------------------------------------------------------------------------

def test_plan_1d_on_points_are_exact(line_ellipse, plan9):
    assert plan9.on_ellipse == ((-3,), (3,))
    assert plan9.exact and not plan9.exhaustive
    for p in plan9.off_ellipse:
        assert line_ellipse.field.value(p) != 9


def test_exhaustive_plan_partition():
    sp = Space.finite([(-4,), (-1,), (0,), (1,), (2,), (18,)], Metric.l1())
    e = KEllipse(sp, ((-1,), (0,), (1,), (2,)), 18)
    plan = exhaustive_plan(e)
    assert plan.on_ellipse == ((-4,),)
    assert len(plan.on_ellipse) + len(plan.off_ellipse) == 6
    assert plan.exhaustive and plan.exact


def test_plan_nd_uses_trace_vertices():
    sp = Space.continuum(2, Metric.l1())
    e = KEllipse(sp, ((1, 0), (0, 0), (0, 1)), 4)
    plan = default_plan(e, seed=1, off_count=64)
    assert len(plan.on_ellipse) > 50 and len(plan.off_ellipse) == 64
    assert not plan.exact
    for p in plan.on_ellipse[:20]:
        assert abs(e.field.value(p) - 4) <= 1e-9


def test_plan_respects_membership():
    mem = ke.IntervalUnion.of((ke.Interval.point(-2), ke.Interval.point(-1), ke.Interval(0, math.inf)))
    sp = Space.continuum(1, Metric.l1(), mem)
    e = KEllipse(sp, ((-2,), (0,), (2,)), 21)
    plan = default_plan(e, seed=11, off_count=64)
    assert plan.on_ellipse == ((7,),)
    assert all(sp.contains(p) for p in plan.off_ellipse)
    assert (-2,) in plan.off_ellipse and (-1,) in plan.off_ellipse


# ---------------------------------------------------------------------------
# condition checks: the worked verdict matrix
# ---------------------------------------------------------------------------

def test_collapse_map_caristi_passes_interior_fails(line_ellipse, plan9):
    assert check_condition("Ek1", COLLAPSE_T, line_ellipse, plan9).verdict == PASS
    rep = check_condition("Ek2", COLLAPSE_T, line_ellipse, plan9)
    assert rep.verdict == FAIL
    assert rep.witness[0] in ((-3,), (3,))
    assert rep.worst_margin == 2 - 9      # field value at the image 0 is 2


def test_outward_map_mirror_verdicts(line_ellipse, plan9):
    assert check_condition("Ek2", OUTWARD_S, line_ellipse, plan9).verdict == PASS
    assert check_condition("Ek1", OUTWARD_S, line_ellipse, plan9).verdict == FAIL


def test_far_map_reversed_conditions(line_ellipse, plan9):
    assert check_condition("E'k1", FAR_H, line_ellipse, plan9).verdict == PASS
    assert check_condition("E'k2", FAR_H, line_ellipse, plan9).verdict == FAIL


def test_chatterjea_constant_exact_four_sevenths():
    sp = Space.finite([(-4,), (-1,), (0,), (1,), (2,), (18,)], Metric.l1())
    e = KEllipse(sp, ((-1,), (0,), (1,), (2,)), 18)
    m = SelfMap(((InFiniteSet(((-1,),)), ConstantPoint((0,))),
                 (Otherwise(), ConstantPoint((-4,)))))
    plan = exhaustive_plan(e)
    rep = check_condition("E'k3", m, e, plan)
    assert rep.fitted_constant == Fraction(4, 7)
    assert isinstance(rep.fitted_constant, Fraction)
    assert rep.witness == ((-4,), (-1,))
    assert rep.verdict == FAIL            # 4/7 >= 1/2, strict bound
    # minimality: h slightly below the fit breaks the witness inequality
    h = rep.fitted_constant - Fraction(1, 10 ** 9)
    x, y = rep.witness
    d = sp.metric.distance
    tx, ty = m(x), m(y)
    assert d(tx, ty) > h * (d(tx, y) + d(ty, x))
    # independent exhaustive oracle over all on x off pairs
    best = max(Fraction(d(m(x), m(yy)),
                        d(m(x), yy) + d(m(yy), x))
               for yy in plan.off_ellipse
               if d(m(x), yy) + d(m(yy), x) != 0)
    assert best == Fraction(4, 7)
    assert check_condition("E'k1", m, e, plan).verdict == PASS
    assert check_condition("E'k2", m, e, plan).verdict == PASS


def test_identity_map_verdicts(line_ellipse, plan9):
    ident = SelfMap(((Otherwise(), Identity()),))
    for cid in ("Ek1", "Ek2", "E'''k1", "E'''k3"):
        assert check_condition(cid, ident, line_ellipse, plan9).verdict == PASS
    rep = check_condition("Ek3", ident, line_ellipse, plan9)
    assert rep.verdict == FAIL and rep.fitted_constant == math.inf
    rep2 = check_condition("E'''k2", ident, line_ellipse, plan9)
    assert rep2.verdict == FAIL           # |(-3) - 3| = 6 is not > 9


def test_banach_variant_condition(line_ellipse, plan9):
    ident = SelfMap(((Otherwise(), Identity()),))
    rep = check_condition("Bk3", ident, line_ellipse, plan9)
    assert rep.verdict == FAIL and rep.fitted_constant == 1
    half = SelfMap(((Otherwise(), Affine1D(Fraction(1, 2), 0)),))
    rep2 = check_condition("Bk3", half, line_ellipse, plan9)
    assert rep2.verdict == PASS and rep2.fitted_constant == Fraction(1, 2)


def test_unknown_condition_rejected(line_ellipse, plan9):
    with pytest.raises(ValueError):
        check_condition("Ek9", COLLAPSE_T, line_ellipse, plan9)


def test_vacuous_when_no_on_points(line):
    e = KEllipse(line, ((-1,), (0,), (1,)), 9)
    plan = ke.SamplePlan(line, (), ((5,),), exact=True)
    assert check_condition("Ek1", COLLAPSE_T, e, plan).verdict == VACUOUS


def test_slack_interior_bound_fit(line_ellipse, plan9):
    # the collapse map needs mu >= (9 - 2)/3 at x = +-3: infeasible below 1
    rep = check_condition("E''k2", COLLAPSE_T, line_ellipse, plan9)
    assert rep.fitted_constant == Fraction(7, 3)
    assert rep.verdict == FAIL
    ident = SelfMap(((Otherwise(), Identity()),))
    rep2 = check_condition("E''k2", ident, line_ellipse, plan9)
    assert rep2.verdict == PASS and rep2.fitted_constant == 0


# ---------------------------------------------------------------------------
# identity-forcing condition
# ---------------------------------------------------------------------------

def test_ik_identity_passes_everywhere(line_ellipse, plan9):
    ident = SelfMap(((Otherwise(), Identity()),))
    rep = check_identity_condition(ident, line_ellipse.field, plan9)
    assert rep.condition_id == "Ik" and rep.verdict == PASS and rep.worst_margin == 0
    assert check_condition("Ik", ident, line_ellipse, plan9).verdict == PASS


def test_ik_collapse_map_fails_with_derived_margin(line_ellipse):
    # at x=5: distance moved is 8, allowed bound (15 - 9)/4 = 3/2
    margin = ik_margin(COLLAPSE_T, line_ellipse.field, 3, ke.Point((5,)))
    assert margin == Fraction(3, 2) - 8


def test_ik_constant_map_fails_off_target(line_ellipse, plan9):
    const = SelfMap(((Otherwise(), ConstantPoint((0,))),))
    rep = check_identity_condition(const, line_ellipse.field, plan9)
    assert rep.verdict == FAIL
    for x in plan9.all_points:
        if x == (0,):
            assert ik_margin(const, line_ellipse.field, 3, x) >= 0
        else:
            assert ik_margin(const, line_ellipse.field, 3, x) < 0


def test_ik_passing_points_are_fixed_500_random_maps():
    line = Space.continuum(1, Metric.l1())
    rng = random.Random(2030)
    for trial in range(500):
        nb = rng.randint(0, 2)
        bps = sorted(rng.sample(range(-8, 9), nb))
        pieces = [(Fraction(rng.choice([-1, 0, 1, 2])), Fraction(rng.randint(-4, 4)))
                  for _ in range(nb + 1)]
        f = ke.PiecewiseAffine1D(tuple(bps), tuple(pieces))
        m = selfmap_from_piecewise(f)
        foci = tuple((rng.randint(-5, 5),) for _ in range(rng.randint(1, 4)))
        field = ke.SumField(line, foci)
        k = len(foci)
        pts = [ke.Point((Fraction(rng.randint(-160, 160), 16),)) for _ in range(24)]

        d = partial(scalar_distance, line.metric)
        for x in pts:
            if ik_margin(m, field, k, x) >= 0:
                assert d(x, m(x)) <= 1e-9
        # a map that moves some sample point must fail somewhere
        moved = [x for x in pts if d(x, m(x)) > 0]
        if moved:
            assert any(ik_margin(m, field, k, x) < 0 for x in moved)


# ---------------------------------------------------------------------------
# certification
# ---------------------------------------------------------------------------

def test_certify_constant_map_ciric_family():
    sp = Space.finite([(-1,), (0,), (1,), (4,), (12,)], Metric.l1())
    e = KEllipse(sp, ((-1,), (0,), (1,)), 12)
    m = SelfMap(((Otherwise(), ConstantPoint((4,))),))
    v = certify("t4", m, e, exhaustive_plan(e))
    assert v.existence_certified and v.uniqueness_certified
    assert v.reports["E'''k2"].verdict == VACUOUS
    assert v.exhaustive and v.qualifier == "exact (exhaustive plan)"


def test_certify_halfline_identity_not_unique():
    mem = ke.IntervalUnion.of((ke.Interval.point(-2), ke.Interval.point(-1), ke.Interval(0, math.inf)))
    sp = Space.continuum(1, Metric.l1(), mem)
    e = KEllipse(sp, ((-2,), (0,), (2,)), 21)
    m = SelfMap(((Interval(0, math.inf), Identity()),
                 (Otherwise(), ConstantPoint((0,)))))
    v = certify("t4", m, e, default_plan(e, seed=11, off_count=64))
    assert v.existence_certified and not v.uniqueness_certified
    assert v.reports["E'''k4"].verdict == FAIL
    assert v.reports["E'''k4"].fitted_constant == 1    # identity off points give ratio 1


def test_certify_two_ellipse_map_fails_kannan():
    sp = Space.finite([(-1,), (0,), (1,), (-3,), (3,), (-5,), (5,), (100,)], Metric.l1())
    e1 = KEllipse(sp, ((-1,), (0,), (1,)), 9)
    e2 = KEllipse(sp, ((-1,), (0,), (1,)), 15)
    m = make_fixing_map([e1, e2], (100,))
    for e in (e1, e2):
        v = certify("t1", m, e, exhaustive_plan(e))
        assert v.existence_certified and not v.uniqueness_certified
        assert v.reports["Ek3"].verdict == FAIL
        assert v.reports["Ek3"].fitted_constant == math.inf


def test_certify_unknown_theorem(line_ellipse, plan9):
    with pytest.raises(ValueError):
        certify("t9", COLLAPSE_T, line_ellipse, plan9)


def test_theorem1_soundness_on_finite_plans():
    # existence certified on an exhaustive plan forces exact fixed points
    sp = Space.finite([(0, 0), (6, 0), (5, 1)], Metric.l1())
    e = KEllipse(sp, ((0, 0),), 6)
    m = SelfMap(((OnEllipse(e, 0), Identity()),
                 (Otherwise(), ConstantPoint((6, 0)))))
    plan = exhaustive_plan(e)
    v = certify("t1", m, e, plan)
    assert v.existence_certified and v.uniqueness_certified
    assert v.reports["Ek3"].fitted_constant == Fraction(1, 3)
    for x in plan.on_ellipse:
        assert sp.metric.distance(x, m(x)) == 0


# ---------------------------------------------------------------------------
# fixing maps and fixed points
# ---------------------------------------------------------------------------

def test_make_fixing_map_single(line_ellipse):
    m = make_fixing_map([line_ellipse], (0,))       # field value 2 != 9
    assert m((3,)) == (3,)
    assert m((-3,)) == (-3,)
    assert m((4,)) == (0,)


def test_make_fixing_map_rejects_on_set_fallback(line_ellipse):
    with pytest.raises(ValueError):
        make_fixing_map([line_ellipse], (3,))


def test_fixed_points_on(line_ellipse, plan9):
    ident = SelfMap(((Otherwise(), Identity()),))
    assert fixed_points_on(ident, plan9) == list(plan9.all_points)
    m = make_fixing_map([line_ellipse], (0,))
    assert fixed_points_on(m, plan9) == [(-3,), (3,)]
    const = SelfMap(((Otherwise(), ConstantPoint((0,))),))
    fixed = fixed_points_on(const, plan9)
    assert all(x == (0,) for x in fixed)


def test_fixed_points_on_float_step_gets_tau_ident(line_ellipse):
    # a float map on a rational plan: every step is float rounding (<= 2e-15),
    # so every plan point is fixed up to TAU_IDENT, not only x = 0
    plan = default_plan(line_ellipse, seed=7)
    assert plan.exact and len(plan.all_points) == 514
    m = SelfMap(((Otherwise(), Affine1D((0.1 + 0.2) / 0.3, 0)),))
    assert fixed_points_on(m, plan) == list(plan.all_points)


def test_fixed_points_on_rational_step_on_exact_plan_uses_zero_tolerance(line_ellipse):
    plan = default_plan(line_ellipse, seed=7)
    nudge = SelfMap(((Otherwise(), Affine1D(1, Fraction(1, 10**12))),))   # moves every point by 1e-12
    assert fixed_points_on(nudge, plan) == []


# ---------------------------------------------------------------------------
# report properties
# ---------------------------------------------------------------------------

def test_report_reproducible(line_ellipse):
    a = check_condition("Ek3", COLLAPSE_T, line_ellipse, default_plan(line_ellipse, seed=5))
    b = check_condition("Ek3", COLLAPSE_T, line_ellipse, default_plan(line_ellipse, seed=5))
    assert a == b


def test_fail_witness_reproduces_violation(line_ellipse, plan9):
    for cid in ("Ek1", "Ek2", "E'k1", "E'k2"):
        for m in (COLLAPSE_T, OUTWARD_S, FAR_H):
            rep = check_condition(cid, m, line_ellipse, plan9)
            if rep.verdict != FAIL:
                continue
            again = pointwise_margin(cid, m, line_ellipse, rep.witness[0])
            assert again <= rep.worst_margin + 1e-12
    rep = check_condition("Ek3", COLLAPSE_T, line_ellipse, plan9)
    if rep.verdict == FAIL and rep.fitted_constant != math.inf:
        x, y = rep.witness
        assert pair_ratio("Ek3", COLLAPSE_T, line_ellipse, x, y) == rep.fitted_constant


def test_kannan_fit_minimality(line_ellipse, plan9):
    rep = check_condition("Ek3", FAR_H, line_ellipse, plan9)
    if rep.fitted_constant in (None, math.inf) or rep.fitted_constant == 0:
        pytest.skip("fit not informative on this plan")
    h = rep.fitted_constant - Fraction(1, 10 ** 9)
    x, y = rep.witness
    d = line_ellipse.space.metric.distance
    tx, ty = FAR_H(x), FAR_H(y)
    assert d(tx, ty) > h * (d(tx, x) + d(ty, y))


# ---------------------------------------------------------------------------
# the array map and plan against the scalar rule walk and Halton loop
# ---------------------------------------------------------------------------

NORMS = [Metric.l1(), Metric.l2(), Metric.linf(), Metric.lp(3), Metric.lp(4)]


def scalar_matches(region, x):
    """The point-by-point region predicates that the masks replaced."""
    if isinstance(region, OnEllipse):
        return classify(region.ellipse, x, region.tol) is PointClass.ON
    if isinstance(region, InFiniteSet):
        return any(x == p for p in region.points)
    if isinstance(region, Interval):
        return region.contains(x[0])
    if isinstance(region, InHalfspace):
        return sum(c * v for c, v in zip(region.coeffs, x)) <= region.offset
    assert isinstance(region, Otherwise)
    return True


def scalar_map(m, x):
    """The first-match rule walk for one point that map_points replaced."""
    x = ke.as_point(x)
    for region, action in m.rules:
        if scalar_matches(region, x):
            return action(x)
    raise ConfigurationError(f"no rule matches {x}; add a final Otherwise rule")


def typed(points):
    return [[(type(c), c) for c in p] for p in points]


def assert_maps_like_scalar(m, points):
    """map_points gives the scalar images with the same coordinate types, or
    raises the scalar walk's error about the same (first failing) point."""
    try:
        expect = [scalar_map(m, x) for x in points]
    except ConfigurationError as exc:
        with pytest.raises(ConfigurationError) as got:
            m.map_points(points)
        assert str(got.value) == str(exc)
        return str(exc)
    assert typed(m.map_points(points)) == typed(expect)
    assert typed([m(x) for x in points]) == typed(expect)


def halton_scalar(i, base):
    """The scalar radical inverse that the array form replaced."""
    out, f = 0.0, 1.0
    while i > 0:
        f /= base
        out += f * (i % base)
        i //= base
    return out


def halton_exact(i, base):
    """The radical inverse in rational arithmetic."""
    out, f = Fraction(0), Fraction(1)
    while i > 0:
        f /= base
        out += f * (i % base)
        i //= base
    return out


def assert_values_like_value(field, P, pts):
    """SumField.values over P equals SumField.value point by point, bit for bit
    in value and type under every metric, Lp included: both take one norm."""
    got, expect = field.values(P).tolist(), [field.value(p) for p in pts]
    assert [type(v) for v in got] == [type(v) for v in expect]
    assert got == expect


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("metric", NORMS, ids=lambda m: m.label)
def test_sumfield_values_equal_value_bit_for_bit(metric, dim):
    rng = random.Random(31 * dim + len(metric.label))
    space = Space.continuum(dim, metric)
    field = ke.SumField(space, tuple(tuple(rng.uniform(-6, 6) for _ in range(dim)) for _ in range(5)))
    pts = [tuple(rng.uniform(-9, 9) for _ in range(dim)) for _ in range(300)]
    pts += [tuple(float(rng.randint(-6, 6)) for _ in range(dim)) for _ in range(20)]   # gaps of 0
    assert_values_like_value(field, np.array(pts), pts)
    # int/Fraction points: exact sums under L1 and Linf, the floats of `distance` under L2 and Lp
    exact = [tuple(Fraction(rng.randint(-40, 40), rng.choice((1, 3, 7))) for _ in range(dim))
             for _ in range(60)]
    exact_field = ke.SumField(space, ((0,) * dim, (Fraction(1, 3),) * dim, (2,) + (-1,) * (dim - 1)))
    assert_values_like_value(exact_field, np.array(exact, dtype=object), exact)


def test_map_points_matches_scalar_walk_on_the_line():
    line = Space.continuum(1, Metric.l1())
    e = KEllipse(line, ((-1,), (0,), (1,)), 9)           # {-3, 3}
    m = SelfMap((
        (InFiniteSet(((Fraction(1, 3),), (7,))), ConstantPoint((5,))),
        (OnEllipse(e, 0), Identity()),
        (Interval(Fraction(-1, 2), 2, lo_open=True), Affine1D(Fraction(1, 2), Fraction(1, 3))),
        (Interval(-math.inf, -5, hi_open=True), Rational1D((1, 0), (2, 1))),     # pole at -1/2
        (InHalfspace((2,), Fraction(21, 2)), Affine1D(2.5, 1)),
        (Otherwise(), ConstantPoint((0.25,))),
    ))
    rng = random.Random(5)
    edges = [Fraction(-1, 2), 2, -5, Fraction(21, 4), Fraction(1, 3), 7, -3, 3, 0, -6, 100]
    exact = edges + [Fraction(rng.randint(-800, 800), rng.choice((1, 2, 3, 4, 8))) for _ in range(300)]
    assert_maps_like_scalar(m, [(x,) for x in exact])
    floats = [-0.5, 2.0, -5.0, 5.25, 1 / 3, 7.0, -3.0, 3.0, 5.2500000000000001, -3.0000000000000004]
    assert_maps_like_scalar(m, [(x,) for x in floats + [rng.uniform(-12, 12) for _ in range(300)]])
    assert_maps_like_scalar(m, [(x,) for x in exact[:40] + floats])                # mixed types
    assert m.map_points([]) == []


@pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
def test_map_points_matches_scalar_walk_in_the_plane(exact):
    def num(a, b=1):
        return Fraction(a, b) if exact else a / b

    plane = Space.continuum(2, Metric.l1())
    e = KEllipse(plane, ((0, 0),), 1)                   # |x| + |y| = 1
    tol = num(1, 4)
    m = SelfMap((
        (OnEllipse(e, tol), Identity()),
        (InFiniteSet(((num(5), num(5)), (Fraction(1, 3), 2))), ConstantPoint((9, 9))),
        (InHalfspace((1, -2), num(1, 2)), ConstantPoint((1.0, 2.0))),
        (Otherwise(), ConstantPoint((0, 0))),
    ))
    at_tol = (num(1, 2), num(3, 4))                     # |f - r| = 1/4 = tol exactly: on the set
    past_tol = (num(1, 2), num(13, 16))                 # |f - r| = 5/16 > tol
    assert abs(e.field.value(at_tol) - e.r) == tol
    rng = random.Random(11)
    pts = [at_tol, past_tol, (num(5), num(5)), (num(1, 3), num(2)), (num(1, 2), num(0))]
    pts += [(num(rng.randint(-48, 48), 8), num(rng.randint(-48, 48), 8)) for _ in range(400)]
    assert_maps_like_scalar(m, pts)
    assert m.map_points(pts)[:2] == [at_tol, (1.0, 2.0)]


def test_map_points_on_a_root_metric_with_exact_points():
    plane = Space.continuum(2, Metric.l2())
    e = KEllipse(plane, ((0, 0), (6, 0)), 10)
    m = SelfMap(((OnEllipse(e, 0), Identity()), (Otherwise(), ConstantPoint((3, 0)))))
    pts = [(3, 4), (-2, 0), (8, 0), (Fraction(1, 3), 5), (3, 0)]
    pts += [(x, y) for x in range(-3, 9) for y in (-4, 0, 4)]
    assert_maps_like_scalar(m, pts)
    assert m.map_points(pts)[:3] == [(3, 4), (-2, 0), (8, 0)]


def test_map_points_raises_about_the_first_failing_point():
    pole = Rational1D((1, 0), (1, -Fraction(5, 2)))
    gap = SelfMap(((Interval(0, 1), Identity()), (Interval(2, 3), pole)))
    # a gap at 1.5 before the pole at 5/2, then the pole before the gap
    msg = assert_maps_like_scalar(gap, [(Fraction(1, 2),), (3,), (Fraction(3, 2),), (Fraction(5, 2),), (9,)])
    assert msg.startswith("no rule matches Point(3/2)")
    msg = assert_maps_like_scalar(gap, [(Fraction(1, 2),), (Fraction(5, 2),), (Fraction(3, 2),)])
    assert "pole x=5/2" in msg
    msg = assert_maps_like_scalar(gap, [(0.5,), (2.5,), (1.5,)])
    assert "pole x=2.5" in msg


@pytest.mark.parametrize("base", [2, 3, 5])
def test_radical_inverse_matches_the_scalar_loop_and_the_exact_value(base):
    index = np.arange(1, 10_001)
    got = _radical_inverse(index, base).tolist()
    assert got == [halton_scalar(i, base) for i in range(1, 10_001)]
    for i, x in zip(range(1, 10_001), got):
        q = halton_exact(i, base)
        if base == 2:
            assert x == q                                 # dyadic: every step is exact
        else:
            # f after k of the n digit steps is off by at most k unit roundoffs,
            # f * digit by one more and each running sum by one: at most
            # 2n + 1 unit roundoffs of the value
            n = len(np.base_repr(i, base))
            assert abs(Fraction(x) - q) <= (2 * n + 1) * Fraction(1, 2 ** 53) * q


def scalar_off_points(e, seed, off_count, cfg):
    """The off-set points of the point-by-point Halton plan that the blocks replaced."""
    start = random.Random(seed).randint(1, 1000)
    off, i = [], start
    while len(off) < off_count and i < start + 100 * off_count:
        u = [halton_scalar(i, b) for b in (2, 3, 5)[:len(cfg.bbox)]]
        p = ke.Point(tuple(lo + (hi - lo) * ua for (lo, hi), ua in zip(cfg.bbox, u)))
        i += 1
        if classify(e, p, cfg.refine_tol) is not PointClass.ON:
            off.append(p)
    return off


@pytest.mark.parametrize("dim,metric,refine_tol,off_count", [
    (2, Metric.l2(), 1e-9, 128),
    (2, Metric.l1(), 0.9, 40),        # a third of the candidates on the band: several blocks
    (2, Metric.l1(), 5.0, 7),         # every candidate on the band: the cap stops the walk
    (3, Metric.lp(4), 0.5, 64),
])
def test_halton_blocks_give_the_scalar_plan(dim, metric, refine_tol, off_count):
    e = KEllipse(Space.continuum(dim, metric), ((0,) * dim, (1,) + (0,) * (dim - 1)), 2)
    cfg = ke.TraceConfig(bbox=((-1.5, 2.5),) + ((-1.5, 1.5),) * (dim - 1), resolution=12,
                         refine_tol=refine_tol)
    plan = default_plan(e, seed=3, off_count=off_count, trace_config=cfg)
    expect = scalar_off_points(e, 3, off_count, cfg)
    assert typed(plan.off_ellipse) == typed(expect)
    assert (len(expect) == 0) == (refine_tol == 5.0)


# ---------------------------------------------------------------------------
# one mapped plan for every theorem family
# ---------------------------------------------------------------------------

def report_fields(rep):
    """Every field of a report by name, with its type; the witness with its coordinates' types."""
    out = {}
    for field in dataclasses.fields(rep):
        v = getattr(rep, field.name)
        out[field.name] = (type(v), typed(v) if field.name == "witness" else v)
    return out


def memo_case(slope=Fraction(1, 2)):
    """A freshly built exact finite plan on the line, its level set {-3, 3},
    and a map with rational images."""
    sp = Space.finite([(x,) for x in (-5, -3, -1, Fraction(-1, 2), 0, 1, Fraction(7, 3), 3, 6)],
                      Metric.l1())
    e = KEllipse(sp, ((-1,), (1,)), 6)
    m = SelfMap(((InHalfspace((1,), 0), Affine1D(slope, Fraction(1, 3))),
                 (Otherwise(), Affine1D(-1, 2))))
    return m, e, exhaustive_plan(e)


def certified(theorems, m, e, plan):
    return [[report_fields(rep) for rep in certify(t, m, e, plan).reports.values()] for t in theorems]


@pytest.fixture
def mapped_sizes(monkeypatch):
    """The number of points of each SelfMap.map_points call, in order."""
    sizes, map_points = [], SelfMap.map_points

    def spy(self, points):
        sizes.append(len(points))
        return map_points(self, points)

    monkeypatch.setattr(SelfMap, "map_points", spy)
    return sizes


def test_theorem_families_in_turn_map_a_plan_once(mapped_sizes):
    m, e, plan = memo_case()
    assert plan.exact and plan.on_ellipse == ((-3,), (3,))
    got = certified(THEOREM_FAMILIES, m, e, plan)
    assert mapped_sizes == [len(plan.all_points)]
    assert got == [certified((t,), *memo_case())[0] for t in THEOREM_FAMILIES]
    assert all(rep["exact"] == (bool, True) for family in got for rep in family)


def test_a_second_map_on_the_same_plan_gets_its_own_images():
    m, e, plan = memo_case()
    steep = memo_case(slope=2)[0]
    first = certified(THEOREM_FAMILIES, m, e, plan)
    got = certified(THEOREM_FAMILIES, steep, e, plan)
    assert got == certified(THEOREM_FAMILIES, *memo_case(slope=2))
    assert got != first
    assert certified(THEOREM_FAMILIES, m, e, plan) == first


def test_an_on_set_mapping_is_not_served_to_a_call_that_reads_every_point(mapped_sizes):
    m, e, plan = memo_case()
    narrow = report_fields(check_condition("Ek1", m, e, plan))
    got = certified(("t1",), m, e, plan)
    assert mapped_sizes == [2, len(plan.all_points)]
    assert report_fields(check_condition("Ek2", m, e, plan)) == got[0][1]
    assert mapped_sizes == [2, len(plan.all_points)]       # the full mapping serves the on-set reads
    assert narrow == got[0][0] and got == certified(("t1",), *memo_case())
    # a map defined on the level set alone passes Ek1 but cannot be certified
    partial_map = SelfMap(((InFiniteSet(plan.on_ellipse), Identity()),))
    assert check_condition("Ek1", partial_map, e, plan).verdict == PASS
    with pytest.raises(ConfigurationError):
        certify("t1", partial_map, e, plan)


def test_a_float_plan_is_mapped_again_by_each_call(mapped_sizes):
    sp = Space.finite(((0, 0), (3, 4), (1, 1), (6, 8), (2, 0)), Metric.l2())
    e = KEllipse(sp, ((0, 0), (3, 4)), 5)
    m, plan = make_fixing_map([e], (2, 0)), exhaustive_plan(e)
    assert not plan.exact
    first = certified(("t1",), m, e, plan)
    assert certified(("t1",), m, e, plan) == first
    assert mapped_sizes == [len(plan.all_points)] * 2


# ---------------------------------------------------------------------------
# the exhaustive split: scaled ints against the scalar field
# ---------------------------------------------------------------------------

def scalar_partition(e):
    """(on, off, exact) of a finite space point by point: the scalar field
    equals r exactly when both are exact, and within TAU_EQ otherwise."""
    sp = e.space
    exact = sp.keeps_rationals and is_exact(e.r) and all(is_exact(c) for p in sp.points for c in p)
    on, off = [], []
    for p in sp.points:
        v = sum(scalar_distance(sp.metric, p, c) for c in e.foci)
        hit = v == e.r if is_exact(v) and is_exact(e.r) else abs(v - e.r) <= TAU_EQ
        (on if hit else off).append(p)
    return tuple(on), tuple(off), exact


@pytest.fixture
def exact_eq_calls(monkeypatch):
    calls = []

    def spy(v, r):
        calls.append(v)
        return exact_eq(v, r)

    monkeypatch.setattr(geometry, "exact_eq", spy)
    return calls


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("kind", ("int", "Fraction"))
@pytest.mark.parametrize("dim, metric", ((1, Metric.l1()), (2, Metric.l1()), (2, Metric.linf())),
                         ids=("line", "L1", "Linf"))
def test_exhaustive_plan_on_scaled_ints_matches_the_scalar_split(exact_eq_calls, dim, metric, kind, seed):
    rng = random.Random(seed)

    def num():
        return rng.randint(-6, 6) if kind == "int" else Fraction(rng.randint(-12, 12), rng.choice((1, 2, 3)))

    sp = Space.finite([tuple(num() for _ in range(dim)) for _ in range(40)], metric)
    foci, x = rng.sample(sp.points, 3), rng.choice(sp.points)
    e = KEllipse(sp, foci, sum(scalar_distance(metric, x, c) for c in foci))
    plan = exhaustive_plan(e)
    on, off, exact = scalar_partition(e)
    assert typed(plan.on_ellipse) == typed(on) and typed(plan.off_ellipse) == typed(off)
    assert plan.exact is exact
    assert plan.exact and plan.on_ellipse and not exact_eq_calls


@pytest.mark.parametrize("case", ("float radius", "float focus"))
def test_exhaustive_plan_with_a_float_radius_or_focus_compares_by_exact_eq(exact_eq_calls, case):
    sp = Space.finite([(x,) for x in (-5, -3, -1, 0, 1, 3, 6)], Metric.l1())
    foci, r = ((-1,), (1,)), 6
    if case == "float radius":
        r = 6 + TAU_EQ / 2      # the field at -3 and 3 is 6, within TAU_EQ
    else:
        foci = ((-1.0,), (1,))
    e = KEllipse(sp, foci, r)
    plan = exhaustive_plan(e)
    assert len(exact_eq_calls) == len(sp.points)
    assert (plan.on_ellipse, plan.off_ellipse, plan.exact) == scalar_partition(e)
    assert plan.on_ellipse == ((-3,), (3,)) and plan.exact is (case == "float focus")


# ---------------------------------------------------------------------------
# the one level test: members_finite and the line plan's off-set
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("kind", ("int", "Fraction", "float"))
@pytest.mark.parametrize("dim, metric",
                         ((1, Metric.l2()), (2, Metric.l1()), (2, Metric.linf()), (2, Metric.l2())),
                         ids=("line", "L1", "Linf", "L2"))
def test_members_finite_matches_the_scalar_field(dim, metric, kind, seed):
    rng = random.Random(250 + seed)

    def num():
        v = Fraction(rng.randint(-12, 12), rng.choice((1, 2, 3)))
        return {"int": round(v), "Fraction": v, "float": float(v)}[kind]

    sp = Space.finite([tuple(num() for _ in range(dim)) for _ in range(40)], metric)
    foci, x = rng.sample(sp.points, 3), rng.choice(sp.points)
    e = KEllipse(sp, foci, sum(scalar_distance(metric, x, c) for c in foci))
    on = scalar_partition(e)[0]
    assert on and typed(geometry.members_finite(e)) == typed(on)


def _on_line_level(foci, r, x) -> bool:
    v = sum(scalar_distance(Metric.l1(), (x,), f) for f in foci)
    return v == r if is_exact(v) and is_exact(r) else abs(v - r) <= TAU_EQ


@pytest.mark.parametrize("seed", range(4))
def test_line_plan_off_set_matches_the_scalar_field(seed):
    # four distinct foci, at the minimum radius: the level set is the segment
    # between the middle two, so many dyadic candidates lie on it
    rng = random.Random(25 + seed)
    foci = tuple((Fraction(v, 4),) for v in sorted(rng.sample(range(-16, 17), 4)))
    r = min(sum(scalar_distance(Metric.l1(), f, g) for g in foci) for f in foci)
    candidates = [Fraction(v, 64) for v in range(-64 * 10, 64 * 10 + 1)]
    isolated = [Fraction(v, 8) for v in range(-40, 41, 3)]
    mixed = ke.IntervalUnion.of([Interval.point(q) for q in isolated + [f[0] for f in foci]])
    for radius in (r, float(r)):
        want = [(x,) for x in candidates if not _on_line_level(foci, radius, x)]
        assert 0 < len(want) < len(candidates)
        for space in (Space.continuum(1, Metric.l1()), Space.continuum(1, Metric.l1(), mixed)):
            e = KEllipse(space, foci, radius)
            assert verifier._off_level(e, candidates) == want
            plan = default_plan(e, seed=seed, off_count=64)
            assert plan.off_ellipse and all(space.contains(p) for p in plan.off_ellipse)
            assert not any(_on_line_level(foci, radius, p[0]) for p in plan.off_ellipse)
            assert all(_on_line_level(foci, radius, p[0]) for p in plan.on_ellipse)
        # the scaled-int and the exact_eq paths keep the same draws
        if radius == r:
            exact_off = default_plan(e, seed=seed, off_count=64).off_ellipse
        else:
            assert default_plan(e, seed=seed, off_count=64).off_ellipse == exact_off
