"""The fixed-figure theorems as exhaustive property tests: every self-map T
of a 4-point space, written as an InFiniteSet -> ConstantPoint rule table,
certified exactly on its exhaustive plan. Let E be the on-set, the points
where the field f of k >= 2 foci is r. From the condition definitions in
`verifier`:

(a) t1-t3 existence is certified exactly when T fixes every point of E.
    For x in E, Ek1 and Ek2 give d(x, Tx) <= r - f(Tx) <= 0, and so do E'k1
    and E'k2; Ek1 and E''k2 give d(x, Tx) <= mu d(x, Tx) with mu < 1. A
    fixed point meets each of them with margin 0.
(b) Certified existence and uniqueness with E nonempty give Fix(T) = E. For
    x in E and y off it, both fixed, Ek3 gives d(x, y) <= 0, E'k3 gives
    d(x, y) <= 2h d(x, y) with h < 1/2, and E'''k4 d(x, y) <= h d(x, y) with
    h < 1.
(c) A passing Ik fixes every point: f is k-Lipschitz, so d(x, Tx) <=
    (f(x) - f(Tx)) / (k + 1) <= k d(x, Tx) / (k + 1).
(d) t4 existence is never certified on two or more points of E (the lemma
    stated above `THEOREM_FAMILIES`).
"""
import itertools

import pytest

from kellipse import KEllipse, Metric, Space
from kellipse.verifier import (THEOREM_FAMILIES, ConstantPoint, InFiniteSet, SelfMap, certify,
                               check_identity_condition, exhaustive_plan)

LINE = Space.finite([(0,), (1,), (2,), (3,)], Metric.l1())
PLANE = Space.finite([(0, 0), (0, 1), (0, 2), (1, 1)], Metric.linf())
TAXICAB = Space.finite([(0, 0), (1, 0), (0, 1), (2, 1)], Metric.l1())
# the on-set {(2,)}, on which some maps certify existence and uniqueness
SINGLETON = (LINE, ((0,), (1,)), 3, 1)
# (space, foci, r, size of the on-set)
CASES = [
    (LINE, ((0,), (3,)), 3, 4), (LINE, ((0,), (2,)), 2, 3),
    (LINE, ((0,), (1,)), 1, 2), (LINE, ((0,), (1,)), 0, 0),
    (PLANE, ((0, 0), (0, 2)), 2, 4), (PLANE, ((0, 0), (0, 1), (0, 2)), 3, 3),
    (PLANE, ((0, 0), (0, 1)), 1, 2), (PLANE, ((0, 0), (0, 1)), 0, 0),
    (TAXICAB, ((0, 0), (1, 0)), 1, 2), SINGLETON,
]


@pytest.mark.parametrize("space, foci, r, size", CASES,
                         ids=[f"{s.metric.label}-{s.dimension}d-on{n}" for s, _, _, n in CASES])
def test_theorems_hold_on_every_self_map(space, foci, r, size):
    e = KEllipse(space, foci, r)
    plan = exhaustive_plan(e)
    on = set(plan.on_ellipse)
    assert plan.exhaustive and plan.exact and len(on) == size and e.k >= 2
    pts = space.points
    for images in itertools.product(pts, repeat=len(pts)):
        m = SelfMap(tuple((InFiniteSet((p,)), ConstantPoint(t)) for p, t in zip(pts, images)))
        fixed = {p for p, t in zip(pts, images) if p == t}
        verdicts = {t: certify(t, m, e, plan) for t in ("t1", "t2", "t3", "t4")}
        for t in ("t1", "t2", "t3"):             # (a)
            assert verdicts[t].existence_certified == (on <= fixed), (t, images)
        for t, v in verdicts.items():
            if v.existence_certified and v.uniqueness_certified and on:     # (b)
                assert fixed == on, (t, images)
        if check_identity_condition(m, e.field, plan).passed:          # (c)
            assert fixed == set(pts), images
        if size >= 2:                               # (d)
            assert not verdicts["t4"].existence_certified, images


def test_claim_b_is_not_vacuous_on_a_singleton_on_set():
    space, foci, r, _ = SINGLETON
    e = KEllipse(space, foci, r)
    plan = exhaustive_plan(e)
    assert plan.on_ellipse == ((2,),)
    pts, unique = space.points, []
    for images in itertools.product(pts, repeat=len(pts)):
        m = SelfMap(tuple((InFiniteSet((p,)), ConstantPoint(t)) for p, t in zip(pts, images)))
        if any(v.existence_certified and v.uniqueness_certified
               for v in (certify(t, m, e, plan) for t in THEOREM_FAMILIES)):
            unique.append({p for p, t in zip(pts, images) if p == t})
    # (b): each of these maps fixes the on-set point and no other
    assert unique and all(fixed == {(2,)} for fixed in unique)
