"""Check the fixed-figure claims (a)-(d) on every self-map of 5- and 6-point spaces.

    PYTHONPATH=src python3 scripts/theorems_scan.py

The claims are stated and proved in the docstring of
`tests/test_theorems_exhaustive.py`, which checks them on every map of
4-point spaces. Here each space below, with its foci and radius, has every
self-map T, written as an InFiniteSet -> ConstantPoint rule table, certified
exactly for t1-t4 on its exhaustive plan, together with the Ik identity
bound. For the on-set E and the fixed set Fix(T):

(a) t1-t3 existence is certified exactly when T fixes every point of E;
(b) certified existence and uniqueness with E nonempty give Fix(T) = E;
(c) a passing Ik fixes every point;
(d) t4 existence is never certified on two or more points of E.

The script prints one line per space: its on-set size, the number of maps,
how many of them certify existence and uniqueness on a nonempty on-set (the
maps on which (b) says something), and the number of violations, each of
which it then prints with its map, as the images of the points in order, and
the verdicts. It exits 1 if there is any violation. A full run certifies
121,437 maps and takes about 2 minutes on 2 vCPUs.
"""
from __future__ import annotations

import itertools
import time

from kellipse import KEllipse, Metric, Space
from kellipse.verifier import (THEOREM_FAMILIES, ConstantPoint, InFiniteSet, SelfMap, certify,
                               check_identity_condition, exhaustive_plan)

LINE5 = Space.finite([(x,) for x in range(5)], Metric.l1())
LINE6 = Space.finite([(x,) for x in range(6)], Metric.l1())
TAXICAB5 = Space.finite([(0, 0), (1, 0), (0, 1), (2, 1), (1, 2)], Metric.l1())
CHEBYSHEV5 = Space.finite([(0, 0), (0, 1), (0, 2), (1, 1), (2, 0)], Metric.linf())
CHEBYSHEV6 = Space.finite([(0, 0), (0, 1), (0, 2), (1, 1), (2, 0), (2, 2)], Metric.linf())
# (space, foci, r): empty, singleton and larger on-sets, on the line and in the plane
SPACES = [
    (LINE5, ((0,), (4,)), 4), (LINE5, ((0,), (2,)), 2), (LINE5, ((0,), (1,)), 5), (LINE5, ((0,), (1,)), 0),
    (TAXICAB5, ((0, 0), (1, 0)), 1), (TAXICAB5, ((0, 0), (1, 0)), 3), (TAXICAB5, ((0, 0), (2, 1), (1, 2)), 6),
    (CHEBYSHEV5, ((0, 0), (0, 2)), 2), (CHEBYSHEV5, ((0, 0), (0, 1)), 3),
    (LINE6, ((0,), (1,)), 5), (CHEBYSHEV6, ((0, 0), (2, 2)), 2),
]


def violations(e: KEllipse, plan):
    """(number of maps that certify existence and uniqueness on a nonempty
    on-set, [(claim, images, verdicts)]) over every self-map of e's space,
    certified on its exhaustive plan."""
    on, pts = set(plan.on_ellipse), e.space.points
    live, found = 0, []
    for images in itertools.product(pts, repeat=len(pts)):
        m = SelfMap(tuple((InFiniteSet((p,)), ConstantPoint(t)) for p, t in zip(pts, images)))
        fixed = {p for p, t in zip(pts, images) if p == t}
        verdicts = {t: certify(t, m, e, plan) for t in THEOREM_FAMILIES}
        summary = {t: (v.existence_certified, v.uniqueness_certified) for t, v in verdicts.items()}
        broken = [f"(a) {t}" for t in ("t1", "t2", "t3") if verdicts[t].existence_certified != (on <= fixed)]
        unique = [t for t, v in verdicts.items() if v.existence_certified and v.uniqueness_certified and on]
        live += bool(unique)
        broken += [f"(b) {t}" for t in unique if fixed != on]
        if check_identity_condition(m, e.field, plan).passed and fixed != set(pts):
            broken.append("(c)")
        if len(on) >= 2 and verdicts["t4"].existence_certified:
            broken.append("(d)")
        found += [(claim, images, summary) for claim in broken]
    return live, found


def main() -> int:
    total = 0
    for space, foci, r in SPACES:
        e = KEllipse(space, foci, r)
        plan, n = exhaustive_plan(e), len(space.points)
        start = time.perf_counter()
        live, found = violations(e, plan)
        total += len(found)
        print(f"{space.metric.label} {n} points, foci {list(foci)}, r = {r}: on-set {len(plan.on_ellipse)}, "
              f"{n ** n} maps, {live} certify existence and uniqueness on it, {len(found)} violations "
              f"({time.perf_counter() - start:.1f} s)")
        for claim, images, summary in found:
            print(f"  {claim}: T = {list(images)}, on-set {list(plan.on_ellipse)}, "
                  f"(existence, uniqueness) {summary}")
    print(f"violations: {total}")
    return 1 if total else 0


if __name__ == "__main__":
    raise SystemExit(main())
