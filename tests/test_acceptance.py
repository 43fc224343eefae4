"""Acceptance suite: one test per shipped criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Every tolerance is pinned here; exact criteria use rational arithmetic
and compare with zero tolerance.
"""
import itertools
import math
import random
import time
from fractions import Fraction

import numpy as np
from scipy.spatial import cKDTree

import kellipse as ke
from kellipse import (KEllipse, Metric, Space, SumField, fixture_scene,
                      members_finite, solve_1d, srelu, weiszfeld)
from kellipse.verifier import FAIL, PASS, VACUOUS, ik_margin


ANNOUNCED = []      # echoed by the terminal-summary hook in conftest.py


def announce(num, label, elapsed=None):
    timing = f" ({elapsed:.2f}s)" if elapsed is not None else ""
    line = f"ACCEPTANCE {num} [{label}]: PASS{timing}"
    ANNOUNCED.append(line)
    print(line)


def test_criterion_1_exact_1d_level_sets():
    t0 = time.perf_counter()
    assert solve_1d([-1, 0, 1], 15).points == (-5, 5)
    assert solve_1d([-2, 0, 2], 6).points == (-2, 2)
    assert solve_1d([-2, 0, 2], 27).points == (-9, 9)
    for pts, foci, r, want in [
        ([(-4,), (-1,), (0,), (1,), (2,), (18,)], ((-1,), (0,), (1,), (2,)), 18, [(-4,)]),
        ([(-1,), (0,), (1,), (4,), (12,)], ((-1,), (0,), (1,)), 12, [(4,)]),
    ]:
        sp = Space.finite(pts, Metric.l1())
        assert members_finite(KEllipse(sp, foci, r)) == want
    mem = ke.IntervalUnion.of((ke.Interval.point(-2), ke.Interval.point(-1), ke.Interval(0, math.inf)))
    spm = Space.continuum(1, Metric.l1(), mem)
    assert members_finite(KEllipse(spm, ((-2,), (0,), (2,)), 21)) == [(7,)]
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    announce(1, "exact 1D level sets", elapsed)


def test_criterion_2_verifier_verdict_matrix():
    t0 = time.perf_counter()
    matrix = [
        ("inward_map", "t1", {"Ek1": PASS, "Ek2": FAIL}),
        ("outward_map", "t1", {"Ek2": PASS, "Ek1": FAIL}),
        ("far_outward_map", "t2", {"E'k1": PASS, "E'k2": FAIL}),
        ("finite_constant_map", "t4",
         {"E'''k1": PASS, "E'''k2": VACUOUS, "E'''k3": PASS, "E'''k4": PASS}),
        ("halfline_identity", "t4", {"E'''k1": PASS, "E'''k4": FAIL}),
        ("finite_two_ellipses", "t1", {"Ek1": PASS, "Ek2": PASS, "Ek3": FAIL}),
    ]
    for name, theorem, expected in matrix:
        scene = fixture_scene(name)
        plan = scene.build_plan()
        assert plan.exact, name
        verdict = ke.certify(theorem, scene.self_map, scene.ellipse, plan)
        for cid, want in expected.items():
            assert verdict.reports[cid].verdict == want, (name, cid)
    s5 = fixture_scene("finite_constant_map")
    v5 = ke.certify("t4", s5.self_map, s5.ellipse, s5.build_plan())
    assert v5.existence_certified and v5.uniqueness_certified
    s6 = fixture_scene("halfline_identity")
    v6 = ke.certify("t4", s6.self_map, s6.ellipse, s6.build_plan())
    assert v6.existence_certified and not v6.uniqueness_certified
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    announce(2, "verifier verdict matrix", elapsed)


def test_criterion_3_chatterjea_constant_audit():
    scene = fixture_scene("finite_six_points")
    plan = scene.build_plan()
    rep = ke.check_condition("E'k3", scene.self_map, scene.ellipse, plan)
    assert rep.fitted_constant == Fraction(4, 7)
    assert rep.witness == ((-4,), (-1,))
    # minimality: an epsilon below the fit violates the inequality at the witness
    h = Fraction(4, 7) - Fraction(1, 10 ** 9)
    d = scene.space.metric.distance
    x, y = rep.witness
    tx, ty = scene.self_map(x), scene.self_map(y)
    assert d(tx, ty) > h * (d(tx, y) + d(ty, x))
    # the quoted 4/9 constant is flagged in the fixture notes, not reproduced
    assert "4/9" in scene.description and "4/7" in scene.description
    assert rep.fitted_constant != Fraction(4, 9)
    announce(3, "exhaustive pair-constant audit (4/7)")


def test_criterion_4_srelu_application():
    t0 = time.perf_counter()
    f = srelu(-6, 2, 6, 3)
    assert str(ke.fixed_point_set(f)) == "[-6, 6]"
    assert bool(ke.is_fixed_kellipse(f, [-1, 0, 1], 15))
    assert bool(ke.is_fixed_kellipse(f, [-2, 0, 2], 6))
    for a in (1, 2, 3):
        chk = ke.is_fixed_kellipse(f, [-a, 0, a], 9)
        assert bool(chk) and chk.solution.points == (-3, 3)
    radii = ke.fixed_kellipse_radii(f, [-1, 0, 1])
    assert str(radii) == "[2, 18]"
    # brute-force radius scan at 1/64 steps over [r_star, r_star + 100]
    for step in range(0, 64 * 100 + 1):
        r = 2 + Fraction(step, 64)
        assert bool(ke.is_fixed_kellipse(f, [-1, 0, 1], r)) == radii.contains(r)
    elapsed = time.perf_counter() - t0
    assert elapsed < 2.0
    announce(4, "SReLU fixed sets and radii", elapsed)


def test_criterion_5_tracer_residuals_resolution_256():
    t0 = time.perf_counter()
    flat = ("tri_l1", "tri_l2", "tri_linf", "quad_l2")
    for name in flat:
        scene = fixture_scene(name)
        assert scene.trace.resolution == 256
        res = ke.trace_2d(scene.ellipse, scene.trace)
        v = res.all_vertices()
        assert len(v) > 0, name
        resid = np.abs(scene.ellipse.field.values(v) - float(scene.ellipse.r))
        assert resid.max() <= 1e-6, name
        if scene.expect["trace"].get("swap_symmetric"):
            swapped = v[:, ::-1]
            h = max(cKDTree(v).query(swapped)[0].max(),
                    cKDTree(swapped).query(v)[0].max())
            assert h <= 2 * max(res.cell_size), name
    for name in ("tri3d_l2", "tri3d_lp4"):
        scene = fixture_scene(name)
        assert scene.trace.resolution == 256
        cloud = ke.sample_3d(scene.ellipse, scene.trace)
        assert len(cloud) > 0, name
        resid = np.abs(scene.ellipse.field.values(cloud.points) - float(scene.ellipse.r))
        assert resid.max() <= 1e-6, name
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    announce(5, "tracer residuals at resolution 256", elapsed)


def grid_polish_oracle(field, foci, dim):
    """Independent optimum estimate: coarse grid plus compass polish."""
    lo = [min(f[a] for f in foci) - 1 for a in range(dim)]
    hi = [max(f[a] for f in foci) + 1 for a in range(dim)]
    axes = [np.linspace(lo[a], hi[a], 21) for a in range(dim)]
    pts = np.column_stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")])
    vals = field.values(pts)
    x = pts[int(np.argmin(vals))].copy()
    best = float(vals.min())
    dirs = np.array([v for v in itertools.product((-1.0, 0.0, 1.0), repeat=dim) if any(v)])
    h = max(hi[a] - lo[a] for a in range(dim)) / 20
    while h > 1e-10:
        cand = x[None, :] + h * dirs
        cv = field.values(cand)
        j = int(np.argmin(cv))
        if cv[j] < best - 1e-15:
            x, best = cand[j], float(cv[j])
        else:
            h *= 0.5
    return best


def test_criterion_6_weiszfeld_against_grid_oracle():
    t0 = time.perf_counter()
    rng = random.Random(606)
    for _ in range(100):
        dim = rng.choice([2, 3])
        k = rng.randint(2, 6)
        foci = [tuple(round(rng.uniform(-5, 5), 3) for _ in range(dim)) for _ in range(k)]
        sp = Space.continuum(dim, Metric.l2())
        field = SumField(sp, tuple(foci))
        res = weiszfeld(foci)
        for prev, cur in zip(res.trace, res.trace[1:]):
            assert cur <= prev + 1e-12        # monotone descent, every iteration
        oracle = grid_polish_oracle(field, foci, dim)
        assert abs(res.value - oracle) <= 1e-6
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    announce(6, "geometric-median solver vs grid oracle", elapsed)


def test_criterion_7_identity_forcing_property_suite():
    t0 = time.perf_counter()
    line = Space.continuum(1, Metric.l1())
    rng = random.Random(707)
    identity_map = ke.SelfMap(((ke.Otherwise(), ke.Identity()),))
    for trial in range(500):
        nb = rng.randint(0, 2)
        bps = sorted(rng.sample(range(-8, 9), nb))
        pieces = [(Fraction(rng.choice([-2, -1, 0, 2, 3])), Fraction(rng.randint(-4, 4)))
                  for _ in range(nb + 1)]
        f = ke.PiecewiseAffine1D(tuple(bps), tuple(pieces))
        m = ke.selfmap_from_piecewise(f)
        foci = tuple((rng.randint(-5, 5),) for _ in range(rng.randint(1, 4)))
        field = SumField(line, foci)
        k = len(foci)
        pts = [ke.Point((Fraction(rng.randint(-160, 160), 16),)) for _ in range(20)]
        d = line.metric.distance
        passing = [x for x in pts if ik_margin(m, field, k, x) >= 0]
        for x in passing:
            assert d(x, m(x)) <= 1e-9          # every passing point is fixed
        # none of these non-identity maps passes at all sample points
        # (every piece has slope != 1, so each piece moves all but one point)
        assert len(passing) < len(pts) or all(d(x, m(x)) == 0 for x in pts)
        moved = [x for x in pts if d(x, m(x)) > 0]
        if moved:
            assert any(ik_margin(m, field, k, x) < 0 for x in pts)
    # the identity map passes everywhere
    e = KEllipse(line, ((-1,), (0,), (1,)), 9)
    plan = ke.default_plan(e, seed=3, off_count=128)
    rep = ke.check_identity_condition(identity_map, e.field, plan)
    assert rep.verdict == PASS and rep.worst_margin == 0
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    announce(7, "identity-forcing bound property suite", elapsed)


def test_criterion_8_metric_axiom_suite():
    t0 = time.perf_counter()
    rng_seed = 808
    for metric in (Metric.l1(), Metric.l2(), Metric.linf(), Metric.lp(4)):
        for dim in (1, 2, 3):
            rng = random.Random(rng_seed + dim)
            for _ in range(1000):
                a, b, c = (tuple(rng.uniform(-10, 10) for _ in range(dim))
                           for _ in range(3))
                dab = metric.distance(a, b)
                assert dab == metric.distance(b, a)
                assert dab >= 0
                assert metric.distance(a, c) <= dab + metric.distance(b, c) + 1e-9
    elapsed = time.perf_counter() - t0
    announce(8, "metric axiom suite", elapsed)
