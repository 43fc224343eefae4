import random
from fractions import Fraction

import pytest

import kellipse as ke
from kellipse import (PiecewiseAffine1D, fixed_kellipse_radii, fixed_point_set,
                      is_fixed_kellipse, srelu)
from kellipse.intervals import Interval, IntervalUnion


def reference_srelu(t_l, a_l, t_r, a_r):
    def f(x):
        if x <= t_l:
            return t_l + a_l * (x - t_l)
        if x < t_r:
            return x
        return t_r + a_r * (x - t_r)
    return f


STD = srelu(-6, 2, 6, 3)


# ---------------------------------------------------------------------------
# construction and evaluation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("x,expected", [(-8, -10), (0, 0), (10, 18), (-6, -6), (6, 6)])
def test_srelu_evaluation(x, expected):
    assert STD(x) == expected
    assert STD(x) == reference_srelu(-6, 2, 6, 3)(x)


def test_srelu_pieces_are_the_documented_lines():
    assert STD.pieces == ((2, 6), (1, 0), (3, -12))


def test_srelu_matches_reference_on_grid():
    ref = reference_srelu(-6, 2, 6, 3)
    for i in range(-160, 161):
        x = Fraction(i, 8)
        assert STD(x) == ref(x)


def test_srelu_collapses_to_identity():
    f = srelu(0, 1, 0, 1)
    for x in (-3, 0, Fraction(7, 2)):
        assert f(x) == x
    assert str(fixed_point_set(f)) == "(-inf, inf)"


def test_srelu_threshold_order_enforced():
    with pytest.raises(ValueError):
        srelu(6, 2, -6, 3)


def test_piecewise_validation():
    with pytest.raises(ValueError):
        PiecewiseAffine1D((0,), ((1, 0),))          # piece count
    with pytest.raises(ValueError):
        PiecewiseAffine1D((1, 0), ((1, 0),) * 3)    # unsorted breakpoints


def test_boundary_ownership():
    # x < 0 -> 5, x >= 0 -> x  (right piece owns the breakpoint)
    f = PiecewiseAffine1D((0,), ((0, 5), (1, 0)))
    assert f(0) == 0 and f(-1) == 5
    # x <= 0 -> 5, x > 0 -> x
    g = PiecewiseAffine1D((0,), ((0, 5), (1, 0)), owns_left=(True,))
    assert g(0) == 5 and g(Fraction(1, 2)) == Fraction(1, 2)


# ---------------------------------------------------------------------------
# fixed sets
# ---------------------------------------------------------------------------

def test_fixed_set_srelu_is_closed_interval():
    fix = fixed_point_set(STD)
    assert str(fix) == "[-6, 6]"
    assert fix.contains(-6) and fix.contains(6) and fix.contains(Fraction(1, 3))
    assert not fix.contains(-7) and not fix.contains(Fraction(49, 8))


def test_fixed_set_shift_is_empty():
    assert fixed_point_set(PiecewiseAffine1D((), ((1, 1),))).is_empty


def test_fixed_set_isolated_points():
    # 2x - 3 fixes x = 3 only
    fix = fixed_point_set(PiecewiseAffine1D((), ((2, -3),)))
    assert fix.isolated == (3,) and not fix.intervals


def test_fixed_set_exactness_sampled():
    rng = random.Random(41)
    for _ in range(25):
        f = random_piecewise(rng)
        fix = fixed_point_set(f)
        inside = sample_members(fix, rng, 100)
        for x in inside:
            assert f(x) == x
        count = 0
        while count < 100:
            x = Fraction(rng.randint(-2048, 2048), 32)
            if fix.contains(x):
                continue
            assert f(x) != x
            count += 1


def random_piecewise(rng):
    nb = rng.randint(0, 3)
    bps = sorted(rng.sample([Fraction(n, 4) for n in range(-48, 49)], nb))
    slopes = [Fraction(rng.choice([-2, -1, 0, 1, 1, 2, 3]),
                       rng.choice([1, 1, 2])) for _ in range(nb + 1)]
    pieces = [(a, Fraction(rng.randint(-24, 24), 4)) for a in slopes]
    owns = tuple(rng.random() < 0.5 for _ in range(nb))
    return PiecewiseAffine1D(tuple(bps), tuple(pieces), owns)


def sample_members(fix, rng, n):
    out = list(fix.isolated)
    for iv in fix.intervals:
        lo = float(iv.lo) if iv.lo != float("-inf") else -100.0
        hi = float(iv.hi) if iv.hi != float("inf") else 100.0
        for _ in range(n // max(1, len(fix.intervals))):
            x = Fraction(rng.randint(int(lo * 16) + 1, int(hi * 16) - 1), 16)
            if fix.contains(x):
                out.append(x)
    return out[:n]


# ---------------------------------------------------------------------------
# admissible radii
# ---------------------------------------------------------------------------

def test_radii_srelu_standard_foci():
    radii = fixed_kellipse_radii(STD, [-1, 0, 1])
    assert str(radii) == "[2, 18]"
    assert radii.contains(15) and radii.contains(2) and radii.contains(18)
    assert not radii.contains(Fraction(145, 8)) and not radii.contains(1)


def test_radii_srelu_wider_foci():
    # field value at the fixed-set ends: |6+2| + 6 + |6-2| = 18 on both sides
    radii = fixed_kellipse_radii(STD, [-2, 0, 2])
    assert str(radii) == "[4, 18]"
    assert radii.contains(6)      # the level set {-2, 2} lies inside [-6, 6]


def test_radii_empty_fixed_set():
    shift = PiecewiseAffine1D((), ((1, 1),))
    assert fixed_kellipse_radii(shift, [-1, 0, 1]).is_empty


def test_radii_identity_unbounded():
    ident = PiecewiseAffine1D((), ((1, 0),))
    radii = fixed_kellipse_radii(ident, [-1, 0, 1])
    assert str(radii) == "[2, inf)"
    assert radii.contains(10 ** 9)


def test_radii_flat_segment_requires_whole_segment_fixed():
    # fix set {1} U [4, 6]: even-k field with median segment [1, 5]
    f = PiecewiseAffine1D((Fraction(1), Fraction(4), Fraction(6)),
                          ((2, -1), (0, 99), (1, 0), (3, -12)),
                          owns_left=(True, False, True))
    fix = fixed_point_set(f)
    assert fix.contains(1) and fix.contains(5)
    radii = fixed_kellipse_radii(f, [0, 1, 5, 6])
    r_star = 10        # sum |x - foci| on the flat segment [1, 5]
    assert not radii.contains(r_star)      # segment [1,5] is not inside Fix
    assert not bool(is_fixed_kellipse(f, [0, 1, 5, 6], r_star))


@pytest.mark.parametrize("foci,r,expected_fixed,expected_sol", [
    ([-1, 0, 1], 15, True, (-5, 5)),
    ([-2, 0, 2], 6, True, (-2, 2)),
    ([-1, 0, 1], 30, False, (-10, 10)),
])
def test_is_fixed_kellipse(foci, r, expected_fixed, expected_sol):
    chk = is_fixed_kellipse(STD, foci, r)
    assert bool(chk) is expected_fixed
    assert chk.solution.points == expected_sol


def test_is_fixed_kellipse_symmetric_foci_level_9():
    # |x+a| + |x| + |x-a| = 9 solves to {-3, 3} only while a <= 3
    for a in (1, 2, 3):
        chk = is_fixed_kellipse(STD, [-a, 0, a], 9)
        assert bool(chk) and chk.solution.points == (-3, 3)
    chk4 = is_fixed_kellipse(STD, [-4, 0, 4], 9)
    assert bool(chk4) and chk4.solution.points == (-1, 1)   # still fixed, different set
    assert is_fixed_kellipse(STD, [-5, 0, 5], 9).solution.is_empty


def test_is_fixed_kellipse_empty_is_false():
    assert not bool(is_fixed_kellipse(STD, [-1, 0, 1], 1))


def test_map_hash_is_stored_and_memo_counts_stay_exact():
    table = ((Fraction(-1), Fraction(2)), ((Fraction(2), Fraction(1)), (Fraction(1), Fraction(0)),
                                            (Fraction(1, 2), Fraction(3))), (True, False))
    a, b = PiecewiseAffine1D(*table), PiecewiseAffine1D(*table)
    assert a == b and a is not b
    assert hash(a) == hash(b) == hash((a.breakpoints, a.pieces, a.owns_left))
    before = fixed_point_set.cache_info()
    assert fixed_point_set(a) is fixed_point_set(b) is fixed_point_set(a)
    after = fixed_point_set.cache_info()
    assert (after.misses - before.misses, after.hits - before.hits) == (1, 2)
    assert PiecewiseAffine1D(*table[:2]) != a


def test_radii_agree_with_bruteforce_scan():
    rng = random.Random(7)
    for trial in range(50):
        f = random_piecewise(rng)
        k = rng.randint(1, 5)
        foci = sorted(Fraction(rng.randint(-128, 128), 16) for _ in range(k))
        radii = fixed_kellipse_radii(f, foci)
        med = foci[(k - 1) // 2]
        r_star = sum(abs(med - fc) for fc in foci)
        for step in range(0, 64 * 100 + 1):          # 1/64 grid over [r_star, r_star+100]
            r = r_star + Fraction(step, 64)
            assert bool(is_fixed_kellipse(f, foci, r)) == radii.contains(r), \
                f"trial {trial}: disagreement at r={r}"


def test_consistency_with_verifier_conditions():
    # whenever the level set is fixed, the Caristi-type and image bounds hold on it
    line = ke.Space.continuum(1, ke.Metric.l1())
    m = ke.selfmap_from_piecewise(STD)
    for foci, r in [([-1, 0, 1], 15), ([-2, 0, 2], 6), ([-1, 0, 1], 9)]:
        assert bool(is_fixed_kellipse(STD, foci, r))
        e = ke.KEllipse(line, tuple((f,) for f in foci), r)
        plan = ke.default_plan(e, seed=1, off_count=32)
        assert ke.check_condition("Ek1", m, e, plan).passed
        assert ke.check_condition("Ek2", m, e, plan).passed


def test_interval_union_algebra():
    u = IntervalUnion.of([Interval(0, 2), Interval(2, 5), Interval(7, 8, True, False)])
    assert str(u) == "[0, 5] U (7, 8]"
    assert u.contains(2) and not u.contains(7)
    v = u.intersect(IntervalUnion.of([Interval(1, 7)]))
    assert str(v) == "[1, 5]"
    w = u.without_point(3)
    assert not w.contains(3) and w.contains(Fraction(29, 10))
    assert u.contains_interval(Interval(1, 4))
    assert not u.contains_interval(Interval(4, 8))
