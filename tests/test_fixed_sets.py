"""Membership in exact line sets, and the memo of equal maps.

`IntervalUnion.contains` decides membership in integer arithmetic, and
`FixedSet1D.contains` delegates to it; a scan of every part's own
`Interval.contains` is the reference.
"""
import math
import random
from fractions import Fraction

import numpy as np
import pytest

import kellipse as ke
from kellipse import FixedSet1D, PiecewiseAffine1D, fixed_point_set, srelu
from kellipse.intervals import NEG_INF, POS_INF, Interval, IntervalUnion

# coprime denominators, so that a union's common denominator is large
DENOMINATORS = (1, 2, 3, 7, 2 ** 31 - 1, 2 ** 61 - 1)


def _number(rng):
    return Fraction(rng.randint(-40, 40), rng.choice(DENOMINATORS)) * rng.choice((1, 1, 5))


def _union(rng) -> IntervalUnion:
    """Isolated points and intervals, open or closed at either end, with an
    infinite end now and then."""
    parts = []
    for _ in range(rng.randint(0, 6)):
        a, b = sorted((_number(rng), _number(rng)))
        if rng.random() < 0.3:
            parts.append(Interval.point(a))
            continue
        lo = NEG_INF if rng.random() < 0.15 else a
        hi = POS_INF if rng.random() < 0.15 else b
        parts.append(Interval(lo, hi, rng.random() < 0.5, rng.random() < 0.5))
    return IntervalUnion.of(parts)


def _probes(rng, union: IntervalUnion) -> list:
    """Every finite part end, its neighbours at 1/(2D) and beyond, random
    numbers, and each exact probe again as an int (when integral) and as a
    float, the fallback."""
    ends = [e for p in union.parts for e in (p.lo, p.hi) if e not in (NEG_INF, POS_INF)]
    D = math.lcm(*(Fraction(e).denominator for e in ends))
    exact = [e + Fraction(s, 2 * D) for e in ends for s in (-2, -1, 0, 1, 2)]
    exact += [_number(rng) for _ in range(20)]
    ints = [int(q) for q in exact if Fraction(q).denominator == 1]
    return exact + ints + [float(q) for q in exact] + [-math.inf, math.inf, 0.0]


def _scan(union: IntervalUnion, x) -> bool:
    return any(p.contains(x) for p in union.parts)


def test_membership_in_integers_matches_the_interval_union():
    rng = random.Random(22)
    checked = 0
    for _ in range(300):
        union = _union(rng)
        fixed = FixedSet1D(union)
        for x in _probes(rng, union):
            assert fixed.contains(x) is _scan(union, x), (str(union), x)
            checked += 1
    assert checked > 10000


def test_interval_union_contains_matches_a_scan_of_its_parts():
    # ints, Fractions up to denominator 2**61 - 1, floats, +-inf and NaN, each
    # also as the numpy scalars that carry it exactly
    rng = random.Random(25)
    checked = 0
    for _ in range(300):
        union = _union(rng)
        for x in _probes(rng, union) + [math.nan]:
            want = _scan(union, x)
            assert union.contains(x) is want, (str(union), x)
            variants = [np.float64(x)] if isinstance(x, float) else []
            if isinstance(x, float) and float(np.float32(x)) == x:
                variants.append(np.float32(x))
            if isinstance(x, int) and abs(x) < 2 ** 63:
                variants += [np.int64(x), np.int32(x)] if abs(x) < 2 ** 31 else [np.int64(x)]
            for v in variants:
                assert union.contains(v) is want, (str(union), repr(v))
            checked += 1 + len(variants)
    assert checked > 15000


def test_mixed_space_membership_with_float_and_fraction_ends():
    membership = IntervalUnion.of([Interval.point(Fraction(-7, 3)),
                                   Interval(-0.75, Fraction(1, 3), True, False),
                                   Interval(Fraction(5, 2), 3.5, False, True), Interval(6.125, POS_INF)])
    space = ke.Space.continuum(1, ke.Metric.l1(), membership)
    ends = (Fraction(-7, 3), -0.75, Fraction(1, 3), Fraction(5, 2), 3.5, 6.125)
    probes = [e + s for e in map(Fraction, ends) for s in (Fraction(-1, 10 ** 9), 0, Fraction(1, 10 ** 9))]
    probes += [float(q) for q in probes] + [-3, 0, 3, 7, 2 ** 70, -2.0, 0.25]
    for x in probes:
        assert space.contains(ke.Point((x,))) is _scan(membership, x), x
    assert [space.contains((x,)) for x in (Fraction(-7, 3), -0.75, Fraction(1, 3), 3.5, 6.125)] == \
        [True, False, True, False, True]


@pytest.mark.parametrize("x", (0, 1, Fraction(1, 2), -3.0, 2 ** 70, Fraction(-1, 2 ** 61 - 1)))
def test_empty_and_whole_line_fixed_sets(x):
    assert not FixedSet1D(IntervalUnion.empty()).contains(x)
    assert FixedSet1D(IntervalUnion.of([Interval(NEG_INF, POS_INF)])).contains(x)


def test_equal_maps_from_int_float_and_fraction_share_one_memo_entry():
    # -7, 1/4, 9 and 5 as ints, floats and Fractions: one map, one memo
    # entry (maps no other test memoizes, so that the counts are this test's)
    maps = [srelu(-7, Fraction(1, 4), 9, 5), srelu(-7.0, 0.25, 9.0, 5.0),
            srelu(Fraction(-7), Fraction(1, 4), Fraction(9), Fraction(5))]
    table = ((-7, 9.0), ((5, 1), (1.0, 0), (Fraction(1, 4), 3)), (True, False))
    tables = [PiecewiseAffine1D(*table),
              PiecewiseAffine1D((Fraction(-7), Fraction(9)),
                                ((Fraction(5), Fraction(1)), (Fraction(1), Fraction(0)),
                                 (Fraction(1, 4), Fraction(3))), (True, False))]
    for group in (maps, tables):
        assert all(f == group[0] and hash(f) == hash(group[0]) for f in group)
        assert len({id(f) for f in group}) == len(group)
        before = fixed_point_set.cache_info()
        sets = [fixed_point_set(f) for f in group]
        after = fixed_point_set.cache_info()
        assert all(s is sets[0] for s in sets)
        assert (after.misses - before.misses, after.hits - before.hits) == (1, len(group) - 1)
    assert maps[0] != srelu(-7, Fraction(1, 4), 9, 4)
    assert tables[0] != PiecewiseAffine1D(table[0], table[1], (False, False))
    assert maps[0] != tables[0] and maps[0] != 3
