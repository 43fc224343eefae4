"""Fixed sets on scaled integers, and the memo of equal maps.

`FixedSet1D.contains` tests an exact x against its part ends in integer
arithmetic; `IntervalUnion.contains`, on the same parts, is the reference.
"""
import math
import random
from fractions import Fraction

import pytest

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


def test_membership_in_integers_matches_the_interval_union():
    rng = random.Random(22)
    checked = 0
    for _ in range(300):
        union = _union(rng)
        fixed = FixedSet1D(union)
        for x in _probes(rng, union):
            assert fixed.contains(x) is union.contains(x), (str(union), x)
            checked += 1
    assert checked > 10000


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
