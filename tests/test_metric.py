import ast
import math
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import kellipse as ke
from kellipse import Interval, IntervalUnion, Metric, Point, Space, export_csv
from kellipse.metric import fmt_num

ALL_KINDS = [Metric.l1(), Metric.l2(), Metric.linf(), Metric.lp(4)]


@pytest.mark.parametrize("metric,a,b,expected", [
    (Metric.l1(), (1, 0), (0, 1), 2),
    (Metric.l2(), (3, 0), (0, 4), 5),
    (Metric.linf(), (1, 0), (0, 1), 1),
    (Metric.lp(4), (-1, 0, 0), (1, 0, 0), 2),
])
def test_distance_examples(metric, a, b, expected):
    assert metric.distance(a, b) == pytest.approx(expected, abs=1e-12)


def test_distance_symmetric_and_zero_on_diagonal():
    rng = random.Random(1)
    for metric in ALL_KINDS:
        for _ in range(200):
            a = tuple(rng.uniform(-10, 10) for _ in range(3))
            b = tuple(rng.uniform(-10, 10) for _ in range(3))
            assert metric.distance(a, b) == metric.distance(b, a)
            assert metric.distance(a, a) == 0


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        Metric.l2().distance((1, 0), (1, 0, 0))


def test_lp_exponent_validation():
    with pytest.raises(ValueError):
        Metric.lp(0.5)
    with pytest.raises(ValueError):
        Metric.lp(65)
    with pytest.raises(ValueError):
        Metric("lp")          # missing p
    with pytest.raises(ValueError):
        Metric("l2", p=3)     # p on a fixed kind
    Metric.lp(1)
    Metric.lp(64)


def test_exact_arithmetic_preserved_in_1d_and_l1():
    d = Metric.l1().distance((Fraction(1, 3), 2), (1, Fraction(1, 2)))
    assert d == Fraction(2, 3) + Fraction(3, 2)
    assert isinstance(d, Fraction)
    assert Metric.l2().distance((Fraction(7, 2),), (1,)) == Fraction(5, 2)


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("metric", ALL_KINDS, ids=lambda m: m.label)
def test_triangle_inequality_1000_triples(metric, dim):
    rng = random.Random(97 * dim + hash(metric.kind) % 100)
    for _ in range(1000):
        a, b, c = (tuple(rng.uniform(-10, 10) for _ in range(dim)) for _ in range(3))
        assert metric.distance(a, c) <= metric.distance(a, b) + metric.distance(b, c) + 1e-9


def test_lp_limits_agree_with_l1_l2():
    rng = random.Random(5)
    lp1, lp2 = Metric.lp(1), Metric.lp(2)
    for _ in range(1000):
        a = tuple(rng.uniform(-10, 10) for _ in range(3))
        b = tuple(rng.uniform(-10, 10) for _ in range(3))
        assert abs(lp1.distance(a, b) - Metric.l1().distance(a, b)) <= 1e-12
        assert abs(lp2.distance(a, b) - Metric.l2().distance(a, b)) <= 1e-12


def test_lp_monotone_in_p():
    rng = random.Random(6)
    ps = [1, 1.5, 2, 3, 4, 8, 16, 64]
    for _ in range(1000):
        a = tuple(rng.uniform(-5, 5) for _ in range(3))
        b = tuple(rng.uniform(-5, 5) for _ in range(3))
        linf = Metric.linf().distance(a, b)
        l1 = Metric.l1().distance(a, b)
        prev = l1
        for p in ps:
            d = Metric.lp(p).distance(a, b)
            assert linf - 1e-12 <= d <= l1 + 1e-12
            assert d <= prev + 1e-12      # non-increasing in p
            prev = d


def test_point_validation():
    with pytest.raises(ValueError):
        Point(())
    with pytest.raises(ValueError):
        Point((float("nan"),))
    with pytest.raises(ValueError):
        Point((1.0, float("inf")))
    assert Point((1, Fraction(1, 2), 0.25)).dim == 3


def test_finite_space_dedupes_and_checks_membership():
    sp = Space.finite([(0,), (1,), (0,), (2,)], Metric.l1())
    assert len(sp.points) == 3
    assert sp.contains((1,))
    assert not sp.contains((5,))
    with pytest.raises(ValueError):
        sp.require_member((5,))
    with pytest.raises(ValueError):
        sp.require_member((1, 0))


def test_finite_space_dedupe_keeps_first_seen_point():
    sp = Space.finite([(1,), (2.5,), (1.0,), (Fraction(1),), (Fraction(5, 2),), (0,)], Metric.l1())
    assert sp.points == ((1,), (2.5,), (0,))
    assert type(sp.points[0][0]) is int and type(sp.points[1][0]) is float


def test_membership_restriction():
    import math
    mem = ke.IntervalUnion.of((ke.Interval.point(-2), ke.Interval.point(-1), ke.Interval(0, math.inf)))
    sp = Space.continuum(1, Metric.l1(), mem)
    assert sp.contains((-2,)) and sp.contains((0,)) and sp.contains((17.5,))
    assert not sp.contains((-0.5,)) and not sp.contains((-3,))
    with pytest.raises(ValueError):
        Space.continuum(2, Metric.l1(), mem)   # 1D only


def test_verify_metric_axioms_clean_for_norm_metrics():
    for metric in (Metric.l1(), Metric.l2()):
        sp = Space.continuum(2, metric)
        report = ke.verify_metric_axioms(sp, 1000, seed=42)
        assert report.ok, report.violations[:3]


def test_verify_metric_axioms_finite_space():
    sp = Space.finite([(0,), (1,), (5,)], Metric.l1())
    assert ke.verify_metric_axioms(sp, 100, seed=1).ok


def test_verify_metric_axioms_sample_count_precondition():
    sp = Space.continuum(1, Metric.l1())
    with pytest.raises(ValueError):
        ke.verify_metric_axioms(sp, 2)


def test_sample_points_deterministic():
    sp = Space.continuum(2, Metric.l2())
    assert ke.sample_points(sp, 10, seed=3) == ke.sample_points(sp, 10, seed=3)
    assert ke.sample_points(sp, 10, seed=3) != ke.sample_points(sp, 10, seed=4)


class _Asymmetric(Metric):
    """Deliberately broken metric used to exercise violation reporting."""

    def distance(self, a, b):
        d = super().distance(a, b)
        return d * 1.5 if a > b else d


def test_axiom_violations_are_reported_not_raised():
    sp = Space.continuum(1, _Asymmetric("l1"))
    report = ke.verify_metric_axioms(sp, 500, seed=9)
    assert not report.ok
    kinds = {v.axiom for v in report.violations}
    assert "symmetry" in kinds
    v = report.violations[0]
    assert len(v.points) >= 1 and v.amount > 0


# ---------------------------------------------------------------------------
# number text: fmt_num serves the CLI, interval text and CSV cells alike
# ---------------------------------------------------------------------------

def _cli_fmt_num(v):
    """The CLI's former formatter."""
    if v is None:
        return "-"
    if isinstance(v, float):
        if math.isinf(v):
            return "inf" if v > 0 else "-inf"
        return repr(float(v))
    if isinstance(v, Fraction):
        return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"
    return str(v)


def _interval_fmt(x):
    """Interval endpoints' former formatter."""
    if x == -math.inf:
        return "-inf"
    if x == math.inf:
        return "inf"
    if isinstance(x, Fraction) and x.denominator == 1:
        return str(x.numerator)
    return str(x)


def _csv_num(c):
    """CSV cells' former formatter."""
    if isinstance(c, float):
        return repr(float(c))
    return str(c)


NUMBERS = [0, 7, -3, 10**30, np.int64(5), np.int64(-9),
           Fraction(6, 3), Fraction(-4), Fraction(1, 3), Fraction(-7, 2), Fraction(10**20 + 1, 3),
           0.1, -2.5, 1e300, 5e-324, 0.0, -0.0, math.inf, -math.inf,
           np.float64(0.1), np.float64(-0.0), np.float64(math.inf), np.float64(-math.inf)]


def test_fmt_num_agrees_with_the_former_formatters():
    assert fmt_num(None) == _cli_fmt_num(None) == "-"
    for v in NUMBERS:
        assert fmt_num(v) == _cli_fmt_num(v) == _interval_fmt(v), v
        if isinstance(v, float):
            assert fmt_num(v) == _csv_num(v) == repr(float(v))
    assert [fmt_num(v) for v in (Fraction(6, 3), Fraction(-7, 2), math.inf, np.float64(-0.0))] == \
        ["2", "-7/2", "inf", "-0.0"]


def test_interval_text_and_csv_cells_agree_with_the_former_formatters():
    for v in NUMBERS:
        s = _interval_fmt(v)
        if math.isfinite(v):
            assert str(Interval.point(v)) == "{" + s + "}"
            assert str(Interval(-math.inf, v, hi_open=True)) == f"(-inf, {s})"
            assert str(IntervalUnion.of([Interval(v, math.inf), Interval.point(-10**31)])) == \
                f"{{{-10**31}}} U [{s}, inf)"
        else:
            assert str(Interval(min(v, 0), max(v, 0))) in (f"({s}, 0]", f"[0, {s})")
        assert export_csv([(v, v)]) == f"x,y\n{_csv_num(v)},{_csv_num(v)}\n"
        if isinstance(v, float):
            assert export_csv(np.array([[v, v]])) == f"x,y\n{_csv_num(v)},{_csv_num(v)}\n"


def test_tolerances_are_defined_only_in_metric():
    # every float tolerance is a named constant of kellipse.metric, so no
    # other module may hold a small float literal
    src = Path(ke.__file__).parent
    found = [f"{path.name}:{node.lineno}: {node.value!r}"
             for path in sorted(src.glob("*.py")) if path.name != "metric.py"
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Constant) and isinstance(node.value, float) and 0 < abs(node.value) < 1e-6]
    assert not found, found
