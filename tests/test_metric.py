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
        # 200 pairs (a, b), drawn a then b; distances by rows
        ab = np.array([rng.uniform(-10, 10) for _ in range(1200)]).reshape(200, 2, 3)
        a, b = ab[:, 0], ab[:, 1]
        assert (metric.rowwise(a, b) == metric.rowwise(b, a)).all()
        assert (metric.rowwise(a, a) == 0).all()


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
    abc = np.array([rng.uniform(-10, 10) for _ in range(3000 * dim)]).reshape(1000, 3, dim)
    a, b, c = abc[:, 0], abc[:, 1], abc[:, 2]
    assert (metric.rowwise(a, c) <= metric.rowwise(a, b) + metric.rowwise(b, c) + 1e-9).all()


def test_lp_limits_agree_with_l1_l2():
    rng = random.Random(5)
    lp1, lp2 = Metric.lp(1), Metric.lp(2)
    ab = np.array([rng.uniform(-10, 10) for _ in range(6000)]).reshape(1000, 2, 3)
    a, b = ab[:, 0], ab[:, 1]
    assert (np.abs(lp1.rowwise(a, b) - Metric.l1().rowwise(a, b)) <= 1e-12).all()
    assert (np.abs(lp2.rowwise(a, b) - Metric.l2().rowwise(a, b)) <= 1e-12).all()


def test_lp_monotone_in_p():
    rng = random.Random(6)
    ps = [1, 1.5, 2, 3, 4, 8, 16, 64]
    ab = np.array([rng.uniform(-5, 5) for _ in range(6000)]).reshape(1000, 2, 3)
    a, b = ab[:, 0], ab[:, 1]
    linf = Metric.linf().rowwise(a, b)
    l1 = Metric.l1().rowwise(a, b)
    prev = l1
    for p in ps:
        d = Metric.lp(p).rowwise(a, b)
        assert ((linf - 1e-12 <= d) & (d <= l1 + 1e-12)).all()
        assert (d <= prev + 1e-12).all()      # non-increasing in p
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


def test_membership_restriction_needs_a_part():
    # an empty membership left sample_points nothing to choose from
    for mem in (IntervalUnion.empty(), IntervalUnion.of([Interval(1, 0)])):
        with pytest.raises(ValueError, match="at least one part"):
            Space.continuum(1, Metric.l1(), mem)


@pytest.mark.parametrize("parts", [
    (ke.Interval.point(-2), ke.Interval(20, 30)),
    (ke.Interval(-15, -12, lo_open=True, hi_open=True),),
    (ke.Interval(Fraction(41, 4), math.inf, lo_open=True),),
    (ke.Interval(-math.inf, -10), ke.Interval.point(10)),
    (ke.Interval.point(-2), ke.Interval.point(-1), ke.Interval(0, math.inf)),
    (ke.Interval(-12, -9, hi_open=True), ke.Interval(9.5, 10.5, lo_open=True)),
], ids=["beyond", "open-beyond", "ray-beyond", "ray-to-window-end", "halfline", "across-ends"])
def test_sample_points_are_members_of_a_mixed_space(parts):
    # an interval outside (-10, 10) is sampled in itself, not in the window
    sp = Space.continuum(1, Metric.l1(), ke.IntervalUnion.of(parts))
    for seed in (0, 3, 7):
        pts = ke.sample_points(sp, 300, seed=seed)
        assert all(sp.contains(p) for p in pts), [p for p in pts if not sp.contains(p)][:3]


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
    """Deliberately broken metric used to exercise violation reporting: on
    the line, d(a, b) is 1.5 times too long when a > b."""

    def rowwise(self, a, b):
        d = super().rowwise(a, b)
        return np.where(a[..., 0] > b[..., 0], d * 1.5, d)


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
