"""The tracer's kernels against the plainer versions they replaced, kept here
as oracles: the column-by-column norm against the last-axis reduction, the
one-coordinate bisection on gap columns against full-vector bisection
through SumField.values and against its masked-copy form in `oracles`, the
norm with one column carried against the whole norm, the grid's per-axis gap tables against
SumField.values at the node coordinates, and the tile edge scan against a
whole-grid comparison."""
import itertools

import numpy as np
import pytest

from kellipse import KEllipse, Metric, SolverError, Space, fixture_scene, sample_3d, tracer
from kellipse.geometry import SumField
from kellipse.metric import Point
from oracles import bisect_edges

METRICS = [Metric.l1(), Metric.l2(), Metric.linf(), Metric.lp(3), Metric.lp(4)]


def last_axis_norm(metric, d):
    """The norm as one reduction over the last axis of the gaps `d`."""
    if metric.kind == "l1":
        return d.sum(axis=-1)
    if metric.kind == "linf":
        return d.max(axis=-1)
    if metric.kind == "l2":
        return np.sqrt((d * d).sum(axis=-1))
    m = d.max(axis=-1)
    out = np.zeros(m.shape)
    ok = m > 0
    scaled = d[ok] / m[ok][:, None]
    out[ok] = m[ok] * (scaled ** metric.p).sum(axis=-1) ** (1.0 / metric.p)
    return out


def full_vector_bisect(f, r, p0, p1, f0, f1, tol):
    """Bisection that halves whole points (every coordinate) on each round."""
    a, b = p0.astype(float).copy(), p1.astype(float).copy()
    fa = f0.copy()
    best = np.where((np.abs(f0) <= np.abs(f1))[:, None], a, b)
    best_res = np.minimum(np.abs(f0), np.abs(f1))
    for _ in range(tracer.BISECT_BUDGET):
        if (best_res <= tol).all():
            break
        mid = 0.5 * (a + b)
        fm = f.values(mid) - r
        better = np.abs(fm) < best_res
        best[better] = mid[better]
        best_res[better] = np.abs(fm)[better]
        same = (fm < 0) == (fa < 0)
        a[same] = mid[same]
        fa[same] = fm[same]
        b[~same] = mid[~same]
    unconverged = int((best_res > tol).sum())
    if unconverged:
        worst = int(np.argmax(best_res))
        raise SolverError(
            f"bisection left {unconverged} of {len(best_res)} crossing edge(s) unconverged "
            f"after {tracer.BISECT_BUDGET} halvings; worst residual {best_res[worst]:.3g} > {tol:g}",
            Point(best[worst].tolist()), float(best_res[worst]))
    return best


def gap_rows(rng, n, dim, foci):
    """Points at every scale, a few of them on a focus (all gaps zero)."""
    pts = rng.uniform(-10, 10, size=(n, dim)) * 10.0 ** rng.integers(-4, 4, size=(n, 1))
    pts[::17] = foci[rng.integers(len(foci), size=len(pts[::17]))]
    pts[5::23, 0] = foci[0][0]           # some gaps zero on one axis only
    return pts


@pytest.mark.parametrize("metric", METRICS, ids=lambda m: m.label)
@pytest.mark.parametrize("dim", [2, 3, 4])
def test_column_norm_is_bit_equal_to_last_axis_norm(metric, dim):
    rng = np.random.default_rng(100 + dim)
    foci = rng.uniform(-3, 3, size=(4, dim))
    pts = gap_rows(rng, 3000, dim, foci)
    # (N, d): one focus against many rows, as SumField.values asks
    for focus in foci:
        d = np.abs(pts - focus)
        want = last_axis_norm(metric, d)
        assert np.array_equal(metric._norm(d), want)
        assert np.array_equal(metric.distance_field(pts, tuple(focus)), want)
    # (n, m, d): the broadcast shape of pairwise
    a, b = pts[:60], np.vstack([foci, pts[100:140]])
    d = np.abs(a[:, None, :] - b[None, :, :])
    want = last_axis_norm(metric, d)
    assert (want == 0).any()
    assert np.array_equal(metric._norm(d), want)
    assert np.array_equal(metric.pairwise(a, b), want)
    assert np.array_equal(metric.rowwise(a[:, None, :], b[None, :, :]), want)


@pytest.mark.parametrize("metric", METRICS, ids=lambda m: m.label)
def test_single_gap_is_its_own_norm(metric):
    # squaring the gap under L2 would underflow 1e-200 to 0 and overflow
    # 3e200 to inf
    pts = np.array([[1e-200], [3e200], [-2.5]])
    with np.errstate(all="raise"):
        got = metric.distance_field(pts, (0.0,))
        assert np.array_equal(got, [1e-200, 3e200, 2.5])
        assert np.array_equal(metric.rowwise(pts, np.zeros((1, 1))), got)
        assert np.array_equal(metric.pairwise(pts, [[0.0]])[:, 0], got)
    assert [metric.distance((x,), (0.0,)) for x in pts[:, 0]] == got.tolist()


def crossing_edges(f, r, lo, hi, cell, n, rng):
    """Seeded axis-aligned edges of length `cell` whose ends straddle the level,
    grouped by axis as the tracer passes them."""
    dim = len(lo)
    p0 = rng.uniform(lo, hi, size=(n, dim))
    axis = rng.integers(dim, size=n)
    p1 = p0.copy()
    p1[np.arange(n), axis] += cell
    f0, f1 = f.values(p0) - r, f.values(p1) - r
    keep = np.flatnonzero((f0 < 0) != (f1 < 0))
    keep = keep[np.argsort(axis[keep], kind="stable")]
    return p0[keep], axis[keep], p1[keep], f0[keep], f1[keep]


@pytest.mark.parametrize("metric", METRICS[:4], ids=lambda m: m.label)
@pytest.mark.parametrize("dim", [2, 3])
def test_one_coordinate_bisection_equals_full_vector_bisection(metric, dim):
    rng = np.random.default_rng(7 * dim + len(metric.label))
    foci = tuple(map(tuple, rng.uniform(-3, 3, size=(5, dim))))
    f = SumField(Space.continuum(dim, metric), foci)
    r = 1.5 * float(f.values(np.mean(foci, axis=0)[None, :])[0])
    p0, axis, p1, f0, f1 = crossing_edges(f, r, [-7] * dim, [7] * dim, 0.3, 80000 * (dim - 1), rng)
    assert len(set(axis.tolist())) == dim and len(p0) > 300
    for tol in (1e-9, 1e-4):
        # one batch of every axis's edges
        want = full_vector_bisect(f, r, p0, p1, f0, f1, tol)
        got = tracer._bisect_edges(f, r, p0, axis, p1[np.arange(len(p1)), axis], f0, f1, tol)
        assert np.array_equal(got, want)
        # per-axis batches with one int axis, as sample_3d sends them
        for a in range(dim):
            sel = axis == a
            got = tracer._bisect_edges(f, r, p0[sel], a, p1[sel, a], f0[sel], f1[sel], tol)
            assert np.array_equal(got, want[sel])
    # inputs are left as they were
    assert np.array_equal(p0[np.arange(len(p0)), axis] + 0.3, p1[np.arange(len(p0)), axis])


def test_one_coordinate_bisection_raises_as_full_vector_bisection():
    # near x = 1000 no edge gets within 1e-300 of the level
    f = KEllipse(Space.continuum(2, Metric.l2()), ((1001, 1000), (1000, 1000), (1000, 1001)), 4).field
    rng = np.random.default_rng(3)
    p0, axis, p1, f0, f1 = crossing_edges(f, 4.0, [997, 997], [1004, 1004], 0.4, 400, rng)
    errors = []
    for run in (lambda: tracer._bisect_edges(f, 4.0, p0, axis, p1[np.arange(len(p1)), axis],
                                             f0, f1, 1e-300),
                lambda: full_vector_bisect(f, 4.0, p0, p1, f0, f1, 1e-300)):
        with pytest.raises(SolverError) as info:
            run()
        errors.append(info.value)
    assert str(errors[0]) == str(errors[1])
    assert errors[0].best_point == errors[1].best_point
    assert errors[0].best_value == errors[1].best_value
    assert f"{len(p0)} of {len(p0)} crossing edge(s)" in str(errors[0])


def bisect_unchanged(f, r, p0, axis, hi, f0, f1, tol):
    """_bisect_edges, checked to leave p0, hi, f0 and f1 as they were."""
    before = [x.copy() for x in (p0, hi, f0, f1)]
    got = tracer._bisect_edges(f, r, p0, axis, hi, f0, f1, tol)
    assert all(np.array_equal(x, y) for x, y in zip((p0, hi, f0, f1), before))
    return got


@pytest.mark.parametrize("metric", METRICS, ids=lambda m: m.label)
@pytest.mark.parametrize("k, dim", [(1, 2), (9, 2), (1, 3), (9, 3)])
def test_bisection_equals_full_vector_bisection_for_any_focus_count(metric, k, dim):
    # k = 9 is where summing the k norms as a pairwise reduction would round
    # otherwise; a one-edge batch is where numpy's own row sum would do that
    rng = np.random.default_rng(31 * k + 5 * dim + len(metric.label))
    foci = tuple(map(tuple, rng.uniform(-3, 3, size=(k, dim))))
    f = SumField(Space.continuum(dim, metric), foci)
    r = 2.5 if k == 1 else 1.2 * float(f.values(np.mean(foci, axis=0)[None, :])[0])
    p0, axis, p1, f0, f1 = crossing_edges(f, r, [-6] * dim, [6] * dim, 0.3, 40000 * (dim - 1), rng)
    hi = p1[np.arange(len(p1)), axis]
    assert len(set(axis.tolist())) == dim and len(p0) > 100
    # the whole batch, batches of one edge, and in 3D a mixed batch in which
    # axis 1 has no edge; the rounds end when every edge of a batch is done,
    # and at tol 1e-300 none is, so each batch raises after its last round
    batches = [slice(None)] + [slice(i, i + 1) for i in range(6)] + [axis != 1] * (dim == 3)
    for sel, tol in itertools.product(batches, (1e-9, 1e-300)):
        want = outcome(lambda: full_vector_bisect(f, r, p0[sel], p1[sel], f0[sel], f1[sel], tol))
        got = outcome(lambda: bisect_unchanged(f, r, p0[sel], axis[sel], hi[sel], f0[sel], f1[sel], tol))
        assert type(got) is type(want)
        assert np.array_equal(got, want) if isinstance(want, np.ndarray) else got == want


def outcome(run):
    """What a bisection gives: its points, or its SolverError's text, point and value."""
    try:
        return run()
    except SolverError as e:
        return str(e), e.best_point, e.best_value


def test_unconverged_bisection_names_the_worst_edge_in_the_callers_order():
    # each focus lies on the diagonal, so an edge and its mirror image in x = y
    # have the same residuals bit for bit: the worst point is the mirror image
    # of another, and which one is named depends on the order of the edges
    f = KEllipse(Space.continuum(2, Metric.l2()), ((1000, 1000), (1001, 1001)), 4).field
    rng = np.random.default_rng(5)
    p0, axis, p1, f0, f1 = crossing_edges(f, 4.0, [997, 997], [1004, 1004], 0.4, 600, rng)
    h = axis == 0
    p0, p1 = (np.vstack([x[h], x[h][:, ::-1]]) for x in (p0, p1))
    f0, f1 = np.tile(f0[h], 2), np.tile(f1[h], 2)
    axis = np.repeat([0, 1], h.sum())
    named = []
    # h-edges first, v-edges first
    for order in (np.arange(len(p0)), np.roll(np.arange(len(p0)), h.sum())):
        q0, ax, q1, g0, g1 = (x[order] for x in (p0, axis, p1, f0, f1))
        hi = q1[np.arange(len(q1)), ax]
        got = outcome(lambda: bisect_unchanged(f, 4.0, q0, ax, hi, g0, g1, 1e-300))
        want = outcome(lambda: full_vector_bisect(f, 4.0, q0, q1, g0, g1, 1e-300))
        assert isinstance(want, tuple) and got == want
        named.append(want[1])
    assert named[1] == named[0][::-1] != named[0]


def on_level_edges(f, r, on, cell):
    """Edges along each axis from and into the point `on`, where field - r is 0."""
    dim = len(on)
    at, steps = np.tile(on, (dim, 1)), cell * np.eye(dim)
    p0, p1 = np.vstack([at, at - steps]), np.vstack([at + steps, at])
    axis = np.tile(np.arange(dim), 2)
    return p0, axis, p1, f.values(p0) - r, f.values(p1) - r


@pytest.mark.parametrize("metric", METRICS, ids=lambda m: m.label)
@pytest.mark.parametrize("dim", [2, 3])
def test_bisection_equals_the_masked_copy_oracle(metric, dim):
    rng = np.random.default_rng(17 * dim + len(metric.label))
    foci = tuple(map(tuple, rng.uniform(-3, 3, size=(4, dim))))
    f = SumField(Space.continuum(dim, metric), foci)
    on = rng.uniform(-2, 2, size=dim)
    r = float(f.values(on[None, :])[0])
    edges = [crossing_edges(f, r, [-7] * dim, [7] * dim, 0.3, 20000 * (dim - 1), rng),
             on_level_edges(f, r, on, 0.3)]
    p0, axis, p1, f0, f1 = (np.concatenate(c) for c in zip(*edges))
    order = np.argsort(axis, kind="stable")
    p0, axis, p1, f0, f1 = (x[order] for x in (p0, axis, p1, f0, f1))
    hi = p1[np.arange(len(p1)), axis]
    assert (f0 == 0).sum() == dim and (f1 == 0).sum() == dim and len(set(axis.tolist())) == dim
    # 2D: one batch of both axes' edges; 3D: one batch per axis, as sample_3d
    # sends them, and one of every axis; at tol 1e-300 every batch runs out of halvings
    batches = [(slice(None), axis)] + [(axis == a, a) for a in range(dim)] * (dim == 3)
    for (sel, ax), tol in itertools.product(batches, (1e-9, 1e-300)):
        ax = ax if isinstance(ax, int) else ax[sel]
        args = (f, r, p0[sel], ax, hi[sel], f0[sel], f1[sel], tol)
        want, got = outcome(lambda: bisect_edges(*args)), outcome(lambda: bisect_unchanged(*args))
        assert type(got) is type(want)
        assert same_bits(got, want) if isinstance(want, np.ndarray) else got == want


def test_bisection_passes_over_a_nan_residual_as_the_oracle():
    # under Lp a gap that overflows to inf makes the field NaN (inf / inf): the
    # masked copy kept the best residual so far, and so the edge's error
    f = SumField(Space.continuum(2, Metric.lp(4)), ((1e308, 0.0), (0.0, 0.0)))
    p0 = np.array([[-1.5e308, 0.0], [-1.0, 0.5], [0.5, -1.0]])
    axis, hi = np.array([0, 0, 1]), np.array([-1e308, 2.0, 1.5])
    f0, f1 = np.array([-1.0, -1.0, -1.0]), np.array([1.0, 1.0, 1.0])
    for tol in (1e-9, 0.5):
        with np.errstate(over="ignore", invalid="ignore"):
            want = outcome(lambda: bisect_edges(f, 3.0, p0, axis, hi, f0, f1, tol))
            got = outcome(lambda: tracer._bisect_edges(f, 3.0, p0, axis, hi, f0, f1, tol))
        assert isinstance(want, tuple) and got == want


def same_bits(x, y) -> bool:
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


@pytest.mark.parametrize("metric", METRICS, ids=lambda m: m.label)
@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_column_norm_along_is_column_norm_with_one_column_put_in(metric, dim):
    rng = np.random.default_rng(23 * dim + len(metric.label))
    shape = (3, 400)

    def gaps():
        g = np.abs(rng.normal(size=shape)) * 10.0 ** rng.integers(-3, 4, size=shape)
        g[:, ::7] = 0.0
        return g
    g = [gaps() for _ in range(dim)]
    g[0][:, 1::5] = g[-1][:, 1::5]          # tied maxima on the fixed axes
    top = np.max(g, axis=0)
    for axis in range(dim):
        fixed = [gi.copy() for gi in g]
        norm = metric.column_norm_along(fixed, axis)
        tied = gaps()
        tied[:, 2::3] = top[:, 2::3]         # the moving gap ties the fixed maximum
        for col in (g[axis], gaps(), tied, np.zeros(shape)):
            want = metric.column_norm(g[:axis] + [col] + g[axis + 1:])
            assert same_bits(norm(col.copy()), want)
        assert all(same_bits(a, b) for a, b in zip(fixed, g))


def test_select_is_a_bit_for_bit_where():
    nan_payload = np.array([0x7FF8000000000123, -0x0007FFFFFFFFFEDD], dtype=np.int64).view(float)
    values = np.concatenate([[0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 2.2e-308,
                              1.0, -3.5, 1.7976931348623157e308], nan_payload])
    x, y = (v.ravel() for v in np.meshgrid(values, values))
    mask = np.random.default_rng(2).random(len(x)) < 0.5
    want = np.where(mask, x.view(np.int64), y.view(np.int64))
    assert same_bits(tracer._select(mask, x, y, out=np.empty_like(x)).view(np.int64), want)
    for alias in ("x", "y"):
        xx, yy = x.copy(), y.copy()
        out = tracer._select(mask, xx, yy, out=xx if alias == "x" else yy)
        assert same_bits(out.view(np.int64), want)
    # one row of x against the rows of y, as bisection selects its midpoints
    rows = np.array([y, y[::-1], x])
    masks = np.array([mask, ~mask, mask])
    want = np.where(masks, x.view(np.int64), rows.view(np.int64))
    assert same_bits(tracer._select(masks, x, rows, out=rows).view(np.int64), want)


def tile_index(nodes):
    """Index arrays that pick a tile chunk's (m, S + 1, ..., S + 1) nodes out of the grid."""
    d = len(nodes)
    return tuple(nd.reshape((len(nd),) + tuple(-1 if b == a else 1 for b in range(d)))
                 for a, nd in enumerate(nodes))


@pytest.mark.parametrize("chunk", [1, 50, 1 << 16])
@pytest.mark.parametrize("shape", [(9, 9, 9), (13, 10, 11), (17, 11)])
def test_slab_sign_changes_equal_whole_grid_comparison(shape, chunk, monkeypatch):
    # the tile scan, EVAL_CHUNK nodes at a time, on random values against
    # np.nonzero of the whole grid; 10, 11 and 13 nodes make a short last sub-block
    monkeypatch.setattr(tracer, "EVAL_CHUNK", chunk)
    rng = np.random.default_rng(len(shape) * 100 + chunk)
    values = rng.random(shape) - 0.3
    neg = values < 0
    axes = [np.linspace(0, 1, n) for n in shape]
    f = SumField(Space.continuum(len(shape), Metric.l2()), ((0.5,) * len(shape),))
    sub = tracer.BLOCK // 2
    # every tile, then a random subset: an edge counts when it lies in a kept tile
    for share in (1, 0.7):
        def crossable(f, r, axes, foci, size, blocks):
            return blocks[rng.random(len(blocks)) < share] if size == sub else blocks
        monkeypatch.setattr(tracer, "_crossable", crossable)
        chunks = [(nodes, values[tile_index(nodes)]) for nodes, _ in tracer._tiles(f, 1.0, axes)]
        assert max(v.size for _, v in chunks) <= max(chunk, (sub + 1) ** len(shape))
        for axis in range(len(shape)):
            lo = tuple(slice(None, -1) if a == axis else slice(None) for a in range(len(shape)))
            hi = tuple(slice(1, None) if a == axis else slice(None) for a in range(len(shape)))
            kept = np.zeros(shape, dtype=bool)          # the lower ends of the kept tiles' edges
            for nodes, _ in chunks:
                for t in range(len(nodes[0])):
                    kept[np.ix_(*[nd[t, :-1] if a == axis else nd[t] for a, nd in enumerate(nodes)])] = True
            cross = np.nonzero(kept[lo] & (neg[lo] != neg[hi]))
            stepped = tuple(c + (a == axis) for a, c in enumerate(cross))
            got, f0, f1 = tracer._merge([tracer._edges(nodes, v, shape, axis) for nodes, v in chunks])
            assert np.array_equal(got, np.ravel_multi_index(cross, shape))
            assert np.array_equal(f0, values[cross]) and np.array_equal(f1, values[stepped])
            assert kept[lo].all() or share < 1


@pytest.mark.parametrize("metric", METRICS, ids=lambda m: m.label)
@pytest.mark.parametrize("dim", [2, 3])
def test_grid_gap_tables_equal_field_values_at_nodes(metric, dim):
    rng = np.random.default_rng(11 * dim + len(metric.label))
    n = 41 if dim == 2 else 17
    axes = [np.linspace(-3.3 + 0.1 * a, 4.1 - 0.2 * a, n) for a in range(dim)]
    # the foci sit on grid nodes, so some nodes have all gaps zero to a focus
    at = rng.integers(n, size=(4, dim))
    foci = tuple(tuple(float(axes[a][i]) for a, i in enumerate(row)) for row in at)
    f = SumField(Space.continuum(dim, metric), foci)
    # r = f(first focus): the sub-block holding it is kept, so that node is evaluated
    on_level = float(f.values(np.array(foci[:1]))[0])
    for r in (on_level, 1.3 * float(f.values(np.array(foci[1:2]))[0])):
        pts = []
        for nodes, values in tracer._tiles(f, r, axes):
            tile = np.stack(np.broadcast_arrays(*[a[i] for a, i in zip(axes, tile_index(nodes))]), axis=-1)
            assert np.array_equal(values, f.values(tile.reshape(-1, dim)).reshape(values.shape) - r)
            pts.append(tile.reshape(-1, dim))
        pts = np.concatenate(pts)
        assert len(pts) > 100
        if r == on_level:
            assert (pts[:, None, :] == np.array(foci)[None, :, :]).all(axis=-1).any()


def values_tiles(f, r, axes):
    """Every sub-block's tile, through SumField.values."""
    shape = tuple(len(a) for a in axes)
    mesh = np.meshgrid(*axes, indexing="ij")
    grid = (f.values(np.column_stack([g.ravel() for g in mesh])) - r).reshape(shape)
    sub = tracer.BLOCK // 2
    blocks = np.indices([len(range(0, n - 1, sub)) for n in shape]).reshape(len(shape), -1).T
    nodes = [np.minimum(sub * b[:, None] + np.arange(sub + 1), n - 1) for b, n in zip(blocks.T, shape)]
    yield nodes, grid[tile_index(nodes)]


def values_bisect(f, r, p0, axis, hi, f0, f1, tol):
    """_bisect_edges' signature on full-vector bisection through SumField.values."""
    p1 = np.array(p0, dtype=float)
    p1[np.arange(len(p1)), axis] = hi
    return full_vector_bisect(f, r, np.asarray(p0, dtype=float), p1, f0, f1, tol)


def test_sample_3d_equals_field_values_kernels(monkeypatch):
    # tri3d_lp4 has no digest pinned (its powers may round differently on
    # another CPU), so its cloud is checked against SumField.values here
    scene = fixture_scene("tri3d_lp4")
    cfg = tracer.TraceConfig(bbox=scene.trace.bbox, resolution=100, refine_tol=scene.trace.refine_tol)
    got = sample_3d(scene.ellipse, cfg)
    monkeypatch.setattr(tracer, "_tiles", values_tiles)
    monkeypatch.setattr(tracer, "_bisect_edges", values_bisect)
    want = sample_3d(scene.ellipse, cfg)
    assert len(want) > 1000 and np.array_equal(got.points, want.points)
    assert got.boundary_warning == want.boundary_warning
