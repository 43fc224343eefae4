import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from scipy.spatial import cKDTree

from kellipse import (KEllipse, Metric, SolverError, Space, TraceConfig,
                      export_csv, export_svg, fixture_scene, min_radius,
                      parse_csv_points, sample_3d, trace_2d, tracer)
from kellipse.metric import TAU_EQ, fmt_num
from oracles import arc_length


def l1_tri_ellipse(r=4):
    sp = Space.continuum(2, Metric.l1())
    return KEllipse(sp, ((1, 0), (0, 0), (0, 1)), r)


def residuals(e, pts):
    return np.abs(e.field.values(np.asarray(pts, dtype=float)) - float(e.r))


def test_trace_config_validation():
    with pytest.raises(ValueError):
        TraceConfig(bbox=((0, 1), (0, 1)), resolution=4)
    with pytest.raises(ValueError):
        TraceConfig(bbox=((0, 1), (0, 1)), resolution=5000)
    with pytest.raises(ValueError):
        TraceConfig(bbox=((0, 0), (0, 1)))
    with pytest.raises(ValueError):
        TraceConfig(bbox=((0, 1), (0, 1)), refine_tol=0)


@pytest.mark.parametrize("refine_tol", [float("nan"), float("inf"), -float("inf")])
def test_trace_config_refuses_a_tolerance_that_is_not_finite(refine_tol):
    # a NaN tolerance would run every bisection to its budget and then pass
    # all vertices, as (residual > nan) is never true
    with pytest.raises(ValueError, match="refine_tol"):
        TraceConfig(bbox=((0, 1), (0, 1)), refine_tol=refine_tol)


@pytest.mark.parametrize("resolution", [16.5, 16.0, "16"])
def test_trace_config_refuses_a_resolution_that_is_not_an_integer(resolution):
    with pytest.raises(ValueError, match="resolution"):
        TraceConfig(bbox=((0, 1), (0, 1)), resolution=resolution)
    assert len(TraceConfig(bbox=((0, 1), (0, 1)), resolution=np.int64(16)).axes()[0]) == 17


def scalar_dedupe(pts):
    """Each point is kept when it is more than TAU_EQ from the last point kept."""
    keep = [0]
    for i in range(1, len(pts)):
        if np.abs(pts[i] - pts[keep[-1]]).max() > TAU_EQ:
            keep.append(i)
    return pts[keep]


def test_dedupe_compares_with_the_last_kept_point():
    # three points 0.6 * TAU_EQ apart: the second is dropped, and the third,
    # 1.2 * TAU_EQ from the first, is kept, though it is near its predecessor
    step = 0.6 * TAU_EQ
    pts = np.array([[1.0, 2.0], [1.0 + step, 2.0], [1.0 + 2 * step, 2.0], [3.0, 2.0]])
    assert np.array_equal(tracer._dedupe(pts), pts[[0, 2, 3]])
    # the third point is far from its dropped predecessor but near the first
    pts = np.array([[0.0, 0.0], [0.9 * TAU_EQ, 0.0], [-0.2 * TAU_EQ, 0.0], [1.0, 1.0]])
    assert np.array_equal(tracer._dedupe(pts), pts[[0, 3]])


def test_dedupe_matches_the_scalar_rule_on_clustered_chains():
    rng = np.random.default_rng(3)
    for _ in range(300):
        n = int(rng.integers(1, 12))
        # steps of a few TAU_EQ, many of them below it, along random directions
        steps = rng.choice([0.0, 0.3, 0.6, 0.9, 1.1, 2.0, 1e3], size=(n, 1)) * TAU_EQ
        pts = np.cumsum(steps * rng.choice([-1.0, 1.0], size=(n, 2)), axis=0)
        got = tracer._dedupe(pts)
        assert np.array_equal(got, scalar_dedupe(pts)), pts


def test_trace_l1_triangle_hits_derived_point():
    # on the ray y=0, x>1 the field is 3x, so the curve crosses at x = 4/3;
    # resolution 224 puts grid lines exactly on y=0
    e = l1_tri_ellipse()
    res = trace_2d(e, TraceConfig(bbox=((-3, 4), (-3, 4)), resolution=224, refine_tol=1e-9))
    assert len(res) == 1 and res[0].closed
    v = res.all_vertices()
    assert residuals(e, v).max() <= 1e-9
    gap = np.linalg.norm(v - np.array([4 / 3, 0.0]), axis=1).min()
    assert gap <= 1e-6


def test_trace_unit_circle():
    sp = Space.continuum(2, Metric.l2())
    e = KEllipse(sp, ((0, 0),), 1)
    res = trace_2d(e, TraceConfig(bbox=((-2, 2), (-2, 2)), resolution=128, refine_tol=1e-9))
    v = res.all_vertices()
    assert len(res) == 1 and res[0].closed
    assert np.abs(v[:, 0] ** 2 + v[:, 1] ** 2 - 1).max() <= 2e-9


def test_trace_empty_below_minimum():
    sp = Space.continuum(2, Metric.l2())
    e = KEllipse(sp, ((2, 0), (0, 0), (0, 3), (-2, 0)), 1)
    cfg = TraceConfig(bbox=((-4, 4), (-4, 4)), resolution=64)
    # grid oracle: the field minimum on the bbox is far above r=1
    xs = np.linspace(-4, 4, 129)
    pts = np.column_stack([g.ravel() for g in np.meshgrid(xs, xs, indexing="ij")])
    assert e.field.values(pts).min() > 1
    assert len(trace_2d(e, cfg)) == 0


def test_trace_boundary_warning():
    e = l1_tri_ellipse()
    res = trace_2d(e, TraceConfig(bbox=((-1, 1), (-1, 1)), resolution=32))
    assert res.boundary_warning


def test_trace_requires_2d_and_positive_radius(line):
    with pytest.raises(ValueError):
        trace_2d(KEllipse(line, ((0,),), 1), TraceConfig(bbox=((-1, 1), (-1, 1))))
    # r = 0 lies below the minimum radius, as in 3D: an empty trace, not an error
    e = l1_tri_ellipse(4)
    res = trace_2d(KEllipse(e.space, e.foci, 0), TraceConfig(bbox=((-1, 1), (-1, 1))))
    assert len(res) == 0 and not res.boundary_warning


def test_trace_vertices_meet_residual_bound_all_metrics():
    for metric in (Metric.l1(), Metric.l2(), Metric.linf(), Metric.lp(4)):
        sp = Space.continuum(2, metric)
        e = KEllipse(sp, ((1, 0), (0, 0), (0, 1)), 4)
        res = trace_2d(e, TraceConfig(bbox=((-3, 4), (-3, 4)), resolution=96, refine_tol=1e-8))
        v = res.all_vertices()
        assert len(v) > 0
        assert residuals(e, v).max() <= 1e-8


def test_trace_consecutive_vertices_distinct():
    e = l1_tri_ellipse()
    res = trace_2d(e, TraceConfig(bbox=((-3, 4), (-3, 4)), resolution=64))
    for pl in res:
        steps = np.abs(np.diff(pl.vertices, axis=0)).max(axis=1)
        assert (steps > 1e-9).all()


def test_trace_output_is_convex_loop():
    # Minkowski-metric level curves bound convex regions: every vertex lies
    # within 2 cells of the hull boundary of all vertices
    from scipy.spatial import ConvexHull

    for metric in (Metric.l1(), Metric.l2()):
        sp = Space.continuum(2, metric)
        e = KEllipse(sp, ((1, 0), (0, 0), (0, 1)), 4)
        res = trace_2d(e, TraceConfig(bbox=((-3, 4), (-3, 4)), resolution=128))
        v = res.all_vertices()
        hull = ConvexHull(v)
        cell = max(res.cell_size)
        # distance from each vertex to the hull boundary (max over facet planes)
        dist_inside = (hull.equations[:, :2] @ v.T + hull.equations[:, 2:3]).max(axis=0)
        assert (np.abs(dist_inside) <= 2 * cell).all()


def test_trace_swap_symmetry_hausdorff():
    e = l1_tri_ellipse()      # foci symmetric under (x, y) -> (y, x)
    res = trace_2d(e, TraceConfig(bbox=((-3, 4), (-3, 4)), resolution=128))
    v = res.all_vertices()
    swapped = v[:, ::-1]
    d1 = cKDTree(v).query(swapped)[0].max()
    d2 = cKDTree(swapped).query(v)[0].max()
    assert max(d1, d2) <= 2 * max(res.cell_size)


@pytest.mark.parametrize("metric,foci", [
    (Metric.l1(), ((1, 0), (0, 0), (0, 1))),
    (Metric.l2(), ((3, 0), (0, 0), (0, 4))),
    (Metric.linf(), ((1, 0), (0, 0), (0, 1))),
], ids=["l1", "l2", "linf"])
def test_trace_arc_length_converges(metric, foci):
    sp = Space.continuum(2, metric)
    e = KEllipse(sp, foci, 4 if metric.kind != "l2" else 9)
    bbox = ((-3, 4), (-3, 4)) if metric.kind != "l2" else ((-3, 6), (-3, 7))
    lengths = {}
    for resolution in (256, 512):
        res = trace_2d(e, TraceConfig(bbox=bbox, resolution=resolution))
        lengths[resolution] = sum(arc_length(pl) for pl in res)
    assert abs(lengths[512] - lengths[256]) / lengths[256] < 0.02


def test_sample_3d_residuals():
    sp = Space.continuum(3, Metric.l2())
    e = KEllipse(sp, ((5, 0, 0), (0, 2, 0), (0, 0, 1)), 12)
    cloud = sample_3d(e, TraceConfig(bbox=((-4, 7), (-5, 6), (-5, 5)), resolution=48,
                                     refine_tol=1e-9))
    assert len(cloud) > 100
    assert residuals(e, cloud.points).max() <= 1e-9


def test_sample_3d_lp4_nonempty():
    sp = Space.continuum(3, Metric.lp(4))
    e = KEllipse(sp, ((-1, 0, 0), (1, 0, 0), (0, 1, 0)), 5)
    cloud = sample_3d(e, TraceConfig(bbox=((-3, 3), (-3, 3), (-3, 3)), resolution=32,
                                     refine_tol=1e-8))
    assert len(cloud) > 0
    assert residuals(e, cloud.points).max() <= 1e-8


def test_sample_3d_empty_below_minimum():
    sp = Space.continuum(3, Metric.l2())
    e = KEllipse(sp, ((5, 0, 0), (0, 2, 0), (0, 0, 1)), 2)
    cloud = sample_3d(e, TraceConfig(bbox=((-4, 7), (-5, 6), (-5, 5)), resolution=24))
    assert len(cloud) == 0


def full_grid(f, r, axes):
    """field - r at every grid node, through SumField.values."""
    mesh = np.meshgrid(*axes, indexing="ij")
    return (f.values(np.column_stack([g.ravel() for g in mesh])) - r).reshape(mesh[0].shape)


def tile_index(nodes):
    """Index arrays that pick a tile chunk's (m, S + 1, ..., S + 1) nodes out of the grid."""
    d = len(nodes)
    return tuple(nd.reshape((len(nd),) + tuple(-1 if b == a else 1 for b in range(d)))
                 for a, nd in enumerate(nodes))


def full_tiles(f, r, axes):
    """Brute-force stand-in for tracer._tiles: keeps every sub-block, in one chunk."""
    grid = full_grid(f, r, axes)
    sub = tracer.BLOCK // 2
    blocks = np.indices([len(range(0, n - 1, sub)) for n in grid.shape]).reshape(grid.ndim, -1).T
    nodes = [np.minimum(sub * b[:, None] + np.arange(sub + 1), n - 1) for b, n in zip(blocks.T, grid.shape)]
    yield nodes, grid[tile_index(nodes)]


def seeded_ellipse(dim, metric, seed, k=5):
    rng = np.random.default_rng(seed)
    foci = [tuple(map(float, p)) for p in rng.uniform(-3, 3, size=(k, dim))]
    e = KEllipse(Space.continuum(dim, metric), tuple(foci), 0)
    centroid = np.mean(foci, axis=0)
    r = 1.5 * float(e.field.values(centroid[None, :])[0])
    # every point of the level set lies within (r + f(centroid)) / k of the
    # centroid in the metric, so within that distance on every axis
    reach = 1.1 * (r + r / 1.5) / k
    return KEllipse(e.space, e.foci, r), tuple((c - reach, c + reach) for c in centroid)


def shipped_case(name, resolution=None):
    scene = fixture_scene(name)
    cfg = scene.trace
    if resolution is not None:
        cfg = TraceConfig(bbox=cfg.bbox, resolution=resolution, refine_tol=cfg.refine_tol)
    return scene.ellipse, cfg


def near_minimum_case():
    # r just above the minimum radius: the curve is a few cells across and
    # sits inside one block, so nearly every block is pruned
    sp = Space.continuum(2, Metric.l2())
    e = KEllipse(sp, ((3, 0), (0, 0), (0, 4)), 1)
    r_star, argmin = min_radius(e.field)
    # the argmin is the centre of block 7 on each axis: 60 cells of 1/32 from lo
    bbox = tuple((c - 1.875, c + 2.125) for c in map(float, argmin))
    return KEllipse(sp, e.foci, float(r_star) + 0.001), TraceConfig(bbox=bbox, resolution=128)


def equivalence_cases():
    cases = {}
    for name in ("tri_l1", "tri_l2", "tri_linf", "quad_l2"):
        cases[name] = lambda name=name: shipped_case(name)
    # the shipped 3D scenes' foci, radius and bbox on a coarser grid
    for name in ("tri3d_l2", "tri3d_lp4"):
        cases[name + "@100"] = lambda name=name: shipped_case(name, 100)
    for metric in (Metric.l1(), Metric.l2(), Metric.linf(), Metric.lp(3)):
        for dim, resolution in ((2, 128), (3, 40)):
            def case(metric=metric, dim=dim, resolution=resolution):
                e, bbox = seeded_ellipse(dim, metric, seed=17 + dim)
                return e, TraceConfig(bbox=bbox, resolution=resolution)
            cases[f"seeded-{metric.label}-{dim}d"] = case
    cases["near-minimum"] = near_minimum_case
    cases["cut-by-bbox"] = lambda: (l1_tri_ellipse(),
                                    TraceConfig(bbox=((-1, 1), (-1, 1)), resolution=40))
    cases["resolution-61"] = lambda: shipped_case("tri_l2", 61)
    cases["resolution-45-3d"] = lambda: shipped_case("tri3d_lp4", 45)
    return cases


EQUIVALENCE_CASES = equivalence_cases()


@pytest.mark.parametrize("case", sorted(EQUIVALENCE_CASES))
def test_pruned_grid_matches_full_grid(case, monkeypatch):
    e, cfg = EQUIVALENCE_CASES[case]()
    f, r, axes = e.field, float(e.r), cfg.axes()
    shape = tuple(len(a) for a in axes)
    chunks = list(tracer._tiles(f, r, axes))
    full = full_grid(f, r, axes)
    sub = tracer.BLOCK // 2
    # each tile is a distinct sub-block, its short axes repeating the last node,
    # and holds the brute-force grid's values at its nodes
    firsts = np.concatenate([np.column_stack([nd[:, 0] for nd in nodes]) for nodes, _ in chunks])
    assert (firsts % sub == 0).all() and len({tuple(b) for b in firsts}) == len(firsts)
    for nodes, values in chunks:
        for nd, n in zip(nodes, shape):
            assert np.array_equal(nd, np.minimum(nd[:, :1] + np.arange(sub + 1), n - 1))
        assert np.array_equal(values, full[tile_index(nodes)])
    neg = full < 0
    crossing_nodes = []
    for axis in range(neg.ndim):
        lo = tuple(slice(None, -1) if a == axis else slice(None) for a in range(neg.ndim))
        hi = tuple(slice(1, None) if a == axis else slice(None) for a in range(neg.ndim))
        cross = np.nonzero(neg[lo] != neg[hi])
        stepped = tuple(c + (a == axis) for a, c in enumerate(cross))
        lower, upper = np.ravel_multi_index(cross, shape), np.ravel_multi_index(stepped, shape)
        got, f0, f1 = tracer._merge([tracer._edges(nodes, values, shape, axis) for nodes, values in chunks])
        assert np.array_equal(got, lower)
        assert np.array_equal(f0, full.ravel()[lower]) and np.array_equal(f1, full.ravel()[upper])
        crossing_nodes.append(np.concatenate([lower, upper]))
    if case == "near-minimum":
        blocks = np.unravel_index(np.concatenate(crossing_nodes), shape)
        assert {tuple(b) for b in np.column_stack(blocks) // tracer.BLOCK} == {(7, 7)}

    run = trace_2d if neg.ndim == 2 else sample_3d
    got = run(e, cfg)
    monkeypatch.setattr(tracer, "_tiles", full_tiles)
    want = run(e, cfg)
    assert got.boundary_warning == want.boundary_warning
    if neg.ndim == 2:
        assert len(got) == len(want) > 0
        for a, b in zip(got, want):
            assert a.closed == b.closed and np.array_equal(a.vertices, b.vertices)
    else:
        assert len(want) > 0 and np.array_equal(got.points, want.points)
    assert got.boundary_warning == (case == "cut-by-bbox")


@pytest.mark.parametrize("resolution", [21, 22, 23])
def test_trace_2d_cut_by_a_short_last_sub_block(resolution):
    # the bbox cuts the circle on its last node plane along x, which the
    # short last sub-block repeats: the cells on the repeated node have no
    # extent, and each crossing edge of the grid gives one vertex
    e = KEllipse(Space.continuum(2, Metric.l2()), ((0, 0),), 2)
    cfg = TraceConfig(bbox=((-1, 1.5), (-3, 3)), resolution=resolution)
    assert resolution % (tracer.BLOCK // 2)
    res = trace_2d(e, cfg)
    mesh = np.meshgrid(*cfg.axes(), indexing="ij")
    neg = (e.field.values(np.column_stack([g.ravel() for g in mesh])) < 2).reshape(mesh[0].shape)
    crossing_edges = (neg[1:] != neg[:-1]).sum() + (neg[:, 1:] != neg[:, :-1]).sum()
    assert res.boundary_warning and [p.closed for p in res] == [False, False]
    assert len(res.all_vertices()) == crossing_edges
    assert residuals(e, res.all_vertices()).max() <= cfg.refine_tol


def test_grid_node_bound():
    with pytest.raises(ValueError, match="MAX_GRID_NODES"):
        TraceConfig(bbox=((0, 1),) * 3, resolution=tracer.MAX_RESOLUTION)
    TraceConfig(bbox=((0, 1),) * 2, resolution=tracer.MAX_RESOLUTION)
    for name in ("tri3d_l2", "tri3d_lp4"):
        assert fixture_scene(name).trace.resolution == 256


def test_sample_3d_peak_memory_on_shipped_scene():
    # bisection sets the peak, about 15.9 MiB; the grid phase holds only the
    # tiles of kept sub-blocks and peaks at 9.1 MiB, where one bool per node
    # of the 257^3 grid would alone take 16.2 MiB
    scene = fixture_scene("tri3d_l2")
    tracemalloc.start()
    try:
        cloud = sample_3d(scene.ellipse, scene.trace)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(cloud) > 100_000 and peak < 30 * 2**20


def test_bisection_budget_exhausted_raises():
    # near x = 1000 a float step moves the field by about 1e-13, so no edge
    # can get within 1e-300 of the level
    sp = Space.continuum(2, Metric.l2())
    e = KEllipse(sp, ((1001, 1000), (1000, 1000), (1000, 1001)), 4)
    cfg = TraceConfig(bbox=((997, 1004), (997, 1004)), resolution=16, refine_tol=1e-300)
    with pytest.raises(SolverError, match=r"24 of 24 crossing edge\(s\) unconverged after 60"):
        trace_2d(e, cfg)


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------

def test_export_svg_has_paths_and_foci():
    e = l1_tri_ellipse()
    res = trace_2d(e, TraceConfig(bbox=((-3, 4), (-3, 4)), resolution=64))
    svg = export_svg(res.polylines, foci=e.foci, bbox=((-3, 4), (-3, 4)))
    assert svg.startswith("<?xml")
    assert svg.count("<path") == len(res.polylines)
    assert svg.count("<circle") == 3
    assert "</svg>" in svg


def test_export_svg_empty_still_draws_axes_and_foci():
    svg = export_svg([], foci=((1, 0), (0, 1)), bbox=((-2, 2), (-2, 2)))
    assert "<path" not in svg
    assert svg.count("<circle") == 2
    assert svg.count("<line") == 2


def test_export_svg_draws_the_xy_projection_of_points():
    pts = np.array([[0.5, 0.5, 9.0], [-1.0, 1.5, -9.0], [1.0, -1.0, 0.0]])
    svg = export_svg([], ((1, 0, 0), (0, 1, 0)), ((-2, 2), (-2, 2), (-10, 10)), points=pts)
    assert svg.count("<circle") == 2 + 3
    # the projection drops z: the same dots as from the (x, y) columns alone
    assert svg == export_svg([], ((1, 0), (0, 1)), ((-2, 2), (-2, 2)), points=pts[:, :2])


@pytest.mark.parametrize("bbox", [((0, 0), (0, 1)), ((0, 1), (2, 1)), ((0, float("nan")), (0, 1))])
def test_export_svg_rejects_an_empty_bbox(bbox):
    with pytest.raises(ValueError, match="no extent"):
        export_svg([], (), bbox)


def test_csv_round_trip_floats():
    e = l1_tri_ellipse()
    res = trace_2d(e, TraceConfig(bbox=((-3, 4), (-3, 4)), resolution=32))
    v = res.all_vertices()
    text = export_csv(v)
    # the float64-array fast path prints what the per-value path prints
    assert text == export_csv([tuple(map(float, p)) for p in v])
    back = parse_csv_points(text)
    assert len(back) == len(v)
    for row, orig in zip(back, v):
        assert abs(row[0] - orig[0]) <= 1e-12 and abs(row[1] - orig[1]) <= 1e-12


def test_csv_round_trip_exact_values():
    from fractions import Fraction

    pts = [(Fraction(1, 3), 2), (Fraction(-5, 7), Fraction(0))]
    text = export_csv(pts)
    assert text.splitlines()[0] == "x,y"
    assert "1/3" in text
    back = parse_csv_points(text)
    assert back[0] == (Fraction(1, 3), 2)
    assert back[1] == (Fraction(-5, 7), 0)


def test_csv_header_width_follows_the_array():
    # an empty 3D cloud (r below the minimum radius) keeps its 3D header
    sp = Space.continuum(3, Metric.l2())
    e = KEllipse(sp, ((5, 0, 0), (0, 2, 0), (0, 0, 1)), 2)
    empty = sample_3d(e, TraceConfig(bbox=((-4, 7), (-5, 6), (-5, 5)), resolution=8)).points
    assert export_csv(empty) == "x,y,z\n"
    assert export_csv(np.zeros((0, 2))) == "x,y\n"
    assert export_csv(np.zeros((0, 3), dtype=int)) == "x,y,z\n"
    assert export_csv(np.array([[1, -2, 3]])) == "x,y,z\n1,-2,3\n"
    assert export_csv(np.array([[0.5, -0.0, 1e-300]])) == "x,y,z\n0.5,-0.0,1e-300\n"


def test_trace_files_are_written_without_the_whole_text(tmp_path):
    # the CLI writes a cloud's SVG and CSV piece by piece: the text is never
    # held whole, nor encoded whole, so the traced peak stays a small share
    # of the file (the SVG also holds the dots' pixel coordinates, twice while
    # np.column_stack builds them), and the file is the exported string
    from kellipse.cli import _write

    pts = np.random.default_rng(5).normal(size=(100_000, 3))
    bbox = ((-4, 4), (-4, 4))
    for path, parts, text, arrays in (
            (tmp_path / "c.csv", tracer._csv_parts(pts), export_csv(pts), 0),
            (tmp_path / "c.svg", tracer._svg_parts([], ((0, 0),), bbox, pts), export_svg([], ((0, 0),), bbox, pts),
             2 * pts[:, :2].nbytes)):
        tracemalloc.start()
        try:
            _write(path, parts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = path.stat().st_size
        assert path.read_text(encoding="utf-8") == text and size > 4 * 2**20
        assert peak < arrays + size / 8


@pytest.mark.parametrize("points", (np.zeros((1, 4)), [(1, 2, 3, 4)]), ids=("array", "rows"))
def test_csv_refuses_more_than_three_columns(points):
    with pytest.raises(ValueError, match="got 4"):
        export_csv(points)


# the float table path of the CSV export formats each distinct value of a
# chunk once (tracer._reprs); its text must be the former one %r per cell
def former_csv(points) -> str:
    dim = points.shape[1]
    row = ",".join(["%r"] * dim) + "\n"
    return ",".join("xyz"[:dim]) + "\n" + "".join(row % tuple(p) for p in points.tolist())


def grid_cloud(n, rng, dim=3, nodes=257):
    """n rows shaped like a traced cloud: dim - 1 grid-valued columns and one distinct column."""
    grid = np.linspace(-4, 4, nodes)
    return np.column_stack([grid[rng.integers(0, nodes, n)] for _ in range(dim - 1)] + [rng.normal(size=n)])


def test_csv_keeps_negative_zero_beside_zero_in_one_chunk():
    pts = np.array([[0.0, -0.0, 0.0], [-0.0, 0.0, -0.0]] * 50)
    assert all(isinstance(c, str) for c in tracer._reprs(pts))
    assert export_csv(pts) == former_csv(pts)
    assert export_csv(pts).splitlines()[1:3] == ["0.0,-0.0,0.0", "-0.0,0.0,-0.0"]


def test_csv_prints_subnormals_infinities_and_nans_as_before():
    special = [5e-324, -5e-324, 2.2250738585072014e-308, -1e-310, math.inf, -math.inf, math.nan,
               -math.nan, float.fromhex("0x1.fffffffffffffp+1023"), 0.1]
    pts = np.array(special * 30).reshape(-1, 3)
    assert all(isinstance(c, str) for c in tracer._reprs(pts))
    assert export_csv(pts) == former_csv(pts)


@pytest.mark.parametrize("dim", (1, 2, 3))
@pytest.mark.parametrize("extra", (-1, 0, 1, "3n+5"))
def test_csv_rows_across_chunk_boundaries(dim, extra):
    n = 3 * tracer.FORMAT_ROWS + 5 if extra == "3n+5" else tracer.FORMAT_ROWS + extra
    pts = np.round(grid_cloud(n, np.random.default_rng(dim), dim, nodes=65), 2)
    assert all(isinstance(c, str) for c in tracer._reprs(pts[:tracer.FORMAT_ROWS]))
    parts = list(tracer._csv_parts(pts))
    assert len(parts) == 1 + -(-n // tracer.FORMAT_ROWS)
    assert "".join(parts) == former_csv(pts)


def test_csv_chunks_of_equal_distinct_and_half_distinct_values():
    n = tracer.FORMAT_ROWS
    cells = n * 2
    same = np.full((n, 2), 1.25)
    distinct = np.arange(cells, dtype=float).reshape(n, 2) / 7
    # exactly half of the cells distinct, the most that still takes the strings
    half = np.repeat(np.arange(cells // 2) / 7, 2).reshape(n, 2)
    over = half.copy()
    over[0, 0] = 0.5
    for pts, strings in ((same, True), (half, True), (over, False), (distinct, False)):
        assert all(isinstance(c, str) == strings for c in tracer._reprs(pts))
        assert export_csv(pts) == former_csv(pts)


def test_csv_of_fortran_order_and_strided_arrays():
    base = grid_cloud(2 * tracer.FORMAT_ROWS + 3, np.random.default_rng(9), 4, nodes=33)
    for pts in (np.asfortranarray(base[:, :3]), base[::2, ::2], base[::-3, 1:]):
        assert not pts.flags.c_contiguous
        assert export_csv(pts) == former_csv(np.ascontiguousarray(pts))


def test_csv_round_trips_a_traced_cloud_bit_for_bit():
    sp = Space.continuum(3, Metric.l2())
    e = KEllipse(sp, ((5, 0, 0), (0, 2, 0), (0, 0, 1)), 12)
    pts = sample_3d(e, TraceConfig(bbox=((-8, 8), (-8, 8), (-8, 8)), resolution=32)).points
    pts = np.vstack([pts, -pts])        # the grid has 0.0, so the mirror has -0.0
    zero = pts == 0
    assert np.signbit(pts[zero]).any() and not np.signbit(pts[zero]).all()
    text = export_csv(pts)
    assert text == former_csv(pts)
    back = np.array(parse_csv_points(text), dtype=float)
    assert back.view(np.int64).tolist() == pts.view(np.int64).tolist()


def test_csv_of_a_cloud_holds_one_chunk_of_strings(tmp_path):
    # a cloud's cells are strings per distinct value of a chunk; the traced
    # peak of writing it does not grow with the rows, as it would if the
    # strings of every row were kept
    from kellipse.cli import _write

    peaks = []
    for n in (100_000, 400_000):
        pts = grid_cloud(n, np.random.default_rng(n))
        assert all(isinstance(c, str) for c in tracer._reprs(pts[:tracer.FORMAT_ROWS]))
        tracemalloc.start()
        try:
            _write(tmp_path / "c.csv", tracer._csv_parts(pts))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.1 * peaks[0]


def test_csv_streams_exact_rows_a_chunk_at_a_time():
    n = tracer.FORMAT_ROWS + 1
    rows = [(Fraction(i, 3), i) for i in range(n)]
    parts = list(tracer._csv_parts(rows))
    assert len(parts) == 3
    assert "".join(parts) == "x,y\n" + "".join(f"{fmt_num(a)},{fmt_num(b)}\n" for a, b in rows)
