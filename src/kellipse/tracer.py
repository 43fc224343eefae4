"""Level-curve extraction for k-ellipses: 2D marching squares and 3D clouds.

The field is evaluated only where the level can come near: a Lipschitz test
on blocks of BLOCK cells, then on the sub-blocks of the kept blocks, leaves
one small dense tile of field - r per kept sub-block; no array has an entry
per grid node. In a tile a node's neighbour along an axis is the next entry,
so crossing edges are the neighbouring entries whose signs differ, merged
over the tiles in id order, and each is refined by bisection until the
residual |field - r| at the emitted vertex is within the configured
tolerance. The field is the `_focus_sum` of the metric's column norms of
each focus's gaps |x[i] - focus[i]|, bit-identical to SumField.values: grid
nodes look their gaps up in one table per focus and axis. Grid edges are
axis-aligned, so bisection moves one coordinate: it keeps the moving gaps
of the edges along an axis as one (k, m) block, rewritten each round, and
takes their norms from Metric.column_norm_along, which under L2 squares the
fixed axes once per call, not once per round. A round moves the bracket
ends and the best point, the rows of one array, by one bit select,
y ^ ((x ^ y) & m) on int64 views, not by masked copies, whose cost follows
the runs of a mask that is here close to random.
In 2D, each cell lies in one tile and takes its case from that tile's four
corners, and its segments from one table indexed by that case, between grid
edges numbered by integer ids; as an edge borders at most two cells, the
stitch walks each edge's two segments into polylines. 3D crossings are
emitted as an unstructured on-surface cloud.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .geometry import KEllipse, SolverError, SumField, _focus_sum
from .metric import PRUNE_SLACK, REFINE_TOL, TAU_EQ, Point, fmt_num

__all__ = [
    "TraceConfig",
    "Polyline",
    "TraceResult",
    "CloudResult",
    "trace_2d",
    "sample_3d",
    "export_svg",
    "export_csv",
    "parse_csv_points",
]

MAX_RESOLUTION = 4096
# Tracing holds the tiles of about EVAL_CHUNK nodes and their temporaries, and
# the crossing edges; no array has an entry per grid node. sample_3d of
# tri3d_l2 on a 321^3 grid evaluates 2.12M tile entries for its 33.1M nodes
# (a face node once per tile) and peaks 24.8 MiB above the interpreter by
# tracemalloc, while bisecting the crossing edges with their moving gaps, the
# fixed axes' squares and the norms of a round, each a (k, N) block; finding
# the edges peaks at 14.2 MiB. A 3D grid at MAX_RESOLUTION would have 6.9e10 nodes.
MAX_GRID_NODES = 1 << 25
BISECT_BUDGET = 60          # halvings per crossing edge
BLOCK = 8                   # cells per axis of a pruning block
EVAL_CHUNK = 1 << 16        # tile nodes per field evaluation and edge scan
# rows formatted per % operation by _format_rows; a CSV chunk takes the repr
# of each distinct value once, as strings, unless over half its cells differ
FORMAT_ROWS = 1 << 12


@dataclass(frozen=True)
class TraceConfig:
    """Grid and tolerance of a trace. Each ValueError it raises names first
    the field it refuses: bbox, resolution or refine_tol."""

    bbox: tuple                 # per-axis (lo, hi)
    resolution: int = 256       # cells per axis
    refine_tol: float = REFINE_TOL

    def __post_init__(self):
        if not (isinstance(self.resolution, numbers.Integral) and 8 <= self.resolution <= MAX_RESOLUTION):
            raise ValueError(f"resolution must be an integer in [8, {MAX_RESOLUTION}]")
        if not (0 < self.refine_tol < math.inf):
            raise ValueError("refine_tol must be finite and > 0")
        bbox = tuple((float(lo), float(hi)) for lo, hi in self.bbox)
        for lo, hi in bbox:
            if not math.isfinite(hi - lo):          # an end is not finite, or the width overflows
                raise ValueError(f"bbox axis ({lo}, {hi}) must have finite ends and width")
            if not (hi > lo):
                raise ValueError(f"bbox axis ({lo}, {hi}) has no extent")
        nodes = (self.resolution + 1) ** len(bbox)
        if nodes > MAX_GRID_NODES:
            raise ValueError(f"resolution {self.resolution} makes a grid of {nodes} nodes, "
                             f"above MAX_GRID_NODES = {MAX_GRID_NODES}")
        object.__setattr__(self, "bbox", bbox)

    def axes(self) -> list[np.ndarray]:
        return [np.linspace(lo, hi, self.resolution + 1) for lo, hi in self.bbox]

    @property
    def cell_size(self) -> tuple:
        return tuple((hi - lo) / self.resolution for lo, hi in self.bbox)


@dataclass(frozen=True)
class Polyline:
    vertices: np.ndarray        # (m, 2)
    closed: bool

    def __len__(self) -> int:
        return len(self.vertices)


@dataclass
class TraceResult:
    polylines: list
    boundary_warning: bool
    cell_size: tuple

    def __iter__(self):
        return iter(self.polylines)

    def __len__(self) -> int:
        return len(self.polylines)

    def __getitem__(self, i):
        return self.polylines[i]

    def all_vertices(self) -> np.ndarray:
        if not self.polylines:
            return np.zeros((0, 2))
        return np.vstack([p.vertices for p in self.polylines])


@dataclass
class CloudResult:
    points: np.ndarray          # (n, 3)
    boundary_warning: bool
    cell_size: tuple

    def __len__(self) -> int:
        return len(self.points)


def _tiles(f: SumField, r: float, axes):
    """field - r on the grid nodes that the level can come near, one dense tile per kept sub-block.

    The grid is cut into blocks of BLOCK cells per axis that share their face
    nodes, and each block into 2^d sub-blocks of S = BLOCK // 2 cells. The
    field is k-Lipschitz in its own metric, so a block whose centre c has
    |f(c) - r| > k * ||half-extent|| holds no crossing (Hart 1996, "Sphere
    Tracing"). Every block is tested, then the sub-blocks of the kept blocks
    (the octree of Wilhelms & Van Gelder 1992, cut to two levels). A grid
    edge or cell whose corner signs differ lies in a kept sub-block.

    Yields (nodes, values) for about EVAL_CHUNK nodes at a time: nodes[a] is
    (m, S + 1), the grid indices along axis a of m kept sub-blocks, and
    values (m, S + 1, ..., S + 1) is field - r at their nodes. A short last
    sub-block repeats its last node; a face node of two kept sub-blocks is
    evaluated in each.
    """
    shape = tuple(len(a) for a in axes)
    d = len(shape)
    foci = [np.asarray(c, dtype=float) for c in f.foci]     # as SumField.values has them
    kept = _crossable(f, r, axes, foci, BLOCK,
                      np.indices([len(range(0, n - 1, BLOCK)) for n in shape]).reshape(d, -1).T)
    sub = BLOCK // 2
    subs = [len(range(0, n - 1, sub)) for n in shape]
    kept = (2 * kept[:, None, :] + np.indices((2,) * d).reshape(d, -1).T).reshape(-1, d)
    kept = _crossable(f, r, axes, foci, sub, kept[(kept < subs).all(axis=1)])
    # a node's gap to a focus on each axis comes from that axis's table
    tables = [[np.abs(a - c[i]) for i, a in enumerate(axes)] for c in foci]
    per_chunk = max(1, EVAL_CHUNK // (sub + 1) ** d)
    for s in range(0, len(kept), per_chunk):
        blocks = kept[s:s + per_chunk]
        nodes = [np.minimum(sub * b[:, None] + np.arange(sub + 1), n - 1) for b, n in zip(blocks.T, shape)]
        tile = (len(blocks),) + (sub + 1,) * d
        # a gap on axis a varies along tile axis a + 1 only: a view of (m, S + 1) table entries
        along = [(len(blocks),) + tuple(sub + 1 if b == a else 1 for b in range(d)) for a in range(d)]
        norms = (f.space.metric.column_norm([np.broadcast_to(t[i].reshape(shape_a), tile)
                                             for t, i, shape_a in zip(table, nodes, along)])
                 for table in tables)
        yield nodes, _focus_sum(norms, tile) - r


def _crossable(f: SumField, r: float, axes, foci, size: int, blocks: np.ndarray) -> np.ndarray:
    """The rows of `blocks` (multi-indices of blocks of `size` cells per axis,
    clipped to the grid) whose centre value does not rule out a crossing."""
    centres, halves = [], []
    for a, b in zip(axes, blocks.T):
        lo, hi = a[size * b], a[np.minimum(size * b + size, len(a) - 1)]
        c = 0.5 * (lo + hi)
        centres.append(c)
        halves.append(np.maximum(c - lo, hi - c))
    fc = _focus_sum((f.space.metric.column_norm([np.abs(c - x[i]) for i, c in enumerate(centres)])
                     for x in foci), len(blocks)) - r
    radius = f.k * f.space.metric.column_norm(halves)
    return blocks[np.abs(fc) <= radius + PRUNE_SLACK * (1 + abs(r))]


def _bisect_edges(f: SumField, r: float, p0: np.ndarray, axis, hi: np.ndarray,
                  f0: np.ndarray, f1: np.ndarray, tol: float) -> np.ndarray:
    """Vectorized bisection on axis-aligned edges with a sign change; returns crossing points.

    Edge i runs from the point p0[i] to the point whose coordinate axis[i]
    (an int, or one per edge) is hi[i] instead; f0 and f1 are field - r at its
    ends. Only that coordinate is bisected, since 0.5 * (x + x) == x. The
    edges are grouped by axis in a stable order, one span per axis with
    edges (a 3D call has one, a 2D call up to two). A span keeps a (k, m)
    block of its moving gaps to the k foci and the norm along its axis from
    Metric.column_norm_along, made once: under L2 it holds the squares of
    the fixed gaps, which are then freed. Each round rewrites the blocks,
    takes each span's norms in one call, sets the spans' norms side by side
    and adds their rows by `_focus_sum`, as SumField.values does.
    Keeps the best (smallest-residual) point seen, so every returned point
    satisfies |field - r| <= tol; raises SolverError when some edge has not
    got there within BISECT_BUDGET halvings. The ends a and b and the best point are the rows of one
    (3, N) array, which a round updates by one _select from its midpoints,
    and the best residual by np.fmin and np.minimum: each equal bit for bit
    to a masked copy where the midpoint is kept, NaN residuals included.
    """
    pts = np.array(p0, dtype=float)
    n, d = pts.shape
    order = np.argsort(np.broadcast_to(axis, n), kind="stable")
    axes = np.broadcast_to(axis, n)[order]
    foci = np.array(f.foci, dtype=float)                    # as SumField.values has them
    spans = []                      # (edges, axis, its moving gaps, the norm along it)
    for i in range(d):
        s = slice(*np.searchsorted(axes, [i, i + 1]))
        if s.start < s.stop:
            g = [np.abs(pts[order[s], j] - foci[:, j, None]) for j in range(d)]     # (k, m) per axis
            spans.append((s, i, g[i], f.space.metric.column_norm_along(g, i)))
            del g                   # the L2 norm keeps the squares, not the fixed gaps
    a, b = pts[order, axes], np.asarray(hi, dtype=float)[order]
    f0, f1 = f0[order], f1[order]
    below = f0 < 0                  # f - r < 0 at each end a, which stays so as a moves
    ends = np.array([a, b, np.where(np.abs(f0) <= np.abs(f1), a, b)])
    a, b, best = ends
    best_res = np.minimum(np.abs(f0), np.abs(f1))
    takes = np.empty((3, n), dtype=bool)    # where a, b and best take the midpoint
    for _ in range(BISECT_BUDGET):
        if (best_res <= tol).all():
            break
        mid = 0.5 * (a + b)
        norms = []
        for s, i, g, norm in spans:
            np.subtract(mid[s], foci[:, i, None], out=g)
            np.abs(g, out=g)
            norms.append(norm(g))
        fm = _focus_sum(norms[0] if len(norms) == 1 else np.concatenate(norms, axis=1), n)
        fm -= r
        np.equal(fm < 0, below, out=takes[0])
        np.invert(takes[0], out=takes[1])
        res = np.abs(fm, out=fm)
        np.less(res, best_res, out=takes[2])
        _select(takes, mid, ends, out=ends)
        # res where res < best_res, else best_res: a NaN res is passed over and a NaN best_res kept
        np.minimum(best_res, np.fmin(res, best_res, out=res), out=best_res)
    pts[order, axes] = best
    unconverged = int((best_res > tol).sum())
    if unconverged:
        best_res = best_res[np.argsort(order)]              # in the caller's order
        worst = int(np.argmax(best_res))
        raise SolverError(
            f"bisection left {unconverged} of {len(best_res)} crossing edge(s) unconverged "
            f"after {BISECT_BUDGET} halvings; worst residual {best_res[worst]:.3g} > {tol:g}",
            Point(pts[worst].tolist()), float(best_res[worst]))
    return pts


def _select(mask: np.ndarray, x: np.ndarray, y: np.ndarray, out: np.ndarray) -> np.ndarray:
    """x where mask, else y, bit for bit, into out (which may be x or y);
    x may broadcast against y, as one row against many.

    The masked exchange y ^ ((x ^ y) & m) on int64 views, m all ones where
    mask (Warren, "Hacker's Delight", 2nd ed., ch. 2), with the AND taken as
    a product by the 0/1 mask, which stays one byte a value: three passes
    that do not branch on the mask, where a masked np.copyto walks a random
    mask run by run at several times the cost.
    """
    t = np.bitwise_xor(x.view(np.int64), y.view(np.int64))
    t *= mask
    np.bitwise_xor(y.view(np.int64), t, out=out.view(np.int64))
    return out


# marching-squares segment table (Lorensen & Cline 1987), indexed by case: case
# bits are c0..c3 (ccw from lower-left), entries are up to two segments between
# local edge slots 0=bottom 1=right 2=top 3=left, -1 for none. Rows 16 and 17
# are the saddles 5 and 10 with an inside centre, whose segments cut off the
# other corner pair. (Written flat: numpy's nested-list parsing would add about
# 0.1 MB to the resident size of every importing process.)
_SEGMENTS = np.array([
    -1, -1, -1, -1,  3, 0, -1, -1,  0, 1, -1, -1,  3, 1, -1, -1,      # cases 0-3
    1, 2, -1, -1,    3, 0, 1, 2,    0, 2, -1, -1,  3, 2, -1, -1,      # 4-7
    2, 3, -1, -1,    0, 2, -1, -1,  0, 1, 2, 3,    1, 2, -1, -1,      # 8-11
    3, 1, -1, -1,    0, 1, -1, -1,  3, 0, -1, -1,  -1, -1, -1, -1,    # 12-15
    0, 1, 2, 3,      3, 0, 1, 2,                                      # 16-17
]).reshape(18, 2, 2)


def trace_2d(e: KEllipse, cfg: TraceConfig) -> TraceResult:
    """Marching squares for the 2D level curve, with bisection refinement.

    Saddle cells are disambiguated by the field value at the cell center. An
    empty result means the radius is below the minimum (within refine_tol) or
    the bbox misses the curve; a curve touching the bbox boundary sets the
    boundary_warning flag instead of raising.
    """
    if e.space.is_finite or e.space.dimension != 2:
        raise ValueError("trace_2d requires a 2D continuum space")
    if len(cfg.bbox) != 2:
        raise ValueError("trace_2d requires a 2D bbox")
    f = e.field
    r = float(e.r)
    xs, ys = cfg.axes()
    n = cfg.resolution
    shape = (n + 1, n + 1)
    # h-edges (i, j) -> (i + 1, j) run along axis 0 and v-edges (i, j) -> (i, j + 1)
    # along axis 1; each is named here by the flat id of its (i, j) node. A cell
    # is named by the flat id of its lower-left corner, and lies in one tile;
    # its case comes from its corners ccw from there (bits as in _SEGMENTS)
    chunks = []
    for nodes, values in _tiles(f, r, (xs, ys)):
        inside = values < 0
        case = (inside[:, :-1, :-1] + (inside[:, 1:, :-1] << 1)
                + (inside[:, 1:, 1:] << 2) + (inside[:, :-1, 1:] << 3))
        # the cells whose corners differ in sign, but none on a repeated node
        t, i, j = np.nonzero((case % 15 != 0) & (np.diff(nodes[0]) > 0)[:, :, None]
                             & (np.diff(nodes[1]) > 0)[:, None, :])
        chunks.append((_edges(nodes, values, shape, 0), _edges(nodes, values, shape, 1),
                       nodes[0][t, i] * (n + 1) + nodes[1][t, j], case[t, i, j]))
    if not chunks:
        return TraceResult([], False, cfg.cell_size)
    h_parts, v_parts, cells, cases = zip(*chunks)
    (h, h0, h1), (v, v0, v1) = _merge(h_parts), _merge(v_parts)
    cell, case = np.concatenate(cells), np.concatenate(cases)
    order = np.argsort(cell)                        # row-major
    cell, case = cell[order], case[order]
    ci, cj = np.divmod(cell, n + 1)

    # resolve saddles by the field sign at cell centers
    saddle = np.flatnonzero((case == 5) | (case == 10))
    if len(saddle):
        si, sj = ci[saddle], cj[saddle]
        centers = np.column_stack([0.5 * (xs[si] + xs[si + 1]), 0.5 * (ys[sj] + ys[sj + 1])])
        center_in = f.values(centers) - r < 0
        case[saddle] = np.where(center_in, 16 + (case[saddle] == 10), case[saddle])

    # edge ids in the order of (kind, i, j): h-edges (i, j) -> (i + 1, j) first,
    # then v-edges (i, j) -> (i, j + 1); a cell's slots are bottom, right, top, left
    v_slot = n * (n + 1) + ci * n + cj
    slot_ids = np.stack([cell, v_slot + n, cell + 1, v_slot])
    slots = _SEGMENTS[case]                         # (cells, 2, 2)
    seg_cell, seg_slot = np.nonzero(slots[:, :, 0] >= 0)
    end_slots = slots[seg_cell, seg_slot]
    ends = slot_ids[end_slots, seg_cell[:, None]]   # (segments, 2)

    # the crossing edges, in id order, are the ones the segments end on
    ends = np.searchsorted(np.concatenate([h, n * (n + 1) + v - v // (n + 1)]), ends)
    i0, j0 = np.divmod(np.concatenate([h, v]), n + 1)
    horizontal = np.arange(len(i0)) < len(h)
    crossings = _bisect_edges(f, r, np.column_stack([xs[i0], ys[j0]]), np.where(horizontal, 0, 1),
                              np.concatenate([xs[h // (n + 1) + 1], ys[v % (n + 1) + 1]]),
                              np.concatenate([h0, v0]), np.concatenate([h1, v1]), cfg.refine_tol)
    boundary = bool(np.where(horizontal, (j0 == 0) | (j0 == n), (i0 == 0) | (i0 == n)).any())
    # a bottom or left slot is an edge of the cell before, in row-major order
    return TraceResult(_stitch(ends, end_slots % 3 == 0, crossings), boundary, cfg.cell_size)


def _stitch(ends: np.ndarray, later: np.ndarray, crossings: np.ndarray) -> list[Polyline]:
    """Polylines through the segments (edge, edge), edges numbered 0..m-1 in sorted order.

    An edge ends one segment from each cell it borders; later[s, e] says that
    segment s lies in the later of the two cells (in row-major order) at its
    end e. Open chains come first, each from its smaller end; then loops, each
    from its smallest edge. A chain leaves an edge by its first unused segment.
    """
    m = len(crossings)
    seg = np.arange(ends.size).reshape(ends.shape) // 2
    first, second = np.full(m, -1), np.full(m, -1)
    first[ends[~later]], second[ends[later]] = seg[~later], seg[later]
    # an edge on the bbox borders one cell (the later on its bottom and left sides)
    lone = first < 0
    first[lone], second[lone] = second[lone], -1
    single = second < 0
    first, second = first.tolist(), second.tolist()
    a, b = ends[:, 0].tolist(), ends[:, 1].tolist()
    used = [False] * len(a)

    def unused(edge):
        for s in (first[edge], second[edge]):
            if s >= 0 and not used[s]:
                return s
        return -1

    chains = []
    for start in np.flatnonzero(single).tolist() + list(range(m)):
        while (seg := unused(start)) >= 0:
            chain, cur = [start], start
            while seg >= 0:
                used[seg] = True
                cur = a[seg] + b[seg] - cur
                if cur == start:
                    break
                chain.append(cur)
                seg = unused(cur)
            pts = _dedupe(crossings[chain])
            if len(pts) >= 2:
                chains.append(Polyline(pts, cur == start))
    return chains


def _dedupe(pts: np.ndarray) -> np.ndarray:
    """Drops each point within TAU_EQ (max norm) of the last point kept before it.

    When every consecutive gap is wider than TAU_EQ nothing is dropped, which
    one array test shows; otherwise the points are scanned one by one.
    """
    if (np.abs(np.diff(pts, axis=0)).max(axis=1) > TAU_EQ).all():
        return pts
    keep = [0]
    for i in range(1, len(pts)):
        if np.abs(pts[i] - pts[keep[-1]]).max() > TAU_EQ:
            keep.append(i)
    return pts[keep]


def _edges(nodes: list, values: np.ndarray, shape: tuple, axis: int) -> tuple:
    """The grid edges along `axis` in a chunk of tiles from _tiles whose ends
    differ in sign: (lower-end flat ids, f0, f1 at the two ends). An edge
    on a face of two tiles comes once from each; an edge between a repeated
    node and itself has no sign change."""
    lo = values[(slice(None),) * (axis + 1) + (slice(None, -1),)]
    hi = values[(slice(None),) * (axis + 1) + (slice(1, None),)]
    at = np.nonzero((lo < 0) != (hi < 0))
    ids = np.ravel_multi_index([nodes[a][at[0], at[a + 1]] for a in range(len(shape))], shape)
    return ids, lo[at], hi[at]


def _merge(parts: list) -> tuple:
    """The (ids, f0, f1) of `parts` (at least one) as one set of edges in id
    order, each id once; the copies of an id hold the same values."""
    ids, f0, f1 = (np.concatenate(c) for c in zip(*parts))
    order = np.argsort(ids)
    ids = ids[order]
    # np.unique would cost each process about 1.7 MB of resident size on first use
    first = np.ones(len(ids), dtype=bool)
    first[1:] = ids[1:] != ids[:-1]
    order = order[first]
    return ids[first], f0[order], f1[order]


def sample_3d(e: KEllipse, cfg: TraceConfig) -> CloudResult:
    """On-surface point cloud: bisection-refined crossings of all grid edges."""
    if e.space.is_finite or e.space.dimension != 3:
        raise ValueError("sample_3d requires a 3D continuum space")
    if len(cfg.bbox) != 3:
        raise ValueError("sample_3d requires a 3D bbox")
    f = e.field
    r = float(e.r)
    node = cfg.axes()
    shape = tuple(len(a) for a in node)
    # the crossing edges of every axis first, each chunk of node values freed
    # before the next is made and all of them before bisection allocates its gaps
    parts = [[_edges(nodes, values, shape, axis) for axis in range(3)] for nodes, values in _tiles(f, r, node)]
    if not parts:
        return CloudResult(np.zeros((0, 3)), False, cfg.cell_size)
    crossing = [_merge(axis_parts) for axis_parts in zip(*parts)]
    del parts
    clouds = []
    boundary = False
    for axis, (lo, f0, f1) in enumerate(crossing):
        if len(lo) == 0:
            continue
        idx = np.unravel_index(lo, shape)
        boundary = boundary or any((idx[a] == 0).any() or (idx[a] == shape[a] - 1).any()
                                   for a in range(3) if a != axis)
        clouds.append(_bisect_edges(f, r, np.column_stack([node[a][idx[a]] for a in range(3)]), axis,
                                    node[axis][idx[axis] + 1], f0, f1, cfg.refine_tol))

    if not clouds:
        return CloudResult(np.zeros((0, 3)), False, cfg.cell_size)
    return CloudResult(np.vstack(clouds), boundary, cfg.cell_size)


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------

def export_svg(polylines, foci, bbox, points=None) -> str:
    """SVG 1.1 document of the (x, y) plane over bbox (its first two axes): axes
    through the origin, one path per polyline, the foci as markers and, when
    given, the (x, y) projection of `points` (n, >= 2) as dots."""
    return "".join(_svg_parts(polylines, foci, bbox, points))


def _svg_parts(polylines, foci, bbox, points=None):
    """The text of `export_svg` in pieces, the dots FORMAT_ROWS at a time, so
    that a file can be written without the whole document in memory."""
    (x_min, x_max), (y_min, y_max) = bbox[:2]
    if not (x_max > x_min and y_max > y_min):
        raise ValueError(f"bbox {bbox[:2]} has an axis with no extent")
    pad = 0.05 * max(x_max - x_min, y_max - y_min)
    x_min, x_max, y_min, y_max = x_min - pad, x_max + pad, y_min - pad, y_max + pad
    w = 640
    sx = w / (x_max - x_min)
    h = max(1, round((y_max - y_min) * sx))

    def to_px(p) -> np.ndarray:
        """Pixel (x, y) of each row of p, from its first two coordinates."""
        p = np.atleast_2d(np.asarray(p, dtype=float))
        return np.column_stack([(p[:, 0] - x_min) * sx, (y_max - p[:, 1]) * sx])

    yield ('<?xml version="1.0" encoding="UTF-8"?>\n'
           f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="{w}" height="{h}" '
           f'viewBox="0 0 {w} {h}">\n'
           f'<rect width="{w}" height="{h}" fill="white"/>\n')
    px, py = to_px((0.0, 0.0))[0]
    if x_min < 0 < x_max:
        yield f'<line x1="{px:.2f}" y1="0" x2="{px:.2f}" y2="{h}" stroke="#cccccc" stroke-width="1"/>\n'
    if y_min < 0 < y_max:
        yield f'<line x1="0" y1="{py:.2f}" x2="{w}" y2="{py:.2f}" stroke="#cccccc" stroke-width="1"/>\n'
    for pl in polylines:
        d = "M " + "".join(_format_rows("%.4f %.4f", to_px(pl.vertices), " L ")) + (" Z" if pl.closed else "")
        yield f'<path d="{d}" fill="none" stroke="#1f4e8c" stroke-width="1.5"/>\n'
    if len(foci):
        yield from _format_rows('<circle cx="%.4f" cy="%.4f" r="3" fill="#c0392b"/>\n', to_px(foci))
    if points is not None and len(points):
        yield from _format_rows('<circle cx="%.3f" cy="%.3f" r="0.8" fill="#1f4e8c"/>\n', to_px(points))
    yield "</svg>\n"


def export_csv(points) -> str:
    """CSV text with header x,y[,z]; exact values print as rationals."""
    return "".join(_csv_parts(points))


def _csv_parts(points):
    """The text of `export_csv` in pieces, FORMAT_ROWS rows at a time, so that
    a file can be written without the whole table in memory."""
    table = isinstance(points, np.ndarray) and points.ndim == 2
    rows = None if table and points.dtype == np.float64 else [tuple(p) for p in points]
    dim = points.shape[1] if table else len(rows[0]) if rows else 2
    if dim > 3:
        raise ValueError(f"CSV export takes at most 3 columns (x, y, z), got {dim}")
    yield ",".join("xyz"[:dim]) + "\n"
    if rows is not None:
        for s in range(0, len(rows), FORMAT_ROWS):
            yield "".join(",".join(fmt_num(c) for c in row) + "\n" for row in rows[s:s + FORMAT_ROWS])
    elif len(points):
        yield from _format_rows(",".join(["%s"] * dim) + "\n", points, reprs=True)


def _format_rows(row: str, values: np.ndarray, sep: str = "", reprs: bool = False):
    """`row % v` for each row v of `values` (n, m), joined by sep, as one piece
    per chunk of FORMAT_ROWS rows. Each chunk is formatted by one % operation,
    so that the Python objects alive at once stay few next to the text.

    With reprs (the CSV's float table), row's fields are %s and a chunk's
    cells come from _reprs. The shortest round-trip repr of each float is
    nearly all of a CSV's time (Gay 1990; Adams 2018, "Ryu"), and two of a
    cloud point's three coordinates are grid values that repeat, so each
    distinct value's repr is made once per chunk. A chunk whose cells are
    more than half distinct gives its floats instead, which %s prints as
    their repr too: the strings would save little time there, and with
    their copies they would outweigh the floats.
    """
    for s in range(0, len(values), FORMAT_ROWS):
        c = values[s:s + FORMAT_ROWS]
        yield (sep if s else "") + sep.join([row] * len(c)) % (
            _reprs(c) if reprs else tuple(c.ravel().tolist()))


def _reprs(c: np.ndarray) -> tuple:
    """The cells of the float64 chunk c (n, m) in row order for _format_rows:
    one repr string per distinct bit pattern (-0.0 == 0.0 but prints
    otherwise), or the floats if more than half of the cells are distinct.
    The arrays named here die with this frame, before the chunk's text is
    yielded."""
    bits = np.ascontiguousarray(c).view(np.int64).ravel()
    order = np.argsort(bits)
    first = np.ones(len(bits), dtype=bool)
    first[1:] = np.diff(bits[order]) != 0
    if 2 * np.count_nonzero(first) > len(bits):
        return tuple(c.ravel().tolist())
    strs = np.frompyfunc(repr, 1, 1)(c.ravel()[order[first]])
    inv = np.empty(len(bits), dtype=np.intp)
    inv[order] = np.cumsum(first) - 1       # each cell's rank among the distinct values
    return tuple(strs[inv].tolist())


def parse_csv_points(text: str) -> list[Point]:
    """Inverse of export_csv; fractions and floats both round-trip."""
    lines = [ln for ln in text.strip().split("\n") if ln]
    out = []
    for ln in lines[1:]:
        coords = []
        for tok in ln.split(","):
            coords.append(Fraction(tok) if "/" in tok else
                          int(tok) if tok.lstrip("+-").isdigit() else float(tok))
        out.append(Point(coords))
    return out
