"""Traced output pinned by sha256: the bytes `kellipse trace` writes for the
shipped scenes, and trace_2d polylines on curves that reach the saddle,
open-chain and near-duplicate branches, which the shipped scenes do not.

Tracing changes must keep every traced vertex, so these digests must not
move. tri3d_lp4 is left out: its Lp(4) powers come from np.power, which may
round differently on another CPU; the curves below use L1, L2 and Linf only.
"""
import hashlib

import numpy as np
import pytest

from kellipse import KEllipse, Metric, Space, TraceConfig, fixture_path, trace_2d
from kellipse.cli import main

GOLDEN = {
    "quad_l2": ("ae88ead07d13beeaa2bda3ccb6e8ae3cb183ac7de8b04a7c239c1afdc9498db9",
                "d5499e63bb6751a032a8cc44671623866c077ae2a019cb3a8655b80c52b71797"),
    "tri_l1": ("1ebee5e6ac957a0ec9bb92fd6e41cb92f101d07b2fa6d8a0ef02a64c44b14862",
               "103125a5b78ab917747ae7d7cf9a30cfb4e5560003ba3b3313ca3863ab49e7e8"),
    "tri_l2": ("6460312faf8358f4b5c24b19416134105496fe671da301c7ad9a12829b4a9923",
               "fa84e62e207bcfeed7b98a931d7d0b361d385eb25d01e7716234862be469d84a"),
    "tri_linf": ("b08f4094a566a860b8fe3ee2c3316c21513100d5abee1a404c5d3c7a59f9c54f",
                 "3079364a7ccacec082475d8d6e5cdb5adbff807495c22976f5fb13412d3cde2d"),
    "tri3d_l2": ("1a550df34358169a25da70b8ed9acd77beff32af91b9ec9537088d6165857000",
                 "ac24696f9d7d41a69280f261a952bc304b9b54b9f0d44bbb25e2f841b6b6b5d8"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_trace_bytes_match_golden_digests(name, tmp_path):
    svg, csv = tmp_path / "out.svg", tmp_path / "out.csv"
    assert main(["trace", str(fixture_path(name)), "-o", str(svg), "--csv", str(csv)]) == 0
    digests = tuple(hashlib.sha256(p.read_bytes()).hexdigest() for p in (svg, csv))
    assert digests == GOLDEN[name]


# (metric, foci, r, bbox, resolution): sha256 of the polylines and boundary flag
BRANCH_CASES = {
    # curves at or just above the minimum radius, whose saddle cells take all
    # four table rows: 5 and 10 with the centre outside, 16 and 17 with it inside
    "saddle-linf": ((Metric.linf(), ((-2, 4), (2, 1)), 4.05,
                     ((-5.13, 5.07), (-5.11, 5.03)), 16),
        "4f13b7c5d64bedaf68f8f5a02fe693a12872bc3285f1e98cac4337336090d5b2"),
    "saddle-l1": ((Metric.l1(), ((-1.9, -1.8), (2.3, 1.9)), 7.9,
                   ((-4.8, 5.3), (-4.95, 4.95)), 16),
        "7a8d45f1f3e9e8fb808ca041c405cf24a67f22320123fa7dbb6c1ea399a8d77d"),
    # a circle cut by its bbox into two open chains
    "clipped-l2": ((Metric.l2(), ((0, 0),), 2, ((-1, 1.5), (-3, 3)), 20),
        "ddd7367d4a58acc24b7293126724faee0f27548a85ebe528caa5434a98e83154"),
    # an L1 curve through grid nodes: both edges at such a node give the node
    "near-duplicate-l1": ((Metric.l1(), ((1, 0), (0, 0), (0, 1)), 4, ((-3, 4), (-3, 4)), 28),
        "cce5099311f11c332d4c808a7d2f33db063eabe4e89e4bc54c6b305f145f3a78"),
}


def branch_case(name):
    (metric, foci, r, bbox, resolution), _ = BRANCH_CASES[name]
    return KEllipse(Space.continuum(2, metric), foci, r), TraceConfig(bbox=bbox, resolution=resolution)


def trace_digest(res) -> str:
    h = hashlib.sha256()
    for p in res:
        h.update(f"{len(p)} {'closed' if p.closed else 'open'}\n".encode())
        h.update(np.ascontiguousarray(p.vertices, dtype="<f8").tobytes())
    h.update(f"boundary {res.boundary_warning}".encode())
    return h.hexdigest()


def inside_grid(e, cfg) -> np.ndarray:
    """field < r at every node of the traced grid, by brute force."""
    mesh = np.meshgrid(*cfg.axes(), indexing="ij")
    return (e.field.values(np.column_stack([g.ravel() for g in mesh])) < float(e.r)).reshape(mesh[0].shape)


def saddle_rows(e, cfg) -> set:
    """The segment-table rows that the saddle cells of the traced grid take."""
    f, r = e.field, float(e.r)
    xs, ys = cfg.axes()
    b = inside_grid(e, cfg).astype(np.int8)
    cases = b[:-1, :-1] + (b[1:, :-1] << 1) + (b[1:, 1:] << 2) + (b[:-1, 1:] << 3)
    i, j = np.nonzero((cases == 5) | (cases == 10))
    centre_in = f.values(np.column_stack([0.5 * (xs[i] + xs[i + 1]), 0.5 * (ys[j] + ys[j + 1])])) < r
    return set(np.where(centre_in, 16 + (cases[i, j] == 10), cases[i, j]).tolist())


def test_branch_cases_reach_their_branches():
    assert saddle_rows(*branch_case("saddle-linf")) == {17}
    assert saddle_rows(*branch_case("saddle-l1")) == {5, 10, 16}
    res = trace_2d(*branch_case("clipped-l2"))
    assert res.boundary_warning and [p.closed for p in res] == [False, False]
    e, cfg = branch_case("near-duplicate-l1")
    neg = inside_grid(e, cfg)
    crossing_edges = (neg[1:] != neg[:-1]).sum() + (neg[:, 1:] != neg[:, :-1]).sum()
    assert len(trace_2d(e, cfg).all_vertices()) < crossing_edges


@pytest.mark.parametrize("name", sorted(BRANCH_CASES))
def test_trace_2d_branches_match_golden_digests(name):
    assert trace_digest(trace_2d(*branch_case(name))) == BRANCH_CASES[name][1]
