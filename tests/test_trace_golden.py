"""The bytes `kellipse trace` writes for the shipped scenes, pinned by sha256.

Tracing changes must keep every traced vertex, so these digests must not
move. tri3d_lp4 is left out: its Lp(4) powers come from np.power, which may
round differently on another CPU.
"""
import hashlib

import pytest

from kellipse import fixture_path
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
