"""The JSON that `kellipse verify --report` writes for the shipped scenes, pinned by sha256.

Every shipped scene with a self-map lies on the line or in a finite space, so
its reports come from rational arithmetic, and the JSON writes int and
Fraction margins differently: these digests pin the exact path of the
condition kernel, values and types, for the theorems t1 to t5.
"""
import hashlib

import pytest

from kellipse import fixture_path
from kellipse.cli import main

THEOREMS = ("t1", "t2", "t3", "t4", "t5")

GOLDEN = {
    "far_outward_map": (
        "f887a4b8fe7c1188ec171724ea63d0d6f64916cd548706d72f754465c646f9bf",
        "e9acd934ee2b103eb007967f5ea52027df1b95e731f2bf22a882ddcf28c6e9b8",
        "7f6d760f64252a7a991ff3da8178c841912a7bcbf03d6adc1bc78416c31aaebf",
        "28ae4dd0e4fb3a58a9edc29d9ba7cadac6a0e309480dc16545d89487ab327e2f",
        "07112f83670b35e34e35316e043c69190ba40f06b562871b2b9baafd53f37d1f",
    ),
    "finite_anchor": (
        "709c3d3c36fded28b20289166d976c0fa7d399b93af40785e2b584c6bf02674b",
        "da6fede6c53f770035cfaa88f9d6122f59b6929080ee7b91d6e4d462c548be2f",
        "26a7497329694a242daf48c33f1b9b7b814bd0de9e70913a6c1eda1004f3964c",
        "447caf4c501886c43db3c32012416b6cd8d88a4d8b594e345a4bccd03df04f10",
        "4d93834acbdeabcad3fe5233b343c1ed3298d16b9cc854f45d7324e945653a45",
    ),
    "finite_constant_map": (
        "45bab3245f82a5ddd47b0b1bc1e64642f734f60f0eda4c5537d7bf3351cbeb7c",
        "391f4bf9138328620cc5f7e9e1ecd672b9da5cc6b185f1e0feba2625fc1be4be",
        "7b64e18daa053ef0c668d371b99ab621d4278fbd58994c65edb828c4db4eed44",
        "cf95b54755a1130897d80e3c604e6b9c774b83f87ed9a922adf0ac9a7b2de954",
        "5ac6f267d05f8a64858362d8d6fab3ab9751fdfa778c53a8d500a3a7b76abee1",
    ),
    "finite_six_points": (
        "2aec529d41abfe0bf9a9410763777b1330f9eba573ace934bd5629aa91e9f0d5",
        "da1eaa8210be60e0cf8b18024313bd0c21855278bf08b79ec0a80defb308e7c4",
        "420609e017d60f80eb6aded2501c48820259ef94ab101fd3e49d3509f92b4816",
        "de2746d5a0ec129106bd10e3ec5dcc89d668e10e48880fe023c01383bfd3620c",
        "8440a13be8c0b180a09a9b6f4c77ccd4594cd4429d0627166e962c62f4f137d6",
    ),
    "finite_two_ellipses": (
        "d2f129b8858dbc63d46b97fbc3a9150e6d6a0864606ab43bf7eb23c9f7c6a69c",
        "fedb508d9ebb351d60108494ccaebb41bd206192975ce473d90c495cf0c29bc8",
        "bb344c50fd5de10af4d8167a3b52fb616f1c3ca6335d9cfde252c25b8eb19a41",
        "1eaac92a24e832f77d305acbb927ca8ddfb310d8d9712a8597877dd09ee07656",
        "596a8474a20e84dc53bc4a3cc5265b21df4b9e3d2c0102887679351c995db1ef",
    ),
    "halfline_identity": (
        "346955d44dbac750c141bfdbb8aa8eabf41e548ae21dda7f633381a94784dcc4",
        "ad1fb28ff267cbfea6f1da47ebe0675adc88a614600e432ea58d6b1110ba96ef",
        "acfabc8322a017092560b77c70c944753bf3bb048d372ef66ac8b356a8f0c501",
        "2645b94a37393e8a92748a3acf2740f31ae57dc5a80c0bf9e1f4e4f5a7938bcd",
        "7894505dd53430630a21624e3475b60facdc9141e5f1e957d571307d88b87204",
    ),
    "inward_map": (
        "e3872442b32f240ab059b76c526213d94d75fd087935601b702766668f4f914b",
        "1e29e69f5ec4d40bb891910626322b22b2de0b7087ee68cc2c645852e90b501a",
        "5d7642821b6ff228602f100905b3a2984f94b8aa791fc3fc8cbf5439ba310b34",
        "786db3ed7d5eafdcfdef7e75c7ef232eb86eeee1f272c3d612a77ddfba0060ee",
        "ea695e195872134bad9e522d01965db38631e974a891d7674e512475533cfc74",
    ),
    "outward_map": (
        "9665d481fd7bc2376bcb816cbf966276a7011c15434d326d4022759eceed7ec1",
        "d6d0a26b74f0af827608d55fb72ba97e5e325eadfe5cc48eb8f90008a6d694a1",
        "f9a75e6387adedbd5736c5b55b9d2392799b6cff53b03dfaf27101e1de34b3d6",
        "72b24f1d9ba1612abdd79c8fb807b7ee16e09ec79f6f878a1edfa5b7d589967b",
        "1a8572945c209983e4886f6553d9e9182e3a0c501276e82be8f92aeefc8e9931",
    ),
    "reciprocal_map": (
        "48e9ba57c9e3bde6179def32b358051b7c14cdb74da41f88f787f090f1730299",
        "cfeb5d6b0f5981062cb3f2cd5a9b22dea359414a8ef44356069053250389f4d2",
        "ada04e88cc05806df91997910a486fe766262b6dff69e741c944eda3f0b51e3d",
        "85abc0434b5a5e59af941a8c3e2ca712974cd179aeca9850ecf70cbba4348da1",
        "1416875fd582369db15e2273f9c1f10700d7d807827919cc4c8f5f162bab37c1",
    ),
}


@pytest.mark.parametrize("theorem", THEOREMS)
@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_report_bytes_match_golden_digests(name, theorem, tmp_path):
    report = tmp_path / "report.json"
    assert main(["verify", str(fixture_path(name)), "--theorem", theorem, "--report", str(report)]) in (0, 1)
    assert hashlib.sha256(report.read_bytes()).hexdigest() == GOLDEN[name][THEOREMS.index(theorem)]
