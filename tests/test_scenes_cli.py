import json

import pytest

import kellipse as ke
from kellipse import fixture_names, fixture_path, fixture_scene
from kellipse.cli import main
from kellipse.scene import SceneError, parse_scene


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def test_all_fixture_scenes_parse():
    names = fixture_names()
    assert len(names) == 16
    for name in names:
        scene = fixture_scene(name)
        assert scene.space.dimension >= 1


def test_parse_exact_numbers():
    scene = parse_scene({
        "space": {"kind": "continuum", "dimension": 1, "metric": {"kind": "l1"}},
        "ellipse": {"foci": [["-1/2"], [0], [1]], "r": "9/2"},
    })
    from fractions import Fraction
    assert scene.ellipse.foci[0] == (Fraction(-1, 2),)
    assert scene.ellipse.r == Fraction(9, 2)


@pytest.mark.parametrize("data,message", [
    ({}, "space"),
    ({"space": {"kind": "warp", "dimension": 2}}, "kind"),
    ({"space": {"kind": "continuum"}}, "dimension"),
    ({"space": {"kind": "continuum", "dimension": 2,
                "metric": {"kind": "lp", "p": 0.2}}}, "metric"),
    ({"space": {"kind": "finite", "points": []}}, "points"),
    ({"version": 99, "space": {"kind": "continuum", "dimension": 1}}, "version"),
])
def test_parse_rejects_bad_scenes(data, message):
    with pytest.raises(SceneError) as err:
        parse_scene(data)
    assert message in str(err.value)


def test_parse_requires_final_otherwise_rule():
    with pytest.raises(SceneError):
        parse_scene({
            "space": {"kind": "continuum", "dimension": 1, "metric": {"kind": "l1"}},
            "ellipse": {"foci": [[0]], "r": 1},
            "map": {"rules": [
                {"region": {"kind": "in_set", "points": [[0]]},
                 "action": {"kind": "identity"}},
            ]},
        })


def test_scene_needs_referenced_objects():
    scene = fixture_scene("tri_l1")
    assert scene.self_map is None
    assert main(["verify", str(fixture_path("tri_l1")), "--theorem", "t1"]) == 2
    assert main(["fixpoints", str(fixture_path("tri_l1"))]) == 2


# ---------------------------------------------------------------------------
# fixture expectations (each shipped scene reproduces its documented verdict)
# ---------------------------------------------------------------------------

def verifier_fixtures():
    return [n for n in fixture_names() if "verify" in fixture_scene(n).expect]


@pytest.mark.parametrize("name", [
    "finite_anchor", "finite_two_ellipses", "inward_map", "outward_map",
    "far_outward_map", "finite_six_points", "finite_constant_map",
    "halfline_identity", "reciprocal_map",
])
def test_fixture_reproduces_documented_verdicts(name):
    scene = fixture_scene(name)
    want = scene.expect["verify"]
    plan = scene.build_plan()
    verdict = ke.certify(want["theorem"], scene.self_map, scene.ellipse, plan)
    for cid, expected in want["conditions"].items():
        assert verdict.reports[cid].verdict == expected, (name, cid)
    for cid, const in want.get("fitted", {}).items():
        from fractions import Fraction
        assert verdict.reports[cid].fitted_constant == Fraction(const), (name, cid)
    if "existence" in want:
        assert verdict.existence_certified == want["existence"], name
    if "uniqueness" in want:
        assert verdict.uniqueness_certified == want["uniqueness"], name
    if "members" in scene.expect:
        members = ke.members_finite(scene.ellipse)
        assert [list(p) for p in members] == scene.expect["members"]


def test_trace_fixtures_nonempty_low_resolution():
    for name in ("tri_l1", "tri_l2", "tri_linf", "quad_l2"):
        scene = fixture_scene(name)
        cfg = ke.TraceConfig(bbox=scene.trace.bbox, resolution=64,
                             refine_tol=scene.trace.refine_tol)
        res = ke.trace_2d(scene.ellipse, cfg)
        assert len(res) > 0 and not res.boundary_warning, name


def test_srelu_fixture_expectations():
    scene = fixture_scene("srelu")
    want = scene.expect["fixpoints"]
    assert str(ke.fixed_point_set(scene.piecewise)) == want["fix"]
    foci = [f[0] for f in scene.ellipse.foci]
    assert str(ke.fixed_kellipse_radii(scene.piecewise, foci)) == want["radii"]


# ---------------------------------------------------------------------------
# CLI subcommands and exit codes
# ---------------------------------------------------------------------------

def test_cli_verify_exit_codes(capsys):
    assert main(["verify", str(fixture_path("finite_anchor")), "--theorem", "t1"]) == 0
    out = capsys.readouterr().out
    assert "existence: certified" in out and "Ek3" in out
    assert main(["verify", str(fixture_path("inward_map")), "--theorem", "t1"]) == 1
    out = capsys.readouterr().out
    assert "Ek2      Fail" in out


def test_cli_verify_t5(capsys, tmp_path):
    scene = {
        "space": {"kind": "continuum", "dimension": 1, "metric": {"kind": "l1"}},
        "ellipse": {"foci": [[-1], [0], [1]], "r": 9},
        "map": {"rules": [{"region": {"kind": "otherwise"}, "action": {"kind": "identity"}}]},
    }
    p = tmp_path / "ident.json"
    p.write_text(json.dumps(scene))
    assert main(["verify", str(p), "--theorem", "t5"]) == 0
    assert "Ik" in capsys.readouterr().out
    assert main(["verify", str(fixture_path("inward_map")), "--theorem", "t5"]) == 1


def test_cli_verify_report_deterministic(tmp_path):
    rep1, rep2 = tmp_path / "a.json", tmp_path / "b.json"
    scene = str(fixture_path("halfline_identity"))
    assert main(["verify", scene, "--theorem", "t4", "--report", str(rep1)]) == 1
    assert main(["verify", scene, "--theorem", "t4", "--report", str(rep2)]) == 1
    assert rep1.read_bytes() == rep2.read_bytes()
    data = json.loads(rep1.read_text())
    assert data["existence_certified"] and not data["uniqueness_certified"]
    fitted = {c["condition"]: c["fitted_constant"] for c in data["conditions"]}
    assert fitted["E'''k4"] == "1"


def test_cli_verify_seed_override_changes_plan(tmp_path):
    rep1, rep2 = tmp_path / "a.json", tmp_path / "b.json"
    scene = str(fixture_path("inward_map"))
    main(["verify", scene, "--theorem", "t1", "--report", str(rep1), "--seed", "1"])
    main(["verify", scene, "--theorem", "t1", "--report", str(rep2), "--seed", "2"])
    a = json.loads(rep1.read_text())
    b = json.loads(rep2.read_text())
    assert a["plan"] != b["plan"] or a != b     # different samples drawn


def test_cli_trace_and_csv(tmp_path, capsys):
    svg = tmp_path / "out.svg"
    csv = tmp_path / "out.csv"
    scene_data = json.loads(fixture_path("tri_l1").read_text())
    scene_data["trace"]["resolution"] = 64
    p = tmp_path / "scene.json"
    p.write_text(json.dumps(scene_data))
    assert main(["trace", str(p), "-o", str(svg), "--csv", str(csv)]) == 0
    text = svg.read_text()
    assert text.startswith("<?xml") and "<path" in text
    pts = ke.parse_csv_points(csv.read_text())
    e = fixture_scene("tri_l1").ellipse
    for q in pts[:50]:
        assert abs(e.field.value(q) - 4) <= 1e-9


def test_cli_trace_cloud_dots_and_csv_in_chunks(tmp_path, monkeypatch):
    import kellipse.tracer as tracer

    def scene(name, resolution):
        data = json.loads(fixture_path(name).read_text())
        data["trace"]["resolution"] = resolution
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(data))
        return p, data

    def run(p, tag):
        svg, csv = tmp_path / f"{p.stem}-{tag}.svg", tmp_path / f"{p.stem}-{tag}.csv"
        assert main(["trace", str(p), "-o", str(svg), "--csv", str(csv)]) == 0
        return svg.read_text(), csv.read_text()

    cloud, scene_data = scene("tri3d_l2", 24)
    plane, _ = scene("tri_l1", 64)
    svg, csv = run(cloud, "whole")
    pts = ke.parse_csv_points(csv)
    (x0, x1), (y0, y1) = scene_data["trace"]["bbox"][:2]
    pad = 0.05 * max(x1 - x0, y1 - y0)
    sx = 640 / (x1 - x0 + 2 * pad)
    dots = [f'<circle cx="{(x - x0 + pad) * sx:.3f}" cy="{(y1 + pad - y) * sx:.3f}" r="0.8" '
            f'fill="#1f4e8c"/>' for x, y, _ in pts]
    assert len(pts) > 100 and svg.endswith("\n".join(dots) + "\n</svg>\n")
    plane_svg, plane_csv = run(plane, "whole")
    assert plane_svg.count(" L ") > 7 and plane_csv.count("\n") > 8
    # formatting in chunks that end mid-cloud and mid-path writes the same bytes
    monkeypatch.setattr(tracer, "FORMAT_ROWS", 7)
    assert run(cloud, "chunked") == (svg, csv)
    assert run(plane, "chunked") == (plane_svg, plane_csv)


def test_cli_median(capsys):
    assert main(["median", str(fixture_path("inward_map"))]) == 0
    assert capsys.readouterr().out.strip() == "(2, 0)"


def test_cli_fixpoints(capsys):
    assert main(["fixpoints", str(fixture_path("srelu"))]) == 0
    out = capsys.readouterr().out
    assert "Fix = [-6, 6]" in out
    assert "radii = [2, 18]" in out


LINE_SPACE = {"kind": "continuum", "dimension": 1, "metric": {"kind": "l1"}}
IDENTITY_MAP = {"rules": [{"region": {"kind": "otherwise"}, "action": {"kind": "identity"}}]}


@pytest.mark.parametrize("r", ("1e400", "-1e400", "NaN"))
def test_non_finite_radius_is_a_scene_error(tmp_path, capsys, r):
    # JSON 1e400 reads as inf, NaN as nan; either once died in verify, exiting 1
    text = json.dumps({"space": LINE_SPACE, "ellipse": {"foci": [[0], [2]], "r": 0}, "map": IDENTITY_MAP})
    path = tmp_path / "scene.json"
    path.write_text(text.replace('"r": 0', f'"r": {r}'), encoding="utf-8")
    with pytest.raises(SceneError, match="radius must be finite"):
        ke.load_scene(path)
    assert main(["verify", str(path), "--theorem", "t1"]) == 2
    assert "radius must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("plan, field", [
    # a negative count once made every pair condition vacuous, so t1 passed
    ({"off_count": -5}, "plan.off_count"), ({"off_count": 0}, "plan.off_count"),
    ({"off_count": 1.5}, "plan.off_count"), ({"off_count": "NaN"}, "plan.off_count"),
    ({"off_count": '"x"'}, "plan.off_count"), ({"off_count": "true"}, "plan.off_count"),
    # a non-finite end once died in the plan with OverflowError, exiting 1
    ({"window": "[-1e400, 5]"}, "plan.window"), ({"window": "[-5, NaN]"}, "plan.window"),
    ({"window": "[5, -5]"}, "plan.window"), ({"window": "[2, 2]"}, "plan.window"),
    ({"window": "[1]"}, "plan.window"), ({"window": '"ab"'}, "plan.window"),
    ({"window": '[1, "x"]'}, "plan.window"), ("[]", "plan must be an object"),
])
def test_bad_plan_is_a_scene_error(tmp_path, capsys, plan, field):
    # the plan is written as JSON text: 1e400 reads as inf, NaN as nan
    body = plan if isinstance(plan, str) else "{" + ", ".join(f'"{k}": {v}' for k, v in plan.items()) + "}"
    path = tmp_path / "scene.json"
    path.write_text(json.dumps({"space": LINE_SPACE, "ellipse": {"foci": [[0], [2]], "r": 4},
                                "map": IDENTITY_MAP, "plan": "PLAN"}).replace('"PLAN"', body),
                    encoding="utf-8")
    with pytest.raises(SceneError, match=field):
        ke.load_scene(path)
    assert main(["verify", str(path), "--theorem", "t1"]) == 2
    assert field in capsys.readouterr().err


def test_good_plan_is_parsed_once():
    scene = parse_scene({"space": LINE_SPACE, "ellipse": {"foci": [[0], [2]], "r": 4},
                         "plan": {"off_count": 3, "window": ["-1/2", 7]}})
    from fractions import Fraction
    assert scene.plan_cfg == {"off_count": 3, "window": (Fraction(-1, 2), 7)}
    assert len(scene.build_plan().off_ellipse) == 3


def test_empty_membership_is_a_scene_error(tmp_path, capsys):
    data = {"space": dict(LINE_SPACE, membership=[])}
    with pytest.raises(ValueError, match="at least one part"):
        parse_scene(data)
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert main(["axioms", str(path)]) == 2
    assert "at least one part" in capsys.readouterr().err


@pytest.mark.parametrize("space, foci", [
    ({"kind": "continuum", "dimension": 2, "metric": {"kind": "l2"}}, [[-1, 5], [0, 7], [1, -3]]),
    ({"kind": "finite", "points": [[-1], [0], [1], [5]], "metric": {"kind": "l1"}}, [[-1], [0], [1]]),
    (dict(LINE_SPACE, membership=[{"interval": [-10, 10]}]), [[-1], [0], [1]]),
], ids=("plane", "finite", "mixed"))
def test_fixpoints_refuses_radii_off_the_plain_line(tmp_path, capsys, space, foci):
    # the radii are those of the foci's first coordinates on the whole line
    data = {"space": space, "ellipse": {"foci": foci, "r": 15},
            "piecewise": {"srelu": {"tl": -6, "al": 2, "tr": 6, "ar": 3}}}
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert main(["fixpoints", str(path)]) == 2
    out = capsys.readouterr()
    assert out.out == "" and "1D continuum without membership" in out.err


def test_cli_axioms(capsys):
    assert main(["axioms", str(fixture_path("tri_l1")), "--samples", "200"]) == 0
    assert "0 violation(s)" in capsys.readouterr().out


def test_cli_axioms_seed_zero_overrides_scene_seed(capsys):
    scene = str(fixture_path("inward_map"))      # scene seed 7
    assert main(["axioms", scene, "--samples", "50", "--seed", "0"]) == 0
    assert "seed 0," in capsys.readouterr().out
    assert main(["axioms", scene, "--samples", "50"]) == 0
    assert "seed 7," in capsys.readouterr().out


def trace_scene(tmp_path, trace):
    # two foci at one point: a circle of radius 2 about (1001, 1000, ...)
    data = {
        "version": 1,
        "space": {"kind": "continuum", "dimension": len(trace["bbox"]), "metric": {"kind": "l2"}},
        "ellipse": {"foci": [[1001] + [1000] * (len(trace["bbox"]) - 1)] * 2, "r": 4},
        "trace": trace,
    }
    p = tmp_path / "scene.json"
    p.write_text(json.dumps(data))
    return str(p)


def test_cli_trace_grid_too_large_is_usage_error(tmp_path, capsys):
    scene = trace_scene(tmp_path, {"bbox": [[0, 1]] * 3, "resolution": 4096})
    assert main(["trace", scene, "-o", str(tmp_path / "out.svg")]) == 2
    assert "MAX_GRID_NODES" in capsys.readouterr().err


@pytest.mark.parametrize("bbox", ["[[-1e400, 4], [-3, 4]]", "[[-3, 4], [-3, 1e400]]",
                                  "[[NaN, 4], [-3, 4]]", "[[-1e308, 1e308], [-3, 4]]"])
def test_cli_trace_bbox_that_is_not_finite_is_usage_error(tmp_path, capsys, bbox):
    # an end of 1e400 (inf) once failed with "cannot convert float NaN to integer"
    scene = trace_scene(tmp_path, {"bbox": json.loads(bbox), "resolution": 16})
    with pytest.raises(SceneError, match="trace.bbox"):
        ke.load_scene(scene)
    assert main(["trace", scene, "-o", str(tmp_path / "out.svg")]) == 2
    assert "trace.bbox axis" in capsys.readouterr().err
    with pytest.raises(ValueError, match="finite ends"):
        ke.TraceConfig(bbox=json.loads(bbox))


def test_cli_trace_unconverged_bisection_is_solver_error(tmp_path, capsys):
    scene = trace_scene(tmp_path, {"bbox": [[996, 1006], [995, 1005]], "resolution": 16,
                                   "refine_tol": 1e-300})
    assert main(["trace", scene, "-o", str(tmp_path / "out.svg")]) == 3
    assert "unconverged" in capsys.readouterr().err


def test_cli_missing_scene_is_usage_error(capsys):
    assert main(["median", "/nonexistent/scene.json"]) == 2
    assert main(["verify", "/nonexistent/scene.json", "--theorem", "t1"]) == 2


def test_cli_reversed_membership_interval_is_usage_error(tmp_path, capsys):
    data = {"space": {"kind": "continuum", "dimension": 1, "metric": {"kind": "l1"},
                      "membership": [{"point": -2}, {"interval": [3, 1]}]},
            "ellipse": {"foci": [[-2]], "r": 1}}
    with pytest.raises(SceneError, match="membership"):
        parse_scene(data)
    p = tmp_path / "reversed.json"
    p.write_text(json.dumps(data))
    assert main(["median", str(p)]) == 2
    assert "membership" in capsys.readouterr().err


def test_cli_bad_json_is_usage_error(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    assert main(["median", str(p)]) == 2


def test_every_fixture_runs_via_cli(tmp_path):
    # each scene runs through the subcommand its expectations document
    for name in fixture_names():
        scene = fixture_scene(name)
        path = str(fixture_path(name))
        if "verify" in scene.expect:
            want = scene.expect["verify"]
            code = main(["verify", path, "--theorem", want["theorem"]])
            assert code == want["exit"], name
        elif "fixpoints" in scene.expect:
            assert main(["fixpoints", path]) == 0, name
        else:
            assert "trace" in scene.expect, f"{name} documents no outcome"


def test_cli_trace_warns_when_the_trace_is_empty(tmp_path, capsys):
    # below the minimum radius: a 3D cloud of no points, drawn with no dots element
    data = json.loads(fixture_path("tri3d_l2").read_text())
    data["ellipse"]["r"] = 1
    data["trace"]["resolution"] = 16
    below, svg = tmp_path / "below.json", tmp_path / "below.svg"
    below.write_text(json.dumps(data))
    assert main(["trace", str(below), "-o", str(svg)]) == 0
    out, err = capsys.readouterr()
    assert out == f"traced cloud of 0 points -> {svg}\n"
    assert err == "warning: traced no points: r is below the minimum radius\n"
    assert svg.read_text().endswith('fill="#c0392b"/>\n</svg>\n')
    # a nonempty circle about (1001, 1000) outside the bbox
    missed = trace_scene(tmp_path, {"bbox": [[0, 1], [0, 1]], "resolution": 16})
    assert main(["trace", missed, "-o", str(tmp_path / "missed.svg")]) == 0
    out, err = capsys.readouterr()
    assert out.startswith("traced 0 polyline(s), 0 vertices")
    assert err == "warning: traced no points: the bbox misses the level set\n"
    # a trace with points writes no warning
    hit = trace_scene(tmp_path, {"bbox": [[996, 1006], [995, 1005]], "resolution": 16})
    assert main(["trace", hit, "-o", str(tmp_path / "hit.svg")]) == 0
    assert capsys.readouterr().err == ""
