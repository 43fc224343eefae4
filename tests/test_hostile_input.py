"""Hostile scene input under every CLI command: the exit-code contract.

Every run exits 0-3 (4 means an unexpected exception), no traceback reaches
stderr, and an exit 2 names the scene key whose value is malformed. The
probes and the mutation scan live in scripts/hostile_scan.py, whose full run
tries every leaf of every shipped scene; here a seeded sample of it runs.
"""
import importlib.util
import json
import random
from pathlib import Path

import pytest

import kellipse.metric as metric
import kellipse.verifier as verifier
from kellipse import Metric, Space, fixture_path, fixture_scene, load_scene
from kellipse.cli import main
from kellipse.metric import MAX_AXIOM_SAMPLES, verify_metric_axioms
from kellipse.scene import SceneError
from kellipse.verifier import MAX_PLAN_POINTS, default_plan

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("hostile_scan", ROOT / "scripts" / "hostile_scan.py")
hostile_scan = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(hostile_scan)


@pytest.mark.parametrize("label, name, edits, key", hostile_scan.PROBES,
                         ids=[p[0] for p in hostile_scan.PROBES])
def test_probe_exits_2_and_names_its_key(tmp_path, label, name, edits, key):
    data = hostile_scan.edited(hostile_scan.scene_data(name), edits)
    for command, code, err in hostile_scan.run(data, hostile_scan.commands, str(tmp_path)):
        assert code == 2, (command, code, err)
        assert err.startswith(f"error: {key}") and "Traceback" not in err, (command, err)


def test_map_that_hits_its_pole_exits_2(tmp_path):
    # the rule sending the pole -1 elsewhere is gone, and -1 is in the plan's window
    data = hostile_scan.edited(hostile_scan.scene_data(hostile_scan.POLE_SCENE[0]), hostile_scan.POLE_SCENE[1])

    def verify(scene, out):
        return [["verify", scene, "--theorem", t] for t in ("t1", "t5")]

    for command, code, err in hostile_scan.run(data, verify, str(tmp_path)):
        assert code == 2, (command, code, err)
        assert err == "error: map: rational action evaluated at its pole x=-1\n"
    for command, code, err in hostile_scan.run(data, hostile_scan.commands, str(tmp_path)):
        assert code in (0, 2) and "Traceback" not in err, (command, code, err)


def test_seeded_leaf_mutations_keep_the_exit_code_contract(tmp_path):
    cases = random.Random(27).sample(list(hostile_scan.mutations()), 800)
    assert len({name for name, _, _ in cases}) == 16        # every shipped scene
    counts, faults = hostile_scan.scan(cases, str(tmp_path))
    assert faults == []
    assert set(counts) <= {0, 1, 2, 3} and counts[2] < sum(counts.values())


def test_unexpected_exception_exits_4_with_its_traceback(monkeypatch, capsys):
    def broken(field):
        raise RuntimeError("not a scene fault")

    monkeypatch.setattr("kellipse.cli.min_radius", broken)
    assert main(["median", str(fixture_path("tri_l1"))]) == 4
    err = capsys.readouterr().err
    assert err.startswith("Traceback") and err.endswith("RuntimeError: not a scene fault\n")


def _refuse_to_draw(*args, **kwargs):
    raise AssertionError("a point was drawn before the bound was checked")


@pytest.mark.parametrize("name", ["reciprocal_map", "tri_l2", "finite_six_points"])
def test_plan_bound_is_checked_before_any_point_is_drawn(monkeypatch, name):
    e = fixture_scene(name).ellipse
    for drawer in ("_plan_1d", "_plan_nd", "exhaustive_plan"):
        monkeypatch.setattr(verifier, drawer, _refuse_to_draw)
    for off_count in (MAX_PLAN_POINTS + 1, 0):
        with pytest.raises(ValueError, match="MAX_PLAN_POINTS"):
            default_plan(e, off_count=off_count)
    with pytest.raises(AssertionError, match="was drawn"):     # the bound itself passes
        default_plan(e, off_count=MAX_PLAN_POINTS)


def test_scene_off_count_bound(tmp_path):
    scene = tmp_path / "scene.json"
    for n in (MAX_PLAN_POINTS, MAX_PLAN_POINTS + 1):
        data = hostile_scan.edited(hostile_scan.scene_data("reciprocal_map"), [(("plan", "off_count"), n)])
        scene.write_text(json.dumps(data), encoding="utf-8")
        if n == MAX_PLAN_POINTS:
            assert load_scene(scene).plan_cfg["off_count"] == n     # parsed, no plan built
        else:
            with pytest.raises(SceneError, match=f"plan.off_count must be an integer in \\[1, {n - 1}\\]"):
                load_scene(scene)


def test_axiom_samples_bound_is_checked_before_any_point_is_drawn(monkeypatch, capsys):
    monkeypatch.setattr(metric, "sample_points", _refuse_to_draw)
    with pytest.raises(ValueError, match="MAX_AXIOM_SAMPLES"):
        verify_metric_axioms(Space.continuum(3, Metric.l2()), MAX_AXIOM_SAMPLES + 1)
    with pytest.raises(AssertionError, match="was drawn"):     # the bound itself passes
        verify_metric_axioms(Space.continuum(3, Metric.l2()), MAX_AXIOM_SAMPLES)
    assert main(["axioms", str(fixture_path("tri3d_l2")), "--samples", str(MAX_AXIOM_SAMPLES + 1)]) == 2
    assert "MAX_AXIOM_SAMPLES" in capsys.readouterr().err
