"""JSON scene files: spaces, level sets, self-maps, piecewise maps, trace setup.

Schema (version 1), all keys optional unless a subcommand needs them:

    {
      "version": 1,
      "description": "free text",
      "seed": 7,
      "space": {"kind": "continuum", "dimension": 2,
                "metric": {"kind": "lp", "p": 4},
                "membership": [{"point": -2}, {"interval": [0, null]}]},
      "space": {"kind": "finite", "points": [[-4], [-1], [0]], "metric": {"kind": "l1"}},
      "ellipses": [{"foci": [[1, 0], [0, 0]], "r": 4}],
      "map": {"rules": [{"region": {...}, "action": {...}}]},
      "piecewise": {"srelu": {"tl": -6, "al": 2, "tr": 6, "ar": 3}},
      "trace": {"bbox": [[-3, 4], [-3, 4]], "resolution": 256, "refine_tol": 1e-9},
      "plan": {"off_count": 512, "window": [-20, 20]},
      "theorem": "t1",
      "expect": {...}       # documented outcomes, used by the test suite
    }

Region kinds: on_ellipse (index, tol), in_set (points), interval (lo, hi,
lo_open, hi_open; null = unbounded), halfspace (coeffs, offset), otherwise.
An interval region and the membership of a mixed 1D space are exact
`Interval` / `IntervalUnion` values, null ends becoming -inf / inf; a
membership needs at least one part, and each interval of it lo <= hi.
Action kinds: identity, constant (point), affine (slope, intercept),
rational (num [a, b], den [c, d]).

JSON integers stay exact; strings like "4/7" parse as exact fractions.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from importlib import resources
from pathlib import Path

from .geometry import KEllipse
from .intervals import Interval, IntervalUnion
from .metric import REFINE_TOL, Metric, Point, Space
from .piecewise import PiecewiseAffine1D, srelu
from .tracer import TraceConfig
from .verifier import (Affine1D, ConstantPoint, Identity, InFiniteSet,
                       InHalfspace, OnEllipse, Otherwise, Rational1D,
                       SamplePlan, SelfMap, default_plan)

SCHEMA_VERSION = 1


class SceneError(ValueError):
    """A scene file failed validation."""


@dataclass
class Scene:
    name: str
    space: Space
    ellipses: tuple = ()
    self_map: SelfMap | None = None
    piecewise: PiecewiseAffine1D | None = None
    trace: TraceConfig | None = None
    plan_cfg: dict = field(default_factory=dict)
    seed: int = 0
    theorem: str | None = None
    description: str = ""
    expect: dict = field(default_factory=dict)

    @property
    def ellipse(self) -> KEllipse:
        if not self.ellipses:
            raise SceneError(f"scene {self.name!r} defines no ellipse")
        return self.ellipses[0]

    def build_plan(self, seed: int | None = None) -> SamplePlan:
        cfg = self.plan_cfg
        window = cfg.get("window")
        if window is not None:
            window = tuple(_num(v) for v in window)
        return default_plan(
            self.ellipse,
            seed=self.seed if seed is None else seed,
            off_count=int(cfg.get("off_count", 512)),
            window=window,
            trace_config=self.trace,
        )


def _num(v):
    """Parse a scene number: ints stay exact, 'p/q' strings become Fractions."""
    if isinstance(v, bool):
        raise SceneError(f"expected a number, got {v!r}")
    if isinstance(v, (int, float)):
        return v
    if isinstance(v, str):
        try:
            return Fraction(v)
        except (ValueError, ZeroDivisionError) as exc:
            raise SceneError(f"cannot parse number {v!r}") from exc
    raise SceneError(f"expected a number, got {v!r}")


def _num_or_none(v, inf_sign: int):
    if v is None:
        return math.inf * inf_sign
    return _num(v)


def _parse_metric(obj) -> Metric:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise SceneError("metric must be an object with a 'kind'")
    kind = obj["kind"]
    try:
        if kind == "lp":
            return Metric.lp(_num(obj.get("p")))
        return Metric(kind)
    except (TypeError, ValueError) as exc:
        raise SceneError(f"bad metric: {exc}") from exc


def _parse_space(obj) -> Space:
    if not isinstance(obj, dict):
        raise SceneError("scene needs a 'space' object")
    metric = _parse_metric(obj.get("metric", {"kind": "l2"}))
    kind = obj.get("kind", "continuum")
    if kind == "finite":
        pts = obj.get("points")
        if not pts:
            raise SceneError("finite space needs a nonempty 'points' array")
        return Space.finite([Point([_num(c) for c in p]) for p in pts], metric)
    if kind != "continuum":
        raise SceneError(f"unknown space kind {kind!r}")
    dim = obj.get("dimension")
    if not isinstance(dim, int) or dim < 1:
        raise SceneError("continuum space needs an integer 'dimension' >= 1")
    membership = None
    if "membership" in obj:
        parts = []
        for entry in obj["membership"]:
            if "point" in entry:
                parts.append(Interval.point(_num(entry["point"])))
            elif "interval" in entry:
                lo, hi = entry["interval"]
                iv = Interval(_num_or_none(lo, -1), _num_or_none(hi, +1))
                if iv.is_empty:
                    raise SceneError(f"empty membership interval {entry['interval']!r}")
                parts.append(iv)
            else:
                raise SceneError(f"bad membership entry {entry!r}")
        membership = IntervalUnion.of(parts)
    return Space.continuum(dim, metric, membership)


def _parse_ellipse(obj, space: Space) -> KEllipse:
    try:
        foci = [Point([_num(c) for c in f]) for f in obj["foci"]]
        return KEllipse(space, tuple(foci), _num(obj["r"]))
    except KeyError as exc:
        raise SceneError(f"ellipse needs 'foci' and 'r': missing {exc}") from exc
    except ValueError as exc:
        raise SceneError(f"bad ellipse: {exc}") from exc


def _parse_region(obj, ellipses):
    kind = obj.get("kind")
    if kind == "on_ellipse":
        idx = obj.get("index", 0)
        if not (0 <= idx < len(ellipses)):
            raise SceneError(f"on_ellipse index {idx} out of range")
        return OnEllipse(ellipses[idx], _num(obj.get("tol", 0)))
    if kind == "in_set":
        return InFiniteSet(tuple(Point([_num(c) for c in p]) for p in obj["points"]))
    if kind == "interval":
        return Interval(_num_or_none(obj.get("lo"), -1), _num_or_none(obj.get("hi"), +1),
                        bool(obj.get("lo_open", False)), bool(obj.get("hi_open", False)))
    if kind == "halfspace":
        return InHalfspace(tuple(_num(c) for c in obj["coeffs"]), _num(obj["offset"]))
    if kind == "otherwise":
        return Otherwise()
    raise SceneError(f"unknown region kind {kind!r}")


def _parse_action(obj):
    kind = obj.get("kind")
    if kind == "identity":
        return Identity()
    if kind == "constant":
        return ConstantPoint(Point([_num(c) for c in obj["point"]]))
    if kind == "affine":
        return Affine1D(_num(obj["slope"]), _num(obj["intercept"]))
    if kind == "rational":
        a, b = (_num(c) for c in obj["num"])
        c, d = (_num(c) for c in obj["den"])
        return Rational1D((a, b), (c, d))
    raise SceneError(f"unknown action kind {kind!r}")


def _parse_map(obj, ellipses) -> SelfMap:
    rules = obj.get("rules")
    if not rules:
        raise SceneError("map needs a nonempty 'rules' array")
    parsed = []
    for rule in rules:
        try:
            parsed.append((_parse_region(rule["region"], ellipses),
                           _parse_action(rule["action"])))
        except KeyError as exc:
            raise SceneError(f"map rule needs 'region' and 'action': missing {exc}") from exc
    if not isinstance(parsed[-1][0], Otherwise):
        raise SceneError("the final map rule must have region kind 'otherwise'")
    return SelfMap(tuple(parsed))


def _parse_piecewise(obj) -> PiecewiseAffine1D:
    if "srelu" in obj:
        s = obj["srelu"]
        try:
            return srelu(_num(s["tl"]), _num(s["al"]), _num(s["tr"]), _num(s["ar"]))
        except KeyError as exc:
            raise SceneError(f"srelu needs tl/al/tr/ar: missing {exc}") from exc
    try:
        return PiecewiseAffine1D(
            tuple(_num(b) for b in obj["breakpoints"]),
            tuple((_num(a), _num(b)) for a, b in obj["pieces"]),
            tuple(bool(o) for o in obj.get("owns_left", ())),
        )
    except KeyError as exc:
        raise SceneError(f"piecewise map needs 'breakpoints' and 'pieces': missing {exc}") from exc
    except ValueError as exc:
        raise SceneError(f"bad piecewise map: {exc}") from exc


def parse_scene(data: dict, name: str = "<scene>") -> Scene:
    if not isinstance(data, dict):
        raise SceneError("scene must be a JSON object")
    version = data.get("version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise SceneError(f"unsupported scene version {version} (expected {SCHEMA_VERSION})")
    if "space" not in data:
        raise SceneError("scene needs a 'space'")
    space = _parse_space(data["space"])

    raw_ellipses = data.get("ellipses", [])
    if "ellipse" in data:
        raw_ellipses = [data["ellipse"]] + list(raw_ellipses)
    ellipses = tuple(_parse_ellipse(obj, space) for obj in raw_ellipses)

    self_map = _parse_map(data["map"], ellipses) if "map" in data else None
    piecewise = _parse_piecewise(data["piecewise"]) if "piecewise" in data else None

    trace = None
    if "trace" in data:
        t = data["trace"]
        try:
            trace = TraceConfig(
                bbox=tuple((float(_num(lo)), float(_num(hi))) for lo, hi in t["bbox"]),
                resolution=int(t.get("resolution", 256)),
                refine_tol=float(_num(t.get("refine_tol", REFINE_TOL))),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise SceneError(f"bad trace config: {exc}") from exc
        if len(trace.bbox) != space.dimension:
            raise SceneError("trace bbox dimension does not match the space")

    seed = data.get("seed", 0)
    if not isinstance(seed, int):
        raise SceneError("seed must be an integer")

    return Scene(
        name=name,
        space=space,
        ellipses=ellipses,
        self_map=self_map,
        piecewise=piecewise,
        trace=trace,
        plan_cfg=data.get("plan", {}),
        seed=seed,
        theorem=data.get("theorem"),
        description=data.get("description", ""),
        expect=data.get("expect", {}),
    )


def load_scene(path) -> Scene:
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise SceneError(f"cannot read scene {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SceneError(f"scene {path} is not valid JSON: {exc}") from exc
    return parse_scene(data, name=path.stem)


def fixture_names() -> list[str]:
    """Names of the scenes shipped with the package."""
    pkg = resources.files("kellipse") / "scenes"
    return sorted(p.name[:-5] for p in pkg.iterdir() if p.name.endswith(".json"))


def fixture_scene(name: str) -> Scene:
    """Load a shipped scene by name (without the .json suffix)."""
    path = fixture_path(name)
    if not path.is_file():
        raise SceneError(f"no shipped scene named {name!r}")
    return load_scene(path)


def fixture_path(name: str) -> Path:
    """Filesystem path of a shipped scene (for CLI-level tests)."""
    return Path(str(resources.files("kellipse") / "scenes" / f"{name}.json"))
