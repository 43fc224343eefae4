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

Every malformed value is one SceneError whose message starts with the scene
key it sits under, such as `space.metric` or `plan.window`; `kellipse` exits 2.
"""
from __future__ import annotations

import json
import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from fractions import Fraction
from importlib import resources
from pathlib import Path

from .geometry import KEllipse
from .intervals import Interval, IntervalUnion
from .metric import REFINE_TOL, Metric, Point, Space, is_exact
from .piecewise import PiecewiseAffine1D, srelu
from .tracer import TraceConfig
from .verifier import (Affine1D, ConstantPoint, Identity, InFiniteSet,
                       InHalfspace, OnEllipse, Otherwise, Rational1D,
                       MAX_PLAN_POINTS, SamplePlan, SelfMap, default_plan)

SCHEMA_VERSION = 1
THEOREMS = ("t1", "t2", "t3", "t4", "t5")


class SceneError(ValueError):
    """A scene file failed validation."""


# what parsing a malformed value raises: 1e400 reads as inf, "1/0" divides by zero
_PARSE_ERRORS = (AttributeError, IndexError, KeyError, OverflowError, TypeError, ValueError, ZeroDivisionError)


@contextmanager
def _field(key: str, sep: str = ": "):
    """Report a parse error inside scene key `key` as the SceneError key + sep +
    error; one that starts with the key already, from an inner field, passes."""
    try:
        yield
    except _PARSE_ERRORS as exc:
        why = f"missing {exc}" if isinstance(exc, KeyError) else str(exc)
        if isinstance(exc, SceneError) and why.startswith(key):
            raise
        raise SceneError(f"{key}{sep}{why}") from exc


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
        return default_plan(
            self.ellipse,
            seed=self.seed if seed is None else seed,
            off_count=self.plan_cfg.get("off_count", 512),
            window=self.plan_cfg.get("window"),
            trace_config=self.trace,
        )


def _num(v):
    """Parse a scene number: ints stay exact, 'p/q' strings become Fractions."""
    if isinstance(v, str):
        return Fraction(v)
    if isinstance(v, (int, float)) and not isinstance(v, bool):
        return v
    raise ValueError(f"expected a number, got {v!r}")


def _num_or_none(v, inf_sign: int):
    if v is None:
        return math.inf * inf_sign
    return _num(v)


def _parse_metric(obj) -> Metric:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise SceneError("metric must be an object with a 'kind'")
    return Metric.lp(_num(obj.get("p"))) if obj["kind"] == "lp" else Metric(obj["kind"])


def _parse_space(obj) -> Space:
    if not isinstance(obj, dict):
        raise SceneError("scene needs a 'space' object")
    with _field("space.metric"):
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
    if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
        raise SceneError("continuum space needs an integer 'dimension' >= 1")
    membership = None
    if "membership" in obj:
        parts = []
        for entry in obj["membership"]:
            if "point" in entry:
                iv = Interval.point(_num(entry["point"]))
            elif "interval" in entry:
                lo, hi = entry["interval"]
                iv = Interval(_num_or_none(lo, -1), _num_or_none(hi, +1))
            else:
                raise SceneError(f"bad membership entry {entry!r}")
            if iv.is_empty or not iv.lo <= iv.hi:       # a NaN end compares false
                raise SceneError(f"empty membership interval {entry!r}")
            parts.append(iv)
        membership = IntervalUnion.of(parts)
    return Space.continuum(dim, metric, membership)


def _parse_ellipse(obj, space: Space) -> KEllipse:
    return KEllipse(space, tuple(Point([_num(c) for c in f]) for f in obj["foci"]), _num(obj["r"]))


def _parse_region(obj, ellipses):
    kind = obj.get("kind")
    if kind == "on_ellipse":
        idx = obj.get("index", 0)
        if isinstance(idx, bool) or not (0 <= idx < len(ellipses)):
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
    # a Point of the coefficients refuses any that is not finite
    if kind == "affine":
        return Affine1D(*Point((_num(obj["slope"]), _num(obj["intercept"]))))
    if kind == "rational":
        a, b = Point(_num(c) for c in obj["num"])
        c, d = Point(_num(c) for c in obj["den"])
        return Rational1D((a, b), (c, d))
    raise SceneError(f"unknown action kind {kind!r}")


def _parse_map(obj, ellipses) -> SelfMap:
    rules = obj.get("rules")
    if not rules:
        raise SceneError("map needs a nonempty 'rules' array")
    parsed = [(_parse_region(rule["region"], ellipses), _parse_action(rule["action"])) for rule in rules]
    if not isinstance(parsed[-1][0], Otherwise):
        raise SceneError("the final map rule must have region kind 'otherwise'")
    return SelfMap(tuple(parsed))


def _parse_piecewise(obj) -> PiecewiseAffine1D:
    if "srelu" in obj:
        s = obj["srelu"]
        return srelu(_num(s["tl"]), _num(s["al"]), _num(s["tr"]), _num(s["ar"]))
    return PiecewiseAffine1D(
        tuple(_num(b) for b in obj["breakpoints"]),
        tuple((_num(a), _num(b)) for a, b in obj["pieces"]),
        tuple(bool(o) for o in obj.get("owns_left", ())),
    )


def _parse_plan(obj) -> dict:
    """The plan field with its numbers checked and parsed: off_count an
    integer in [1, MAX_PLAN_POINTS], window two finite numbers lo < hi."""
    if not isinstance(obj, dict):
        raise SceneError("plan must be an object")
    plan = dict(obj)
    if "off_count" in plan:
        n = plan["off_count"]
        if isinstance(n, bool) or not isinstance(n, int) or not 1 <= n <= MAX_PLAN_POINTS:
            raise SceneError(f"plan.off_count must be an integer in [1, {MAX_PLAN_POINTS}], got {n!r}")
    if "window" in plan:
        w = plan["window"]
        with _field("plan.window"):
            lo, hi = (_num(v) for v in w)
            if not (all(is_exact(v) or math.isfinite(v) for v in (lo, hi)) and lo < hi):
                raise SceneError(f"plan.window must have finite ends lo < hi, got {w!r}")
        plan["window"] = (lo, hi)
    return plan


def parse_scene(data: dict, name: str = "<scene>") -> Scene:
    if not isinstance(data, dict):
        raise SceneError("scene must be a JSON object")
    version = data.get("version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION or isinstance(version, bool):
        raise SceneError(f"unsupported scene version {version} (expected {SCHEMA_VERSION})")
    if "space" not in data:
        raise SceneError("scene needs a 'space'")
    with _field("space"):
        space = _parse_space(data["space"])

    ellipses = ()       # "ellipse" first, then "ellipses"
    for key, objs in (("ellipse", [data.get("ellipse")]), ("ellipses", data.get("ellipses"))):
        if key in data:
            with _field(key):
                ellipses += tuple(_parse_ellipse(obj, space) for obj in objs)

    self_map = piecewise = trace = None
    if "map" in data:
        with _field("map"):
            self_map = _parse_map(data["map"], ellipses)
    if "piecewise" in data:
        with _field("piecewise"):
            piecewise = _parse_piecewise(data["piecewise"])
    if "trace" in data:
        with _field("trace"):
            t = data["trace"]
            bbox = tuple((float(_num(lo)), float(_num(hi))) for lo, hi in t["bbox"])
            refine_tol = float(_num(t.get("refine_tol", REFINE_TOL)))
        with _field("trace", sep="."):      # its messages start with the field they refuse
            trace = TraceConfig(bbox, t.get("resolution", 256), refine_tol)
        if len(trace.bbox) != space.dimension:
            raise SceneError("trace bbox dimension does not match the space")

    seed = data.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise SceneError("seed must be an integer")
    theorem = data.get("theorem")
    if theorem is not None and theorem not in THEOREMS:
        raise SceneError(f"theorem must be one of t1..t5, got {theorem!r}")

    return Scene(
        name=name,
        space=space,
        ellipses=ellipses,
        self_map=self_map,
        piecewise=piecewise,
        trace=trace,
        plan_cfg=_parse_plan(data.get("plan", {})),
        seed=seed,
        theorem=theorem,
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
