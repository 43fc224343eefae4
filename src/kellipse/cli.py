"""Command-line front end.

Subcommands:
    trace <scene> -o out.svg [--csv out.csv]     extract the level curve/cloud
    verify <scene> --theorem t1..t5 [--report p] check fixed-figure conditions
    median <scene>                               minimum radius and its argmin
    fixpoints <scene>                            exact fixed set and radii
    axioms <scene> [--samples N]                 metric axiom check

Exit codes: 0 success/Pass, 1 condition Fail, 2 usage or scene error (a
malformed scene value, or a self-map that fails on a plan point), 3 solver
error, 4 any other exception, printed with its traceback. --seed overrides the
scene seed.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path

from .geometry import SolverError, _minimum, min_radius
from .metric import Space, fmt_num, verify_metric_axioms
from .piecewise import fixed_kellipse_radii, fixed_point_set
from .scene import THEOREMS, SceneError, load_scene
from .tracer import _csv_parts, _svg_parts, sample_3d, trace_2d
from .verifier import FAIL, ConfigurationError, certify, check_identity_condition


def fmt_point(p) -> str:
    if len(p) == 1:
        return fmt_num(p[0])
    return "(" + ", ".join(fmt_num(c) for c in p) + ")"


def _json_num(v):
    if v is None or isinstance(v, (int, str)):
        return v
    if isinstance(v, float) and math.isfinite(v):
        return float(v)
    return fmt_num(v)      # Fraction / inf render as strings


def report_to_dict(rep) -> dict:
    return {
        "condition": rep.condition_id,
        "verdict": rep.verdict,
        "fitted_constant": _json_num(rep.fitted_constant),
        "worst_margin": _json_num(rep.worst_margin),
        "witness": [[_json_num(c) for c in p] for p in rep.witness],
        "exhaustive": rep.exhaustive,
        "exact": rep.exact,
        "notes": rep.notes,
    }


def _write(path, parts) -> None:
    """Write the text pieces `parts` to path as UTF-8, one piece at a time."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(parts)


def cmd_trace(args) -> int:
    scene = load_scene(args.scene)
    if scene.trace is None:
        raise SceneError(f"scene {scene.name!r} has no trace config")
    e = scene.ellipse
    if scene.space.dimension == 2:
        result = trace_2d(e, scene.trace)
        polylines, points, dots = result.polylines, result.all_vertices(), None
        what = f"{len(polylines)} polyline(s), {len(points)} vertices"
    elif scene.space.dimension == 3:
        result = sample_3d(e, scene.trace)
        polylines, points = [], result.points
        dots = points       # a 3D cloud is drawn as its (x, y) projection
        what = f"cloud of {len(points)} points"
    else:
        raise SceneError("trace requires a 2D or 3D continuum scene")

    _write(args.output, _svg_parts(polylines, e.foci, scene.trace.bbox, dots))
    if args.csv:
        _write(args.csv, _csv_parts(points))
    if result.boundary_warning:
        print("warning: the curve touches the bbox boundary", file=sys.stderr)
    if not len(points):
        r_star, _, lower = _minimum(e.field)     # f - r >= 0 at every node when r <= r*
        why = ("r is below the minimum radius" if e.r < lower else
               "r is the minimum radius, whose set of minimizers a sign-change grid does not trace"
               if e.r <= r_star else "the bbox misses the level set")
        print(f"warning: traced no points: {why}", file=sys.stderr)
    print(f"traced {what} -> {args.output}")
    return 0


def cmd_verify(args) -> int:
    scene = load_scene(args.scene)
    if scene.self_map is None:
        raise SceneError(f"scene {scene.name!r} has no self-map")
    theorem = args.theorem or scene.theorem or "t1"
    e = scene.ellipse
    plan = scene.build_plan(seed=args.seed)

    if theorem == "t5":
        verdict = None
        reports = {"Ik": check_identity_condition(scene.self_map, e.field, plan)}
        family = "identity-forcing"
    else:
        verdict = certify(theorem, scene.self_map, e, plan)
        reports, family = verdict.reports, verdict.family
    failed = any(r.verdict == FAIL for r in reports.values())
    summary = {
        "scene": scene.name,
        "theorem": theorem,
        "family": family,
        "plan": {"on": len(plan.on_ellipse), "off": len(plan.off_ellipse),
                 "exhaustive": plan.exhaustive, "exact": plan.exact},
        "conditions": [report_to_dict(r) for r in reports.values()],
    }
    if verdict is None:
        summary["passed"] = not failed
    else:
        summary.update(existence_certified=verdict.existence_certified,
                       uniqueness_certified=verdict.uniqueness_certified,
                       qualifier=verdict.qualifier)

    for rep in reports.values():
        extra = ""
        if rep.fitted_constant is not None:
            extra = f"  fitted={fmt_num(rep.fitted_constant)}"
        if rep.witness:
            extra += "  witness=" + ", ".join(fmt_point(p) for p in rep.witness)
        print(f"{rep.condition_id:8s} {rep.verdict:8s} margin={fmt_num(rep.worst_margin)}{extra}")
    if verdict is not None:
        print(f"existence: {'certified' if verdict.existence_certified else 'NOT certified'} "
              f"({verdict.qualifier})")
        print(f"uniqueness: {'certified' if verdict.uniqueness_certified else 'NOT certified'} "
              f"({verdict.qualifier})")

    if args.report:
        Path(args.report).write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")
    return 1 if failed else 0


def cmd_median(args) -> int:
    scene = load_scene(args.scene)
    r_star, argmin = min_radius(scene.ellipse.field)
    print(f"({fmt_num(r_star)}, {fmt_point(argmin)})")
    return 0


def cmd_fixpoints(args) -> int:
    scene = load_scene(args.scene)
    if scene.piecewise is None:
        raise SceneError(f"scene {scene.name!r} has no piecewise map")
    if scene.ellipses and scene.space != Space.continuum(1, scene.space.metric):
        raise SceneError(f"scene {scene.name!r}: radii need a 1D continuum without membership")
    fix = fixed_point_set(scene.piecewise)
    print(f"Fix = {fix}")
    if scene.ellipses:
        foci = [f[0] for f in scene.ellipse.foci]
        radii = fixed_kellipse_radii(scene.piecewise, foci)
        print(f"radii = {radii}")
    return 0


def cmd_axioms(args) -> int:
    scene = load_scene(args.scene)
    seed = args.seed if args.seed is not None else scene.seed
    report = verify_metric_axioms(scene.space, args.samples, seed=seed)
    print(f"metric {report.metric.label}: {report.sample_count} triples, seed {report.seed}, "
          f"{len(report.violations)} violation(s)")
    for v in report.violations[:20]:
        pts = ", ".join(fmt_point(p) for p in v.points)
        print(f"  {v.axiom}: {pts} (amount {v.amount:g})")
    return 0 if report.ok else 1


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and kept for the process."""
    parser = argparse.ArgumentParser(
        prog="kellipse",
        description="k-ellipse level sets, tracing, and fixed-figure verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("trace", help="extract the level curve (SVG) or cloud (CSV)")
    p.add_argument("scene")
    p.add_argument("-o", "--output", required=True, help="output SVG path")
    p.add_argument("--csv", help="also write vertices/points as CSV")
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("verify", help="check one condition family on the scene")
    p.add_argument("scene")
    p.add_argument("--theorem", choices=THEOREMS,
                   help="condition family (default: scene's, then t1)")
    p.add_argument("--report", help="write a JSON report here")
    p.add_argument("--seed", type=int, help="override the scene seed")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("median", help="minimum radius and geometric median")
    p.add_argument("scene")
    p.set_defaults(func=cmd_median)

    p = sub.add_parser("fixpoints", help="exact fixed set and admissible radii")
    p.add_argument("scene")
    p.set_defaults(func=cmd_fixpoints)

    p = sub.add_parser("axioms", help="check the metric axioms on samples")
    p.add_argument("scene")
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--seed", type=int, help="override the scene seed")
    p.set_defaults(func=cmd_axioms)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:      # SceneError among them
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConfigurationError as exc:          # the scene's self-map fails on a plan point
        print(f"error: map: {exc}", file=sys.stderr)
        return 2
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 3
    except Exception:
        import traceback        # loaded only when a run fails this way
        traceback.print_exc()
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
