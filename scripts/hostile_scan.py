"""Run the shipped scenes, one leaf at a time set to a hostile value, under every command.

    PYTHONPATH=src python3 scripts/hostile_scan.py

Each of nine values (NaN, 1e400, -1e400, -1, 0, "x", null, [], {}) replaces
one leaf of one shipped scene; the scene then runs in process under each
`kellipse` command, with its trace, if any, at resolution 16 (JSON reads
1e400 as inf). The script prints the number of runs per exit code, then
every run that breaks the exit-code contract of `kellipse.cli`:

- exit 4, or an exception out of `cli.main` (counted as "escaped": the
  interpreter would print a traceback and exit 1);
- a traceback on stderr;
- exit 2 with a message that names neither the scene key whose leaf was
  replaced nor the same error as the unchanged scene.

It exits 1 if there is any such run. A full run makes 17,604 runs in about
6 s on 2 vCPUs. The leaves under "expect" and "description" are skipped: the
package reads neither. `tests/test_hostile_input.py` runs the probes below and
a seeded sample of the mutations through the same functions.
"""
from __future__ import annotations

import contextlib
import copy
import io
import json
import math
import tempfile
from collections import Counter
from pathlib import Path

from kellipse import fixture_names, fixture_path
from kellipse import cli
from kellipse.verifier import MAX_PLAN_POINTS

VALUES = (math.nan, math.inf, -math.inf, -1, 0, "x", None, [], {})
SKIPPED = ("expect", "description")
TRACE_RESOLUTION = 16
AXIOM_SAMPLES = 50

# Scene inputs that once escaped `cli.main` with a traceback, or ran when they
# should not: (label, scene, edits, key). An edit is (path, value) or
# (path, function of the old value); the key is the scene key the message names.
_PIECEWISE_BREAKPOINT = {"breakpoints": [math.inf], "pieces": [[1, 0], [1, 0]]}
PROBES = (
    ("srelu.tl = 1e400", "srelu", [(("piecewise", "srelu", "tl"), math.inf)], "piecewise"),
    ("breakpoint 1e400", "srelu", [(("piecewise",), _PIECEWISE_BREAKPOINT)], "piecewise"),
    ("srelu as a list", "srelu", [(("piecewise", "srelu"), [-6, 2, 6, 3])], "piecewise"),
    ("piecewise = 5", "srelu", [(("piecewise",), 5)], "piecewise"),
    ("membership = 5", "halfline_identity", [(("space", "membership"), 5)], "space"),
    ("membership = [5]", "halfline_identity", [(("space", "membership"), [5])], "space"),
    ("ellipse.foci = 5", "reciprocal_map", [(("ellipse", "foci"), 5)], "ellipse"),
    ("ellipses = 5", "finite_two_ellipses", [(("ellipses",), 5)], "ellipses"),
    ("space.points = [5]", "finite_two_ellipses", [(("space", "points"), [5])], "space"),
    ("map = 5", "reciprocal_map", [(("map",), 5)], "map"),
    ("map.rules = [5]", "reciprocal_map", [(("map", "rules"), [5])], "map"),
    ("theorem = 5", "reciprocal_map", [(("theorem",), 5)], "theorem"),
    ("theorem = t9", "reciprocal_map", [(("theorem",), "t9")], "theorem"),
    ("dimension = true", "tri_l2", [(("space", "dimension"), True)], "space"),
    ("on_ellipse.index = 0.5", "finite_two_ellipses",
     [(("map", "rules", 0, "region", "index"), 0.5)], "map"),
    ("seed = true", "reciprocal_map", [(("seed",), True)], "seed"),
    ("ellipse.r = 1/0", "reciprocal_map", [(("ellipse", "r"), "1/0")], "ellipse"),
    ("plan.off_count above MAX_PLAN_POINTS", "reciprocal_map",
     [(("plan", "off_count"), MAX_PLAN_POINTS + 1)], "plan.off_count"),
    ("trace.bbox end 1e400", "tri_l2", [(("trace", "bbox", 0, 0), -math.inf)], "trace.bbox"),
)
# A rational map with its pole -1 inside the plan's window and no rule for
# it: the map fails on a plan point, under verify only.
POLE_SCENE = ("reciprocal_map", [
    (("map", "rules"), lambda rules: [r for r in rules if r["action"]["kind"] != "constant"]),
    (("plan", "window"), [-1, "-63/64"]),
])


def scene_data(name: str) -> dict:
    """A shipped scene as JSON data, its trace cut to TRACE_RESOLUTION."""
    data = json.loads(fixture_path(name).read_text(encoding="utf-8"))
    if isinstance(data.get("trace"), dict):
        data["trace"]["resolution"] = TRACE_RESOLUTION
    return data


def leaves(obj, path=()):
    """Paths of the scalar and empty-container leaves of JSON data, in order."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    items = [(k, v) for k, v in items if not (path == () and k in SKIPPED)]
    if not items:
        yield path
    for k, v in items:
        yield from leaves(v, path + (k,))


def edited(data: dict, edits) -> dict:
    """A deep copy of data with each (path, value) edit made."""
    data = copy.deepcopy(data)
    for path, value in edits:
        parent = data
        for k in path[:-1]:
            parent = parent[k]
        parent[path[-1]] = value(parent[path[-1]]) if callable(value) else copy.deepcopy(value)
    return data


def commands(scene: str, out: str) -> list[list[str]]:
    """Every subcommand on one scene file, writing any output under out."""
    return [
        ["trace", scene, "-o", f"{out}/out.svg", "--csv", f"{out}/out.csv"],
        ["verify", scene, "--report", f"{out}/report.json"],
        ["verify", scene, "--theorem", "t5"],
        ["median", scene],
        ["fixpoints", scene],
        ["axioms", scene, "--samples", str(AXIOM_SAMPLES)],
    ]


def run(data: dict, argv_of, tmp: str) -> list[tuple[str, object, str]]:
    """Write data as a scene under tmp and run each command of argv_of(scene, tmp)
    in process: [(command, exit code or "escaped", stderr)]."""
    scene = f"{tmp}/scene.json"
    Path(scene).write_text(json.dumps(data), encoding="utf-8")
    results = []
    for argv in argv_of(scene, tmp):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except Exception:           # what the interpreter would print and exit 1 on
                code = "escaped"
        label = " ".join(a for a in argv if not a.startswith(tmp) and a not in ("-o", "--csv", "--report"))
        results.append((label, code, err.getvalue()))
    return results


def fault(code, err: str, key: str, baseline_err: str | None = None) -> str | None:
    """Why one run breaks the exit-code contract, or None if it keeps it."""
    if code == "escaped" or code == 4:
        return f"exit {code}"
    if code not in (0, 1, 2, 3):
        return f"exit code {code!r}"
    if "Traceback" in err:
        return "traceback on stderr"
    if code == 2 and key not in err and err != baseline_err:
        return "exit 2 without the key"
    return None


def mutations():
    """(scene, leaf path, value) for every leaf of every shipped scene and value."""
    for name in fixture_names():
        for path in leaves(scene_data(name)):
            for value in VALUES:
                yield name, path, value


def scan(cases, tmp: str) -> tuple[Counter, list]:
    """Run each (scene, path, value) under every command: the count of runs
    per exit code and the runs that break the contract."""
    counts, faults, baselines = Counter(), [], {}
    for name, path, value in cases:
        if name not in baselines:
            baselines[name] = run(scene_data(name), commands, tmp)
        results = run(edited(scene_data(name), [(path, value)]), commands, tmp)
        for (command, code, err), (_, _, base_err) in zip(results, baselines[name]):
            counts[code] += 1
            why = fault(code, err, str(path[0]), base_err)
            if why:
                faults.append((name, path, value, command, why, err.strip()[-300:]))
    return counts, faults


def main() -> int:
    cases = list(mutations())
    with tempfile.TemporaryDirectory() as tmp:
        counts, faults = scan(cases, tmp)
    runs = sum(counts.values())
    print(f"{len(cases)} mutations x {len(commands('', ''))} commands = {runs} runs")
    for code in sorted(counts, key=str):
        print(f"exit {code}: {counts[code]}")
    print(f"contract faults: {len(faults)}")
    for name, path, value, command, why, err in faults:
        print(f"  {why}: {name} {list(path)} = {value!r} [{command}] {err!r}")
    return 1 if faults else 0


if __name__ == "__main__":
    raise SystemExit(main())
