"""Print the lines of `src/kellipse` that the package's real traffic never runs.

    python3 scripts/reach.py [--scenes NAME ...] [--workloads [NAME ...]]

Two runs are line-traced with `sys.settrace`, the package imported after the
trace is set:

- every `kellipse` command (trace with --csv, verify --theorem t1..t5 with
  --report, median, fixpoints, axioms) on every shipped scene, in process;
- round 0 of each benchmark workload's ops at seed 7, made and run by
  `bench/inputs.py` and `bench/workload.py`, which this script imports and
  never edits.

`--scenes` and `--workloads` cut the runs to the named scenes and workloads;
`--workloads` with no name skips the second run. The script then prints, per
function (module, qualified name), the lines that neither run executes, as
runs of the function's executable lines, marking a function never called;
a line that some run reaches is not listed. So it shows which code only
tests reach, before a change deletes or keeps it. Every file it writes goes
to a temporary directory, and no bytecode is cached; the checkout is left
as it was. The full run takes about 5 s on 2 vCPUs.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

sys.dont_write_bytecode = True
ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "kellipse"
WORKLOADS = ("plane2d", "certify2d", "exact1d", "cloud3d")
SEED = 7


def commands(scene: str, out: str) -> list[list[str]]:
    """Every `kellipse` command on one scene file, writing its files under out."""
    return ([["trace", scene, "-o", f"{out}/out.svg", "--csv", f"{out}/out.csv"]]
            + [["verify", scene, "--theorem", t, "--report", f"{out}/{t}.json"]
               for t in ("t1", "t2", "t3", "t4", "t5")]
            + [["median", scene], ["fixpoints", scene], ["axioms", scene]])


def traffic(scenes, workloads, out: str) -> None:
    """Run the commands on the scenes, then round 0 of the workloads, all output discarded."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    import kellipse as ke
    from kellipse.cli import main
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        for name in scenes or ke.fixture_names():
            for argv in commands(str(ke.fixture_path(name)), out):
                main(argv)
        if workloads:
            import inputs
            import workload
            for name in workloads:
                for data in workload.prepare(ke, name, inputs.round_inputs(name, SEED, 0), 0, out):
                    try:
                        workload.OPS[name](ke, data, out)()
                    except Exception:       # a failing op, as the benchmark counts it
                        pass


def key(code) -> tuple:
    """A code object's file, qualified name and first line, the same for its
    compiled and its loaded copy."""
    return code.co_filename, getattr(code, "co_qualname", code.co_name), code.co_firstlineno


def traced(run) -> dict:
    """{key(code): lines executed} of the code under src/kellipse while run() runs."""
    prefix = str(PACKAGE)
    executed = defaultdict(set)

    def on_call(frame, event, arg):
        if not frame.f_code.co_filename.startswith(prefix):
            return None
        lines = executed[key(frame.f_code)]
        lines.add(frame.f_lineno)

        def on_line(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return on_line
        return on_line

    sys.settrace(on_call)
    try:
        run()
    finally:
        sys.settrace(None)
    return executed


def functions(path: Path):
    """(code, its executable lines) of every code object in the module at path."""
    stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while stack:
        code = stack.pop()
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
        lines = sorted({line for _, _, line in code.co_lines() if line is not None})
        if lines:
            yield code, lines


def runs(lines: list, missed: set) -> str:
    """The missed lines as runs over the sorted executable `lines`: "a-b, c"."""
    out, start, prev = [], None, None
    for line in lines + [None]:
        if line in missed:
            start = line if start is None else start
        elif start is not None:
            out.append(f"{start}-{prev}" if prev != start else str(start))
            start = None
        prev = line
    return ", ".join(out)


def report(executed: dict) -> list[str]:
    """One line per function with unreached lines, in file and line order, then a total."""
    out, total, reached = [], 0, 0
    for path in sorted(PACKAGE.glob("*.py")):
        found = []
        for code, lines in functions(path):
            missed = set(lines) - executed.get(key(code), set())
            total += len(lines)
            reached += len(lines) - len(missed)
            if missed:
                note = " (never called)" if len(missed) == len(lines) else ""
                found.append((lines[0], f"{path.stem}.{key(code)[1]}: {runs(lines, missed)}{note}"))
        out += [text for _, text in sorted(found)]
    out.append(f"reached {reached} of {total} executable lines in {PACKAGE.relative_to(ROOT)}")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--scenes", nargs="+", help="shipped scene names (default: all)")
    ap.add_argument("--workloads", nargs="*", choices=WORKLOADS, default=list(WORKLOADS),
                    help="benchmark workloads to run round 0 of (default: all; none if empty)")
    args = ap.parse_args(argv)
    with tempfile.TemporaryDirectory() as out:
        executed = traced(lambda: traffic(args.scenes, args.workloads, out))
    print("\n".join(report(executed)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
