"""The reference loop: a fixed piece of work whose time shows the host's speed.

It runs in its own process, which never imports kellipse, so that threads or
memory a change leaves behind in the workload process cannot slow it and hide
their own cost. run.py writes a repeat count on stdin; the process runs the
loop that many times and answers with the median wall time and the median
CPU time of one loop, in seconds.

The loop mixes Python bytecode (integer and tuple work, a dict, Fraction
arithmetic, as in the exact 1D paths) with a small numpy kernel (row norms,
as in the distance fields), in about the proportions of the workloads.
"""
from __future__ import annotations

import sys
import time
from fractions import Fraction

import numpy as np

ROWS = np.random.default_rng(0).random((4096, 3))


def loop():
    acc = 0
    table = {}
    for i in range(15000):
        t = (i, i * 7 % 19)
        acc += t[1] * t[1]
        table[t[1]] = acc
    q = Fraction(0)
    for i in range(1, 600):
        q += Fraction(1, i % 11 + 1)
    for _ in range(30):
        s = np.sqrt((ROWS * ROWS).sum(axis=1))
    return acc, q, float(s[0])


def main():
    for _ in range(5):
        loop()
    for line in sys.stdin:
        reps = max(1, int(line))
        walls, cpus = [], []
        for _ in range(reps):
            w0, c0 = time.perf_counter(), time.process_time()
            loop()
            walls.append(time.perf_counter() - w0)
            cpus.append(time.process_time() - c0)
        sys.stdout.write(f"{sorted(walls)[reps // 2]!r} {sorted(cpus)[reps // 2]!r}\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
