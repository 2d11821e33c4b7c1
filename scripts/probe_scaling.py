#!/usr/bin/env python3
"""Engine scaling probe: `solve_weighted` and `extend_solution(csp, {})`
on one instance family at growing n.

The family: ternary explicit CSPs over [n] with range m = 2^22, n // 6
constraints, one forbidden pattern each, and every element in at most two
domains (so d <= 3).  Per size it prints the median of REPEATS wall
times for each call; then the exponent of a least-squares fit of log time
against log n, and one hash over every assignment and step report, which
must not change when only the speed of the code does.

    PYTHONPATH=src python scripts/probe_scaling.py --sizes 300 600 1200 2400
"""

import argparse
import hashlib
import json
import math
import random
import statistics
import sys
import time

from locallemma import Constraint, Csp, WeightedGroundSet, solve_weighted
from locallemma.engine import extend_solution

M = 2 ** 22
REPEATS = 3


def probe_csp(n: int) -> Csp:
    """n // 6 ternary constraints; each element fills at most two domain
    slots, taken in a shuffled order, a repeat within a domain skipped."""
    rng = random.Random(f"probe-0-{n}")
    slots = [x for x in range(n) for _ in range(2)]
    rng.shuffle(slots)
    slots = iter(slots)
    constraints = []
    for _ in range(n // 6):
        dom = set()
        while len(dom) < 3:
            dom.add(next(slots))
        pattern = tuple(rng.randint(1, M) for _ in dom)
        constraints.append(Constraint.explicit(dom, M, [pattern]))
    return Csp(tuple(range(n)), M, tuple(constraints))


def timed(call):
    """(median wall time in seconds, result of the last call)."""
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        result = call()
        times.append(time.perf_counter() - start)
    return statistics.median(times), result


def exponent(sizes, times) -> float:
    """Slope of the least-squares line through (log n, log t)."""
    xs = [math.log(n) for n in sizes]
    ys = [math.log(max(t, 1e-9)) for t in times]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    num = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    den = sum((x - mx) ** 2 for x in xs)
    return num / den if den else 0.0


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--sizes", type=int, nargs="+", default=[300, 600, 1200, 2400])
    args = parser.parse_args()

    digest = hashlib.sha256()
    solve_times, extend_times = [], []
    for n in args.sizes:
        csp = probe_csp(n)
        wts = WeightedGroundSet.uniform(csp.ground)
        t_solve, solved = timed(lambda: solve_weighted(csp, wts, seed=0))
        t_extend, extended = timed(lambda: extend_solution(csp, {}, seed=0))
        record = {"n": n, "solve": sorted(solved.assignment.items()),
                  "steps": solved.step_reports, "extend": sorted(extended.items())}
        digest.update(json.dumps(record, sort_keys=True, default=str).encode())
        solve_times.append(t_solve)
        extend_times.append(t_extend)
        print(f"n={n:5d}  solve_weighted {t_solve:.3f} s  extend_solution {t_extend:.3f} s")
    print(f"exponent solve_weighted {exponent(args.sizes, solve_times):.2f}  "
          f"extend_solution {exponent(args.sizes, extend_times):.2f}")
    print(f"hash {digest.hexdigest()[:16]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
