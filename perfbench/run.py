"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a checkout of the repository, with no installation:
the library is imported from ./src.  Each workload runs in a process of
its own (perfbench/worker.py), so its peak RSS is its own.

--trace 0 measures the end-to-end metrics: one untraced worker for S
seconds, plus SETUP_PROBES fresh processes that only set up, so set-up
time is a median of several.  Probe k generates round k's inputs: how long
input generation takes depends on the draw (random_regular retries a
draw-dependent number of times), and the median over several draws keeps
one slow draw from setting it.  --trace 1 measures the per-layer metrics:
an untraced worker and then a traced one, S/2 seconds each; the untraced
one gives the tracing overhead and the scaling slope.

Human-readable lines go first; the last line of standard output is one
JSON object {"correct", "attempted", "failed", "metrics"}.  The exit code
is 0 only when every op passed its check and the digest, where one is
recorded for the seed in perfbench/reference.json, matched.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys

from spans import OP_SPAN, PREDICATE_SPAN, RULE_SPAN, TRACED

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("local_det", "local_sym", "rand_compile", "lll_solve")
SETUP_PROBES = 8
# a worker finishes the round it has started, which can take over 10 s
WORKER_GRACE_S = 120

# Per-layer metrics of the traced worker.  Counts and times are per op, so
# runs that complete a different number of rounds stay comparable.
SELF_MS = [f"{module}.{fn}" for module, fn in TRACED] + [RULE_SPAN, PREDICATE_SPAN]
CALLS = ("graphs.ball", "graphs.with_labeling", "canonical.canonical_type",
         "localrun.rule", "compilers.predicate", "csp.stats", "csp.restrict_csp",
         "binary.binary_reduce", "connect.apply", "engine.construct_partial",
         "engine.moser_tardos_solve")
COUNTERS = ("canonical.cap_outs", "engine.step_infeasible", "engine.mt.resamples",
            "engine.mt.capped")


class WorkerError(RuntimeError):
    pass


def worker(workload: str, seed: int, seconds: float = 0.0, trace: int = 0,
           setup_round: int | None = None) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed)]
    cmd += (["--setup-round", str(setup_round)] if setup_round is not None
            else ["--seconds", str(seconds), "--trace", str(trace)])
    # run() kills the worker on timeout and waits for it before raising
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=seconds + WORKER_GRACE_S)
    if proc.returncode != 0:
        raise WorkerError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def throughput(run: dict, which: int = 1) -> float:
    """Ops per second at the round's mix, from each op kind's median time:
    one slow op cannot swing it, and runs that end after a different
    number of rounds measure the same mix.  which=1: reference seconds,
    which=2: raw seconds."""
    by_kind = {}
    for op in run["ops"]:
        by_kind.setdefault(op[0], []).append(op[which])
    kinds = run["round_kinds"]
    return len(kinds) / sum(statistics.median(by_kind[k]) for k in kinds)


def latency_ms(run: dict, which: int = 1):
    times = sorted(op[which] * 1000.0 for op in run["ops"])
    p90 = statistics.quantiles(times, n=10)[8] if len(times) >= 100 else None
    return statistics.median(times), p90, len(times)


def scaling_slope(run: dict) -> float:
    """log2 of the time ratio per doubling of n over the n, 2n, 4n ladder;
    0 for workloads without one."""
    sizes = [k for k in run["round_kinds"] if k.startswith("n") and k[1:].isdigit()]
    if len(sizes) < 2:
        return 0.0
    small, large = sizes[0], sizes[-1]
    med = {k: statistics.median(op[1] for op in run["ops"] if op[0] == k)
           for k in (small, large)}
    return math.log2(med[large] / med[small]) / math.log2(int(large[1:]) / int(small[1:]))


def describe(run: dict) -> list:
    o = run["outcomes"]
    attempted = len(run["ops"])
    lines = [
        f"  rounds {run['rounds']}  ops {attempted}  digest {run['digest'][:16]} "
        f"({run['digest_status']})  host.calib_ms {run['calib_ms']:.3f}",
        "  outcomes " + " ".join(f"{k}={v}" for k, v in o.items()),
        f"  fail_share {run['failed'] / attempted:.4f} ratio "
        f"(failed {run['failed']} of {attempted})",
    ]
    lines += [f"  error: {e}" for e in run["errors"]]
    return lines


def end_to_end(args) -> tuple:
    run = worker(args.workload, args.seed, args.seconds)
    probes = [worker(args.workload, args.seed, setup_round=k)
              for k in range(1, SETUP_PROBES + 1)]
    setups = [run["setup_s"]] + [p["setup_s"] for p in probes]
    p50, p90, n = latency_ms(run)
    raw_p50, _, _ = latency_ms(run, 2)
    metrics = {
        "ops_per_s": (throughput(run), "ops/s"),
        "op_p50_ms": (p50, "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (run["peak_rss_mb"], "MB"),
    }
    lines = [f"{args.workload} seed {args.seed} untraced, {args.seconds:g} s"]
    lines += [f"  {name:12} {value:.6g} {unit}" for name, (value, unit) in metrics.items()]
    lines.append(f"  op_p90_ms    {p90:.6g} ms" if p90 is not None
                 else f"  op_p90_ms    not reported: {n} ops < 100")
    lines.append(f"  op samples {n}; setup samples {len(setups)}; raw (uncalibrated) "
                 f"ops_per_s {throughput(run, 2):.6g}, op_p50_ms {raw_p50:.6g}")
    lines += describe(run)
    return run, metrics, lines


def per_layer(args) -> tuple:
    half = args.seconds / 2
    base = worker(args.workload, args.seed, half)
    run = worker(args.workload, args.seed, half, trace=1)
    layers = run["layers"]
    ops = len(run["ops"])
    spans, counters = layers["spans"], layers["counters"]
    metrics = {}
    for name in CALLS:
        metrics[f"{name}.calls"] = (spans.get(name, (0, 0.0))[0] / ops, "calls/op")
    for name in SELF_MS:
        metrics[f"{name}.self_ms"] = (spans.get(name, (0, 0.0))[1] * 1000.0 / ops, "ms/op")
    for name in COUNTERS:
        metrics[name] = (counters.get(name, 0) / ops, "count/op")
    canon_calls = spans.get("canonical.canonical_type", (0, 0.0))[0]
    metrics["canonical.repeat_share"] = (
        counters.get("canonical.repeats", 0) / canon_calls if canon_calls else 0.0, "ratio")
    metrics["localrun.scaling_slope"] = (scaling_slope(base), "log2")
    metrics["host.calib_ms"] = (run["calib_ms"], "ms")
    overhead = 1.0 - throughput(run) / throughput(base)
    metrics["trace.overhead"] = (overhead, "ratio")

    total = layers["traced_total_s"]
    unattributed = spans.get(OP_SPAN, (0, 0.0))[1]
    lines = [f"{args.workload} seed {args.seed} traced, {half:g} s untraced + {half:g} s traced"]
    lines += [f"  {name:36} {value:.6g} {unit}" for name, (value, unit) in metrics.items()]
    lines.append(f"  traced total {total:.4f} s; layer self times sum to "
                 f"{total - unattributed:.4f} s; unattributed share "
                 f"{unattributed / total:.4f} vs overhead {overhead:.4f}")
    lines += describe(base) + describe(run)
    return [base, run], metrics, lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "locallemma", "__init__.py")):
        print(f"error: no library source under {ROOT}/src; run from a checkout",
              file=sys.stderr)
        return 2
    try:
        if args.trace:
            runs, metrics, lines = per_layer(args)
        else:
            run, metrics, lines = end_to_end(args)
            runs = [run]
    except (WorkerError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    attempted = sum(len(r["ops"]) for r in runs)
    failed = sum(r["failed"] for r in runs)
    correct = failed == 0 and all(r["digest_status"] != "mismatch" for r in runs)
    for line in lines:
        print(line)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
