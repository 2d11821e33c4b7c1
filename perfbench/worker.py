"""Run one workload in this process and print one JSON line.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/worker.py --workload NAME --seed N --setup-round R

Closed loop, one client, no threads.  Set-up is the library import plus
round 0's inputs.  Then whole rounds of ops run until S seconds have
passed; round 0 always runs in full, and its results make the digest.
With --setup-round R the worker only sets up, generating round R's inputs
in place of round 0's, and prints the set-up time.
Each op's time covers only its call into the library, rescaled to
reference speed by the host clock; checks and input generation for later
rounds happen between ops.  perfbench/run.py starts this script and turns
its output into metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback
from collections import Counter

from calib import HostClock

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPAN_LIMIT = 200_000
OUTCOMES = ("passed", "infeasible_expected", "cap_out_expected", "verification_failed",
            "infeasible_unexpected", "cap_out_unexpected", "exception")
# outcomes that count as failed: a wrong result, or a cap-out on an op
# whose known answer is not one
FAILED = ("verification_failed", "infeasible_unexpected", "cap_out_unexpected",
          "exception")


def execute(workloads, work, op, tracer, keep_record: bool):
    """Run one op: (outcome, start, end, digest entry, detail)."""
    span = tracer.begin_op() if tracer else None
    start = time.perf_counter()
    try:
        result, error = op.call(), None
    except Exception as exc:  # classified below; the run goes on
        result, error = None, exc
    end = time.perf_counter()
    if span is not None:
        tracer.finish_op(span)

    caps = (workloads.CanonicalizationCapError, workloads.EnumerationCapError,
            workloads.CoverBudgetError)
    if isinstance(error, workloads.StepInfeasibleError):
        if tracer:
            tracer.counters["engine.step_infeasible"] += 1
        if op.expect_infeasible:
            return "infeasible_expected", start, end, "infeasible", None
        return "infeasible_unexpected", start, end, "infeasible", str(error)[:300]

    def cap_out(detail):
        if op.cap_expected:
            return "cap_out_expected", start, end, "cap", None
        return "cap_out_unexpected", start, end, "cap", detail[:300]

    if isinstance(error, caps):
        return cap_out(str(error))
    if error is not None:
        return ("exception", start, end, "exception",
                "".join(traceback.format_exception_only(type(error), error)).strip())
    if op.expect_infeasible:
        return "verification_failed", start, end, "solved", "expected StepInfeasibleError"
    try:
        record = op.check(result)
    except workloads.CapOut as exc:
        return cap_out(str(exc))
    except workloads.CheckFailed as exc:
        return "verification_failed", start, end, "rejected", str(exc)
    except Exception as exc:  # a result the check cannot read is rejected too
        return ("verification_failed", start, end, "rejected",
                "".join(traceback.format_exception_only(type(exc), exc)).strip())
    return "passed", start, end, work.digest_entry(record) if keep_record else None, None


def measure(workloads, work, first_round, seconds, tracer):
    ops_out, digest0, errors = [], [], []
    outcomes = Counter()
    kinds0 = [op.kind for op in first_round]
    began = time.perf_counter()
    ops, r = first_round, 0
    while True:
        for op in ops:
            outcome, a, b, entry, detail = execute(workloads, work, op, tracer, r == 0)
            ops_out.append((op.kind, a, b, outcome))
            outcomes[outcome] += 1
            if r == 0:
                digest0.append(entry)
            if detail and len(errors) < 10:
                errors.append(f"round {r} {op.kind}: {outcome}: {detail}")
        r += 1
        if time.perf_counter() - began >= seconds:
            break
        ops = work.round(r)
    return {"rounds": r, "round_kinds": kinds0, "ops": ops_out,
            "outcomes": outcomes, "digest0": digest0, "errors": errors}


def layer_report(tracer, clock, ops) -> dict:
    times = tracer.self_times(clock.ref_seconds)
    return {
        "spans": {name: [calls, secs] for name, (calls, secs) in times.items()},
        "counters": dict(tracer.counters),
        "traced_total_s": sum(clock.ref_seconds(a, b) for _, a, b, _ in ops),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-round", type=int, default=None)
    args = parser.parse_args()

    with open(os.path.join(HERE, "reference.json")) as fh:
        reference = json.load(fh)
    sys.path.insert(0, os.path.join(ROOT, "src"))

    tracer = None
    with HostClock(reference["calib_ref_ms"]) as clock:
        s0 = time.perf_counter()
        import workloads  # imports the library, so set-up time includes it

        work = workloads.WORKLOADS[args.workload](args.seed)
        setup_only = args.setup_round is not None
        first_round = work.round(args.setup_round if setup_only else 0)
        s1 = time.perf_counter()
        if not setup_only:
            if args.trace:
                from spans import Tracer

                tracer = Tracer()
                tracer.install()
            run = measure(workloads, work, first_round, args.seconds, tracer)

    out = {"setup_s": clock.ref_seconds(s0, s1)}
    if setup_only:
        print(json.dumps(out))
        return 0

    expected = reference["digests"].get(args.workload, {}).get(str(args.seed))
    digest = workloads.record_hash(work.digest_records(run["digest0"]))
    out.update({
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "rounds": run["rounds"],
        "round_kinds": run["round_kinds"],
        "ops": [[kind, clock.ref_seconds(a, b), clock.raw_seconds(a, b), outcome]
                for kind, a, b, outcome in run["ops"]],
        "outcomes": {name: run["outcomes"][name] for name in OUTCOMES},
        "failed": sum(run["outcomes"][name] for name in FAILED),
        "errors": run["errors"],
        "digest": digest,
        "digest_status": ("unchecked" if expected is None
                          else "match" if expected == digest else "mismatch"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "calib_ms": clock.calib_ms(),
    })
    if tracer is not None:
        out["layers"] = layer_report(tracer, clock, run["ops"])
        out_dir = os.path.join(ROOT, ".perfbench_out")
        os.makedirs(out_dir, exist_ok=True)
        tracer.write(os.path.join(out_dir, f"spans_{args.workload}_{args.seed}.tsv"),
                     SPAN_LIMIT)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
