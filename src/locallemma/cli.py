"""Command-line driver; every run writes a JSON report whose verdicts are
exact rationals and whose randomness derives from the recorded root seed,
so identical configs produce byte-identical reports.

Commands: gen, run-local, verify, csp {check,solve,cover}, pipeline
{det,rand}, gadget, report.  Each command's handler returns its report.
Exit codes: 0 passed, 1 verification failed, 2 input error (no report),
3 cap-out, 4 certified infeasible, 5 internal invariant violation.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import dataclass, field
from typing import List, Optional

from .algorithms import builtin_algorithm, echo_rule, proper_coloring_problem
from .compilers import rand_to_csp
from .connect import apply
from .csp import DEFAULT_CAP_BITS, is_solution, stats
from .engine import (
    DEFAULT_COVER_BUDGET,
    WeightedGroundSet,
    cover_family,
    lll_check,
    moser_tardos_solve,
    refuse_full_bodies,
    solve_weighted,
)
from .errors import (CanonicalizationCapError, CoverBudgetError, EnumerationCapError,
                     StepInfeasibleError)
from .generators import gadget_build, generate
from .graphs import TAG_IDS, TAG_RAND, greedy_coloring, with_labeling
from .localrun import LocalAlgorithm, det_pipeline, run_deterministic, verify_lcl
from .rng import derived_rng
from .serialize import (
    _known_keys,
    _strict_int,
    csp_from_json,
    dump_json,
    fraction_str,
    graph_from_json,
    graph_to_json,
    labeling_from_json,
    labeling_to_json,
    load_json,
    weights_from_json,
)

# (required, optional) keys of each pipeline's params
PIPELINE_PARAMS = {"det": ((), ("n", "rounds")), "rand": ((), ("m", "rounds")),
                   "gadget": (("k",), ())}


@dataclass
class ExperimentConfig:
    pipeline: str                   # det | rand | gadget
    graph: Optional[dict] = None    # inline graph json or generator spec
    algorithm: Optional[str] = None
    params: dict = field(default_factory=dict)
    seed: int = 0
    cap_enum_bits: int = DEFAULT_CAP_BITS

    def validate(self):
        if self.pipeline not in ("det", "rand", "gadget"):
            raise ValueError(f"unknown pipeline {self.pipeline!r}")
        if self.cap_enum_bits <= 0:
            raise ValueError("caps must be positive")
        _known_keys(self.params, *PIPELINE_PARAMS[self.pipeline], "params")


def _param(cfg: ExperimentConfig, name: str, default: Optional[int] = None) -> int:
    """A non-negative int parameter; `validate` has refused a required one
    that is missing."""
    return _strict_int(cfg.params.get(name, default), f"params.{name}", low=0)


def run_experiment(cfg: ExperimentConfig) -> dict:
    """Execute one pipeline end to end and return the report dict; the
    `passed` field drives the process exit code."""
    cfg.validate()
    report = {
        "pipeline": cfg.pipeline,
        "seed": cfg.seed,
        "cap_enum_bits": cfg.cap_enum_bits,
        "params": dict(cfg.params),
        "checks": [],
        "passed": False,
    }
    if "kind" in cfg.graph:   # a generator spec
        _known_keys(cfg.graph, ("kind",), ("params",), "graph")
        graph = generate(cfg.graph["kind"], cfg.graph.get("params", {}), cfg.seed)
    else:
        graph = graph_from_json(cfg.graph)
    if cfg.pipeline == "det":
        n = _param(cfg, "n", len(graph.vertices))
        spec = builtin_algorithm(cfg.algorithm or "cole_vishkin_3color", {"n": n})
        rounds = _param(cfg, "rounds", spec.rounds(n))
        order = list(graph.vertices)
        derived_rng(cfg.seed, "det-order").shuffle(order)
        run = det_pipeline(spec.algorithm, spec.problem, graph, n=n, rounds=rounds,
                           order=order)
        report["checks"].append({"name": "pipeline-valid", "ok": run.valid,
                                 **run.checks})
        report["outputs"] = labeling_to_json(run.outputs)
        report["passed"] = run.valid
    elif cfg.pipeline == "rand":
        m = _strict_int(cfg.params.get("m", 16), "params.m", low=1)
        rounds = _param(cfg, "rounds", 0)
        if (cfg.algorithm or "theta_echo") != "theta_echo":
            raise ValueError("the rand pipeline drives the seed-echo algorithm")
        alg = LocalAlgorithm("theta_echo", echo_rule(TAG_RAND), value_symmetric=True)
        problem = proper_coloring_problem(m)
        compiled, decoder = rand_to_csp(alg, problem, graph, m, rounds,
                                        cap_bits=cfg.cap_enum_bits)
        st = stats(compiled, cfg.cap_enum_bits)
        verdict = lll_check(compiled, "symmetric", cap_bits=cfg.cap_enum_bits)
        report["checks"].append({
            "name": "compiled-stats", "ok": True,
            "p": fraction_str(st.p), "d": st.d, "b": st.b,
            "symmetric-margin": fraction_str(verdict.margin),
        })
        refuse_full_bodies(compiled, cfg.cap_enum_bits)
        mt = moser_tardos_solve(compiled, seed=cfg.seed,
                                cap=200 * max(1, len(compiled.constraints)))
        if mt.assignment is None:
            report["checks"].append({"name": "solver", "ok": False,
                                     "resamples": mt.resamples})
            return report
        decoded = apply(decoder, mt.assignment)
        run = verify_lcl(problem, graph, decoded)
        report["checks"].append({"name": "solver", "ok": True, "resamples": mt.resamples})
        report["checks"].append({"name": "decoded-coloring-valid", "ok": run.valid,
                                 "violators": run.violating_vertices})
        report["outputs"] = labeling_to_json(decoded)
        report["passed"] = run.valid
    elif cfg.pipeline == "gadget":
        gadget = gadget_build(graph, _param(cfg, "k"))
        d = graph.max_degree()
        ok = gadget.max_degree() <= d - 1
        report["checks"].append({"name": "gadget-degree", "ok": ok,
                                 "source_degree": d,
                                 "gadget_degree": gadget.max_degree()})
        report["gadget"] = graph_to_json(gadget)
        report["passed"] = ok
    return report


def emit_summary(report_paths: List[str]):
    """Aggregate pass rates / margins / iteration counts over report files."""
    rows = []
    errors = []
    margins = []
    iterations = []
    for path in report_paths:
        try:
            data = load_json(path)
            if not isinstance(data, dict):
                raise ValueError(f"expected a JSON object, got {type(data).__name__}")
            if not isinstance(data.get("pipeline", "?"), str):
                raise TypeError("field 'pipeline' is not a string")
            if not isinstance(data.get("iterations", 0), int):
                raise TypeError("field 'iterations' is not an integer")
            row = {
                "path": path,
                "pipeline": data.get("pipeline", "?"),
                "passed": bool(data.get("passed")),
                "checks": len(data.get("checks", [])),
            }
            if "margin" in data:
                row["margin"] = data["margin"]
                margins.append(data["margin"])
            if "iterations" in data:
                row["iterations"] = data["iterations"]
                iterations.append(data["iterations"])
            rows.append(row)
        except (OSError, TypeError, ValueError) as exc:  # unreadable, not JSON, not a report
            errors.append({"path": path, "error": str(exc)})
    summary = {
        "reports": len(rows),
        "passed": sum(1 for r in rows if r["passed"]),
        "failed": sum(1 for r in rows if not r["passed"]),
        "margins": margins,
        "total_iterations": sum(iterations),
        "rows": rows,
        "errors": errors,
    }
    lines = [f"{'path':40} {'pipeline':10} {'passed':6} checks"]
    for r in rows:
        lines.append(f"{r['path']:40} {r['pipeline']:10} {str(r['passed']):6} {r['checks']}")
    for e in errors:
        lines.append(f"{e['path']:40} PARSE ERROR: {e['error']}")
    return summary, "\n".join(lines)


CAP_OUTS = (EnumerationCapError, CanonicalizationCapError, CoverBudgetError)
INFEASIBLE = (StepInfeasibleError,)
OUTCOME_EXIT = {"cap-out": 3, "infeasible": 4, "internal-error": 5}


def _gen(args) -> dict:
    return graph_to_json(generate(args.kind, json.loads(args.params), args.seed))


def _lcl_report(args, run, **fields) -> dict:
    return {"pipeline": args.pipeline, **fields, "outputs": labeling_to_json(run.outputs),
            "valid": run.valid, "violating_vertices": run.violating_vertices,
            "passed": run.valid}


def _run_local(args) -> dict:
    graph = graph_from_json(load_json(args.graph))
    n = len(graph.vertices)
    spec = builtin_algorithm(args.alg, {"n": n})
    rounds = args.rounds if args.rounds is not None else spec.rounds(n)
    if args.ids == "greedy":
        order = list(graph.vertices)
        derived_rng(args.seed, "ids-order").shuffle(order)
        ids = greedy_coloring(graph, order)
    else:
        ids = {v: i + 1 for i, v in enumerate(graph.vertices)}
    outputs = run_deterministic(spec.algorithm, with_labeling(graph, ids, TAG_IDS), rounds)
    run = verify_lcl(spec.problem, graph, outputs)
    return _lcl_report(args, run, seed=args.seed, alg=args.alg, rounds_used=rounds)


def _verify(args) -> dict:
    match = re.fullmatch(r"proper-(any|[1-9][0-9]*)", args.problem)
    if match is None:
        raise ValueError(f"--problem: expected proper-any or proper-<k> with k >= 1, "
                         f"got {args.problem!r}")
    k = None if match[1] == "any" else int(match[1])
    graph = graph_from_json(load_json(args.graph))
    labels = labeling_from_json(load_json(args.labels))
    run = verify_lcl(proper_coloring_problem(k), graph, labels)
    return _lcl_report(args, run, problem=args.problem, rounds_used=run.rounds_used)


def _csp_check(args) -> dict:
    verdict = lll_check(csp_from_json(load_json(args.csp)), args.which,
                        cap_bits=args.cap_enum_bits)
    return {"pipeline": args.pipeline, "which": args.which, "holds": verdict.holds,
            "margin": fraction_str(verdict.margin), "p": fraction_str(verdict.p),
            "d": verdict.d, "passed": verdict.holds}


def _csp_solve(args) -> dict:
    csp = csp_from_json(load_json(args.csp))
    report = {"pipeline": args.pipeline, "method": args.method, "seed": args.seed}
    if args.method == "mt":
        refuse_full_bodies(csp, args.cap_enum_bits)
        result = moser_tardos_solve(csp, seed=args.seed, cap=args.cap)
        ok = result.assignment is not None and is_solution(csp, result.assignment)[0]
        return {**report, "resamples": result.resamples, "capped": result.capped,
                "assignment": labeling_to_json(result.assignment or {}), "passed": ok}
    wts = (weights_from_json(load_json(args.weights)) if args.weights
           else WeightedGroundSet.uniform(csp.ground))
    result = solve_weighted(csp, wts, seed=args.seed, cap_bits=args.cap_enum_bits)
    if args.trace:
        dump_json(result.step_reports, args.trace)
    return {**report, "iterations": result.iterations, "steps": result.step_reports,
            "assignment": labeling_to_json(result.assignment), "passed": True}


def _csp_cover(args) -> dict:
    csp = csp_from_json(load_json(args.csp))
    if not csp.ground:
        raise ValueError("need a nonempty ground set")
    result = cover_family(csp, seed=args.seed, budget=args.budget, cap_bits=args.cap_enum_bits)
    min_count = min(result.per_element_counts.values())
    return {"pipeline": args.pipeline, "levels": result.levels,
            "members": len(result.members), "min_element_coverage": min_count,
            "route": result.route, "passed": min_count >= 2 ** (result.levels - 1)}


def _pipeline(args) -> dict:
    if args.graph:
        graph_spec = load_json(args.graph)
    elif args.gen_kind:
        graph_spec = {"kind": args.gen_kind, "params": json.loads(args.gen_params)}
    else:
        raise ValueError("pipeline needs --graph or --gen-kind")
    return run_experiment(ExperimentConfig(
        pipeline=args.pipeline, graph=graph_spec, algorithm=args.alg,
        params=json.loads(args.params), seed=args.seed, cap_enum_bits=args.cap_enum_bits))


def _gadget(args) -> dict:
    return run_experiment(ExperimentConfig(pipeline=args.pipeline, graph=load_json(args.graph),
                                           params={"k": args.k}, seed=args.seed))


def _report(args) -> dict:
    summary, table = emit_summary(args.paths)
    print(table)
    return summary


def _command(sub, name, handler, *reads, pipeline=None, **kwargs):
    """A sub-command with its handler, the pipeline name its reports carry
    (default: the command's name), and --out plus whichever of --seed and
    --cap-enum-bits the handler reads."""
    parser = sub.add_parser(name, **kwargs)
    parser.set_defaults(handler=handler, pipeline=pipeline or name)
    if "seed" in reads:
        parser.add_argument("--seed", type=int, default=0)
    if "cap" in reads:
        parser.add_argument("--cap-enum-bits", type=int, default=DEFAULT_CAP_BITS)
    parser.add_argument("--out", default=None)
    return parser


def _outcome(args) -> dict:
    """The handler's report, or a report of the run's outcome when it caps
    out, certifies infeasibility or breaks an internal invariant (a failed
    assertion); the error names the cap and the need, the failing
    inequality, or the assertion."""
    try:
        return args.handler(args)
    except CAP_OUTS + INFEASIBLE + (AssertionError,) as exc:
        outcome = ("cap-out" if isinstance(exc, CAP_OUTS)
                   else "infeasible" if isinstance(exc, INFEASIBLE) else "internal-error")
        return {"pipeline": args.pipeline, "outcome": outcome,
                "error": str(exc) or type(exc).__name__, "passed": False}


def _emit(report: dict, out: Optional[str], echo: bool) -> int:
    """Write the report to `out`, or print it when `echo`; return the exit
    code: 3 for a cap-out, 4 for certified infeasibility, 5 for an internal
    error, else 1 iff the report failed a verification (a summary's
    `passed` is a count)."""
    text = json.dumps(report, indent=2, sort_keys=True)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    elif echo:
        print(text)
    if "outcome" in report:
        return OUTCOME_EXIT[report["outcome"]]
    return 1 if report.get("passed") is False else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="locallemma")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = _command(sub, "gen", _gen, "seed", help="generate a graph")
    p_gen.add_argument("--kind", required=True)
    p_gen.add_argument("--params", default="{}")

    p_run = _command(sub, "run-local", _run_local, "seed", help="run a builtin local algorithm")
    p_run.add_argument("--graph", required=True)
    p_run.add_argument("--alg", required=True)
    p_run.add_argument("--rounds", type=int, default=None)
    p_run.add_argument("--ids", choices=["greedy", "explicit"], default="greedy")

    p_ver = _command(sub, "verify", _verify, help="verify a labeling against a problem")
    p_ver.add_argument("--problem", required=True, help="e.g. proper-3")
    p_ver.add_argument("--graph", required=True)
    p_ver.add_argument("--labels", required=True)

    p_csp = sub.add_parser("csp", help="CSP checks and solvers")
    csp_sub = p_csp.add_subparsers(dest="csp_command", required=True)
    p_check = _command(csp_sub, "check", _csp_check, "cap", pipeline="csp-check")
    p_check.add_argument("--csp", required=True)
    p_check.add_argument("--which", default="symmetric",
                         choices=["symmetric", "general", "measurable",
                                  "neighborhood-growth"])
    p_solve = _command(csp_sub, "solve", _csp_solve, "seed", "cap", pipeline="csp-solve")
    p_solve.add_argument("--csp", required=True)
    p_solve.add_argument("--method", choices=["mt", "weighted"], default="mt")
    p_solve.add_argument("--weights", default=None)
    p_solve.add_argument("--trace", default=None)
    p_solve.add_argument("--cap", type=int, default=None)
    p_cover = _command(csp_sub, "cover", _csp_cover, "seed", "cap", pipeline="csp-cover")
    p_cover.add_argument("--csp", required=True)
    p_cover.add_argument("--budget", type=int, default=DEFAULT_COVER_BUDGET)

    # the positional `pipeline` (det | rand) is the name its reports carry
    p_pipe = _command(sub, "pipeline", _pipeline, "seed", "cap",
                      help="end-to-end experiment pipelines")
    p_pipe.add_argument("pipeline", choices=["det", "rand"])
    p_pipe.add_argument("--graph", default=None)
    p_pipe.add_argument("--gen-kind", default=None)
    p_pipe.add_argument("--gen-params", default="{}")
    p_pipe.add_argument("--alg", default=None)
    p_pipe.add_argument("--params", default="{}")

    p_gad = _command(sub, "gadget", _gadget, "seed", help="degree-reduction gadget")
    p_gad.add_argument("--graph", required=True)
    p_gad.add_argument("--k", type=int, required=True)

    p_rep = _command(sub, "report", _report, help="aggregate report files")
    p_rep.add_argument("paths", nargs="*")

    args = parser.parse_args(argv)
    try:
        for option, low in (("cap_enum_bits", 1), ("cap", 0), ("budget", 1), ("rounds", 0)):
            if getattr(args, option, None) is not None:  # out of range: an input error
                _strict_int(getattr(args, option), "--" + option.replace("_", "-"), low)
        # the report command prints its table in place of the summary
        return _emit(_outcome(args), args.out, echo=args.handler is not _report)
    except Exception as exc:  # input error: no report
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
