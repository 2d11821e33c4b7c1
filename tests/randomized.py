"""Randomized helpers that only tests use: the trial colouring algorithm,
which reads a seed layer that no command attaches, and Monte Carlo
estimates of a failure rate and of a constraint's probability, each with a
distribution-free confidence radius.  The library's own measures are
exact (`csp.probability`, `compilers.rand_to_csp`)."""

from dataclasses import dataclass
from fractions import Fraction
from math import ceil, log, log2, sqrt
from typing import Callable, Dict, Tuple

from locallemma.canonical import DEFAULT_SIZE_CAP, CanonicalForm
from locallemma.csp import Constraint
from locallemma.graphs import TAG_RAND, StructuredGraph, layer_value, with_labeling
from locallemma.localrun import LclProblem, LocalAlgorithm, run_deterministic, verify_lcl
from locallemma.rng import derived_rng


def trial_coloring_rounds(n: int) -> int:
    # per-round survival of an uncolored vertex is bounded away from 1, so
    # failure decays geometrically; 4 log2 n + 2 keeps it under 1/n at desk
    # scale with a comfortable margin
    return max(1, ceil(4 * log2(max(n, 2)))) + 2


def trial_coloring_rule(delta: int, rounds: int) -> Callable[[CanonicalForm], int]:
    palette = delta + 1

    def digit(theta: int, r: int) -> int:
        return ((theta - 1) // palette**r) % palette + 1

    def rule(form: CanonicalForm) -> int:
        graph, root = form.decode()
        theta = {}
        for v in graph.vertices:
            val = layer_value(graph, v, TAG_RAND)
            if val is None or not isinstance(val, int):
                return 0
            theta[v] = val
        final: Dict[int, int] = {}
        for r in range(rounds):
            cand = {v: digit(theta[v], r) for v in graph.vertices if v not in final}
            settled = {}
            for v, cv in cand.items():
                ok = True
                for u in graph.neighbors(v):
                    if final.get(u) == cv or (u in cand and cand[u] == cv):
                        ok = False
                        break
                if ok:
                    settled[v] = cv
            final.update(settled)
            if root in final:
                break
        return final.get(root, 0)

    return rule


def trial_coloring(delta: int, n: int) -> Tuple[LocalAlgorithm, int, int]:
    """(algorithm, rounds, seed range) of trial colouring with delta + 1
    colours on instances of size n: one base-(delta + 1) seed digit per
    round."""
    rounds = trial_coloring_rounds(n)
    alg = LocalAlgorithm("trial_coloring", trial_coloring_rule(delta, rounds))
    return alg, rounds, (delta + 1) ** rounds


def hoeffding_radius(trials: int, alpha: float = 0.01) -> float:
    """Distribution-free two-sided confidence radius at level 1 - alpha."""
    return sqrt(log(2.0 / alpha) / (2.0 * trials))


@dataclass
class FailureEstimate:
    rate: Fraction
    radius: float
    trials: int
    failures: int


def estimate_randomized_failure(alg: LocalAlgorithm, problem: LclProblem,
                                graph: StructuredGraph, rounds: int, m: int,
                                trials: int, seed: int = 0,
                                canon_cap: int = DEFAULT_SIZE_CAP) -> FailureEstimate:
    """Empirical failure fraction over uniform seed layers, with a 99%
    confidence radius."""
    if trials < 1 or m < 1:
        raise ValueError("need trials >= 1 and m >= 1")
    failures = 0
    for trial in range(trials):
        rng = derived_rng(seed, "rand-trial", trial)
        theta = {v: rng.randint(1, m) for v in graph.vertices}
        attached = with_labeling(graph, theta, TAG_RAND)
        outputs = run_deterministic(alg, attached, rounds, canon_cap=canon_cap)
        report = verify_lcl(problem, graph, outputs, canon_cap=canon_cap)
        if not report.valid:
            failures += 1
    return FailureEstimate(
        rate=Fraction(failures, trials),
        radius=hoeffding_radius(trials),
        trials=trials,
        failures=failures,
    )


@dataclass
class ProbabilityEstimate:
    value: Fraction
    radius: float
    trials: int


def probability_estimate(constraint: Constraint, trials: int, seed: int = 0) -> ProbabilityEstimate:
    """Monte Carlo estimate for bodies above the enumeration cap; clearly
    typed so it is never mistaken for an exact value."""
    rng = derived_rng(seed, "prob-estimate", constraint.tag, len(constraint.domain))
    hits = 0
    for _ in range(trials):
        values = tuple(rng.randint(1, constraint.m) for _ in constraint.domain)
        if constraint.contains(values):
            hits += 1
    return ProbabilityEstimate(Fraction(hits, trials), hoeffding_radius(trials), trials)
