"""Round-based execution of local rules and verification of locally
checkable coloring problems.

A local algorithm is a pure function of the canonical type of the rooted
radius-T ball; running it for T rounds means evaluating that function at
every vertex independently.  Since the rule is pure, it is evaluated once
per distinct canonical form in a run and its output reused.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

from .canonical import DEFAULT_SIZE_CAP, CanonicalForm, canonical_type
from .errors import PipelineError
from .graphs import (
    TAG_IDS,
    TAG_OUTPUT,
    StructuredGraph,
    VertexLabeling,
    ball,
    greedy_power_coloring,
    with_labeling,
)


@dataclass(frozen=True)
class LocalAlgorithm:
    """Named deterministic rule from canonical ball types to outputs.
    `value_symmetric` declares that permuting the seed values [m] permutes
    an algorithm's outputs alike, or leaves a verifier's verdict unchanged
    when applied to seeds and outputs; a `palette` k limits it to m <= k."""

    name: str
    rule: Callable[[CanonicalForm], int]
    palette: Optional[int] = None
    value_symmetric: bool = False

    def __call__(self, form: CanonicalForm) -> int:
        return int(self.rule(form))

    def symmetric_at(self, m: int) -> bool:
        return self.value_symmetric and (self.palette is None or self.palette >= m)


@dataclass(frozen=True)
class LclProblem:
    """Locally checkable problem: verifier runs t rounds, outputs 0/1."""

    t: int
    verifier: LocalAlgorithm

    def __post_init__(self):
        if self.t < 0:
            raise ValueError("verification radius must be nonnegative")


@dataclass
class RunReport:
    outputs: VertexLabeling
    rounds_used: int
    violating_vertices: List[int]
    checks: dict = field(default_factory=dict)

    @property
    def valid(self) -> bool:
        return not self.violating_vertices


def run_deterministic(alg: LocalAlgorithm, graph: StructuredGraph, rounds: int,
                      canon_cap: int = DEFAULT_SIZE_CAP) -> VertexLabeling:
    """Evaluate alg at every vertex on the canonical type of its
    radius-`rounds` ball; alg is called once per distinct form."""
    if rounds < 0:
        raise ValueError("rounds must be nonnegative")
    out: VertexLabeling = {}
    memo = {}
    for x in graph.vertices:
        form = canonical_type(ball(graph, x, rounds), cap=canon_cap)
        if form.code not in memo:
            memo[form.code] = int(alg(form))
        out[x] = memo[form.code]
    return out


def verify_lcl(problem: LclProblem, graph: StructuredGraph, labeling: VertexLabeling,
               canon_cap: int = DEFAULT_SIZE_CAP) -> RunReport:
    """Run the verifier on the graph with `labeling` attached as the output
    layer; valid iff every vertex reports 1.  A verdict is memoized by the
    ball's neighbour tuples and entries in BFS positions: equal keys mean
    the BFS bijection carries one ball onto the other (distances follow
    from the neighbours), so one form.  The memo pays where balls repeat
    up to BFS order, as under a proper coloring of a cycle or a torus; a
    ball that repeats none pays a hash of its key, which the memo keeps,
    and is typed and judged once per form.  A hit repeats a ball typed
    without a cap-out, so cap-outs are those of typing every ball."""
    missing = [v for v in graph.vertices if v not in labeling]
    if missing:
        raise ValueError(f"labeling must be total; missing {missing[:5]}")
    attached = with_labeling(graph, labeling, TAG_OUTPUT)
    verdicts, violators = {}, []  # BFS keys and form codes -> verdict
    for x in attached.vertices:
        rooted = ball(attached, x, problem.t)
        key = rooted.nbrs, rooted.entries
        if key not in verdicts:
            form = canonical_type(rooted, cap=canon_cap)
            if form.code not in verdicts:
                verdicts[form.code] = int(problem.verifier(form))
            verdicts[key] = verdicts[form.code]
        if verdicts[key] != 1:
            violators.append(x)
    return RunReport(outputs=dict(labeling), rounds_used=problem.t,
                     violating_vertices=sorted(violators))


def det_pipeline(alg: LocalAlgorithm, problem: LclProblem, graph: StructuredGraph,
                 n: int, rounds: int, order=None,
                 canon_cap: int = DEFAULT_SIZE_CAP) -> RunReport:
    """Deterministic pipeline: first-fit identifiers along `order` (one
    truncated BFS per vertex, no power graph), distinct inside every
    2R-ball and, as max |B(x,2R)| <= n, at most n; attach, run alg, verify.
    """
    radius = rounds + problem.t
    ids, max_ball = greedy_power_coloring(
        graph, order if order is not None else graph.vertices, 2 * radius)
    if max_ball > n:
        raise PipelineError(f"ball size precondition fails: max |B(x,2R)| = {max_ball} > n = {n}")
    colors_used = max(ids.values(), default=0)
    if colors_used > n:
        raise PipelineError(f"greedy used {colors_used} colors > n = {n}")
    outputs = run_deterministic(alg, with_labeling(graph, ids, TAG_IDS), rounds,
                                canon_cap=canon_cap)
    report = verify_lcl(problem, graph, outputs, canon_cap=canon_cap)
    report.rounds_used = rounds
    report.checks = {
        "n": n,
        "rounds": rounds,
        "radius": radius,
        "max_ball_2R": max_ball,
        "identifier_colors": colors_used,
    }
    return report
