"""Compile a randomized local algorithm into a CSP over seed assignments,
and bootstrap a CSP to a sparser target through a local solver.

The compiled constraint at vertex x forbids exactly the seed patterns on
its radius-R ball that make the verifier reject at x, so a solution of the
compiled CSP is a seed assignment on which the algorithm provably succeeds
everywhere.

The algorithm and the verifier read only the isomorphism type of a seeded
ball, so the constraint at x depends only on the type of x's seed-free
radius-R ball: an isomorphism between two such balls (root to root) maps
the seeded balls, the inner radius-T balls and the verifier ball of one
onto those of the other.  Each predicate therefore puts its seed tuple in
the canonical position order of x's ball and looks it up in a memo shared
by every vertex of that type; a miss is computed on x's own ball.  Cost:
one enumeration of the m^|B| patterns per ball type, plus one memo lookup
per pattern per vertex.  A ball whose canonicalization caps out is a type
of its own, with its sorted domain as position order, so compiling caps
out exactly where the per-vertex path did.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .canonical import _canonical_map, canonical_type
from .connect import Connection, Reduction, compose
from .csp import Constraint, Csp, DEFAULT_CAP_BITS
from .errors import BootstrapInfeasibleError, CanonicalizationCapError
from .graphs import (TAG_IDS, TAG_OUTPUT, TAG_RAND, RootedBall, StructuredGraph, ball,
                     with_labeling)
from .graphcsp import encode_graph_csp
from .localrun import LclProblem, LocalAlgorithm


def _run_on_ball(alg: LocalAlgorithm, rooted, rounds: int, inner_radius: int,
                 canon_cap: int):
    """Outputs of alg at every vertex within inner_radius of the root,
    computed entirely inside the stored ball (valid because sub-balls of
    radius `rounds` around those vertices lie inside)."""
    graph = rooted.graph
    out = {}
    for y, d in rooted.dist.items():
        if d <= inner_radius:
            form = canonical_type(ball(graph, y, rounds), cap=canon_cap)
            out[y] = int(alg(form))
    return out


def rand_to_csp(alg: LocalAlgorithm, problem: LclProblem, graph: StructuredGraph,
                m: int, rounds: int, canon_cap: int = 64):
    """(compiled CSP over seed maps, decoding connection).

    Constraint B_x lives on the radius-(rounds + t) ball of x and holds the
    seed patterns making the verifier output 0 at x.  The connection runs
    the algorithm on a fully-seeded ball and emits the output at x.
    """
    radius = rounds + problem.t
    balls = {x: ball(graph, x, radius) for x in graph.vertices}
    # one memo per type of seed-free ball, keyed by seeds in canonical order
    memos: Dict[object, Dict[Tuple[int, ...], bool]] = {}

    def make_pred(x, dom):
        rooted = balls[x]
        try:
            form, mapping = _canonical_map(rooted, cap=canon_cap)
        except CanonicalizationCapError:  # x is a type of its own
            key, order = x, tuple(range(len(dom)))
        else:
            at = {v: i for i, v in enumerate(dom)}
            key = form.code
            order = tuple(at[v] for v in sorted(mapping, key=mapping.__getitem__))
        memo = memos.setdefault(key, {})

        def predicate(values: Tuple[int, ...]) -> bool:
            canon = tuple([values[i] for i in order])
            cached = memo.get(canon)
            if cached is not None:
                return cached
            theta = dict(zip(dom, values))
            seeded = with_labeling(rooted.graph, theta, TAG_RAND)
            # seeding keeps the vertices and edges, so the ball's distances hold
            outputs = _run_on_ball(
                alg, RootedBall._trusted(seeded, rooted.root, rooted.radius, rooted.dist),
                rounds, problem.t, canon_cap)
            labeled = with_labeling(seeded, outputs, TAG_OUTPUT)
            form = canonical_type(ball(labeled, x, problem.t), cap=canon_cap)
            result = int(problem.verifier(form)) == 0
            memo[canon] = result
            return result

        return predicate

    constraints = []
    for x in graph.vertices:
        dom = tuple(sorted(balls[x].graph.vertices))
        constraints.append(Constraint.from_predicate(dom, m, make_pred(x, dom), tag=f"B_{x}"))
    compiled = Csp(tuple(graph.vertices), m, tuple(constraints))

    det_sets = {x: frozenset(balls[x].graph.vertices) for x in graph.vertices}

    def rule_for(x):
        rooted = balls[x]
        positions = tuple(sorted(rooted.graph.vertices))

        def rule(view: Dict[int, int]):
            if any(y not in view for y in positions):
                return None
            seeded = with_labeling(rooted.graph, {y: view[y] for y in positions}, TAG_RAND)
            form = canonical_type(ball(seeded, x, rounds), cap=canon_cap)
            return int(alg(form))

        return rule

    decoder = Connection(
        source=tuple(graph.vertices),
        target=tuple(graph.vertices),
        det_sets=det_sets,
        rules={x: rule_for(x) for x in graph.vertices},
        kind="rand_to_csp",
        params={"alg": alg.name, "rounds": rounds, "m": str(m)},
    )
    return compiled, decoder


def max_ball_size(graph: StructuredGraph, radius: int) -> int:
    return max((len(graph.distances_from(x, limit=radius)) for x in graph.vertices),
               default=0)


@dataclass
class BootstrapResult:
    feasible: bool
    route: str                      # "direct" or "amplified"
    csp: Optional[Csp] = None
    reduction: Optional[Reduction] = None
    chosen_n: Optional[int] = None
    p_bound: Optional[Fraction] = None
    exact_p: bool = False
    report: List[dict] = field(default_factory=list)


DEFAULT_GRID = (16, 64, 256, 1024, 4096)


def bootstrap(source: Csp, red_in: Reduction, N: int, epsilon: Fraction,
              n_grid=DEFAULT_GRID, rounds_coefficient: int = 8,
              cap_bits: int = DEFAULT_CAP_BITS, canon_cap: int = 64) -> BootstrapResult:
    """Find a target CSP C and reduction rho' from `source` with
    p(C) (d(C)+1)^N <= epsilon and p(C) d(rho')^N <= epsilon.

    Route 1 (direct): the given reduction target already satisfies both
    inequalities with exact stats — return it unchanged.
    Route 2 (amplified): encode the target as a graph-CSP, run the
    parallel resampling solver for T(n) = ceil(c log2 n) rounds, compile
    it back to a CSP over seeds; its probability bound 1/n is certified by
    the compiler given the solver's declared failure bound, and the degree
    bound comes from exact ball geometry.  Candidates failing either
    inequality are reported; with none left the result is infeasible.
    """
    from .csp import stats
    from .engine import lll_check

    epsilon = Fraction(epsilon)
    target = red_in.target
    pre = lll_check(target, "measurable", cap_bits=cap_bits)
    if not pre.holds:
        raise BootstrapInfeasibleError(
            [{"stage": "precondition", "detail": "target fails the measurable condition",
              "margin": str(pre.margin)}])

    st = stats(target, cap_bits)
    d_red = red_in.degree()
    report: List[dict] = []
    lhs_dplus = st.p * (st.d + 1) ** N
    lhs_dred = st.p * Fraction(d_red) ** N
    if lhs_dplus <= epsilon and lhs_dred <= epsilon:
        return BootstrapResult(
            feasible=True, route="direct", csp=target, reduction=red_in,
            p_bound=st.p, exact_p=True,
            report=[{"stage": "direct", "p": str(st.p), "d": st.d,
                     "d_rho": d_red, "ok": True}],
        )
    report.append({"stage": "direct", "p": str(st.p), "d": st.d, "d_rho": d_red,
                   "ok": False,
                   "p(d+1)^N": str(lhs_dplus), "p*d(rho)^N": str(lhs_dred),
                   "epsilon": str(epsilon)})

    # amplified route over the candidate grid
    from .algorithms import builtin_algorithm
    from .csp import intersection_graph

    carrier = intersection_graph(target)
    encoded = encode_graph_csp(carrier, target, cap_bits)
    ids = {v: i + 1 for i, v in enumerate(encoded.vertices)}
    encoded = with_labeling(encoded, ids, TAG_IDS)

    for n in sorted(n_grid):
        if n < 2:
            continue
        spec = builtin_algorithm("parallel_resample",
                                 {"m0": target.m, "n": n, "c": rounds_coefficient})
        rounds = spec.rounds(n)
        radius = rounds + spec.problem.t
        ball_r = max_ball_size(encoded, radius)
        ball_2r = max_ball_size(encoded, 2 * radius)
        d_bound = max(ball_2r - 1, 0)
        p_bound = Fraction(1, n)
        w_tau = ball_r
        d_tau = w_tau * (d_bound + 1)
        d_rho_bound = max(red_in.width(), 1) * d_tau
        ineq1 = p_bound * (d_bound + 1) ** N
        ineq2 = p_bound * Fraction(d_rho_bound) ** N
        entry = {
            "stage": "amplified", "n": n, "rounds": rounds,
            "max_ball_R": ball_r, "max_ball_2R": ball_2r,
            "p_bound": str(p_bound), "d_bound": d_bound,
            "d_rho_bound": d_rho_bound,
            "p(d+1)^N": str(ineq1), "p*d(rho)^N": str(ineq2),
            "epsilon": str(epsilon),
            "ok": ineq1 <= epsilon and ineq2 <= epsilon,
        }
        report.append(entry)
        if not entry["ok"]:
            continue
        m_n = spec.seed_range(n)
        compiled, decoder = rand_to_csp(spec.algorithm, spec.problem, encoded,
                                        m_n, rounds, canon_cap=canon_cap)
        rho_out = compose(red_in.connection, decoder)
        reduction = Reduction(rho_out, compiled, validated=False)
        return BootstrapResult(
            feasible=True, route="amplified", csp=compiled, reduction=reduction,
            chosen_n=n, p_bound=p_bound, exact_p=False, report=report,
        )
    return BootstrapResult(feasible=False, route="amplified", report=report)
