"""Compile a randomized local algorithm into a CSP over seed assignments,
and bootstrap a CSP to a sparser target through a local solver.

The compiled constraint at vertex x forbids exactly the seed patterns on
its radius-R ball (R = T + t) that make the verifier reject at x, so a
solution of the compiled CSP is a seed assignment on which the algorithm
provably succeeds everywhere.

The algorithm and the verifier read only the isomorphism type of a seeded
ball, so a value computed on one seeded ball holds for every seeded ball
whose seed-free ball has the same type and whose seeds agree position by
position in canonical order: one ball's winning map followed by the
inverse of the other's carries one seeded ball onto the other.  Three
memos rest on this, each keyed by (seed-free type, values in canonical
order):

- the constraint at x: radius-R type, seeds;
- the algorithm's output at y: radius-T type, seeds;
- the verifier's verdict at x: radius-t type, (seed, output) pairs.

Cost: each vertex's seed-free balls are built once per radius and typed
once per BFS key, as `verify_lcl` keys its balls.  Each predicate type
enumerates its m^|B| patterns once, and every vertex of that type pays one
lookup per pattern.  A predicate miss makes one output lookup per vertex
within t of x and one verdict lookup; an output or verdict miss layers
the seeds (and outputs) onto the seed-free ball in its own positions
(`layered_ball`) and canonicalizes that.  At T = 0 an inner ball is one
seeded vertex, so at most m outputs per inner type are computed.  The
decoder reads the same output memo.  A ball that caps out is a type of its
own, in sorted vertex order.  Whether a seeded ball caps out depends only
on its refinement, which isomorphic balls share, so compiling caps out at
the pattern, and with the error, of the per-vertex path.

Value-symmetric pairs (`LocalAlgorithm.symmetric_at`) get a fourth memo
above these: a permutation of [m] on the seeds then fixes every verdict,
so B_x depends only on the seeds' equality pattern in canonical order, a
restricted growth string with at most m blocks (at most Bell(|B|) per
type).  Each is evaluated once at compile time, on blocks valued 1, 2, ...
and on blocks valued m, m-1, ... (a differing verdict is a wrong
declaration and raises AssertionError).  |B_x| is exact: the seed tuples
of a k-block pattern are the m(m-1)...(m-k+1) injections of its blocks
into [m].  The predicate is a lookup, so nothing downstream enumerates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, factorial, log2, perm
from typing import Dict, List, Optional, Tuple

from .canonical import DEFAULT_SIZE_CAP, _canonical_map, canonical_type
from .connect import Connection, Reduction, compose
from .csp import Constraint, Csp, DEFAULT_CAP_BITS, intersection_graph, stats
from .engine import direct_entry, lll_check
from .errors import (BootstrapInfeasibleError, CanonicalizationCapError, EncodingBudgetError,
                     EnumerationCapError)
from .graphs import (TAG_IDS, TAG_OUTPUT, TAG_RAND, RootedBall, StructuredGraph, ball,
                     layered_ball, with_labeling)
from .graphcsp import csp_to_lcl, encode_graph_csp, parallel_resample
from .localrun import LclProblem, LocalAlgorithm


def _typed(rooted: RootedBall, canon_cap: int, types: dict):
    """(rooted, type key, its vertices in canonical position order) for a
    seed-free ball, typed once per BFS key (equal keys are equal balls in BFS
    positions) in `types`; a cap-out is keyed by its root, in sorted order."""
    key = rooted.nbrs, rooted.entries
    if key not in types:
        try:
            form, mapping = _canonical_map(rooted, cap=canon_cap)
            at = [mapping[v] for v in rooted.vertices]
            types[key] = form.code, sorted(range(len(at)), key=at.__getitem__)
        except CanonicalizationCapError:
            types[key] = None
    if types[key] is None:
        return rooted, rooted.root, tuple(sorted(rooted.vertices))
    code, positions = types[key]
    return rooted, code, tuple([rooted.vertices[p] for p in positions])


def _growth_strings(size: int, blocks: int, prefix: Tuple[int, ...] = ()):
    """Restricted growth strings of length `size` with at most `blocks`
    blocks that extend `prefix`, lazily and in lexicographic order."""
    if len(prefix) == size:
        yield prefix
        return
    for b in range(min(max(prefix, default=-1) + 2, blocks)):
        yield from _growth_strings(size, blocks, prefix + (b,))


def _growth_string_count(size: int, blocks: int) -> int:
    """len(_growth_strings(size, blocks)): S(size, k) summed over k <= blocks."""
    return sum(sum((-1) ** j * comb(k, j) * (k - j) ** size for j in range(k + 1))
               // factorial(k) for k in range(min(size, blocks) + 1))


def rand_to_csp(alg: LocalAlgorithm, problem: LclProblem, graph: StructuredGraph,
                m: int, rounds: int, canon_cap: int = DEFAULT_SIZE_CAP,
                cap_bits: int = DEFAULT_CAP_BITS):
    """(compiled CSP over seed maps, decoding connection on its ground).

    Constraint B_x lives on the radius-(rounds + t) ball of x and holds the
    seed patterns making the verifier output 0 at x.  The connection runs
    the algorithm on a fully-seeded ball and emits the output at x.  More
    than 2^cap_bits seed patterns per constraint raise EnumerationCapError.
    """
    t = problem.t
    radius = rounds + t
    # per radius: x -> (its seed-free ball, type key, canonical order)
    types: dict = {}
    typed = {r: {x: _typed(ball(graph, x, r), canon_cap, types) for x in graph.vertices}
             for r in {radius, rounds, t}}
    outer, inner, near = typed[radius], typed[rounds], typed[t]
    outputs: Dict[tuple, int] = {}
    verdicts: Dict[tuple, bool] = {}
    # per type of seed-free radius-R ball: a predicate memo, or on the
    # pattern path (rejecting growth strings, body count)
    memos: Dict[object, Dict[Tuple[int, ...], bool]] = {}
    patterns: Dict[object, Tuple[frozenset, int]] = {}

    def output_at(y, seeds):
        """The algorithm's output at y; `seeds` covers y's inner ball."""
        rooted, key, order = inner[y]
        canon = (key, tuple([seeds[v] for v in order]))
        out = outputs.get(canon)
        if out is None:
            form = canonical_type(layered_ball(rooted, ((TAG_RAND, seeds),)), cap=canon_cap)
            out = outputs[canon] = int(alg(form))
        return out

    def rejects(x, seeds):
        """True iff the verifier outputs 0 at x; `seeds` covers x's outer
        ball.  Outputs are computed in BFS order from x, the per-vertex
        path's order, so a cap-out raises on the same ball."""
        rooted, key, order = near[x]
        outs = {y: output_at(y, seeds) for y in rooted.vertices}
        canon = (key, tuple([(seeds[v], outs[v]) for v in order]))
        result = verdicts.get(canon)
        if result is None:
            labeled = layered_ball(rooted, ((TAG_RAND, seeds), (TAG_OUTPUT, outs)))
            form = canonical_type(labeled, cap=canon_cap)
            result = verdicts[canon] = int(problem.verifier(form)) == 0
        return result

    def pattern_body(x):
        """(rejecting growth strings, body count) of x's radius-R type; each
        pattern's verdict is checked on a second representative."""
        _, key, order = outer[x]
        if key not in patterns:
            body = set()
            for pattern in _growth_strings(len(order), m):
                verdict = rejects(x, {v: 1 + b for v, b in zip(order, pattern)})
                if m > 1 and verdict != rejects(x, {v: m - b for v, b in zip(order, pattern)}):
                    raise AssertionError(
                        f"{alg.name} / {problem.verifier.name} declared value-symmetric, but "
                        f"B_{x} differs on two representatives of seed pattern {pattern}")
                if verdict:
                    body.add(pattern)
            patterns[key] = frozenset(body), sum(perm(m, max(p) + 1) for p in body)
        return patterns[key]

    def make_pred(x, dom):
        """(predicate, exact body count or None) of B_x over `dom`."""
        _, key, canon_order = outer[x]
        at = {v: i for i, v in enumerate(dom)}
        order = tuple([at[v] for v in canon_order])
        if symmetric:
            body, count = pattern_body(x)

            def lookup(values: Tuple[int, ...]) -> bool:
                blocks: Dict[int, int] = {}
                return tuple([blocks.setdefault(values[i], len(blocks)) for i in order]) in body

            return lookup, count
        memo = memos.setdefault(key, {})

        def predicate(values: Tuple[int, ...]) -> bool:
            canon = tuple([values[i] for i in order])
            cached = memo.get(canon)
            if cached is None:
                cached = memo[canon] = rejects(x, dict(zip(dom, values)))
            return cached

        return predicate, None

    doms = {x: tuple(sorted(outer[x][0].vertices)) for x in graph.vertices}
    symmetric = alg.symmetric_at(m) and problem.verifier.symmetric_at(m)
    if symmetric:
        count = _growth_string_count(max(map(len, doms.values()), default=0), m)   # grows with size
        if count > 1 << cap_bits:
            raise EnumerationCapError(log2(count), cap_bits, what="seed patterns")
    constraints = [Constraint.from_predicate(doms[x], m, *make_pred(x, doms[x]), tag=f"B_{x}")
                   for x in graph.vertices]
    compiled = Csp(tuple(graph.vertices), m, tuple(constraints))

    def rule_for(x):
        positions = doms[x]

        def rule(view: Dict[int, int]):
            if any(y not in view for y in positions):
                return None
            return output_at(x, view)

        return rule

    decoder = Connection(source=tuple(graph.vertices),
                         det_sets={x: frozenset(doms[x]) for x in graph.vertices},
                         rules={x: rule_for(x) for x in graph.vertices})
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
              cap_bits: int = DEFAULT_CAP_BITS,
              canon_cap: int = DEFAULT_SIZE_CAP) -> BootstrapResult:
    """Find a target CSP C and reduction rho' from `source` with
    p(C) (d(C)+1)^N <= epsilon and p(C) d(rho')^N <= epsilon.

    Route 1 (direct): the given reduction target already satisfies both
    inequalities with exact stats — return it unchanged.
    Route 2 (amplified): encode the target as a graph-CSP, run the
    parallel resampling solver for T(n) = ceil(c log2 n) rounds, compile
    it back to a CSP over seeds; its probability bound 1/n is certified by
    the compiler given the solver's declared failure bound, and the degree
    bound comes from exact ball geometry.  Candidates failing either
    inequality are reported; with none left the result is infeasible.  So
    is a target too wide to encode, with the encoder's refusal reported.
    """
    epsilon = Fraction(epsilon)
    target = red_in.target
    pre = lll_check(target, "measurable", cap_bits=cap_bits)
    if not pre.holds:
        raise BootstrapInfeasibleError(
            [{"stage": "precondition", "detail": "target fails the measurable condition",
              "margin": str(pre.margin)}])

    st = stats(target, cap_bits)
    entry = direct_entry(st.p, st.d, red_in.degree(), N, epsilon)
    report: List[dict] = [entry]
    if entry["ok"]:
        return BootstrapResult(
            feasible=True, route="direct", csp=target, reduction=red_in,
            p_bound=st.p, exact_p=True, report=report,
        )

    # amplified route over the candidate grid
    try:
        encoded = encode_graph_csp(intersection_graph(target), target, cap_bits)
    except EncodingBudgetError as exc:
        report.append({"stage": "amplified", "ok": False, "detail": str(exc)})
        return BootstrapResult(feasible=False, route="amplified", report=report)
    ids = {v: i + 1 for i, v in enumerate(encoded.vertices)}
    encoded = with_labeling(encoded, ids, TAG_IDS)
    problem = csp_to_lcl(target.m)

    for n in sorted(n_grid):
        if n < 2:
            continue
        alg, rounds, m_n = parallel_resample(target.m, n, rounds_coefficient)
        radius = rounds + problem.t
        ball_r = max_ball_size(encoded, radius)
        ball_2r = max_ball_size(encoded, 2 * radius)
        d_bound = max(ball_2r - 1, 0)
        p_bound = Fraction(1, n)
        w_tau = ball_r
        d_tau = w_tau * (d_bound + 1)
        d_rho_bound = max(red_in.connection.width(), 1) * d_tau
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
        compiled, decoder = rand_to_csp(alg, problem, encoded, m_n, rounds,
                                        canon_cap=canon_cap)
        rho_out = compose(red_in.connection, decoder)
        reduction = Reduction(rho_out, compiled)
        return BootstrapResult(
            feasible=True, route="amplified", csp=compiled, reduction=reduction,
            chosen_n=n, p_bound=p_bound, exact_p=False, report=report,
        )
    return BootstrapResult(feasible=False, route="amplified", report=report)
