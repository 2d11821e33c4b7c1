"""Builtin local algorithms and locally checkable problems.

Each builtin comes with its declared round count as a function of the
instance size and the problem it solves.  Rules operate on the canonical
representative of the ball, so they can only use information that survives
relabeling: adjacency, structure layers (orientation, identifiers,
randomness, candidate outputs) and the root.  A rule reads the
representative either as a graph (`form.decode()`) or, with no graph
built, as its leaf (`form.parts()`: n, sorted edges, entries sorted by
tuple, root at position 0).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, log2
from typing import Callable, Dict, Optional

from .canonical import CanonicalForm
from .graphs import (
    TAG_IDS,
    TAG_OUTPUT,
    TAG_RAND,
    base_label,
    label_layer,
    layer_value,
)
from .graphcsp import csp_to_lcl, encoded_constraints
from .localrun import LclProblem, LocalAlgorithm


def proper_coloring_problem(k: Optional[int]) -> LclProblem:
    """Radius-1 verifier for proper coloring; k = None drops the palette
    bound and only checks that adjacent outputs differ (value-symmetric)."""

    def verify(form: CanonicalForm) -> int:
        size, edges, entries = form.parts()
        values = [None] * size
        for tup, label in entries:
            if len(tup) == 1:
                values[tup[0]] = label_layer(label, TAG_OUTPUT)
        if not all(isinstance(val, int) for val in values):
            return 0
        if k is not None and not 1 <= values[0] <= k:
            return 0
        return 0 if any(values[u] == values[v] for u, v in edges) else 1

    name = f"proper-{k}-coloring" if k is not None else "proper-coloring"
    return LclProblem(t=1, verifier=LocalAlgorithm(name=name, rule=verify,
                                                   palette=k, value_symmetric=True))


def cole_vishkin_steps(n: int) -> int:
    """Iterations of id-bit reduction needed to reach colors in [0, 5]."""
    value = max(n - 1, 0)
    steps = 0
    while value > 5:
        value = 2 * (value.bit_length() - 1) + 1
        steps += 1
    return steps


def cole_vishkin_rounds(n: int) -> int:
    return cole_vishkin_steps(n) + 3


def _cole_vishkin_rule(n: int) -> Callable[[CanonicalForm], int]:
    steps = cole_vishkin_steps(n)

    def rule(form: CanonicalForm) -> int:
        size, edges, entries = form.parts()
        edge_set = set(edges)
        ids, succ = [None] * size, [None] * size
        # entries ascend by tuple: a later orientation entry of u wins
        for tup, label in entries:
            if len(tup) == 1:
                ids[tup[0]] = label_layer(label, TAG_IDS)
            elif (len(tup) == 2 and base_label(label) == 1
                  and (tup in edge_set or tup[::-1] in edge_set)):
                succ[tup[0]] = tup[1]
        if not all(isinstance(ident, int) for ident in ids):
            return 0
        colors = [ident - 1 for ident in ids]  # None once a colour is unknown
        pred = [None] * size  # the last, so largest, u directed into v
        for u, v in enumerate(succ):
            if v is not None:
                pred[v] = u
        for _ in range(steps):
            nxt = [None] * size
            for v, s in enumerate(succ):
                c = colors[v]
                if c is None or s is None or colors[s] is None:
                    continue
                diff = c ^ colors[s]
                i = (diff & -diff).bit_length() - 1
                # equal identifiers are broken; verification will catch it
                nxt[v] = 2 * i + ((c >> i) & 1) if diff else 0
            colors = nxt
        for kill in (5, 4, 3):
            nxt = [None] * size
            for v, s in enumerate(succ):
                c, p = colors[v], pred[v]
                if c is None or s is None or p is None or colors[s] is None or colors[p] is None:
                    continue
                nxt[v] = min({0, 1, 2} - {colors[s], colors[p]}) if c == kill else c
            colors = nxt
        return 0 if colors[0] is None else colors[0] + 1

    return rule


def _id_echo_rule(form: CanonicalForm) -> int:
    graph, root = form.decode()
    ident = layer_value(graph, root, TAG_IDS)
    return int(ident) if isinstance(ident, int) else 0


def trial_coloring_rounds(n: int) -> int:
    # per-round survival of an uncolored vertex is bounded away from 1, so
    # failure decays geometrically; 4 log2 n + 2 keeps it under 1/n at desk
    # scale with a comfortable margin
    return max(1, ceil(4 * log2(max(n, 2)))) + 2


def _trial_coloring_rule(delta: int, rounds: int) -> Callable[[CanonicalForm], int]:
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


def parallel_resample_logic_rounds(n: int, c: int = 8) -> int:
    return max(1, ceil(c / 2 * log2(max(n, 2))))


def _parallel_resample_rule(m0: int, logic_rounds: int) -> Callable[[CanonicalForm], int]:
    def digit(theta: int, r: int) -> int:
        return ((theta - 1) // m0**r) % m0 + 1

    def rule(form: CanonicalForm) -> int:
        graph, root = form.decode()
        theta = {}
        ids = {}
        for v in graph.vertices:
            t = layer_value(graph, v, TAG_RAND)
            i = layer_value(graph, v, TAG_IDS)
            if t is None or i is None:
                return 0
            theta[v], ids[v] = t, i
        constraints = encoded_constraints(graph)
        ident = {dom: tuple(sorted(ids[v] for v in dom)) for dom, _ in constraints}
        current = {v: digit(theta[v], 0) for v in graph.vertices}
        for r in range(1, logic_rounds + 1):
            violated = []
            for dom, bodies in constraints:
                pattern = tuple(current[v] for v in dom)
                if any(pattern in body for body in bodies):
                    violated.append(dom)
            if not violated:
                break
            vset = set(violated)
            resample = set()
            for dom in violated:
                others = [d for d in vset if d != dom and set(d) & set(dom)]
                if all(ident[dom] <= ident[d] for d in others):
                    resample.update(dom)
            for v in resample:
                current[v] = digit(theta[v], r)
        return current[root]

    return rule


@dataclass(frozen=True)
class BuiltinSpec:
    """Algorithm plus its declared complexity and target problem."""

    name: str
    algorithm: LocalAlgorithm
    rounds: Callable[[int], int]
    problem: LclProblem
    seed_range: Optional[Callable[[int], int]] = None


def builtin_algorithm(name: str, params: Optional[dict] = None) -> BuiltinSpec:
    """Registered algorithms: cole_vishkin_3color, trial_coloring,
    parallel_resample, id_echo."""
    params = dict(params or {})
    if name == "cole_vishkin_3color":
        n = int(params["n"])
        alg = LocalAlgorithm("cole_vishkin_3color", _cole_vishkin_rule(n))
        return BuiltinSpec(
            name=name, algorithm=alg, rounds=cole_vishkin_rounds,
            problem=proper_coloring_problem(3),
        )
    if name == "id_echo":
        alg = LocalAlgorithm("id_echo", _id_echo_rule)
        return BuiltinSpec(
            name=name, algorithm=alg, rounds=lambda n: 0,
            problem=proper_coloring_problem(None),
        )
    if name == "trial_coloring":
        delta = int(params["delta"])
        n = int(params["n"])
        rounds = trial_coloring_rounds(n)
        alg = LocalAlgorithm("trial_coloring", _trial_coloring_rule(delta, rounds))
        return BuiltinSpec(
            name=name, algorithm=alg, rounds=trial_coloring_rounds,
            problem=proper_coloring_problem(delta + 1),
            seed_range=lambda nn: (delta + 1) ** trial_coloring_rounds(nn),
        )
    if name == "parallel_resample":
        m0 = int(params["m0"])
        n = int(params["n"])
        c = int(params.get("c", 8))
        logic = parallel_resample_logic_rounds(n, c)
        alg = LocalAlgorithm("parallel_resample", _parallel_resample_rule(m0, logic))
        return BuiltinSpec(
            name=name, algorithm=alg,
            rounds=lambda nn: 2 * parallel_resample_logic_rounds(nn, c),
            problem=csp_to_lcl(m0),
            seed_range=lambda nn: m0 ** (parallel_resample_logic_rounds(nn, c) + 1),
        )
    raise KeyError(f"unknown builtin algorithm {name!r}")
