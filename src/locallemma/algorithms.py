"""Builtin local algorithms and locally checkable problems.

Each builtin comes with its declared round count as a function of the
instance size and the problem it solves.  Rules operate on the canonical
representative of the ball, so they can only use information that survives
relabeling: adjacency, structure layers (orientation, identifiers,
randomness, candidate outputs) and the root.  A rule reads the
representative either as a graph (`form.decode()`) or, with no graph
built, as its leaf (`form.parts()`: n, sorted edges, entries sorted by
tuple, root at position 0).  Cole–Vishkin computes only the root's cone:
each pass runs over the positions whose colours the later passes read.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from .canonical import CanonicalForm
from .graphs import TAG_IDS, TAG_OUTPUT, base_label, label_layer
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
        colors, succ, arcs = [None] * size, [None] * size, []
        for tup, label in entries:
            if len(tup) == 1:
                ident = label_layer(label, TAG_IDS)
                if not isinstance(ident, int):
                    return 0
                colors[tup[0]] = ident - 1
            elif len(tup) == 2 and base_label(label) == 1:
                arcs.append(tup)
        if None in colors:  # a vertex with no identifier
            return 0
        edge_set = set(edges) if arcs else ()
        for u, v in arcs:  # ascending by tuple: a later arc of u wins
            if ((u, v) if u < v else (v, u)) in edge_set:
                succ[u] = v
        pred = [None] * size  # the last, so largest, u directed into v
        for u, v in enumerate(succ):
            if v is not None:
                pred[v] = u
        # the root's cone, last pass first; a missing link there reaches the root
        cone, seen, sizes = [0], [True] + [False] * (size - 1), [0]
        for i in range(steps + 3):
            sizes.append(len(cone))
            for v in cone[sizes[-2]:]:  # the positions new at this pass
                for link in (succ, pred) if i < 3 else (succ,):  # a kill pass reads pred
                    w = link[v]
                    if w is None:
                        return 0
                    if not seen[w]:
                        seen[w] = True
                        cone.append(w)
        for end in sizes[:3:-1]:  # the step passes in order
            nxt = colors[:]
            for v in cone[:end]:
                c = colors[v]
                diff = c ^ colors[succ[v]]
                i = (diff & -diff).bit_length() - 1
                # equal identifiers are broken; verification will catch it
                nxt[v] = 2 * i + ((c >> i) & 1) if diff else 0
            colors = nxt
        for kill, end in zip((5, 4, 3), sizes[3:0:-1]):
            nxt = colors[:]
            for v in cone[:end]:
                if colors[v] == kill:
                    nxt[v] = min({0, 1, 2} - {colors[succ[v]], colors[pred[v]]})
            colors = nxt
        return colors[0] + 1

    return rule


def echo_rule(tag: int) -> Callable[[CanonicalForm], int]:
    """Output the root's value under `tag` (0 when it has none or it is no
    int), read from the leaf: entries ascend by tuple, so the root's (0,)
    entry comes first or right after the empty tuple's."""

    def rule(form: CanonicalForm) -> int:
        label = next((label for tup, label in form.parts()[2] if tup == (0,)), None)
        value = label_layer(label, tag)
        return value if isinstance(value, int) else 0

    return rule


@dataclass(frozen=True)
class BuiltinSpec:
    """Algorithm plus its declared complexity and target problem."""

    name: str
    algorithm: LocalAlgorithm
    rounds: Callable[[int], int]
    problem: LclProblem


def builtin_algorithm(name: str, params: Optional[dict] = None) -> BuiltinSpec:
    """Registered algorithms: cole_vishkin_3color, id_echo."""
    params = dict(params or {})
    if name == "cole_vishkin_3color":
        n = int(params["n"])
        alg = LocalAlgorithm("cole_vishkin_3color", _cole_vishkin_rule(n))
        return BuiltinSpec(
            name=name, algorithm=alg, rounds=cole_vishkin_rounds,
            problem=proper_coloring_problem(3),
        )
    if name == "id_echo":
        alg = LocalAlgorithm("id_echo", echo_rule(TAG_IDS))
        return BuiltinSpec(
            name=name, algorithm=alg, rounds=lambda n: 0,
            problem=proper_coloring_problem(None),
        )
    raise ValueError(f"unknown builtin algorithm {name!r}")
