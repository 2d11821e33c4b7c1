"""Encoding a CSP into a structured graph so local rules can read it.

Every ordering of a constraint's domain gets a structure entry holding the
position-relabeled bodies (a set of sets of value tuples), and the range
size rides along as a global layer, so one round suffices for a vertex to
learn every constraint involving it.  The verifier (`csp_to_lcl`) and
parallel resampling read the encoded constraints of a ball.
"""

from __future__ import annotations

from math import ceil, log2
from typing import Dict, List, Tuple

from .canonical import CanonicalForm
from .csp import Constraint, Csp, DEFAULT_CAP_BITS
from .errors import EncodingBudgetError, GraphBuildError
from .graphs import (
    LAYER_MARK,
    TAG_IDS,
    TAG_OUTPUT,
    TAG_RAND,
    TAG_RANGE,
    StructuredGraph,
    base_structure,
    label_layer,
    layer_value,
)
from .localrun import LclProblem, LocalAlgorithm

ENTRY_BUDGET = 200_000


def encode_graph_csp(graph: StructuredGraph, csp: Csp,
                     cap_bits: int = DEFAULT_CAP_BITS) -> StructuredGraph:
    """Structured graph carrying `csp` in its structure map.

    Requires all pairs of distinct elements of each constraint domain to be
    adjacent in `graph`, nonempty constraint domains, and no duplicated
    (domain, body) pairs (the structure stores bodies as a set).
    """
    if tuple(graph.vertices) != tuple(csp.ground):
        raise GraphBuildError("graph vertices must equal the CSP ground set")
    from itertools import permutations
    from math import factorial

    seen = set()
    by_domain: Dict[tuple, List[frozenset]] = {}
    total_entries = 0
    for c in csp.constraints:
        if c.arity() == 0:
            raise GraphBuildError("cannot encode a constraint with empty domain")
        explicit = c.materialize(cap_bits)
        dom = explicit.domain
        for i in range(len(dom)):
            for j in range(i + 1, len(dom)):
                if not graph.adjacent(dom[i], dom[j]):
                    raise GraphBuildError(
                        f"domain pair ({dom[i]}, {dom[j]}) not adjacent in the carrier graph")
        key = (dom, explicit.members)
        if key in seen:
            raise GraphBuildError(f"duplicate constraint on domain {dom}")
        seen.add(key)
        by_domain.setdefault(dom, []).append(explicit.members)
        total_entries += factorial(len(dom))
        if total_entries > ENTRY_BUDGET:
            raise EncodingBudgetError("constraint domains too large to encode exhaustively")

    structure: dict = {(): (LAYER_MARK, (TAG_RANGE, csp.m))}
    for dom, bodies in by_domain.items():
        index = {x: i for i, x in enumerate(dom)}
        for perm in permutations(dom):
            relabeled = frozenset(
                frozenset(tuple(member[index[x]] for x in perm) for member in body)
                for body in bodies
            )
            structure[perm] = relabeled
    return StructuredGraph(graph.vertices, graph.edges, structure,
                           max(csp.bound(), 1))


def decode_graph_csp(encoded: StructuredGraph):
    """Inverse of encode_graph_csp (up to constraint order)."""
    m = layer_value_global(encoded)
    constraints = []
    for tup, label in encoded_constraints(encoded):
        for body in sorted(label, key=_body_key):
            constraints.append(Constraint.explicit(tup, m, body))
    carrier = StructuredGraph(encoded.vertices, encoded.edges, {}, 1)
    constraints.sort(key=lambda c: (c.domain, _body_key(c.members)))
    return carrier, Csp(encoded.vertices, m, tuple(constraints))


def _body_key(body) -> tuple:
    return tuple(sorted(body))


def layer_value_global(encoded: StructuredGraph) -> int:
    m = label_layer(encoded.structure.get(()), TAG_RANGE)
    if m is None:
        raise GraphBuildError("missing range layer on the encoded graph")
    return int(m)


def encoded_constraints(graph: StructuredGraph):
    """(domain tuple, bodies) pairs of an encoded graph-CSP or a ball of
    one: the frozenset entries on nonempty ascending, distinct tuples."""
    out = []
    for tup, label in base_structure(graph).items():
        if not isinstance(label, frozenset) or not tup:
            continue
        if tup != tuple(sorted(tup)) or len(set(tup)) != len(tup):
            continue
        out.append((tup, label))
    return out


def csp_to_lcl(m: int) -> LclProblem:
    """Radius-1 verifier for encoded graph-CSP instances: a vertex accepts
    iff its value is in [m] and no constraint containing it is violated by
    the candidate assignment layer."""

    def verify(form: CanonicalForm) -> int:
        decoded, root = form.decode()
        values = {}
        for v in decoded.vertices:
            val = layer_value(decoded, v, TAG_OUTPUT)
            if val is not None:
                values[v] = val
        own = values.get(root)
        if own is None or not (isinstance(own, int) and 1 <= own <= m):
            return 0
        for dom, bodies in encoded_constraints(decoded):
            if root not in dom:
                continue
            if any(x not in values for x in dom):
                return 0
            pattern = tuple(values[x] for x in dom)
            if any(pattern in body for body in bodies):
                return 0
        return 1

    return LclProblem(t=1, verifier=LocalAlgorithm(name="csp-verifier", rule=verify))


def parallel_resample(m0: int, n: int, c: int = 8) -> Tuple[LocalAlgorithm, int, int]:
    """(algorithm, rounds, seed range) of parallel resampling on the balls
    of an encoded graph-CSP over [m0] with identifiers, for instance size
    n.  It runs ceil(c/2 log2 n) logic rounds of two communication rounds
    each; logic round r resamples every violated constraint whose sorted
    identifiers are least among the violated constraints it meets, from
    digit r (base m0) of each seed, so a seed ranges over m0^(rounds/2 + 1).
    """
    logic_rounds = max(1, ceil(c / 2 * log2(max(n, 2))))

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

    return (LocalAlgorithm("parallel_resample", rule), 2 * logic_rounds,
            m0 ** (logic_rounds + 1))
