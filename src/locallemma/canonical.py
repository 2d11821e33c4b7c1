"""Canonical codes for rooted structured graphs.

Equal codes iff the rooted structured graphs are isomorphic (root to root,
adjacency preserved, structure map transported).  The code is the minimal
serialization over all root-preserving bijections compatible with an
iterated invariant refinement of the vertices; the refinement (degree,
root distance, structure participation, neighbor multisets) is what makes
the exhaustive search tractable at desk scale.

Refinement signatures (same-shape tuples of nonnegative ints and
self-delimiting `label_key` bytes) are ordered by native tuple order, and
refinement stops as soon as every vertex is alone in its cell.  Each
label's key and JSON form are computed once and kept in a bounded cache.

A form made by `canonical_type` keeps the winning leaf of its search (the
relabeled edges and structure entries its code was written from), so
`decode` rebuilds the representative from it in O(ball) with no parsing
and no re-validation.  A form made by `from_hex` carries no leaf: its
bytes are parsed and the graph validated in full.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import permutations
from operator import itemgetter
from typing import Optional

from .errors import CanonicalizationCapError
from .graphs import RootedBall, StructuredGraph
from .labels import label_from_json, label_key, label_to_json

DEFAULT_SIZE_CAP = 12
DEFAULT_SEARCH_BUDGET = 100_000
# distinct labels whose encodings are kept; the cache never grows past it
_LABEL_CACHE_SIZE = 4096


@lru_cache(maxsize=_LABEL_CACHE_SIZE)
def _encoded(label):
    """(label_key(label), label_to_json(label)).  Graph labels are
    validated and never bool, so no two labels that are equal as cache
    keys (as 1 and True are) encode differently."""
    return label_key(label), label_to_json(label)


def _refine(graph: StructuredGraph, root: int):
    """Iterated invariant partition; returns v -> color id (root is alone
    in its cell, colors ordered by an isomorphism-invariant signature)."""
    dist = graph.distances_from(root)
    participation = {v: [] for v in graph.vertices}
    for tup, label in graph.structure.items():
        lkey = _encoded(label)[0]
        for pos, v in enumerate(tup):
            participation[v].append((len(tup), pos, lkey, tup))

    color = {
        v: (0 if v == root else 1, dist[v], graph.degree(v)) for v in graph.vertices
    }

    def normalize(sigs):
        index = {s: i for i, s in enumerate(sorted(set(sigs.values())))}
        return {v: index[s] for v, s in sigs.items()}, len(index)

    # a discrete partition is final: color[v] leads every signature
    color, cells = normalize(color)
    while cells < len(graph.vertices):
        sigs = {}
        for v in graph.vertices:
            nb = tuple(sorted(color[w] for w in graph.neighbors(v)))
            struct = tuple(sorted(
                (length, pos, lkey, tuple(color[x] for x in tup))
                for (length, pos, lkey, tup) in participation[v]
            ))
            sigs[v] = (color[v], nb, struct)
        new, new_cells = normalize(sigs)
        if new_cells == cells:
            return new
        color, cells = new, new_cells
    return color


def _code_bytes(graph: StructuredGraph, mapping):
    """The code of the graph relabeled by `mapping`, and the leaf it is
    written from: (n, sorted edges, structure entries sorted by tuple)."""
    n = len(graph.vertices)
    edges = sorted((min(mapping[u], mapping[v]), max(mapping[u], mapping[v]))
                   for (u, v) in graph.edges)
    # mapped tuples are distinct, so labels never break a tie
    entries = sorted(
        ((tuple(mapping[x] for x in tup), label) for tup, label in graph.structure.items()),
        key=itemgetter(0),
    )
    payload = {
        "n": n,
        "edges": [list(e) for e in edges],
        "structure": [[list(t), _encoded(l)[1]] for t, l in entries],
    }
    code = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    return code, (n, edges, entries)


@dataclass(frozen=True)
class CanonicalForm:
    code: bytes
    # the winning leaf of canonical_type's search; equality and hash
    # read only the code
    leaf: Optional[tuple] = field(default=None, compare=False, repr=False)

    def hex(self) -> str:
        return self.code.hex()

    @staticmethod
    def from_hex(text: str) -> "CanonicalForm":
        return CanonicalForm(bytes.fromhex(text))

    def decode(self):
        """Canonical representative: (graph on vertices 0..n-1, root 0),
        built fresh on every call; the same graph, in the same vertex,
        neighbor and structure order, from the leaf or from the code."""
        if self.leaf is not None:
            n, edges, entries = self.leaf
            vertices = tuple(range(n))
            nbrs = {v: [] for v in vertices}
            for u, v in edges:  # sorted, so every neighbor tuple ascends
                nbrs[u].append(v)
                nbrs[v].append(u)
            structure = dict(entries)
            tuple_bound = max(max((len(t) for t in structure), default=0), 1)
            graph = StructuredGraph._trusted(
                vertices, frozenset(vertices), frozenset(edges), structure, tuple_bound,
                {v: tuple(ws) for v, ws in nbrs.items()})
            return graph, 0
        payload = json.loads(self.code.decode())
        structure = {
            tuple(t): label_from_json(l) for t, l in payload["structure"]
        }
        graph = StructuredGraph(range(payload["n"]), payload["edges"], structure)
        return graph, 0


def canonical_type(b: RootedBall, cap: int = DEFAULT_SIZE_CAP,
                   budget: int = DEFAULT_SEARCH_BUDGET) -> CanonicalForm:
    """Canonical code of a rooted ball, invariant under relabeling."""
    graph, root = b.graph, b.root
    n = len(graph.vertices)
    if n > cap:
        raise CanonicalizationCapError(n, cap)
    color = _refine(graph, root)
    cells = {}
    for v in graph.vertices:
        cells.setdefault(color[v], []).append(v)
    cell_list = [sorted(cells[c]) for c in sorted(cells)]

    total = 1
    for cell in cell_list:
        for i in range(2, len(cell) + 1):
            total *= i
        if total > budget:
            raise CanonicalizationCapError(total, budget, what="bijection search")

    offsets = []
    at = 0
    for cell in cell_list:
        offsets.append(at)
        at += len(cell)

    best = best_leaf = None

    def assign(idx, mapping):
        nonlocal best, best_leaf
        if idx == len(cell_list):
            code, leaf = _code_bytes(graph, mapping)
            if best is None or code < best:
                best, best_leaf = code, leaf
            return
        cell = cell_list[idx]
        base = offsets[idx]
        for perm in permutations(cell):
            for j, v in enumerate(perm):
                mapping[v] = base + j
            assign(idx + 1, mapping)

    assign(0, {})
    return CanonicalForm(best, best_leaf)


def are_isomorphic(b1: RootedBall, b2: RootedBall) -> bool:
    """Brute-force root-preserving isomorphism test (test oracle).

    Tries every bijection matching roots; exponential, only for tiny balls.
    """
    g1, g2 = b1.graph, b2.graph
    v1 = [v for v in g1.vertices if v != b1.root]
    v2 = [v for v in g2.vertices if v != b2.root]
    if len(v1) != len(v2):
        return False
    struct1 = g1.structure
    for perm in permutations(v2):
        phi = {b1.root: b2.root}
        phi.update(zip(v1, perm))
        if any(g2.adjacent(phi[u], phi[v]) != g1.adjacent(u, v)
               for i, u in enumerate(g1.vertices) for v in g1.vertices[i + 1:]):
            continue
        mapped = {tuple(phi[x] for x in t): l for t, l in struct1.items()}
        if mapped == g2.structure:
            return True
    return False
