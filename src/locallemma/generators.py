"""Graph generators and the degree-reduction gadget.

The gadget takes a graph G with max degree d and a target palette size k
(with c := d - k satisfying c(c+1) >= d) and produces a graph H of max
degree d - 1 whose k-colorability matches G's.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Tuple

from .errors import InfeasibleParamsError
from .graphs import StructuredGraph, build_graph
from .rng import derived_rng
from .serialize import _known_keys, _strict_int

# the params each generator kind takes, all required
GENERATOR_PARAMS = {"path": ("n",), "cycle": ("n",), "directed_cycle": ("n",),
                    "torus_grid": ("rows", "cols"), "random_regular": ("n", "d"),
                    "random_tree": ("n",)}


def generate(kind: str, params: dict, seed: int = 0) -> StructuredGraph:
    """Deterministic generator: path, cycle, directed_cycle, torus_grid,
    random_regular, random_tree.  `params` must hold exactly the kind's
    size parameters, each an int (not a bool); anything else is refused
    with the field named, as `params.<name>`."""
    if not isinstance(kind, str) or kind not in GENERATOR_PARAMS:
        raise InfeasibleParamsError(f"unknown generator kind {kind!r}")
    _known_keys(params, GENERATOR_PARAMS[kind], where="params")
    sizes = {name: _strict_int(params[name], f"params.{name}")
             for name in GENERATOR_PARAMS[kind]}
    n = sizes.get("n")
    if kind == "path":
        if n < 1:
            raise InfeasibleParamsError("path needs n >= 1")
        return build_graph(range(n), [(i, i + 1) for i in range(n - 1)])
    if kind == "cycle":
        if n < 3:
            raise InfeasibleParamsError("cycle needs n >= 3")
        return build_graph(range(n), [(i, (i + 1) % n) for i in range(n)])
    if kind == "directed_cycle":
        if n < 3:
            raise InfeasibleParamsError("directed cycle needs n >= 3")
        edges = [(i, (i + 1) % n) for i in range(n)]
        # orientation layer: ordered pair (u, v) labeled 1 iff edge points u -> v
        structure = {(i, (i + 1) % n): 1 for i in range(n)}
        return build_graph(range(n), edges, structure, tuple_bound=2)
    if kind == "torus_grid":
        rows, cols = sizes["rows"], sizes["cols"]
        if rows < 3 or cols < 3:
            raise InfeasibleParamsError("torus grid needs rows, cols >= 3")
        def vid(i, j):
            return i * cols + j
        edges = set()
        for i in range(rows):
            for j in range(cols):
                edges.add(tuple(sorted((vid(i, j), vid((i + 1) % rows, j)))))
                edges.add(tuple(sorted((vid(i, j), vid(i, (j + 1) % cols)))))
        return build_graph(range(rows * cols), edges)
    if kind == "random_regular":
        d = sizes["d"]
        if n * d % 2 != 0 or d >= n or d < 0:
            raise InfeasibleParamsError("need n*d even and 0 <= d < n")
        rng = derived_rng(seed, "random_regular", n, d)
        for _ in range(10_000):   # the pairing model, restarted on a loop or a repeated edge
            stubs = [v for v in range(n) for _ in range(d)]
            rng.shuffle(stubs)
            edges = set()
            for pair in zip(stubs[::2], stubs[1::2]):
                edge = tuple(sorted(pair))
                if edge[0] == edge[1] or edge in edges:
                    break
                edges.add(edge)
            else:
                return build_graph(range(n), edges)
        return build_graph(range(n), _switched_regular(n, d, rng))
    if kind == "random_tree":
        if n < 1:
            raise InfeasibleParamsError("tree needs n >= 1")
        if n <= 2:
            return build_graph(range(n), [(0, 1)] if n == 2 else [])
        rng = derived_rng(seed, "random_tree", n)
        prufer = [rng.randrange(n) for _ in range(n - 2)]
        degree = [1] * n
        for v in prufer:
            degree[v] += 1
        edges = []
        import heapq
        leaves = [v for v in range(n) if degree[v] == 1]
        heapq.heapify(leaves)
        for v in prufer:
            leaf = heapq.heappop(leaves)
            edges.append((leaf, v))
            degree[v] -= 1
            if degree[v] == 1:
                heapq.heappush(leaves, v)
        u, v = heapq.heappop(leaves), heapq.heappop(leaves)
        edges.append((u, v))
        return build_graph(range(n), edges)


def _switched_regular(n: int, d: int, rng) -> List[Tuple[int, int]]:
    """Edges of a simple d-regular graph on range(n) (n d even, d < n): the
    circulant v ~ v +- 1..d/2 (and v ~ v + n/2 for odd d) after n d seeded
    double-edge switchings, each kept when it makes no loop or repeated edge."""
    edges = [tuple(sorted((v, (v + s) % n))) for v in range(n) for s in range(1, d // 2 + 1)]
    edges += [(v, v + n // 2) for v in range(n // 2)] if d % 2 else []
    present = set(edges)
    for _ in range(n * d):
        i, j = rng.randrange(len(edges)), rng.randrange(len(edges))
        (a, b), (c, e) = edges[i], edges[j] if rng.randrange(2) else edges[j][::-1]
        new = tuple(sorted((a, c))), tuple(sorted((b, e)))
        if a != c and b != e and present.isdisjoint(new):
            present.difference_update((edges[i], edges[j]))
            present.update(new)
            edges[i], edges[j] = new
    return edges


@dataclass(frozen=True)
class GadgetLayout:
    """Vertex-id scheme of the gadget: per source vertex x (by position in
    the source vertex order) a block of c+1 "u" vertices then k-1 "v"
    vertices."""
    k: int
    c: int
    source_order: Tuple[int, ...]

    @property
    def block(self) -> int:
        return self.c + 1 + (self.k - 1)

    @cached_property
    def position(self) -> Dict[int, int]:
        return {x: i for i, x in enumerate(self.source_order)}

    def u_id(self, x: int, alpha: int) -> int:
        return self.position[x] * self.block + alpha

    def v_id(self, x: int, i: int) -> int:
        return self.position[x] * self.block + (self.c + 1) + (i - 1)


def gadget_layout(graph: StructuredGraph, k: int) -> GadgetLayout:
    d = graph.max_degree()
    c = d - k
    if k < 2 or d < k:
        raise InfeasibleParamsError("gadget needs 2 <= k <= max degree")
    if c * (c + 1) < d:
        raise InfeasibleParamsError(f"need c(c+1) >= d, got c={c}, d={d}")
    return GadgetLayout(k=k, c=c, source_order=tuple(graph.vertices))


def ordered_neighbor_classes(graph: StructuredGraph, x: int, c: int) -> Dict[int, list]:
    """Split the neighbors of x, enumerated in ascending vertex-id order as
    N_1(x) < N_2(x) < ..., into classes by index mod (c+1)."""
    classes: Dict[int, list] = {a: [] for a in range(c + 1)}
    for i, y in enumerate(sorted(graph.neighbors(x)), start=1):
        classes[i % (c + 1)].append(y)
    return classes


def gadget_build(graph: StructuredGraph, k: int) -> StructuredGraph:
    """Degree-reduction gadget H on one (c+1)+(k-1)-vertex block per source
    vertex; max degree drops to d-1 while k-colorability is preserved."""
    layout = gadget_layout(graph, k)
    c = layout.c
    edges = []
    for x in graph.vertices:
        vs = [layout.v_id(x, i) for i in range(1, k)]
        us = [layout.u_id(x, a) for a in range(c + 1)]
        for i in range(len(vs)):
            for j in range(i + 1, len(vs)):
                edges.append((vs[i], vs[j]))
        for v in vs:
            for u in us:
                edges.append((v, u))
    classes = {x: ordered_neighbor_classes(graph, x, c) for x in graph.vertices}
    for x in graph.vertices:
        for alpha in range(c + 1):
            for y in classes[x][alpha]:
                for beta in range(c + 1):
                    if x in classes[y][beta]:
                        u1, u2 = layout.u_id(x, alpha), layout.u_id(y, beta)
                        if u1 < u2:
                            edges.append((u1, u2))
    n = len(graph.vertices) * layout.block
    return build_graph(range(n), set(edges))
