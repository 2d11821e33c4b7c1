"""Finite structured graphs: a simple graph plus a partial labeling of
short vertex tuples.

Orientations, identifiers, randomness and candidate colorings all attach
as labeling "layers" on singleton tuples, each under its own reserved tag,
so a local rule can tell the layers apart after canonicalization.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Mapping, Optional, Tuple

from .errors import GraphBuildError
from .labels import Label, is_label

VertexLabeling = Dict[int, int]

# Reserved layer marker and tags.  A layered singleton label has the shape
# (LAYER_MARK, (tag, value), ...); the empty-tuple entry records which
# layers a graph carries (and global parameters such as a CSP range).
LAYER_MARK: frozenset = frozenset()
TAG_BASE = 0
TAG_IDS = 2
TAG_RAND = 3
TAG_OUTPUT = 4
TAG_RANGE = 5


class StructuredGraph:
    """Immutable graph + structure map. Vertices are distinct ints."""

    __slots__ = ("vertices", "edges", "structure", "tuple_bound", "_nbrs", "_vset", "_index")

    def __init__(self, vertices, edges, structure=None, tuple_bound=None):
        vertices = tuple(vertices)
        if len(set(vertices)) != len(vertices):
            raise GraphBuildError("duplicate vertex ids")
        vset = frozenset(vertices)
        norm = set()
        for e in edges:
            u, v = e
            if u == v:
                raise GraphBuildError(f"self-loop at vertex {u}")
            if u not in vset or v not in vset:
                raise GraphBuildError(f"edge {e} uses unknown vertex")
            norm.add((u, v) if u < v else (v, u))
        struct: Dict[tuple, Label] = {}
        for tup, label in (structure or {}).items() if isinstance(structure, Mapping) else (structure or []):
            tup = tuple(tup)
            if any(x not in vset for x in tup):
                raise GraphBuildError(f"structure tuple {tup} uses unknown vertex")
            if not is_label(label):
                raise GraphBuildError(f"invalid label for tuple {tup}: {label!r}")
            if tup in struct:
                raise GraphBuildError(f"duplicate structure entry for tuple {tup}")
            struct[tup] = label
        max_len = max((len(t) for t in struct), default=0)
        if tuple_bound is None:
            tuple_bound = max(max_len, 1)
        if max_len > tuple_bound:
            raise GraphBuildError(f"tuple of length {max_len} exceeds bound {tuple_bound}")
        nbrs = {v: [] for v in vertices}
        for u, v in sorted(norm):
            nbrs[u].append(v)
            nbrs[v].append(u)
        self._set(vertices, vset, frozenset(norm), struct, int(tuple_bound),
                  {v: tuple(ws) for v, ws in nbrs.items()})

    def _set(self, vertices, vset, edges, structure, tuple_bound, nbrs):
        for name, value in (("vertices", vertices), ("_vset", vset), ("edges", edges),
                            ("structure", structure), ("tuple_bound", tuple_bound),
                            ("_nbrs", nbrs), ("_index", None)):
            object.__setattr__(self, name, value)

    @classmethod
    def _trusted(cls, vertices, vset, edges, structure, tuple_bound, nbrs):
        """Unchecked constructor for graphs derived from a validated one;
        neighbor tuples must ascend, as __init__ builds them."""
        graph = object.__new__(cls)
        graph._set(vertices, vset, edges, structure, tuple_bound, nbrs)
        return graph

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("StructuredGraph is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, StructuredGraph)
            and self.vertices == other.vertices
            and self.edges == other.edges
            and self.structure == other.structure
            and self.tuple_bound == other.tuple_bound
        )

    def __repr__(self):
        return (
            f"StructuredGraph(|V|={len(self.vertices)}, |E|={len(self.edges)}, "
            f"|sigma|={len(self.structure)})"
        )

    def has_vertex(self, v) -> bool:
        return v in self._vset

    def neighbors(self, v) -> Tuple[int, ...]:
        return self._nbrs[v]

    def degree(self, v) -> int:
        return len(self._nbrs[v])

    def max_degree(self) -> int:
        return max((len(ws) for ws in self._nbrs.values()), default=0)

    def adjacent(self, u, v) -> bool:
        return ((u, v) if u < v else (v, u)) in self.edges

    def distances_from(self, x, limit: Optional[int] = None) -> Dict[int, int]:
        """BFS distances from x, truncated at `limit` when given."""
        if x not in self._vset:
            raise GraphBuildError(f"unknown vertex {x}")
        dist = {x: 0}
        frontier = deque([x])
        while frontier:
            v = frontier.popleft()
            d = dist[v]
            if limit is not None and d >= limit:
                continue
            for w in self._nbrs[v]:
                if w not in dist:
                    dist[w] = d + 1
                    frontier.append(w)
        return dist

    def _incidence(self):
        """First vertex -> the (tuple, label) entries whose tuple starts
        there (the empty tuple's under None), built on first use."""
        if self._index is None:
            by_first: Dict[Optional[int], list] = {}
            for entry in self.structure.items():
                tup = entry[0]
                by_first.setdefault(tup[0] if tup else None, []).append(entry)
            object.__setattr__(self, "_index", by_first)
        return self._index


class RootedBall:
    """A rooted ball in BFS positions: `vertices` maps position -> vertex id
    (root 0, then by distance, each vertex's neighbours in ascending id
    order), `dist` gives each position's distance from the root, `nbrs` its
    neighbours as positions (ascending by id) and `entries` the structure
    as (position tuple, label) pairs, all tuples.  The memos of
    `verify_lcl` and `rand_to_csp` assume no slot is rebound."""

    __slots__ = ("root", "radius", "vertices", "dist", "nbrs", "entries", "tuple_bound")

    def __init__(self, graph: StructuredGraph, root: int, radius: int):
        """The ball of the whole of `graph`, which must lie within `radius`
        of `root`."""
        if not graph.has_vertex(root):
            raise GraphBuildError(f"root {root} not in ball graph")
        self._fill(graph, root, radius)
        if len(self.vertices) < len(graph.vertices):
            far = [v for v in graph.vertices if v not in self.vertices]
            raise GraphBuildError(f"vertices {far} beyond radius {radius} of root")

    def _fill(self, graph: StructuredGraph, root: int, radius: int):
        """One BFS from the root, then one pass over the graph's incidence index."""
        if radius < 0:
            raise GraphBuildError("radius must be nonnegative")
        gnbrs, by_first, at = graph._nbrs, graph._incidence(), {root: 0}
        vertices, dist, nbrs = [root], [0], []
        for v, d in zip(vertices, dist):  # both grow as the BFS finds vertices
            ws = gnbrs[v]
            if d < radius:
                for w in ws:
                    if w not in at:
                        at[w] = len(vertices)
                        vertices.append(w)
                        dist.append(d + 1)
            nbrs.append(tuple([at[w] for w in ws if w in at]))  # all but at the radius
        get = at.get
        entries = list(by_first.get(None, ()))
        for p, v in enumerate(vertices):
            for tup, label in by_first.get(v, ()):  # tup[0] is v, at position p
                k = len(tup)  # short tuples are mapped inline
                mapped = (p,) if k == 1 else (p, get(tup[1])) if k == 2 else tuple(map(get, tup))
                if None not in mapped:
                    entries.append((mapped, label))
        self.root, self.radius, self.vertices, self.dist = root, int(radius), tuple(vertices), tuple(dist)
        self.nbrs, self.entries, self.tuple_bound = tuple(nbrs), tuple(entries), graph.tuple_bound

    def __repr__(self):
        return f"RootedBall(root={self.root}, R={self.radius}, |V|={len(self.vertices)})"


def _positions_graph(vertices, nbrs, entries, tuple_bound) -> StructuredGraph:
    """The graph on `vertices` (position -> vertex id) whose neighbours and
    entries are given in positions; each neighbour tuple must ascend by id."""
    nbrs = {v: tuple([vertices[q] for q in ws]) for v, ws in zip(vertices, nbrs)}
    edges = frozenset([(v, w) for v, ws in nbrs.items() for w in ws if v < w])
    structure = {tuple([vertices[q] for q in t]): label for t, label in entries}
    return StructuredGraph._trusted(tuple(vertices), frozenset(vertices), edges, structure,
                                    tuple_bound, nbrs)


def build_graph(vertices, edges, structure=None, tuple_bound=None) -> StructuredGraph:
    """Validated constructor; rejects self-loops, unknown vertices and
    duplicate structure entries."""
    return StructuredGraph(vertices, edges, structure, tuple_bound)


def ball(graph: StructuredGraph, x: int, radius: int) -> RootedBall:
    """The ball of the given radius around x, in BFS positions: O(ball)
    after the graph's incidence index is built once."""
    if not graph.has_vertex(x):
        raise GraphBuildError(f"unknown vertex {x}")
    rooted = object.__new__(RootedBall)
    rooted._fill(graph, x, radius)
    return rooted


def greedy_coloring(graph: StructuredGraph, order) -> VertexLabeling:
    """First-fit proper coloring along `order` with colors 1, 2, ...;
    never uses more than max_degree + 1 colors."""
    return greedy_power_coloring(graph, order, 1)[0]


def greedy_power_coloring(graph: StructuredGraph, order, k: int):
    """(first-fit coloring of the distance-k power graph along `order`,
    max |B(x, k)|): one truncated BFS per vertex x, and x takes the least
    color in 1, 2, ... unused in B(x, k); no power graph is built."""
    order = list(order)
    if sorted(order) != sorted(graph.vertices):
        raise GraphBuildError("order must be a permutation of the vertex set")
    colors: VertexLabeling = {}
    max_ball = 0
    for v in order:
        ball_k = graph.distances_from(v, limit=k)
        max_ball = max(max_ball, len(ball_k))
        used = {colors.get(w) for w in ball_k}  # None for the uncolored
        c = 1
        while c in used:
            c += 1
        colors[v] = c
    return colors, max_ball


def _append_layers(label, pairs: tuple):
    """A singleton or empty-tuple label (None for none) with the layer
    `pairs` appended; a plain label is first wrapped under TAG_BASE."""
    if label is None:
        return (LAYER_MARK,) + pairs
    if isinstance(label, tuple) and label and label[0] == LAYER_MARK:
        return label + pairs
    return (LAYER_MARK, (TAG_BASE, label)) + pairs


def _checked(v, value):
    """A layer value for vertex v, refused unless it is a label."""
    if not is_label(value):
        raise GraphBuildError(f"invalid layer value for {v}: {value!r}")
    return value


def with_labeling(graph: StructuredGraph, values: Mapping[int, int],
                  tag: int = TAG_OUTPUT) -> StructuredGraph:
    """Attach a vertex labeling as a new structure layer under `tag`.

    Existing singleton labels are preserved (wrapped under TAG_BASE), and
    the empty-tuple entry records the layer so that even an empty labeling
    changes the structure; repeated application nests.  New values are
    checked here, so the result shares the graph's vertices and edges.
    """
    bad = [v for v in values if not graph.has_vertex(v)]
    if bad:
        raise GraphBuildError(f"labeling mentions unknown vertices {bad}")
    struct = dict(graph.structure)
    struct[()] = _append_layers(struct.get(()), ((tag, 0),))
    for v, value in values.items():
        struct[(v,)] = _append_layers(struct.get((v,)), ((tag, _checked(v, value)),))
    return StructuredGraph._trusted(graph.vertices, graph._vset, graph.edges, struct,
                                    max(graph.tuple_bound, 1), graph._nbrs)


def layered_ball(rooted: RootedBall, layers) -> RootedBall:
    """The ball of `with_labeling` for each (tag, values) of `layers` in
    turn on the ball's graph, at the same root and radius, built in the
    ball's own positions; `values` must cover the ball.  Only the order of
    its entries differs, which no canonical form reads."""
    struct = dict(rooted.entries)
    struct[()] = _append_layers(struct.get(()), tuple([(tag, 0) for tag, _ in layers]))
    for p, v in enumerate(rooted.vertices):
        pairs = tuple([(tag, _checked(v, values[v])) for tag, values in layers])
        struct[(p,)] = _append_layers(struct.get((p,)), pairs)
    out = object.__new__(RootedBall)
    for name in RootedBall.__slots__:
        setattr(out, name, getattr(rooted, name))
    out.entries, out.tuple_bound = tuple(struct.items()), max(rooted.tuple_bound, 1)
    return out


def label_layer(label, tag):
    """Last value under `tag` in a layered label, or None (also for a
    plain label)."""
    found = None
    # the layered-label test, inline: rules call this once per vertex
    if isinstance(label, tuple) and label and label[0] == LAYER_MARK:
        for p in label:  # the marker is no pair, so it never matches
            if isinstance(p, tuple) and len(p) == 2 and p[0] == tag:
                found = p[1]
    return found


def base_label(label):
    """A plain label itself; for a layered label, its last TAG_BASE value,
    or None when it has none."""
    if isinstance(label, tuple) and label and label[0] == LAYER_MARK:
        return label_layer(label, TAG_BASE)
    return label


def layer_value(graph: StructuredGraph, v: int, tag: int):
    """Last value attached at vertex v under `tag`, or None."""
    return label_layer(graph.structure.get((v,)), tag)


def base_structure(graph: StructuredGraph) -> Dict[tuple, Label]:
    """Structure entries with layer wrapping undone (TAG_BASE unwrapped,
    pure layer entries dropped)."""
    out = {}
    for tup, label in graph.structure.items():
        base = base_label(label)
        # a plain label on the empty tuple is dropped, a wrapped one kept
        if base is not None and (tup or base is not label):
            out[tup] = base
    return out
