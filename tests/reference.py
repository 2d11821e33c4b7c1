"""Reference code that only tests call: the raw branch recursion, the
leaf-by-leaf cover walk, the reduce form of the discrete partition and the
three-valued extension check of the engine, the gadget's colouring lift
and its v-vertices, the distance-k power graph, two random CSP families,
a ball's graph, several layers attached to a graph in one copy, and balls
as induced graphs with the canonicalization that read them.
No command, engine path, script or benchmark workload reaches them, so
they live beside the tests that use them as oracles and instance
sources."""

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from operator import itemgetter, or_
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from locallemma import generators
from locallemma.canonical import (DEFAULT_SEARCH_BUDGET, DEFAULT_SIZE_CAP, CanonicalForm, _code,
                                  _label_key, _leaf_key, _orbits)
from locallemma.csp import (
    Constraint,
    Csp,
    DEFAULT_CAP_BITS,
    PartialAssignment,
    discrete_partition,
    incidence as csp_incidence,
    restrict_csp,
    stats,
)
from locallemma.connect import Connection
from locallemma.engine import _LevelState, _partial_surrogate, _search
from locallemma.errors import CanonicalizationCapError, GraphBuildError
from locallemma.generators import GadgetLayout
from locallemma.graphs import LAYER_MARK, TAG_BASE, RootedBall, StructuredGraph, _positions_graph
from locallemma.labels import is_label
from locallemma.randgen import _random_domains
from locallemma.rng import derived_rng


def branch_trace(csp: Csp, word: Sequence[int], cap_bits: int = DEFAULT_CAP_BITS):
    """Raw level recursion for a given branch word (no estimator, no
    guarantee verification): returns (h_w, dangerous sets per prefix).

    Used to replay the construction along adversarial words, where
    constraints do get dangerous and freeze.
    """
    st = stats(csp, cap_bits)
    classes = discrete_partition(csp)
    if len(word) != len(classes):
        raise ValueError(f"word length {len(word)} != {len(classes)} classes")
    state = _LevelState.root(csp, st.p, cap_bits)
    h: PartialAssignment = {}
    dangerous = [state.dangerous]
    for cls, value in zip(classes, word):
        g, _, state = state.descend(cls, value)
        h.update(g)
        dangerous.append(state.dangerous)
    return h, dangerous


def reduce_discrete_partition(csp: Csp) -> List[Tuple[int, ...]]:
    """`csp.discrete_partition` as it stood with a `reduce` over every
    element's constraints, an element that meets no domain included."""
    meeting = csp.meeting
    taken = [0] * len(csp.constraints)   # bit c set: class c already meets the domain
    classes: Dict[int, List[int]] = {}   # first fit opens classes in index order
    for x in csp.ground:
        used = reduce(or_, (taken[i] for i in meeting.get(x, ())), 0)
        c = (~used & (used + 1)).bit_length() - 1   # the lowest class not in use
        classes.setdefault(c, []).append(x)
        for i in meeting.get(x, ()):
            taken[i] |= 1 << c
    return [tuple(cls) for cls in classes.values()]


def leafwise_family_leaves(encoded: Csp, classes: Sequence[Tuple[int, ...]],
                           conn: Connection, p: Fraction, cap_bits: int):
    """`engine._family_leaves` as it stood yielding once per leaf, not once
    per leaf state: (h, apply(conn, h), level state) for every branch
    word, in product((1, 2), repeat=len(classes)) order; h and the carried
    values are live, valid until the next leaf.  The walk is the engine's:
    recursion above each state's quiet suffix, merged moves within it."""
    elems, rules = conn.source, conn.rules
    dets = [tuple(conn.det_sets[x]) for x in elems]
    memos: List[dict] = [{} for _ in elems]
    readers = csp_incidence(dets)   # target element -> positions in elems of its readers

    def rule_on(k: int, h: PartialAssignment):
        key = tuple(map(h.get, dets[k]))
        if key not in memos[k]:
            memos[k][key] = rules[elems[k]]({z: v for z, v in zip(dets[k], key) if v is not None})
        return memos[k][key]

    def table_of(keys: tuple) -> list:   # [other readers, (g, settled values, None change) per value]
        if keys not in tables:   # the values None (h undefined on keys), 1 and 2
            touched = {k for z in keys for k in readers.get(z, ())}
            settled = {k for k in touched if set(keys) >= set(dets[k])}
            rows = [(g, {elems[k]: rule_on(k, g) for k in settled})
                    for g in (dict.fromkeys(keys, value) for value in (None, 1, 2))]
            nones = [sum(v is None for v in new.values()) for _, new in rows]
            tables[keys] = [[k for k in touched if k not in settled]] + [
                (g, new, n - nones[0]) for (g, new), n in zip(rows, nones)]
        return tables[keys]

    def move(g: PartialAssignment, new: dict, delta: int, others: list):
        nonlocal undefined
        h.update(g)
        values.update(new)
        undefined += delta
        for k in others:
            x, value = elems[k], rule_on(k, h)
            undefined += (value is None) - (values[x] is None)
            values[x] = value

    def back(table: list):   # undoes the table's level; the caller restores `undefined`
        for z in table[1][0]:
            del h[z]
        values.update(table[1][1])
        for k in table[0]:
            values[elems[k]] = rule_on(k, h)

    def walk(level: int, state: _LevelState):
        nonlocal undefined
        if state not in suffixes:   # its first visit, at the level after its descend
            start = next((i + 1 for i in range(levels - 1, level - 1, -1)
                          if not state.fix(classes[i])[1]), level)
            run = [table_of(state.fix(cls)[0]) for cls in classes[start:]]
            # n - (w & -w).bit_length(): word w's new branches over w - 1's (w = 0: None)
            changes = [[(t[3], t[2])] + [(u[2], u[3]) for u in run[j + 1:]]
                       for j, t in enumerate(run)] + [[(t[2], t[1]) for t in run]]
            suffixes[state] = start, run, [(   # move's arguments
                *(dict(kv for new, _ in change for kv in new[i].items()) for i in (0, 1)),
                sum(new[2] - old[2] for new, old in change),
                list(dict.fromkeys(k for table in run[-len(change):] for k in table[0])))
                for change in changes]
        start, run, moves = suffixes[state]
        if level < start:
            table, before = table_of(state.fix(classes[level])[0]), undefined
            for value in (1, 2):
                after = state.descend(classes[level], value)[2]
                move(*table[value + 1], table[0])
                yield from walk(level + 1, after)
                back(table)
                undefined = before
            return
        for w in range(1 << len(run)):   # the suffix's words, from w - 1 to w by one move
            move(*moves[len(run) - (w & -w).bit_length()])
            yield h, (values.copy() if not undefined
                      else {x: v for x, v in values.items() if v is not None}), state
        for table in reversed(run):
            back(table)

    h, levels = {}, len(classes)
    values = {x: rule_on(k, h) for k, x in enumerate(elems)}   # None where undefined
    undefined = sum(v is None for v in values.values())
    tables: Dict[tuple, list] = {}   # K -> table_of(K)
    suffixes: Dict[_LevelState, tuple] = {}   # state -> (suffix's first level, tables, moves)
    yield from walk(0, _LevelState.root(encoded, p, cap_bits))


def check_partial_solution(csp: Csp, g: PartialAssignment,
                           cap_bits: int = DEFAULT_CAP_BITS, seed: int = 0) -> Optional[bool]:
    """Whether g extends to a solution of `csp`.  Three-valued: True when
    a solution is found, False when none exists (exhaustive search within
    the cap, or an immediate contradiction), None when only the resampling
    oracle was available and it capped out."""
    restricted = restrict_csp(csp, g)
    for c in restricted.constraints:
        if c.arity() == 0 and c.contains(()):
            return False  # g already violates a fully-covered constraint
    solution, decided = _search(restricted, seed, cap_bits)
    return solution is not None if decided else None


def v_ids(layout: GadgetLayout):
    """The gadget's v-vertices, block by block: the vertices whose degree
    the gadget's correctness proof pins at d - 1."""
    return [layout.v_id(x, i) for x in layout.source_order for i in range(1, layout.k)]


def lift_coloring(graph: StructuredGraph, k: int, coloring: Dict[int, int]) -> Dict[int, int]:
    """Lift a proper k-coloring of the source graph to the gadget: every
    u-vertex of x gets the color of x, the v-vertices get the other k-1.
    The layout is looked up on the module, so a test can replace it."""
    layout = generators.gadget_layout(graph, k)
    out = {}
    for x in graph.vertices:
        fx = coloring[x]
        for a in range(layout.c + 1):
            out[layout.u_id(x, a)] = fx
        rest = [col for col in range(1, k + 1) if col != fx]
        for i, col in enumerate(rest, start=1):
            out[layout.v_id(x, i)] = col
    return out


def distance_pairs(graph: StructuredGraph, k: int):
    """All unordered pairs at graph distance between 1 and k."""
    return {(v, w) for v in graph.vertices
            for w, d in graph.distances_from(v, limit=k).items() if d and v < w}


def power_graph(graph: StructuredGraph, k: int) -> StructuredGraph:
    """Same vertex set, x ~ y iff 1 <= dist(x, y) <= k; structure dropped."""
    if k < 1:
        raise GraphBuildError("power requires k >= 1")
    return StructuredGraph(graph.vertices, distance_pairs(graph, k), {}, 1)


def random_binary_lowp_csp(seed: int, max_ground: int = 60, max_degree: int = 4) -> Csp:
    """Random binary CSP passing the partial-solution surrogate
    p(d+1)^2 <= 0.1353 / 4 (single-pattern bodies on domains of size >= 10)."""
    rng = derived_rng(seed, "binary-lowp-instance")
    n = rng.randint(24, max_ground)
    ground = list(range(n))
    while True:
        count = rng.randint(2, 6)
        domains = _random_domains(rng, ground, count, (10, 11, 12, 13, 14),
                                  max_overlap=min(3, max_degree))
        constraints = []
        for dom in domains:
            body = {tuple(rng.randint(1, 2) for _ in dom)}
            if rng.random() < 0.3:
                body.add(tuple(rng.randint(1, 2) for _ in dom))
            constraints.append(Constraint.explicit(dom, 2, body))
        csp = Csp(tuple(ground), 2, tuple(constraints))
        st = stats(csp)
        lhs, surrogate = _partial_surrogate(st.p, st.d, 2)
        if st.d <= max_degree and lhs <= surrogate:
            return csp


def random_small_csp(seed: int, max_ground: int = 6, max_m: int = 6,
                     max_arity: int = 3, max_constraints: int = 4,
                     m_choices=None) -> Csp:
    """Small unconstrained-regime CSP for oracle-style tests."""
    rng = derived_rng(seed, "small-instance")
    n = rng.randint(2, max_ground)
    ground = list(range(n))
    m = rng.choice(list(m_choices)) if m_choices else rng.randint(2, max_m)
    constraints = []
    for _ in range(rng.randint(1, max_constraints)):
        arity = rng.randint(1, min(max_arity, n))
        dom = tuple(sorted(rng.sample(ground, arity)))
        patterns = rng.randint(0, min(4, m ** arity))
        body = set()
        for _ in range(patterns):
            body.add(tuple(rng.randint(1, m) for _ in dom))
        constraints.append(Constraint.explicit(dom, m, body))
    return Csp(tuple(ground), m, tuple(constraints))


def ball_graph(b: RootedBall) -> StructuredGraph:
    """The ball as a structured graph on its vertex ids, in BFS order."""
    return _positions_graph(b.vertices, b.nbrs, b.entries, b.tuple_bound)


def layer_pairs(label) -> Optional[tuple]:
    """The (tag, value) pairs of a layered label, or None for a plain one."""
    if isinstance(label, tuple) and label and label[0] == LAYER_MARK:
        return label[1:]
    return None


def with_layers(graph: StructuredGraph, layers) -> StructuredGraph:
    """`with_labeling` for each (tag, values) in turn, on one structure
    copy: the several layers that `rand_to_csp`'s verifier balls carry."""
    struct = dict(graph.structure)

    def append_pair(tup, pair):
        old = struct.get(tup)
        pairs = () if old is None else layer_pairs(old)
        if pairs is None:  # a plain label
            pairs = ((TAG_BASE, old),)
        struct[tup] = (LAYER_MARK,) + pairs + (pair,)

    for tag, values in layers:
        bad = [v for v in values if not graph.has_vertex(v)]
        if bad:
            raise GraphBuildError(f"labeling mentions unknown vertices {bad}")
        append_pair((), (tag, 0))
        for v, value in values.items():
            if not is_label(value):
                raise GraphBuildError(f"invalid layer value for {v}: {value!r}")
            append_pair((v,), (tag, value))
    return StructuredGraph._trusted(graph.vertices, graph._vset, graph.edges, struct,
                                    max(graph.tuple_bound, 1), graph._nbrs)


# The ball as a graph: `ball`, `induced`, `RootedBall` with `dist` and the
# canonicalization that read them, as they were before balls were built in
# BFS positions.  The positions path must give equal codes, leaves, vertex
# maps and cap-outs.

def incidence(graph: StructuredGraph):
    """(vertex -> position, structure keys in insertion order, first
    vertex -> positions of its keys; the empty key is filed under None)."""
    keys = tuple(graph.structure)
    by_first: Dict[Optional[int], list] = {}
    for i, tup in enumerate(keys):
        by_first.setdefault(tup[0] if tup else None, []).append(i)
    pos = {v: i for i, v in enumerate(graph.vertices)}
    return pos, keys, by_first


def induced(graph: StructuredGraph, vertices: Iterable[int]) -> StructuredGraph:
    """Induced structured subgraph on the given vertices (unknown ones
    are ignored), in the graph's vertex and structure order, with one
    sort of the structure hits."""
    kset = graph._vset.intersection(vertices)
    pos, keys, by_first = incidence(graph)
    keep = sorted(kset, key=pos.__getitem__)
    inside, within = kset.__contains__, kset.issuperset
    nbrs, edges = {}, []
    for u in keep:
        nbrs[u] = ws = tuple(filter(inside, graph._nbrs[u]))
        for w in ws:
            if u < w:
                edges.append((u, w))
    hits = [i for v in (None, *keep) for i in by_first.get(v, ()) if within(keys[i])]
    hits.sort()
    struct = {keys[i]: graph.structure[keys[i]] for i in hits}
    return StructuredGraph._trusted(tuple(keep), kset, frozenset(edges), struct,
                                    graph.tuple_bound, nbrs)


@dataclass(frozen=True)
class GraphBall:
    """A rooted ball as an induced graph; `dist` maps every vertex to its
    distance from the root, in BFS order."""
    graph: StructuredGraph
    root: int
    radius: int
    dist: dict


def graph_ball(graph: StructuredGraph, x: int, radius: int) -> GraphBall:
    """The induced structured subgraph on the vertices within `radius` of x."""
    dist = graph.distances_from(x, limit=radius)
    if radius < 0:
        raise GraphBuildError("radius must be nonnegative")
    return GraphBall(induced(graph, dist.keys()), x, int(radius), dist)


def graph_refine(b: GraphBall):
    """v -> color id, from (root flag, distance, degree, own label key)
    and signature rounds on ties."""
    graph, root, dist, nbrs = b.graph, b.root, b.dist, b.graph._nbrs
    own = {tup[0]: _label_key(label) for tup, label in graph.structure.items() if len(tup) == 1}
    color = {v: (0 if v == root else 1, dist[v], len(nbrs[v]), own.get(v, b""))
             for v in graph.vertices}
    ranked = sorted(color.items(), key=itemgetter(1))
    color, cells, prev = {}, 0, None
    for v, c in ranked:
        cells += c != prev
        color[v], prev = cells - 1, c
    return color if cells == len(ranked) else graph_rounds(graph, color, cells)


def graph_rounds(graph: StructuredGraph, color, cells):
    nbrs, n = graph._nbrs, len(graph.vertices)

    def normalize(sigs):
        index = {s: i for i, s in enumerate(sorted(set(sigs.values())))}
        return {v: index[s] for v, s in sigs.items()}, len(index)

    participation = {v: [] for v in graph.vertices}
    for tup, label in graph.structure.items():
        lkey = _label_key(label)
        for pos, v in enumerate(tup):
            participation[v].append((len(tup), pos, lkey, tup))
    while True:
        sigs = {}
        for v in graph.vertices:
            nb = sorted(color[w] for w in nbrs[v])
            struct = sorted((length, pos, lkey, tuple(color[x] for x in tup))
                            for (length, pos, lkey, tup) in participation[v])
            sigs[v] = (color[v], tuple(nb), tuple(struct))
        new, new_cells = normalize(sigs)
        if new_cells in (cells, n):
            return new
        color, cells = new, new_cells


def graph_leaf(graph: StructuredGraph, mapping):
    """The graph relabeled by `mapping`: (n, sorted edges, entries sorted by tuple)."""
    edges = sorted((min(mapping[u], mapping[v]), max(mapping[u], mapping[v]))
                   for u, v in graph.edges)
    entries = sorted(((tuple(mapping[x] for x in tup), label)
                      for tup, label in graph.structure.items()), key=itemgetter(0))
    return len(graph.vertices), edges, entries


def graph_search(graph: StructuredGraph, order, sizes):
    """The pruned bijection search on a graph: the vertex ids (indices into
    `order`) at positions 0..n-1 of the first least leaf."""
    n = len(order)
    last = n * n - 1
    index = {v: i for i, v in enumerate(order)}
    lo, hi = [], []
    for size in sizes:
        start = len(lo)
        lo.extend([start] * size)
        hi.extend([start + size] * size)
    levels = [p for p in range(n) if hi[p] - lo[p] > 1]
    depth = len(levels)
    entries = [(tuple(index[x] for x in tup), _label_key(label))
               for tup, label in graph.structure.items()]
    pos = list(range(n))
    for p in levels:
        pos[p] = -1
    path = list(range(n))
    autos = []
    first = best = None
    nbrs = [[] for _ in range(n)]
    known = 0
    for u, v in graph.edges:
        a, b = index[u], index[v]
        nbrs[a].append(b)
        nbrs[b].append(a)
        if pos[a] >= 0 and pos[b] >= 0:
            known |= 1 << (last - (a * n + b if a < b else b * n + a))
    for around in nbrs:
        around.sort()
    mask = 0

    def leaf(ends):
        nonlocal first, best, mask
        key = _leaf_key(pos, ends, entries)
        if best is None or key < best[0]:
            best = (key, path[:])
            first = first or best
            mask = ends
            return depth
        ref = first[1] if key == first[0] else best[1] if key == best[0] else None
        if ref is None:
            return depth
        autos.append(tuple([ref[p] for p in pos]))
        k = 0
        while path[levels[k]] == ref[levels[k]]:
            k += 1
        return k

    def visit(i, fixing, checked, ends, row, x):
        if i == depth:
            return leaf(ends)
        p = levels[i]
        if x is None or pos[x] >= 0:
            while row < p:
                for x in nbrs[path[row]]:
                    if pos[x] < 0:
                        break
                else:
                    row += 1
                    continue
                break
        if row < p:
            shift = last + 1 - row * n - (lo[x] if lo[x] > p else p)
            if ends >> shift < mask >> shift:
                return depth
        searched = []
        covered = ()
        for w in range(lo[p], hi[p]):
            if pos[w] >= 0 or w in covered:
                continue
            pos[w] = p
            path[p] = w
            known = ends
            for y in nbrs[w]:
                q = pos[y]
                if q >= 0:
                    known |= 1 << (last - (q * n + p if q < p else p * n + q))
            back = visit(i + 1, [g for g in fixing if g[w] == w] if fixing else fixing,
                         checked, known, row, x)
            pos[w] = -1
            if back < i:
                return back
            searched.append(w)
            if checked < len(autos):
                placed = [path[q] for q in levels[:i]]
                fixing = fixing + [g for g in autos[checked:]
                                   if all(g[x] == x for x in placed)]
                checked = len(autos)
            if fixing:
                covered = _orbits(searched, fixing)
        return depth

    visit(0, [], 0, known, 0, None)
    return best[1]


def graph_canonical_map(b: GraphBall, cap: int = DEFAULT_SIZE_CAP):
    """(form, ball vertex -> canonical position) on a graph ball; raises
    the cap-outs `_canonical_map` raises."""
    graph = b.graph
    n = len(graph.vertices)
    if n > cap:
        raise CanonicalizationCapError(n, cap)
    color = graph_refine(b)
    if len(set(color.values())) == n:
        mapping = color
    else:
        cells = {}
        for v in graph.vertices:
            cells.setdefault(color[v], []).append(v)
        cell_list = [sorted(cells[c]) for c in sorted(cells)]
        total = 1
        for cell in cell_list:
            for i in range(2, len(cell) + 1):
                total *= i
            if total > DEFAULT_SEARCH_BUDGET:
                raise CanonicalizationCapError(total, DEFAULT_SEARCH_BUDGET,
                                               what="bijection search")
        order = [v for cell in cell_list for v in cell]
        path = graph_search(graph, order, [len(cell) for cell in cell_list])
        mapping = {order[i]: p for p, i in enumerate(path)}
    leaf = graph_leaf(graph, mapping)
    return CanonicalForm(_code(leaf), leaf), mapping
