"""Canonical codes for rooted structured graphs.

Equal codes iff the rooted structured graphs are isomorphic (root to root,
adjacency preserved, structure map transported).  The code is the JSON of
the least leaf, in native order, over all root-preserving bijections
compatible with an iterated invariant refinement of the vertices; the
refinement (root distance, degree and own label, then structure
participation and neighbor multisets) keeps the search small.

Refinement signatures (same-shape tuples of nonnegative ints and
self-delimiting `label_key` bytes) are ordered by native tuple order, and
refinement stops as soon as every vertex is alone in its cell.  A ball
whose own labels separate its vertices is ranked by one sort of its first
colors, and its signature rounds never run (codes from before own labels
joined the first color differ on some labelled balls).  The ball comes
in BFS positions (`graphs.RootedBall`), and refinement, leaves and the
search read its distances, neighbour tuples and entries directly.  A
cell's positions are searched in BFS order, which picks the least leaf
and vertex map that vertex id order would: two least leaves first differ
in a cell at some distance by an automorphism fixing every nearer vertex,
so the two vertices there have the same parents and the BFS took them in
id order.  Each label's key is computed once and kept in a bounded cache;
a label's JSON text is written only into its entry's text.

A leaf (a bijection onto positions 0..n-1) is keyed by its edge list in
numeric order (edge [a, b], a < b, has value a*n + b), then its structure
entries as (position tuple, label_key) pairs in tuple order.  The code is
the compact, key-sorted JSON object {"edges", "n", "structure"} of the
least leaf, written once from cached edge texts and one cached text per
(position tuple, label) entry (`_code`).  A leaf's JSON is injective, so
equal codes mean isomorphic balls.  Earlier codes were the least JSON by
bytes.  The two agree on every discrete ball (one leaf) and every
unlabelled ball of at most 10 vertices (one-digit positions, no
entries); they can differ on a searched ball of 11 or more vertices
("[1,10]" < "[1,2]" as text), or where leaves first differ in an entry
that text orders otherwise (tuples of two lengths, labels of 10 and
more, tuples and sets).

The search fills positions 0..n-1 one at a time, in cell order, each with
an unused vertex of its cell.  It returns the least leaf, the first in
search order, while visiting few leaves:

- A leaf's edges are one int mask, edge value v at bit n*n - 1 - v.  All
  leaves of one search have as many edges, so a larger mask is a smaller
  edge list, and the key (-mask, entries) compares natively.  A discrete
  refinement is the one leaf's map, and no key is built.
- Automorphisms prune (McKay & Piperno, "Practical graph isomorphism,
  II", 2014).  A leaf pi whose key equals the key of an earlier leaf ref
  (the first or the best) relabels the graph into the same graph, so
  g = ref^-1 . pi is an automorphism; it fixes the root and maps each
  cell onto itself.  When g fixes the vertices at positions 0..p-1,
  sigma -> sigma . g^-1 maps the leaves with w at position p onto those
  with g(w) there, one for one and with equal keys.  So a candidate in
  the orbit of an already searched sibling, under the automorphisms found
  so far that fix every assigned vertex, is skipped.  And when pi first
  leaves ref's path at position k, g fixes positions 0..k-1 and maps pi's
  vertex at k to ref's, whose subtree is finished: the search abandons
  pi's subtree and resumes at position k.
- The best leaf cuts subtrees (the paper's other pruning).  The edges
  between known positions are edges of every leaf below.  Row r holds
  the edges [r, t], t > r.  In the first row whose vertex has an unplaced
  neighbour, no open edge is less than r*n + s, s the first free
  position of the earliest cell holding one.  So the known edges below
  r*n + s, the bits of the mask `ends` from shift = n*n - (r*n + s) up,
  are the first edges of every leaf below, and the subtree is cut iff
  `ends >> shift < mask >> shift`, mask the best leaf's: every leaf below
  then has a greater edge list.

A skipped subtree is an image of one searched before, and a cut one
holds only leaves greater than the best, so the first least leaf in
search order is still reached and kept: the code and the vertex map are
those of the full search.  The search budget, the constant
`DEFAULT_SEARCH_BUDGET`, counts the leaves of the unpruned search (the
product of the cell factorials), so which balls cap out does not depend on
the pruning; a discrete ball, one leaf, never caps out on it.

A form made by `canonical_type` keeps the winning leaf of its search (the
relabeled edges and structure entries its code was written from), and
`parts` returns it with no parsing and no re-validation.  A form made by
`from_hex` carries no leaf: `parts` parses its bytes, validates the graph
in full and returns the same leaf shape.  `decode` builds the
representative from `parts` in O(ball), and a rule that needs no graph
reads `parts` directly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import lru_cache
from operator import itemgetter
from typing import Optional

from .errors import CanonicalizationCapError
from .graphs import RootedBall, StructuredGraph, _positions_graph
from .labels import label_key, label_to_json
from .serialize import _int_list, _known_keys, _label, _pairs, _strict_container, _strict_int

DEFAULT_SIZE_CAP = 64
DEFAULT_SEARCH_BUDGET = 100_000
# distinct labels, or position tuples, kept per text cache; none grows past it
_LABEL_CACHE_SIZE = 4096


@lru_cache(maxsize=_LABEL_CACHE_SIZE)
def _label_key(label):
    """label_key(label).  Graph labels are validated and never bool, so no
    two labels that are equal as cache keys (as 1 and True are) differ."""
    return label_key(label)


def _refine(b: RootedBall):
    """Iterated invariant partition: each position's color id, colors
    ordered by an isomorphism-invariant signature.  The first color is
    (root distance, alone 0 at the root; degree; own label key, b"" for
    none), so labels that separate the positions are ranked by one sort."""
    dist, nbrs, n = b.dist, b.nbrs, len(b.vertices)
    own = [b""] * n
    for tup, label in b.entries:
        if len(tup) == 1:
            own[tup[0]] = _label_key(label)
    first = [(dist[p], len(nbrs[p]), own[p]) for p in range(n)]
    color, cells, prev = [0] * n, 0, None
    for p in sorted(range(n), key=first.__getitem__):  # ranks, equal colors sharing one
        c = first[p]
        cells += c != prev
        color[p], prev = cells - 1, c
    return color if cells == n else _rounds(b, color, cells)


def _rounds(b: RootedBall, color, cells):
    """`_refine` from a first coloring with ties (`cells` ids): signature rounds."""
    nbrs, n = b.nbrs, len(b.vertices)
    participation = [[] for _ in range(n)]
    for tup, label in b.entries:
        lkey = _label_key(label)
        for pos, p in enumerate(tup):
            participation[p].append((len(tup), pos, lkey, tup))
    while True:
        sigs = []
        for p in range(n):
            nb = [color[q] for q in nbrs[p]]
            nb.sort()
            struct = [(length, pos, lkey, tuple([color[x] for x in tup]))
                      for (length, pos, lkey, tup) in participation[p]]
            struct.sort()
            sigs.append((color[p], tuple(nb), tuple(struct)))
        index = {s: i for i, s in enumerate(sorted(set(sigs)))}
        new = [index[s] for s in sigs]
        if len(index) in (cells, n):
            return new
        color, cells = new, len(index)


def _leaf(b: RootedBall, mapping):
    """The ball relabeled by `mapping` (position -> canonical position), as
    the leaf its code is written from: (n, sorted edges, sorted entries)."""
    edges = []
    for u, ws in enumerate(b.nbrs):
        a = mapping[u]
        for w in ws:
            if u < w:
                c = mapping[w]
                edges.append((a, c) if a < c else (c, a))
    edges.sort()
    entries = []
    for tup, label in b.entries:  # short tuples are remapped inline
        k = len(tup)
        entries.append(((mapping[tup[0]],) if k == 1 else (mapping[tup[0]], mapping[tup[1]])
                        if k == 2 else tuple([mapping[x] for x in tup]) if k else tup, label))
    # mapped tuples are distinct, so labels never break a tie
    entries.sort(key=itemgetter(0))
    return len(b.nbrs), edges, entries


@lru_cache(maxsize=_LABEL_CACHE_SIZE)
def _entry_json(entry):
    """The JSON text of a (position tuple, label) entry, "[[a,b],label]",
    the label compact and key-sorted.  As in `_label_key`, entries that are
    equal as cache keys have one text."""
    t, label = entry
    return (f"[[{','.join(map(str, t))}],"
            f"{json.dumps(label_to_json(label), sort_keys=True, separators=(',', ':'))}]")


@lru_cache(maxsize=64)
def _edge_json(n):
    """Flat table whose entry a*n + b, for a < b < n, is the JSON text of
    the edge [a, b]."""
    table = [None] * (n * n)
    for a in range(n):
        for b in range(a + 1, n):
            table[a * n + b] = f"[{a},{b}]"
    return table


def _code(leaf) -> bytes:
    """The code of a leaf: the compact, key-sorted JSON object {"edges",
    "n", "structure"}, joined from cached edge and entry texts in the
    leaf's order."""
    n, edges, entries = leaf
    edge_json = _edge_json(n)
    edge_texts = ",".join([edge_json[a * n + b] for a, b in edges])
    entry_texts = ",".join(map(_entry_json, entries))
    return f'{{"edges":[{edge_texts}],"n":{n},"structure":[{entry_texts}]}}'.encode()


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
        """The form whose code `hex()` wrote as `text`; `parts()` checks the
        code itself."""
        try:
            return CanonicalForm(bytes.fromhex(text))
        except (TypeError, ValueError):   # not a str, or not hex digits
            raise ValueError(f"code: not hex: {text!r}") from None

    def parts(self):
        """The representative as a leaf, root 0: (n, sorted edges, entries
        sorted by tuple); a `from_hex` form parses and validates its code
        on every call."""
        if self.leaf is not None:
            return self.leaf
        try:
            payload = json.loads(self.code.decode())
        except ValueError as exc:   # not UTF-8, or not JSON
            raise ValueError(f"code: not JSON: {exc}") from None
        _known_keys(_strict_container(payload, dict, "code"), ("edges", "n", "structure"))
        n = _strict_int(payload["n"], "n", low=1)  # root 0 is a vertex
        edges = [tuple(_int_list(e, f"edges[{i}]"))
                 for i, e in enumerate(_pairs(payload["edges"], "edges"))]
        # a list, so the constructor rejects a repeated tuple
        structure = [(tuple(_int_list(t, f"structure[{i}][0]")), _label(l, f"structure[{i}][1]"))
                     for i, (t, l) in enumerate(_pairs(payload["structure"], "structure"))]
        graph = StructuredGraph(range(n), edges, structure)
        return n, sorted(graph.edges), sorted(graph.structure.items(), key=itemgetter(0))

    def decode(self):
        """Canonical representative: (graph on vertices 0..n-1, root 0),
        built fresh from `parts()` on every call, neighbor tuples
        ascending and structure in tuple order."""
        n, edges, entries = self.parts()
        nbrs = [[] for _ in range(n)]
        for u, v in edges:  # sorted, so every neighbor tuple ascends
            nbrs[u].append(v)
            nbrs[v].append(u)
        tuple_bound = max(max((len(t) for t, _ in entries), default=0), 1)
        return _positions_graph(range(n), nbrs, entries, tuple_bound), 0


def canonical_type(b: RootedBall, cap: int = DEFAULT_SIZE_CAP) -> CanonicalForm:
    """Canonical code of a rooted ball, invariant under relabeling; a ball
    of more than `cap` vertices caps out."""
    return _canonical_map(b, cap)[0]


def _canonical_map(b: RootedBall, cap: int = DEFAULT_SIZE_CAP):
    """(canonical_type(b), the winning vertex map: ball vertex ->
    canonical position).  The map is an isomorphism from the ball onto
    the form's representative, so two balls with equal codes are carried
    onto each other by one map followed by the other's inverse."""
    vertices = b.vertices
    n = len(vertices)
    if n > cap:
        raise CanonicalizationCapError(n, cap)
    mapping = _refine(b)  # position -> canonical position once discrete
    if len(set(mapping)) < n:
        cells = {}
        for p, c in enumerate(mapping):
            cells.setdefault(c, []).append(p)
        cell_list = [cells[c] for c in sorted(cells)]  # positions ascend in a cell
        # the budget counts every leaf of the unpruned search
        total = 1
        for cell in cell_list:
            for i in range(2, len(cell) + 1):
                total *= i
            if total > DEFAULT_SEARCH_BUDGET:
                raise CanonicalizationCapError(total, DEFAULT_SEARCH_BUDGET,
                                               what="bijection search")
        order = [p for cell in cell_list for p in cell]
        path = _search(b, order, [len(cell) for cell in cell_list])
        for p, i in enumerate(path):
            mapping[order[i]] = p
    leaf = _leaf(b, mapping)
    return CanonicalForm(_code(leaf), leaf), dict(zip(vertices, mapping))


def _leaf_key(pos, ends, entries):
    """Sort key of the leaf that puts vertex i at position pos[i]: -ends,
    `ends` the mask of its edges (edge value v at bit n*n - 1 - v), then
    its (position tuple, label key) entries in tuple order.  The keys of
    one search's leaves order as the leaves do."""
    if not entries:
        return -ends, ()
    # mapped tuples are distinct, so label keys never break a tie
    mapped = [(tuple([pos[x] for x in tup]), lkey) for tup, lkey in entries]
    mapped.sort()
    # tuples built from lists of known length, so freed ones are reused
    return -ends, tuple(mapped)


def _orbits(seeds, gens):
    """Union of the orbits of `seeds` under the group generated by `gens`."""
    out = set(seeds)
    stack = list(seeds)
    while stack:
        x = stack.pop()
        for g in gens:
            y = g[x]
            if y not in out:
                out.add(y)
                stack.append(y)
    return out


def _search(b: RootedBall, order, sizes):
    """The least leaf of the bijection search, as the vertex ids (indices
    into `order`, the ball's positions in cell order) at positions 0..n-1.

    A vertex alone in its cell keeps its position.  The other positions
    are the search's levels, filled one at a time: position p takes an
    unused id of its cell, lo[p]..hi[p]-1.  A leaf whose key equals the
    first leaf's or the best leaf's gives an automorphism, and a subtree
    whose first edges are a smaller mask than the best leaf's is cut; see
    the module docstring for why skipping either is exact.  Recursion
    goes one call deep per level, and the search budget bounds the levels."""
    n = len(order)
    last = n * n - 1  # edge value v is bit last - v of a mask
    index = [0] * n
    for i, p in enumerate(order):
        index[p] = i
    lo, hi = [], []
    for size in sizes:
        start = len(lo)
        lo.extend([start] * size)
        hi.extend([start + size] * size)
    levels = [p for p in range(n) if hi[p] - lo[p] > 1]
    depth = len(levels)
    entries = [(tuple(index[x] for x in tup), _label_key(label)) for tup, label in b.entries]
    leaf_key = _leaf_key
    pos = list(range(n))  # vertex id -> position, -1 while unassigned
    for p in levels:
        pos[p] = -1
    path = list(range(n))  # position -> vertex id
    autos = []
    first = best = None  # (key, path) of the first and of the least leaf
    nbrs = [[] for _ in range(n)]
    known = 0  # the edges between vertices alone in their cells
    for u, ws in enumerate(b.nbrs):
        a = index[u]
        for w in ws:
            c = index[w]
            nbrs[a].append(c)
            if a < c and pos[a] >= 0 and pos[c] >= 0:
                known |= 1 << (last - (a * n + c))
    for around in nbrs:  # ascending, so a first open neighbour is in the earliest cell
        around.sort()
    mask = 0  # the best leaf's edges; 0 cuts nothing before the first leaf

    def leaf(ends):
        """Level to resume at: depth, or the level where this leaf leaves
        the path of an equal earlier leaf.  `ends` is its edges' mask."""
        nonlocal first, best, mask
        key = leaf_key(pos, ends, entries)
        if best is None or key < best[0]:
            best = (key, path[:])
            first = first or best
            mask = ends
            return depth
        ref = first[1] if key == first[0] else best[1] if key == best[0] else None
        if ref is None:
            return depth
        autos.append(tuple([ref[p] for p in pos]))  # ref^-1 . this leaf
        k = 0
        while path[levels[k]] == ref[levels[k]]:
            k += 1
        return k

    def visit(i, fixing, checked, ends, row, x):
        """Search below levels 0..i-1; `fixing` holds the automorphisms
        among autos[:checked] that fix the vertices placed there, `ends`
        is the mask of the edges whose positions are known, no row before
        `row` has an open edge, and x, if open, is row's first open
        neighbour."""
        if i == depth:
            return leaf(ends)
        p = levels[i]  # positions below p are known
        if x is None or pos[x] >= 0:
            # the first row whose vertex has an open neighbour, x the one
            # in the earliest cell
            while row < p:
                for x in nbrs[path[row]]:
                    if pos[x] < 0:
                        break
                else:
                    row += 1
                    continue
                break
        # always in a ball: an open vertex has a neighbour in an earlier
        # cell.  No open edge is below row * n + s, s the first position x
        # can take, so the mask's bits from `shift` up are the first edges
        # of every leaf below.
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
