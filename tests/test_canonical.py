import json
import os
import random
import subprocess
import sys
from itertools import permutations, product
from operator import itemgetter

import pytest
from hypothesis import given, strategies as st

import locallemma
from locallemma import canonical
from locallemma.canonical import (_LABEL_CACHE_SIZE, CanonicalForm, _canonical_map, _entry_json,
                                  _label_key, _leaf, _leaf_key, _refine, canonical_type)
from locallemma.errors import CanonicalizationCapError, GraphBuildError
from locallemma.generators import generate
from locallemma.graphs import (TAG_IDS, TAG_OUTPUT, TAG_RAND, ball, build_graph,
                               greedy_power_coloring, layered_ball, with_labeling)
from locallemma.labels import label_key, label_sorted, label_to_json
from reference import (GraphBall, ball_graph, graph_ball, graph_canonical_map, graph_refine,
                       with_layers)


def random_rooted(rng, n_max=5, with_structure=True):
    n = rng.randint(1, n_max)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5]
    structure = {}
    if with_structure and n > 1:
        for _ in range(rng.randint(0, 2)):
            k = rng.randint(1, 2)
            tup = tuple(rng.randrange(n) for _ in range(k))
            structure[tup] = rng.randint(0, 2)
    g = build_graph(range(n), edges, structure)
    return ball(g, 0, n)  # the root's component


def relabeled(b, rng):
    g = ball_graph(b)
    perm = list(g.vertices)
    rng.shuffle(perm)
    mapping = dict(zip(g.vertices, perm))
    edges = [(mapping[u], mapping[v]) for (u, v) in g.edges]
    structure = {tuple(mapping[x] for x in t): l for t, l in g.structure.items()}
    g2 = build_graph(sorted(perm), edges, structure, g.tuple_bound)
    return type(b)(g2, mapping[b.root], b.radius)


def test_rotations_of_cycle_agree():
    g = generate("cycle", {"n": 6})
    forms = {canonical_type(ball(g, v, 2)).hex() for v in g.vertices}
    assert len(forms) == 1


def test_root_degree_distinguishes():
    path = generate("path", {"n": 4})
    c1 = canonical_type(ball(path, 0, 1))
    c2 = canonical_type(ball(path, 1, 1))
    assert c1 != c2


def test_structure_label_distinguishes():
    g1 = build_graph([0, 1], [(0, 1)])
    g2 = build_graph([0, 1], [(0, 1)], [((0, 1), 1)])
    assert canonical_type(ball(g1, 0, 1)) != canonical_type(ball(g2, 0, 1))


def test_invariance_under_relabeling():
    rng = random.Random(7)
    for _ in range(200):
        b = random_rooted(rng)
        b2 = relabeled(b, rng)
        assert canonical_type(b) == canonical_type(b2)


def are_isomorphic(b1, b2) -> bool:
    """Brute-force root-preserving isomorphism test (test oracle).

    Tries every bijection matching roots; exponential, only for tiny balls.
    """
    g1, g2 = ball_graph(b1), ball_graph(b2)
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


def test_iso_completeness_against_brute_force():
    # code equality must match the exhaustive isomorphism search
    rng = random.Random(13)
    agree = 0
    for _ in range(500):
        b1 = random_rooted(rng, n_max=4)
        b2 = relabeled(b1, rng) if rng.random() < 0.5 else random_rooted(rng, n_max=4)
        same_code = canonical_type(b1) == canonical_type(b2)
        same_iso = are_isomorphic(b1, b2)
        assert same_code == same_iso
        agree += 1
    assert agree == 500


def test_decode_round_trip():
    rng = random.Random(3)
    for _ in range(50):
        b = random_rooted(rng)
        form = canonical_type(b)
        decoded, root = form.decode()
        assert root == 0
        redone = canonical_type(type(b)(decoded, 0, b.radius))
        assert redone == form


def test_labeling_changes_code():
    g = generate("cycle", {"n": 4})
    f = {0: 1, 1: 2, 2: 1, 3: 2}
    labeled = with_labeling(g, f, TAG_OUTPUT)
    c0 = canonical_type(ball(labeled, 0, 1))
    c1 = canonical_type(ball(labeled, 1, 1))
    assert c0 != c1  # adjacent roots carry different layer values


def test_symmetric_labeling_equal_codes():
    g = build_graph([0, 1], [(0, 1)])
    labeled = with_labeling(g, {0: 1, 1: 1}, TAG_OUTPUT)
    assert canonical_type(ball(labeled, 0, 1)) == canonical_type(ball(labeled, 1, 1))


def test_size_cap_enforced():
    g = generate("cycle", {"n": 30})
    with pytest.raises(CanonicalizationCapError):
        canonical_type(ball(g, 0, 8), cap=12)


def test_hex_round_trip():
    g = generate("path", {"n": 3})
    form = canonical_type(ball(g, 1, 1))
    assert CanonicalForm.from_hex(form.hex()) == form


# Oracle: refinement ordered by a byte key, every leaf of the search
# tried, the code of the natively least leaf: edges in numeric order, then
# entries by (mapped tuple, label_key).  The initial colour carries each
# vertex's own singleton label key (b"" for none); code version 1, pinned
# below, started from (root flag, dist, degree).

def byte_key(obj) -> bytes:
    if isinstance(obj, bytes):
        return b"b" + obj
    if isinstance(obj, int):
        digits = str(obj).encode()
        return b"i" + b"%08d" % len(digits) + digits
    if isinstance(obj, tuple):
        return b"t(" + b",".join(byte_key(x) for x in obj) + b")"
    raise TypeError(obj)


def byte_key_refine(graph, root, own_labels=True):
    dist = graph.distances_from(root)
    participation = {v: [] for v in graph.vertices}
    for tup, label in graph.structure.items():
        for pos, v in enumerate(tup):
            participation[v].append((tup, pos, label))

    def normalize(sigs):
        index = {s: i for i, s in enumerate(sorted(set(sigs.values()), key=byte_key))}
        return {v: index[s] for v, s in sigs.items()}

    def own(v):
        label = graph.structure.get((v,))
        return (label_key(label) if label is not None else b"",) if own_labels else ()

    color = normalize({v: (0 if v == root else 1, dist[v], graph.degree(v)) + own(v)
                       for v in graph.vertices})
    while True:
        sigs = {}
        for v in graph.vertices:
            nb = tuple(sorted(color[w] for w in graph.neighbors(v)))
            struct = tuple(sorted((len(tup), pos, label_key(label), tuple(color[x] for x in tup))
                                  for (tup, pos, label) in participation[v] if len(tup) > 0))
            sigs[v] = (color[v], nb, struct)
        new = normalize(sigs)
        if len(set(new.values())) == len(set(color.values())):
            return new
        color = new


def byte_key_refine_v1(graph, root):
    return byte_key_refine(graph, root, own_labels=False)


def every_leaf(b, refine):
    """Every leaf of the cells of `refine`, as (native key, its code)."""
    graph = ball_graph(b)
    color = refine(graph, b.root)
    cells = {}
    for v in graph.vertices:
        cells.setdefault(color[v], []).append(v)
    cell_list = [sorted(cells[c]) for c in sorted(cells)]
    for perms in product(*(permutations(cell) for cell in cell_list)):
        mapping = {v: i for i, v in enumerate(v for perm in perms for v in perm)}
        edges = sorted((min(mapping[u], mapping[v]), max(mapping[u], mapping[v]))
                       for (u, v) in graph.edges)
        # mapped tuples are distinct, so the labels are never compared
        entries = sorted((tuple(mapping[x] for x in t), label_key(l), l)
                         for t, l in graph.structure.items())
        payload = {"n": len(graph.vertices), "edges": [list(e) for e in edges],
                   "structure": [[list(t), label_to_json(l)] for t, _, l in entries]}
        code = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
        yield (edges, [(t, k) for t, k, _ in entries]), code


def oracle_code(b, refine=byte_key_refine) -> bytes:
    """The code of the least leaf in native order."""
    return min(every_leaf(b, refine), key=itemgetter(0))[1]


def oracle_code_v1(b) -> bytes:
    return oracle_code(b, byte_key_refine_v1)


def byte_order_code(b) -> bytes:
    """The least code by bytes, as codes were chosen before leaves were
    ordered natively."""
    return min(code for _, code in every_leaf(b, byte_key_refine))


def random_layer_value(rng):
    shape = rng.randrange(3)
    if shape == 0:
        return rng.randint(0, 4)
    if shape == 1:
        return (rng.randint(0, 2), rng.randint(0, 2))
    return frozenset(rng.sample(range(4), rng.randint(0, 2)))


def random_layered_graph(rng, graph):
    for tag in (TAG_IDS, TAG_RAND, TAG_OUTPUT):
        if rng.random() < 0.6:
            values = {v: random_layer_value(rng) for v in graph.vertices if rng.random() < 0.8}
            graph = with_labeling(graph, values, tag)
    return graph


def random_layered_ball(rng):
    n = rng.randint(1, 7)
    ids = rng.sample(range(50), n)
    edges = [(ids[i], ids[j]) for i in range(n) for j in range(i + 1, n)
             if rng.random() < 0.4]
    structure = {}
    for _ in range(rng.randint(0, 3)):
        tup = tuple(rng.choice(ids) for _ in range(rng.randint(1, 3)))
        structure[tup] = random_layer_value(rng)
    g = random_layered_graph(rng, build_graph(ids, edges, structure))
    return ball(g, rng.choice(ids), rng.randint(0, 3))


def test_codes_match_byte_key_oracle_on_layered_balls():
    rng = random.Random(21)
    balls = [random_layered_ball(rng) for _ in range(150)]
    for kind, params, radius in (("cycle", {"n": 9}, 3), ("torus_grid", {"rows": 5, "cols": 5}, 1),
                                 ("random_tree", {"n": 20}, 2), ("directed_cycle", {"n": 9}, 4)):
        g = random_layered_graph(rng, generate(kind, params, seed=rng.randrange(100)))
        balls.extend(ball(g, x, radius) for x in g.vertices)
    # unlabeled symmetric balls, where the search prunes: the 13-vertex
    # torus ball (13,824 leaves unpruned) and mostly the depth-2 3-regular
    # tree (4,320 leaves)
    torus = generate("torus_grid", {"rows": 12, "cols": 12})
    balls.extend(ball(torus, x, 2) for x in (0, 77, 143))
    regular = generate("random_regular", {"n": 2000, "d": 3}, seed=rng.randrange(100))
    balls.extend(ball(regular, x, 2) for x in rng.sample(regular.vertices, 6))
    for b in balls:
        assert canonical_type(b, cap=13).code == oracle_code(b)


def random_small_layered_ball(rng, n):
    """A ball of 2 <= n <= 6 vertices: a star rooted at its centre, a cycle or
    a random connected graph, with identifier, seed and output layers drawn
    from few values, so some vertices carry no label and symmetric
    vertices repeat one."""
    shape = rng.randrange(3)
    if shape == 0:
        edges = [(0, i) for i in range(1, n)]
    elif shape == 1:
        edges = [(i, (i + 1) % n) for i in range(n)] if n > 2 else [(0, 1)]
    else:  # connected: a random tree and some chords
        edges = {(rng.randrange(j), j) for j in range(1, n)}
        edges.update((i, j) for i in range(n) for j in range(i + 2, n) if rng.random() < 0.3)
    g = build_graph(range(n), sorted(edges))
    for tag in (TAG_IDS, TAG_RAND, TAG_OUTPUT):
        if rng.random() < 0.7:
            g = with_labeling(g, {v: rng.randint(1, 2) for v in g.vertices
                                  if rng.random() < 0.7}, tag)
    return ball(g, 0, n)


def swapped_labels(b, rng):
    """b with the singleton labels of two of its vertices exchanged."""
    g = ball_graph(b)
    structure = dict(g.structure)
    u, w = rng.sample(g.vertices, 2)
    at_u, at_w = structure.pop((u,), None), structure.pop((w,), None)
    structure.update({(x,): label for x, label in ((u, at_w), (w, at_u)) if label is not None})
    return type(b)(build_graph(g.vertices, g.edges, structure, g.tuple_bound), b.root, b.radius)


def test_iso_completeness_on_layered_balls():
    # "same code iff isomorphic" on labelled balls, checked by the
    # brute-force search, which shares nothing with the refinement; half
    # the pairs are relabelled copies, half relabelled copies with two
    # vertices' labels exchanged (isomorphic exactly when the exchange is
    # undone by a symmetry)
    rng = random.Random(19)
    seen = {(copy, iso): 0 for copy in (True, False) for iso in (True, False)}
    for _ in range(400):
        b1 = random_small_layered_ball(rng, rng.randint(2, 6))
        copy = rng.random() < 0.5
        b2 = relabeled(b1 if copy else swapped_labels(b1, rng), rng)
        same_iso = are_isomorphic(b1, b2)
        assert (canonical_type(b1) == canonical_type(b2)) == same_iso
        seen[copy, same_iso] += 1
    assert seen[True, False] == 0
    assert min(seen[True, True], seen[False, True], seen[False, False]) > 40


def star(leaves):
    return build_graph(range(leaves + 1), [(0, i) for i in range(1, leaves + 1)])


def regular_tree_ball():
    """The depth-2 3-regular tree rooted at its center."""
    edges = [(0, 1), (0, 2), (0, 3)] + [(c, 4 + 2 * i + j) for i, c in enumerate((1, 2, 3))
                                         for j in (0, 1)]
    return ball(build_graph(range(10), edges), 0, 2)


def test_pruned_search_visits_fewer_leaves(monkeypatch):
    leaves = []
    key_of = canonical._leaf_key

    def counting(*args):
        leaves.append(1)
        return key_of(*args)

    monkeypatch.setattr(canonical, "_leaf_key", counting)
    torus = generate("torus_grid", {"rows": 12, "cols": 12})
    for b, unpruned in ((ball(torus, 0, 2), 13_824), (regular_tree_ball(), 4_320)):
        leaves.clear()
        form = canonical_type(b, cap=13)
        assert 0 < len(leaves) <= unpruned // 4
        assert form.code == oracle_code(b)
    # one-leaf searches build no key
    leaves.clear()
    canonical_type(ball(generate("path", {"n": 5}), 0, 4))
    assert leaves == []


def test_budget_counts_the_unpruned_search():
    with pytest.raises(CanonicalizationCapError,
                       match="bijection search 362880 > cap 100000"):
        canonical_type(ball(star(9), 0, 1))
    below = ball(star(8), 0, 1)  # 40,320 leaves
    assert canonical_type(below).code == oracle_code(below)


# Oracle for the bound: the search with automorphism pruning only, each
# leaf keyed natively by its sorted edge values and its (mapped tuple,
# label_key) entries.  The pruned search must return the same leaf (the
# first least one in search order), so `_canonical_map` must return the
# same code and map.

def oracle_leaf_key(pos, edges, entries):
    n = len(pos)
    ends = []
    for u, v in edges:
        a, b = pos[u], pos[v]
        ends.append(a * n + b if a < b else b * n + a)
    return tuple(sorted(ends)), tuple(sorted((tuple(pos[x] for x in tup), key)
                                             for tup, key in entries))


def oracle_search(b, order, sizes):
    n = len(order)
    index = {v: i for i, v in enumerate(order)}  # positions of the ball
    lo, hi = [], []
    for size in sizes:
        start = len(lo)
        lo.extend([start] * size)
        hi.extend([start + size] * size)
    levels = [p for p in range(n) if hi[p] - lo[p] > 1]
    depth = len(levels)
    edges = [(index[u], index[v]) for u, ws in enumerate(b.nbrs) for v in ws if u < v]
    entries = [(tuple(index[x] for x in tup), label_key(label)) for tup, label in b.entries]
    leaf_key = oracle_leaf_key
    pos = list(range(n))  # vertex id -> position, -1 while unassigned
    for p in levels:
        pos[p] = -1
    path = list(range(n))  # position -> vertex id
    autos = []
    first = best = None  # (key, path) of the first and of the least leaf

    def leaf():
        nonlocal first, best
        key = leaf_key(pos, edges, entries)
        if best is None:
            first = best = (key, path[:])
            return depth
        if key < best[0]:
            best = (key, path[:])
            return depth
        ref = first[1] if key == first[0] else best[1] if key == best[0] else None
        if ref is None:
            return depth
        autos.append(tuple([ref[p] for p in pos]))  # ref^-1 . this leaf
        k = 0
        while path[levels[k]] == ref[levels[k]]:
            k += 1
        return k

    def visit(i, fixing, checked):
        if i == depth:
            return leaf()
        p = levels[i]
        searched = []
        covered = ()
        for w in range(lo[p], hi[p]):
            if pos[w] >= 0 or w in covered:
                continue
            pos[w] = p
            path[p] = w
            back = visit(i + 1, [g for g in fixing if g[w] == w], checked)
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
                covered = canonical._orbits(searched, fixing)
        return depth

    visit(0, [], 0)
    return best[1]


def canonical_result(b, search=None):
    """_canonical_map(b) as (code, map), or the cap-out's message; with
    `search`, run in place of the pruned search."""
    pruned = canonical._search
    canonical._search = search or pruned
    try:
        form, mapping = _canonical_map(b, cap=64)
        return form.code, mapping
    except CanonicalizationCapError as err:
        return str(err)
    finally:
        canonical._search = pruned


def assert_matches_oracle(balls):
    searched = 0
    for b in balls:
        got = canonical_result(b)
        assert got == canonical_result(b, oracle_search)
        searched += isinstance(got, tuple) and reaches_search(b)
    return searched


def cube():
    return build_graph(range(8), [(v, v ^ bit) for v in range(8) for bit in (1, 2, 4)
                                  if v < v ^ bit])


def petersen():
    edges = [(i, (i + 1) % 5) for i in range(5)] + [(i, i + 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return build_graph(range(10), edges)


@given(st.randoms(use_true_random=False).map(random_layered_ball))
def test_pruned_search_matches_oracle_on_layered_balls(b):
    assert_matches_oracle([b])


def random_symmetric_ball(rng):
    """A ball with a symmetry s that fixes its root: a star, cycle,
    complete or complete bipartite graph, the cube or the Petersen graph,
    with labels from {1, 2, 10} on a few vertices and up to two pair or
    triple entries, each copied onto its image under s.  No refinement
    separates v from s(v), so a draw reaches the bijection search unless
    its radius leaves out every vertex that s moves."""
    shape = rng.randrange(6)
    root, swap = 0, (1, 2)
    if shape == 0:  # rooted at the centre or at a leaf
        g, root, swap = star(rng.randint(3, 6)), rng.choice((0, 1)), (2, 3)
    elif shape == 1:
        k = rng.randint(3, 6)
        g = build_graph(range(k), [(i, j) for i in range(k) for j in range(i + 1, k)])
    elif shape == 2:
        a, c = rng.randint(1, 3), rng.randint(2, 4)
        g = build_graph(range(a + c), [(i, j) for i in range(a) for j in range(a, a + c)])
        swap = (a, a + 1)
    if shape <= 2:
        s = {v: v for v in g.vertices}
        s.update({swap[0]: swap[1], swap[1]: swap[0]})
    elif shape == 3:  # reflected through the root
        n = rng.randint(3, 9)
        g, s = generate("cycle", {"n": n}), {v: -v % n for v in range(n)}
    elif shape == 4:  # the first two coordinates exchanged
        g, s = cube(), {v: v & 4 | (v & 1) << 1 | (v & 2) >> 1 for v in range(8)}
    else:  # reflected through the spoke at 0
        g, s = petersen(), {v: v - v % 5 + -v % 5 for v in range(10)}
    structure = {}
    for _ in range(rng.randint(0, 3)):
        v = rng.choice(g.vertices)
        structure[(v,)] = structure[(s[v],)] = rng.choice((1, 2, 10))
    for _ in range(rng.randint(0, 2)):
        t = tuple(rng.sample(g.vertices, rng.randint(2, 3)))
        image = tuple(s[x] for x in t)
        if t not in structure and image not in structure:
            structure[t] = structure[image] = rng.choice((1, 2, 10))
    g = build_graph(g.vertices, g.edges, structure)
    return ball(g, root, rng.randint(1, 3))


def reaches_search(b):
    return len(set(_refine(b))) < len(b.vertices)


def test_symmetric_draws_reach_the_search():
    rng = random.Random(3)
    draws = [random_symmetric_ball(rng) for _ in range(400)]
    assert sum(map(reaches_search, draws)) >= len(draws) // 2


@given(st.randoms(use_true_random=False).map(random_symmetric_ball))
def test_pruned_search_matches_oracles_on_symmetric_draws(b):
    # the automorphism-only search and, every bijection tried, the code of
    # the natively least leaf
    assert_matches_oracle([b])
    assert canonical_type(b).code == oracle_code(b)


def test_pruned_search_matches_oracle_on_symmetric_balls():
    # every torus root: 13 vertices at R = 2, with two-digit positions
    torus = generate("torus_grid", {"rows": 12, "cols": 12})
    balls = [ball(torus, x, radius) for x in torus.vertices for radius in (1, 2)]
    for d in (3, 4):
        g = generate("random_regular", {"n": 40, "d": d}, seed=d)
        balls.extend(ball(g, x, 2) for x in g.vertices)
    tree = generate("random_tree", {"n": 120}, seed=5)
    balls.extend(ball(tree, x, radius) for x in tree.vertices[:60] for radius in (3, 4))
    k7 = build_graph(range(7), [(i, j) for i in range(7) for j in range(i + 1, 7)])
    balls.extend([ball(star(8), 0, 1), ball(k7, 0, 1), ball(cube(), 0, 3), ball(petersen(), 0, 2)])
    assert assert_matches_oracle(balls) > 400


def test_pruned_search_matches_oracle_on_symmetric_balls_with_tuples():
    # pair and triple entries that refinement cannot tell apart, so leaves
    # with equal edges differ in their entries: stars whose leaves are
    # matched in pairs, and random tuples on other symmetric graphs
    rng = random.Random(11)
    balls = []
    for _ in range(100):
        k = rng.randint(4, 7)
        leaves = rng.sample(range(1, k + 1), k)
        structure = {(leaves[i], leaves[i + 1]): rng.randint(1, 2) for i in range(0, k - 1, 2)}
        balls.append(ball(build_graph(star(k).vertices, star(k).edges, structure), 0, 1))
    k5 = build_graph(range(5), [(i, j) for i in range(5) for j in range(i + 1, 5)])
    graphs = [star(6), generate("cycle", {"n": 8}), k5, cube(), petersen()]
    for _ in range(150):
        g = rng.choice(graphs)
        structure = {tuple(rng.sample(g.vertices[1:], rng.randint(2, 3))): rng.randint(1, 2)
                     for _ in range(rng.randint(1, 2))}
        g = build_graph(g.vertices, g.edges, structure)
        balls.append(ball(g, 0, len(g.vertices)))
    # every ordered pair of a star's leaves, each unordered pair labelled
    # 1 or 2: every leaf maps the tuples onto the same positions, so leaves
    # differ only in the labels there
    for _ in range(40):
        k = rng.randint(4, 6)
        colour = {(a, b): rng.randint(1, 2) for a in range(1, k + 1) for b in range(a + 1, k + 1)}
        structure = {(a, b): colour[min(a, b), max(a, b)]
                     for a in range(1, k + 1) for b in range(1, k + 1) if a != b}
        balls.append(ball(build_graph(star(k).vertices, star(k).edges, structure), 0, 1))
    assert assert_matches_oracle(balls) > 130


def local_sym_round_zero_balls(seed):
    """The balls of perfbench's `local_sym` round 0: its random stream, its
    graphs and its plan of 24 regular, 8 tree and 2 torus balls."""
    rng = random.Random(f"local_sym:{seed}:0")
    graphs = {"regular": (generate("random_regular", {"n": 2000, "d": 3}, rng.randrange(2**31)), 2),
              "tree": (generate("random_tree", {"n": 300}, rng.randrange(2**31)), 3),
              "torus": (generate("torus_grid", {"rows": 12, "cols": 12}), 2)}
    balls = []
    for kind, count in (("regular", 24), ("tree", 8), ("torus", 2)):
        graph, radius = graphs[kind]
        balls.extend(ball(graph, x, radius) for x in rng.sample(graph.vertices, count))
    return balls


def test_pruned_search_matches_oracle_on_local_sym_round_zero():
    balls = local_sym_round_zero_balls(0)
    assert len(balls) == 34
    assert assert_matches_oracle(balls) > 20


def leaves_searched(balls, monkeypatch):
    """The most leaves any of `balls` compares."""
    counts = []
    key_of = canonical._leaf_key

    def counting(*args):
        counts[-1] += 1
        return key_of(*args)

    monkeypatch.setattr(canonical, "_leaf_key", counting)
    for b in balls:
        counts.append(0)
        canonical_type(b, cap=13)
    return max(counts)


def test_best_leaf_bound_leaf_counts_are_pinned(monkeypatch):
    # counts, not clocks: the most leaves over every torus root at R = 2
    # (13,824 unpruned, 2,723 with automorphisms alone) and over the
    # depth-2 3-regular tree balls of one graph (4,320 unpruned)
    torus = generate("torus_grid", {"rows": 12, "cols": 12})
    assert leaves_searched([ball(torus, x, 2) for x in torus.vertices], monkeypatch) <= 30
    regular = generate("random_regular", {"n": 600, "d": 3}, seed=0)
    trees = [b for b in (ball(regular, x, 2) for x in regular.vertices)
             if len(ball_graph(b).vertices) == 10 and len(ball_graph(b).edges) == 9]
    assert len(trees) > 500
    assert leaves_searched(trees, monkeypatch) <= 41


# The fast paths against their oracles: a form's code against the payload
# serializer's output for its leaf, the leaf against its parsed and
# validated code, refinement with its early stop against the byte-key
# refinement that always runs to a stable partition.

def compact_json(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def payload_code(form) -> bytes:
    n, edges, entries = form.leaf
    return compact_json({"n": n, "edges": [list(e) for e in edges],
                         "structure": [[list(t), label_to_json(l)] for t, l in entries]}).encode()


def assert_leaf_decodes_like_code(b):
    form = canonical_type(b, cap=max(len(ball_graph(b).vertices), 12))
    assert form.code == payload_code(form)
    parsed = CanonicalForm.from_hex(form.hex())
    assert form.leaf is not None and parsed.leaf is None
    assert form.parts() is form.leaf and parsed.parts() == form.leaf
    fast, root = form.decode()
    slow, slow_root = parsed.decode()
    assert root == slow_root == 0
    assert fast.vertices == slow.vertices
    assert fast.edges == slow.edges
    assert list(fast.structure.items()) == list(slow.structure.items())
    assert fast.tuple_bound == slow.tuple_bound
    for v in slow.vertices:
        assert fast.neighbors(v) == slow.neighbors(v)
    assert form.decode()[0] is not fast
    assert dict(zip(b.vertices, _refine(b))) == byte_key_refine(ball_graph(b), b.root)


@given(st.randoms(use_true_random=False).map(random_layered_ball))
def test_leaf_decode_and_refine_match_oracles_on_layered_balls(b):
    assert_leaf_decodes_like_code(b)


def local_det_balls(n=48, radius=7, seed=0):
    """Balls of the deterministic pipeline's shape: a directed cycle with
    first-fit identifiers distinct in every 2R-ball, drawn along a shuffled
    order, and the radius-R ball (2R + 1 vertices) at every vertex."""
    g = generate("directed_cycle", {"n": n})
    order = list(g.vertices)
    random.Random(seed).shuffle(order)
    ids, _ = greedy_power_coloring(g, order, 2 * radius)
    labeled = with_labeling(g, ids, TAG_IDS)
    return [ball(labeled, x, radius) for x in labeled.vertices]


def test_leaf_decode_and_refine_match_oracles_on_id_and_symmetric_balls():
    g = generate("directed_cycle", {"n": 12})
    ids = with_labeling(g, {v: (5 * v) % 7 + 1 for v in g.vertices}, TAG_IDS)
    balls = [ball(ids, x, 4) for x in ids.vertices]
    balls.extend(local_det_balls())
    # the whole directed 9-cycle: the two vertices at distance 4 tell apart
    # only by the colours inside their edge tuples
    for kind, params, radius in (("cycle", {"n": 9}, 3), ("torus_grid", {"rows": 5, "cols": 5}, 1),
                                 ("random_regular", {"n": 30, "d": 3}, 2),
                                 ("random_tree", {"n": 20}, 2), ("directed_cycle", {"n": 9}, 4)):
        g = generate(kind, params, seed=1)
        balls.extend(ball(g, x, radius) for x in g.vertices)
    for b in balls:
        assert_leaf_decodes_like_code(b)


def identity_leaf_key(leaf):
    """`_leaf_key` of a leaf at the identity positions: the key the search
    builds for it."""
    n, edges, entries = leaf
    ends = sum(1 << (n * n - 1 - (a * n + b)) for a, b in edges)
    return _leaf_key(list(range(n)), ends, [(t, label_key(label)) for t, label in entries])


def cell_order_map(b):
    """Oracle: a one-leaf ball's map as the general path builds it: cells
    in colour order, each cell's vertices ascending, positions in turn."""
    color = dict(zip(b.vertices, _refine(b)))
    cells = {}
    for v in b.vertices:
        cells.setdefault(color[v], []).append(v)
    order = [v for c in sorted(cells) for v in sorted(cells[c])]
    return {v: i for i, v in enumerate(order)}


def assert_one_leaf_paths_match(b):
    """A form's leaf is the ball relabelled by its map, in the order of the
    search's key at the identity positions (edges as a mask, entries by
    (tuple, label_key)), and its code is that leaf's JSON, each text
    compact; a discrete ball's map is the general path's."""
    form, mapping = _canonical_map(b, cap=max(len(ball_graph(b).vertices), 12))
    n, edges, entries = form.leaf
    assert form.leaf == _leaf(b, [mapping[v] for v in b.vertices])
    keyed = [(t, label_key(l)) for t, l in entries]
    ends, oracle_entries = oracle_leaf_key(list(range(n)), edges, keyed)
    assert [a * n + c for a, c in edges] == list(ends) and keyed == list(oracle_entries)
    assert identity_leaf_key(form.leaf) == (-sum(1 << (n * n - 1 - e) for e in ends),
                                            oracle_entries)
    assert form.code == canonical._code(form.leaf) == payload_code(form)
    if not reaches_search(b):
        assert mapping == cell_order_map(b)


def test_one_leaf_texts_and_map_match_the_search_on_local_det_balls():
    balls = local_det_balls()
    assert not any(map(reaches_search, balls))
    for b in balls:
        assert_one_leaf_paths_match(b)


@given(st.randoms(use_true_random=False).map(random_layered_ball))
def test_one_leaf_texts_and_map_match_the_search_on_layered_balls(b):
    assert_one_leaf_paths_match(b)


def test_tuple_texts_are_compact_json_and_cached_boundedly():
    tuples = [(), (0,), (3, 11), (2, 0, 7)] + [(i, i + 1) for i in range(_LABEL_CACHE_SIZE + 10)]
    for t in tuples:
        assert _entry_json((t, 1)) == compact_json([list(t), 1])
    assert _entry_json.cache_info().currsize <= _LABEL_CACHE_SIZE


def test_new_codes_equal_version_1_codes_on_pinned_families():
    # the own label in the initial colour is a declared code version; on
    # identifier balls, radius-1 directed-cycle balls with output or seed
    # labels, and unlabelled balls, every code is version 1's byte for byte
    balls = local_det_balls()
    rng = random.Random(5)
    for tag in (TAG_OUTPUT, TAG_RAND):
        g = generate("directed_cycle", {"n": 12})
        labeled = with_labeling(g, {v: rng.randint(1, 3) for v in g.vertices}, tag)
        balls.extend(ball(labeled, x, 1) for x in labeled.vertices)
    torus = generate("torus_grid", {"rows": 12, "cols": 12})
    balls.extend(ball(torus, x, radius) for x in (0, 77) for radius in (1, 2))
    for kind, params in (("random_regular", {"n": 40, "d": 3}), ("random_tree", {"n": 30})):
        g = generate(kind, params, seed=2)
        balls.extend(ball(g, x, 2) for x in rng.sample(g.vertices, 4))
    for b in balls:
        assert canonical_type(b, cap=15).code == oracle_code_v1(b)


CODES_DIGEST = """
import hashlib
import random
from locallemma.canonical import canonical_type
from locallemma.errors import CanonicalizationCapError
from locallemma.generators import generate
from locallemma.graphs import TAG_IDS, TAG_OUTPUT, ball, greedy_power_coloring, with_labeling

def code(b):
    try:
        return canonical_type(b, cap=64).code
    except CanonicalizationCapError as err:
        return str(err).encode()

torus = generate("torus_grid", {"rows": 12, "cols": 12})
tree = generate("random_tree", {"n": 300}, seed=0)
balls = [ball(torus, x, 2) for x in torus.vertices]
balls += [ball(tree, x, 3) for x in tree.vertices[::10]]
# local_det's shapes: identifier balls at R = 7 and radius-1 verdict balls
cycle = generate("directed_cycle", {"n": 48})
order = list(cycle.vertices)
random.Random(0).shuffle(order)
ids = with_labeling(cycle, greedy_power_coloring(cycle, order, 14)[0], TAG_IDS)
outputs = with_labeling(cycle, {v: random.Random(v).randint(1, 3) for v in cycle.vertices},
                        TAG_OUTPUT)
balls += [ball(ids, x, 7) for x in ids.vertices] + [ball(outputs, x, 1) for x in outputs.vertices]
print(hashlib.sha256(b"|".join(code(b) for b in balls)).hexdigest())
"""


def test_codes_identical_across_hash_seeds():
    # the search's orbits, sets and dicts and the text caches must not
    # reach a code: the 144 torus roots at R = 2, 30 tree balls at R = 3,
    # and 48 identifier and 48 verdict balls of a directed 48-cycle, under
    # four hash seeds
    src = os.path.dirname(os.path.dirname(locallemma.__file__))
    digests = set()
    for hash_seed in range(4):
        env = dict(os.environ, PYTHONHASHSEED=str(hash_seed), PYTHONPATH=src)
        run = subprocess.run([sys.executable, "-c", CODES_DIGEST], env=env, check=True,
                             capture_output=True, text=True, timeout=120)
        digests.add(run.stdout)
    assert len(digests) == 1 and len(digests.pop()) == 65


def test_codes_keep_byte_order_codes_on_discrete_and_small_unlabelled_balls():
    # a discrete ball has one leaf, and an unlabelled ball of at most 10
    # vertices has one-digit positions and no entries, so text order is
    # native order: both keep the least code by bytes, as chosen before
    # leaves were ordered natively
    rng = random.Random(23)
    discrete = local_det_balls()[:8]
    discrete += [b for b in (random_layered_ball(rng) for _ in range(100)) if not reaches_search(b)]
    torus = generate("torus_grid", {"rows": 12, "cols": 12})
    regular = generate("random_regular", {"n": 40, "d": 3}, seed=3)
    tree = generate("random_tree", {"n": 60}, seed=4)
    unlabelled = [ball(torus, 0, 1), ball(cube(), 0, 3), ball(petersen(), 0, 2),
                  ball(star(6), 0, 1), ball(star(6), 1, 2)]
    unlabelled += [ball(regular, x, 2) for x in regular.vertices[:4]]
    unlabelled += [b for b in (ball(tree, x, 3) for x in tree.vertices)
                   if len(ball_graph(b).vertices) <= 10][:20]
    unlabelled += [b for b in (random_symmetric_ball(rng) for _ in range(100))
                   if not ball_graph(b).structure and len(ball_graph(b).vertices) <= 10]
    assert len(discrete) > 60 and len(unlabelled) > 40
    assert sum(map(reaches_search, unlabelled)) > 30
    for b in discrete + unlabelled:
        assert canonical_type(b, cap=64).code == byte_order_code(b)


@pytest.mark.parametrize("code, error", [
    (b'{"edges":[[0,0]],"n":1,"structure":[]}', GraphBuildError),   # self-loop
    (b'{"edges":[[0,5]],"n":2,"structure":[]}', GraphBuildError),   # unknown vertex
    (b'{"edges":[],"n":1,"structure":[[[3],1]]}', GraphBuildError),  # unknown vertex
    (b'{"edges":[],"n":1,"structure":[[[0],true]]}', ValueError),   # bool label
])
def test_from_hex_decode_still_validates(code, error):
    with pytest.raises(error):
        CanonicalForm.from_hex(code.hex()).decode()


@pytest.mark.parametrize("code, error", [
    (b'{"edges":[[0,0]],"n":1,"structure":[]}', GraphBuildError),   # self-loop
    (b'{"edges":[[0,5]],"n":2,"structure":[]}', GraphBuildError),   # unknown vertex
    (b'{"edges":[],"n":1,"structure":[[[3],1]]}', GraphBuildError),  # unknown vertex
    (b'{"edges":[],"n":1,"structure":[[[0],true]]}', ValueError),   # bool label
    (b'{"edges":[],"n":1,"structure":[[[0],-1]]}', ValueError),     # negative label
    (b'{"edges":[],"n":2,"structure":[[[0],1],[[0],2]]}', GraphBuildError),  # duplicate
    (b'{"edges":[[true,2]],"n":3,"structure":[]}', ValueError),    # bool vertex
    (b'{"edges":[],"n":true,"structure":[]}', ValueError),         # bool size
    (b'{"edges":[],"n":0,"structure":[]}', ValueError),            # no root
    (b'{"edges":[],"n":2,"structure":[[[false],1]]}', ValueError),  # bool in a tuple
    (b'{"edges":[],"extra":1,"n":1,"structure":[]}', ValueError),   # unknown key
])
def test_from_hex_parts_validates(code, error):
    with pytest.raises(error):
        CanonicalForm.from_hex(code.hex()).parts()


@pytest.mark.parametrize("code, field", [
    (b'{"edges":[[true,2]],"n":3,"structure":[]}', "edges[0][0]: expected int"),
    (b'{"edges":[],"n":true,"structure":[]}', "n: expected int"),
    (b'{"edges":[],"n":0,"structure":[]}', "n: expected int >= 1"),
    (b'{"edges":[],"n":2,"structure":[[[false],1]]}', "structure[0][0][0]: expected int"),
    (b'{"edges":[],"extra":1,"n":1,"structure":[]}', "extra: unknown key"),
    # wrong containers, missing keys, bad pairs and bad bytes used to
    # escape as TypeError, KeyError or JSONDecodeError with no field named
    (b'[]', "code: expected an object, got []"),
    (b'{"edges":5,"n":1,"structure":[]}', "edges: expected a list, got 5"),
    (b'{"edges":[],"n":1,"structure":[5]}', "structure[0]: expected a pair, got 5"),
    (b'{"edges":[],"n":1,"structure":[[5,1]]}', "structure[0][0]: expected a list, got 5"),
    (b'{"edges":[],"n":1}', "structure: missing"),
    (b'{"n":1,"structure":[]}', "edges: missing"),
    (b'{"edges":[[0]],"n":1,"structure":[]}', "edges[0]: expected a pair, got [0]"),
    (b'{"edges":[[0,1,2]],"n":3,"structure":[]}', "edges[0]: expected a pair, got [0, 1, 2]"),
    (b'{"edges":[], "n":1', "code: not JSON"),
    (b'\xff', "code: not JSON"),
    # a malformed label used to name no field
    (b'{"edges":[],"n":1,"structure":[[[0],1.5]]}', "structure[0][1]: malformed label json: 1.5"),
    (b'{"edges":[],"n":1,"structure":[[[0],{"t":[-1]}]]}',
     "structure[0][1]: labels are nonnegative"),
])
def test_from_hex_parts_names_the_refused_field(code, field):
    # a code parses to one leaf only from its own bytes: `true` is not 1
    with pytest.raises(ValueError) as err:
        CanonicalForm.from_hex(code.hex()).parts()
    assert str(err.value).startswith(field)


@pytest.mark.parametrize("text", ["zz", "abc", "7b0g", "7b 0", 12, None, b"7b"])
def test_from_hex_names_the_field_of_text_that_is_not_hex(text):
    # fromhex()'s message used to escape with no field named, and a
    # non-str as TypeError
    with pytest.raises(ValueError) as err:
        CanonicalForm.from_hex(text)
    assert str(err.value) == f"code: not hex: {text!r}"


def test_from_hex_parts_are_in_leaf_shape():
    # edges normalized, deduplicated and sorted, entries sorted by tuple
    code = b'{"edges":[[2,1],[0,1],[1,2]],"n":3,"structure":[[[2],1],[[0,1],1],[[0],2]]}'
    assert CanonicalForm.from_hex(code.hex()).parts() == (
        3, [(0, 1), (1, 2)], [((0,), 2), ((0, 1), 1), ((2,), 1)])


def test_form_with_leaf_equals_parsed_form():
    g = with_labeling(generate("cycle", {"n": 5}), {0: 2, 1: 3}, TAG_IDS)
    form = canonical_type(ball(g, 0, 2))
    parsed = CanonicalForm.from_hex(form.hex())
    assert form == parsed and hash(form) == hash(parsed)


@pytest.mark.parametrize("value", [True, False, -3, (1, True), frozenset({-1}), "a"])
def test_non_labels_have_no_key_or_json(value):
    with pytest.raises(TypeError):
        label_key(value)
    with pytest.raises(TypeError):
        label_to_json(value)


def test_label_key_orders_ints_then_sets_then_tuples():
    # the keys start b"i", b"s(" and b"t("; every canonical code depends on
    # this order
    assert label_sorted([(), frozenset(), 5]) == [5, frozenset(), ()]
    assert label_sorted([(0,), frozenset({0}), 10, 2, frozenset({(1,)}), ((0,),)]) == [
        2, 10, frozenset({0}), frozenset({(1,)}), (0,), ((0,),)]


def test_label_cache_is_bounded():
    values = list(range(_LABEL_CACHE_SIZE + 10))
    values += [(1, frozenset({0, 2})), frozenset({(3,), 1}), (), frozenset(), ((2,), (0, 1))]
    for value in values:
        assert _label_key(value) == label_key(value)
        assert _entry_json(((0,), value)) == compact_json([[0], label_to_json(value)])
    assert _label_key.cache_info().currsize <= _LABEL_CACHE_SIZE
    assert _entry_json.cache_info().currsize <= _LABEL_CACHE_SIZE


# The positions path against the graph-ball oracle (`tests/reference.py`):
# a ball's BFS order, distances, graph and refinement, and its code, leaf,
# vertex map or cap-out, on each family above used as source graphs (every
# root, several radii), on identifier-labelled directed cycles, and on the
# seeded balls `rand_to_csp` builds.

def map_result(canonical_map, b, cap):
    """(code, leaf, vertex map), or the cap-out's message."""
    try:
        form, mapping = canonical_map(b, cap)
        return form.code, form.leaf, mapping
    except CanonicalizationCapError as err:
        return str(err)


def assert_positions_match_graph_ball(new, old, cap=64):
    assert list(new.vertices) == list(old.dist) and new.dist == tuple(old.dist.values())
    assert (new.root, new.radius) == (old.root, old.radius)
    got, want = ball_graph(new), old.graph
    assert set(got.vertices) == set(want.vertices) and got.edges == want.edges
    assert got.structure == want.structure and got.tuple_bound == want.tuple_bound
    assert all(got.neighbors(v) == want.neighbors(v) for v in want.vertices)
    assert dict(zip(new.vertices, _refine(new))) == graph_refine(old)
    for c in {cap, len(new.vertices) - 1}:
        assert map_result(_canonical_map, new, c) == map_result(graph_canonical_map, old, c)


def assert_balls_match_graph_balls(graph, radii=(0, 1, 2, 3), cap=64):
    for x in graph.vertices:
        for radius in radii:
            assert_positions_match_graph_ball(ball(graph, x, radius),
                                              graph_ball(graph, x, radius), cap)


def test_positions_match_graph_balls_on_drawn_families():
    rng = random.Random(29)
    draws = [random_rooted(rng) for _ in range(60)]
    draws += [random_layered_ball(rng) for _ in range(80)]
    draws += [random_small_layered_ball(rng, rng.randint(2, 6)) for _ in range(60)]
    draws += [random_symmetric_ball(rng) for _ in range(120)]
    draws += [swapped_labels(b, rng) for b in draws[-40:] if len(b.vertices) > 1]
    for b in draws:
        assert_balls_match_graph_balls(ball_graph(b))


def test_positions_match_graph_balls_on_symmetric_and_tuple_graphs():
    rng = random.Random(31)
    graphs = [star(6), star(9), cube(), petersen(), ball_graph(regular_tree_ball()),
              build_graph(range(7), [(i, j) for i in range(7) for j in range(i + 1, 7)]),
              generate("torus_grid", {"rows": 12, "cols": 12}),
              generate("random_regular", {"n": 40, "d": 3}, seed=3),
              generate("random_tree", {"n": 60}, seed=4)]
    for k in (4, 6):
        colour = {(a, b): rng.randint(1, 2) for a in range(1, k + 1) for b in range(a + 1, k + 1)}
        graphs.append(build_graph(star(k).vertices, star(k).edges,
                                  {(a, b): colour[min(a, b), max(a, b)]
                                   for a in range(1, k + 1) for b in range(1, k + 1) if a != b}))
    for g in (cube(), petersen(), generate("cycle", {"n": 8})):
        structure = {tuple(rng.sample(g.vertices, rng.randint(2, 3))): rng.randint(1, 2)
                     for _ in range(3)}
        graphs.append(random_layered_graph(rng, build_graph(g.vertices, g.edges, structure)))
    for g in graphs:
        assert_balls_match_graph_balls(g, cap=13)


def test_positions_match_graph_balls_on_identifier_cycles_and_local_sym():
    for b in local_det_balls(48, 7, 0) + local_det_balls(30, 5, 3):
        assert_balls_match_graph_balls(ball_graph(b), radii=(1, 7))
    cycle = generate("directed_cycle", {"n": 48})
    order = list(cycle.vertices)
    random.Random(0).shuffle(order)
    ids = with_labeling(cycle, greedy_power_coloring(cycle, order, 14)[0], TAG_IDS)
    assert_balls_match_graph_balls(ids, radii=(1, 7))
    rng = random.Random("local_sym:0:0")
    regular = generate("random_regular", {"n": 2000, "d": 3}, rng.randrange(2**31))
    tree = generate("random_tree", {"n": 300}, rng.randrange(2**31))
    for graph, radius in ((regular, 2), (tree, 3)):
        for x in graph.vertices[::50]:
            assert_positions_match_graph_ball(ball(graph, x, radius), graph_ball(graph, x, radius))


def test_positions_match_graph_balls_on_seeded_balls():
    # seeded balls by the graph path: the seed-free ball's graph with seeds
    # attached in canonical order, re-balled at the root; then outputs
    # attached for the verdict ball.  The oracle attaches them to the
    # induced graph and hands the seed-free distances over.
    rng = random.Random(37)
    for kind, params in (("directed_cycle", {"n": 7}), ("cycle", {"n": 9}),
                         ("torus_grid", {"rows": 3, "cols": 3}),
                         ("random_tree", {"n": 12})):
        graph = generate(kind, params, seed=1)
        for x in graph.vertices:
            for radius in (0, 1, 2):
                new, old = ball(graph, x, radius), graph_ball(graph, x, radius)
                order = list(new.vertices)
                rng.shuffle(order)
                seeds = {v: rng.randint(1, 3) for v in order}
                outs = {v: rng.randint(0, 3) for v in new.vertices}
                for layers in (((TAG_RAND, seeds),), ((TAG_RAND, seeds), (TAG_OUTPUT, outs))):
                    seeded = with_layers(ball_graph(new), layers)
                    oracle = GraphBall(with_layers(old.graph, layers), x, radius, old.dist)
                    assert_positions_match_graph_ball(ball(seeded, x, radius), oracle)


# `layered_ball` against the graph path it replaces in `rand_to_csp`: the
# layers attached to the ball's graph (`with_labeling` for one layer, the
# reference `with_layers` for several), then `ball` at the same root and
# radius.  Positions, distances and neighbours are the seed-free ball's,
# the entries the same set, and so the code and vertex map are equal.

def assert_layered_matches_graph_path(rooted, layers):
    """`layers` are (tag, vertex -> value) pairs covering the ball; the
    graph path gets them restricted to it."""
    got = layered_ball(rooted, layers)
    layers = [(tag, {v: values[v] for v in rooted.vertices}) for tag, values in layers]
    graph = ball_graph(rooted)
    graph = (with_labeling(graph, layers[0][1], layers[0][0]) if len(layers) == 1
             else with_layers(graph, layers))
    want = ball(graph, rooted.root, rooted.radius)
    assert (got.root, got.radius) == (want.root, want.radius)
    assert (got.vertices, got.dist, got.nbrs) == (want.vertices, want.dist, want.nbrs)
    assert (got.vertices, got.dist, got.nbrs) == (rooted.vertices, rooted.dist, rooted.nbrs)
    assert len(got.entries) == len(want.entries) and set(got.entries) == set(want.entries)
    assert got.tuple_bound == want.tuple_bound
    for cap in (64, len(rooted.vertices) - 1):
        assert map_result(_canonical_map, got, cap) == map_result(_canonical_map, want, cap)


def seeded_layers(rng, rooted):
    """rand_to_csp's two layer shapes on `rooted`: seeds, then seeds and outputs."""
    order = list(rooted.vertices)
    rng.shuffle(order)
    seeds = {v: rng.randint(1, 3) for v in order}
    outs = {v: rng.randint(0, 3) for v in rooted.vertices}
    return ((TAG_RAND, seeds),), ((TAG_RAND, seeds), (TAG_OUTPUT, outs))


def test_layered_balls_match_the_graph_path_on_seeded_families():
    rng = random.Random(41)
    for kind, params in (("directed_cycle", {"n": 7}), ("cycle", {"n": 9}),
                         ("torus_grid", {"rows": 3, "cols": 3}),
                         ("random_tree", {"n": 12})):
        graph = generate(kind, params, seed=1)
        # plain singleton and empty-tuple labels, then already-layered ones
        plain = build_graph(graph.vertices, graph.edges,
                            {**graph.structure, (): 9,
                             **{(v,): rng.randint(0, 4) for v in graph.vertices[::2]}})
        for g in (graph, plain, random_layered_graph(rng, plain),
                  with_labeling(graph, {v: v + 1 for v in graph.vertices}, TAG_IDS)):
            for x in g.vertices:
                for radius in (0, 1, 2):
                    rooted = ball(g, x, radius)
                    for layers in seeded_layers(rng, rooted):
                        assert_layered_matches_graph_path(rooted, layers)


def test_layered_balls_match_the_graph_path_on_drawn_balls():
    rng = random.Random(43)
    for _ in range(150):
        rooted = random_layered_ball(rng)
        for layers in seeded_layers(rng, rooted):
            assert_layered_matches_graph_path(rooted, layers)
        values = {v: random_layer_value(rng) for v in rooted.vertices}
        assert_layered_matches_graph_path(rooted, ((TAG_IDS, values),))


def test_layered_balls_match_rand_to_csps_inner_and_verdict_balls(monkeypatch):
    # every ball rand_to_csp layers, checked against the graph path as built
    from locallemma import compilers
    from locallemma.algorithms import proper_coloring_problem
    from locallemma.csp import stats
    from test_compilers import seed_mix

    seen = []

    def checked(rooted, layers):
        seen.append(len(layers))
        assert_layered_matches_graph_path(rooted, layers)
        return layered_ball(rooted, layers)

    monkeypatch.setattr(compilers, "layered_ball", checked)
    for kind, params in (("directed_cycle", {"n": 6}), ("cycle", {"n": 5})):
        compiled, _ = compilers.rand_to_csp(seed_mix(2), proper_coloring_problem(2),
                                            generate(kind, params), 2, 1)
        stats(compiled)
    assert 1 in seen and 2 in seen


def test_layered_balls_refuse_what_with_labeling_refuses():
    graph = build_graph(range(3), [(0, 1), (1, 2)], {(1,): 4})
    rooted = ball(graph, 1, 1)
    for bad in (-1, True, "x", (1, -2)):
        values = {0: bad, 1: 1, 2: 2}
        with pytest.raises(GraphBuildError) as got:
            layered_ball(rooted, ((TAG_RAND, values),))
        with pytest.raises(GraphBuildError) as want:
            with_labeling(ball_graph(rooted), values, TAG_RAND)
        assert str(got.value) == str(want.value) == f"invalid layer value for 0: {bad!r}"
    with pytest.raises(KeyError):  # values must cover the ball
        layered_ball(rooted, ((TAG_RAND, {1: 1, 2: 2}),))

