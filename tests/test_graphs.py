import random

import pytest
from hypothesis import given, strategies as st

from locallemma.algorithms import cole_vishkin_rounds
from locallemma.errors import GraphBuildError
from locallemma.generators import generate
from locallemma.graphs import (
    LAYER_MARK,
    TAG_BASE,
    TAG_IDS,
    TAG_OUTPUT,
    TAG_RAND,
    RootedBall,
    StructuredGraph,
    ball,
    base_structure,
    build_graph,
    greedy_coloring,
    greedy_power_coloring,
    label_layer,
    layer_value,
    with_labeling,
)
from reference import (ball_graph, distance_pairs, incidence, induced, layer_pairs, power_graph,
                       with_layers)


def random_graph(rng_seed: int, n: int, p_edge: float = 0.4):
    import random

    rng = random.Random(rng_seed)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p_edge]
    return build_graph(range(n), edges)


def graph_layer_tags(graph: StructuredGraph) -> tuple:
    """Tags of the layers recorded on the empty-tuple entry, in order."""
    pairs = layer_pairs(graph.structure.get(()))
    if pairs is None:
        return ()
    return tuple(p[0] for p in pairs if isinstance(p, tuple) and len(p) == 2)


def test_build_simple_edge():
    g = build_graph([0, 1], [(0, 1)])
    assert g.adjacent(0, 1)
    assert g.degree(0) == 1


def test_build_rejects_self_loop():
    with pytest.raises(GraphBuildError):
        build_graph([0], [(0, 0)])


def test_build_rejects_unknown_vertex():
    with pytest.raises(GraphBuildError):
        build_graph([0, 1], [(0, 2)])


def test_build_rejects_duplicate_structure():
    with pytest.raises(GraphBuildError):
        build_graph([0, 1], [(0, 1)], [((0, 1), 1), ((0, 1), 2)])


def test_ball_on_path():
    g = generate("path", {"n": 5})
    b = ball(g, 2, 1)
    assert sorted(ball_graph(b).vertices) == [1, 2, 3]
    assert len(ball_graph(b).edges) == 2


def test_ball_radius_zero():
    g = generate("cycle", {"n": 6})
    b = ball(g, 3, 0)
    assert list(ball_graph(b).vertices) == [3]
    assert not ball_graph(b).edges


def test_torus_ball_size_brute_force():
    # oracle: plain BFS count on the 4x4 torus
    g = generate("torus_grid", {"rows": 4, "cols": 4})
    dist = g.distances_from(0)
    expected = sum(1 for d in dist.values() if d <= 2)
    b = ball(g, 0, 2)
    assert len(ball_graph(b).vertices) == expected == 11


def test_power_graph_identity():
    g = random_graph(3, 8)
    assert power_graph(g, 1).edges == g.edges


def test_power_graph_c5_squared_complete():
    g = generate("cycle", {"n": 5})
    assert len(power_graph(g, 2).edges) == 10


def test_power_graph_path_example():
    g = generate("path", {"n": 4})
    # derived by brute force over all pairs with BFS distances
    expect = set()
    for v in g.vertices:
        dist = g.distances_from(v)
        for w, d in dist.items():
            if 1 <= d <= 2 and v < w:
                expect.add((v, w))
    assert power_graph(g, 2).edges == frozenset(expect)
    assert frozenset({(0, 1), (1, 2), (2, 3), (0, 2), (1, 3)}) == power_graph(g, 2).edges


def test_power_graph_composition():
    g = random_graph(11, 9)
    for k in (1, 2, 3):
        assert power_graph(power_graph(g, 1), k).edges == power_graph(g, k).edges


def test_power_graph_distance_ceil():
    for seed in range(6):
        g = random_graph(seed, 8, 0.35)
        if not g.edges:
            continue
        for k in (2, 3):
            pk = power_graph(g, k)
            for v in g.vertices:
                base = g.distances_from(v)
                up = pk.distances_from(v)
                for w in g.vertices:
                    if w in base:
                        assert up[w] == -(-base[w] // k)


@given(st.integers(0, 10_000), st.integers(2, 10), st.integers(0, 2**30))
def test_greedy_proper_and_bounded(seed, n, order_seed):
    import random

    g = random_graph(seed, n)
    order = list(g.vertices)
    random.Random(order_seed).shuffle(order)
    colors = greedy_coloring(g, order)
    for (u, v) in g.edges:
        assert colors[u] != colors[v]
    assert max(colors.values()) <= g.max_degree() + 1


def test_greedy_k4_uses_four():
    g = build_graph(range(4), [(i, j) for i in range(4) for j in range(i + 1, 4)])
    colors = greedy_coloring(g, range(4))
    assert sorted(colors.values()) == [1, 2, 3, 4]


def test_greedy_edgeless_all_one():
    g = build_graph(range(5), [])
    assert set(greedy_coloring(g, range(5)).values()) == {1}


def test_with_labeling_layers_nest():
    g = generate("cycle", {"n": 4})
    g1 = with_labeling(g, {0: 7}, TAG_IDS)
    g2 = with_labeling(g1, {0: 9}, TAG_OUTPUT)
    assert layer_value(g2, 0, TAG_IDS) == 7
    assert layer_value(g2, 0, TAG_OUTPUT) == 9
    assert graph_layer_tags(g2) == (TAG_IDS, TAG_OUTPUT)


def test_with_labeling_empty_changes_only_marker():
    g = generate("cycle", {"n": 4})
    g1 = with_labeling(g, {}, TAG_OUTPUT)
    assert g1.edges == g.edges
    assert set(g1.structure) - set(g.structure) == {()}


def layered_structure(graph, values, tag):
    """The structure `with_labeling` documents, built entry by entry:
    the graph's entries in order, then the layer marker and each value
    under `tag`, a plain label wrapped under TAG_BASE (test oracle)."""
    struct = dict(graph.structure)
    for tup, pair in [((), (tag, 0))] + [((v,), (tag, x)) for v, x in values.items()]:
        old = struct.get(tup)
        if old is None:
            struct[tup] = (LAYER_MARK, pair)
        elif isinstance(old, tuple) and old and old[0] == LAYER_MARK:
            struct[tup] = old + (pair,)
        else:
            struct[tup] = (LAYER_MARK, (TAG_BASE, old), pair)
    return struct


def test_with_labeling_matches_validating_constructor():
    import random

    for seed in range(40):
        rng = random.Random(seed)
        n = rng.randint(1, 9)
        vertices = rng.sample(range(3 * n), n)
        edges = [(u, v) for i, u in enumerate(vertices) for v in vertices[i + 1:]
                 if rng.random() < 0.4]
        # plain singleton labels, pair entries and, half the time, a marker
        structure = {(v,): rng.randint(0, 5) for v in vertices if rng.random() < 0.5}
        structure.update({(u, v): 1 for u, v in edges if rng.random() < 0.5})
        if rng.random() < 0.5:
            structure[()] = 7
        graph = build_graph(vertices, edges, structure, rng.choice([None, 3]))
        layers = [(TAG_IDS, {v: rng.randint(1, 9) for v in vertices}),
                  (TAG_RAND, {v: rng.randint(1, 3) for v in rng.sample(vertices, n // 2)}),
                  (TAG_OUTPUT, {})]
        for tag, values in layers:  # each layer nests on the one before
            got = with_labeling(graph, values, tag)
            want = StructuredGraph(graph.vertices, graph.edges,
                                   layered_structure(graph, values, tag),
                                   max(graph.tuple_bound, 1))
            assert got == want and got.vertices == want.vertices
            assert list(got.structure.items()) == list(want.structure.items())
            assert all(got.neighbors(v) == want.neighbors(v) for v in vertices)
            assert got.tuple_bound == want.tuple_bound and got.max_degree() == want.max_degree()
            graph = got
        base = (TAG_BASE,) if () in structure else ()
        assert graph_layer_tags(graph) == base + (TAG_IDS, TAG_RAND, TAG_OUTPUT)
    g = generate("cycle", {"n": 4})
    for values in ({9: 1}, {0: True}, {0: -1}, {0: 1.5}, {0: "1"}):
        with pytest.raises(GraphBuildError):
            with_labeling(g, values, TAG_IDS)


def test_layers_on_one_copy_match_the_two_call_chain():
    # rand_to_csp's verifier balls: seeds in a shuffled (canonical) order,
    # then outputs in BFS order, on a ball that may carry labels of its own
    import random

    for seed in range(30):
        rng = random.Random(seed)
        kind, params = rng.choice([("directed_cycle", {"n": 12}), ("random_tree", {"n": 15}),
                                   ("random_regular", {"n": 16, "d": 3})])
        graph = generate(kind, params, seed=seed)
        if rng.random() < 0.5:
            graph = with_labeling(graph, {v: rng.randint(1, 9) for v in graph.vertices}, TAG_IDS)
        rooted = ball(graph, rng.choice(graph.vertices), rng.randint(0, 2))
        source = ball_graph(rooted)
        before = list(source.structure.items())
        order = list(source.vertices)
        rng.shuffle(order)
        seeds = {v: rng.randint(1, 4) for v in order}
        outs = {y: rng.randint(0, 3) for y in rooted.vertices}
        chain = with_labeling(with_labeling(source, seeds, TAG_RAND), outs, TAG_OUTPUT)
        got = with_layers(source, ((TAG_RAND, seeds), (TAG_OUTPUT, outs)))
        assert list(got.structure.items()) == list(chain.structure.items())
        assert got == chain and got.vertices == chain.vertices
        assert got.tuple_bound == chain.tuple_bound
        assert list(source.structure.items()) == before


def pair_loop_base_structure(graph):
    """base_structure as one loop over each label's pairs (test oracle)."""
    out = {}
    for tup, label in graph.structure.items():
        pairs = layer_pairs(label)
        if pairs is None:
            if tup != ():
                out[tup] = label
            continue
        for p in pairs:
            if isinstance(p, tuple) and len(p) == 2 and p[0] == TAG_BASE:
                out[tup] = p[1]
    return out


def test_label_readers_match_the_pair_loop():
    import random

    rng = random.Random(7)
    # plain labels, layered ones with zero, one or two TAG_BASE pairs and
    # repeated tags, and tuples that only look like pairs
    labels = [0, 1, 2, (1,), (1, 2), frozenset({1}), (LAYER_MARK,),
              (LAYER_MARK, (TAG_BASE, 1)), (LAYER_MARK, (TAG_BASE, 0), (TAG_BASE, 1)),
              (LAYER_MARK, (TAG_BASE, 1), (TAG_IDS, 4), (TAG_BASE, 0)),
              (LAYER_MARK, (TAG_IDS, 3), (TAG_RAND, 5), (TAG_IDS, 6)),
              (LAYER_MARK, (TAG_IDS, 3, 4), (TAG_IDS,), 7, (TAG_OUTPUT, (1, 2)))]
    for _ in range(200):
        n = rng.randint(1, 4)
        structure = {}
        for _ in range(rng.randint(0, 6)):
            tup = tuple(rng.randrange(n) for _ in range(rng.randint(0, 2)))
            structure[tup] = rng.choice(labels)
        graph = build_graph(range(n), [], structure)
        assert list(base_structure(graph).items()) == list(pair_loop_base_structure(graph).items())
    for label in labels:
        for tag in (TAG_BASE, TAG_IDS, TAG_RAND, TAG_OUTPUT):
            pairs = layer_pairs(label) or ()
            want = [p[1] for p in pairs if isinstance(p, tuple) and len(p) == 2 and p[0] == tag]
            assert label_layer(label, tag) == (want[-1] if want else None)


def test_distance_pairs_zero_radius():
    g = generate("cycle", {"n": 5})
    assert distance_pairs(g, 0) == set()


@given(st.integers(0, 40), st.integers(1, 12), st.integers(0, 4))
def test_ball_distances_match_in_ball_bfs(seed, n, radius):
    # the BFS positions and distances of `ball` against a BFS of the ball
    # itself and against the checking public constructor
    g = random_graph(seed, n, p_edge=0.25)
    for x in g.vertices:
        b = ball(g, x, radius)
        in_ball = ball_graph(b).distances_from(x)
        assert dict(zip(b.vertices, b.dist)) == in_ball
        assert list(b.vertices) == list(in_ball)
        checked = RootedBall(ball_graph(b), x, radius)
        assert dict(zip(checked.vertices, checked.dist)) == in_ball
        assert checked.radius == b.radius == radius


def test_public_rooted_ball_still_checks_radius():
    g = generate("path", {"n": 4})
    with pytest.raises(GraphBuildError, match=r"vertices \[3\] beyond radius 2"):
        RootedBall(g, 0, 2)
    with pytest.raises(GraphBuildError, match="not in ball graph"):
        RootedBall(g, 9, 2)


def two_pass_max_ball_and_pairs(graph, k):
    """Oracle: one BFS per vertex for the ball sizes and another for the
    pairs, as the det pipeline once did."""
    max_ball = max((len(graph.distances_from(x, limit=k)) for x in graph.vertices), default=0)
    pairs = set()
    if k > 0:
        for v in graph.vertices:
            for w, d in graph.distances_from(v, limit=k).items():
                if 1 <= d and v < w:
                    pairs.add((v, w))
    return max_ball, pairs


def max_ball_and_pairs(graph, k):
    """Oracle: (max |B(x, k)| over the vertices x, distance_pairs(graph,
    k)), from one BFS per vertex, as the det pipeline once drew them."""
    max_ball = 0
    pairs = set()
    for v in graph.vertices:
        dist = graph.distances_from(v, limit=k)
        max_ball = max(max_ball, len(dist))
        pairs.update((v, w) for w, d in dist.items() if d and v < w)
    return max_ball, pairs


def neighbor_first_fit(graph, order):
    """Oracle: first-fit along `order` reading each vertex's neighbor
    tuple, as greedy_coloring once did."""
    order = list(order)
    if sorted(order) != sorted(graph.vertices):
        raise GraphBuildError("order must be a permutation of the vertex set")
    colors = {}
    for v in order:
        used = {colors[w] for w in graph.neighbors(v) if w in colors}
        c = 1
        while c in used:
            c += 1
        colors[v] = c
    return colors


def power_graph_first_fit(graph, order, k):
    """Oracle: the det pipeline's identifiers as it once drew them: the
    distance pairs, a validated power graph built from them, and
    first-fit on its neighbor tuples; with the max ball."""
    max_ball, pairs = max_ball_and_pairs(graph, k)
    power = StructuredGraph(graph.vertices, pairs, {}, 1)
    return neighbor_first_fit(power, order), max_ball


def shuffled(vertices, seed):
    order = list(vertices)
    random.Random(seed).shuffle(order)
    return order


@pytest.mark.parametrize("n", [256, 512, 1024])
def test_one_pass_ids_match_power_graph_oracle_on_local_det_cycles(n):
    g = generate("directed_cycle", {"n": n})
    k = 2 * (cole_vishkin_rounds(n) + 1)  # 2R for Cole-Vishkin and its verifier
    for seed in range(3):
        order = shuffled(g.vertices, seed)
        assert greedy_power_coloring(g, order, k) == power_graph_first_fit(g, order, k)


@pytest.mark.parametrize("kind, params", [
    ("random_regular", {"n": 60, "d": 3}),
    ("random_tree", {"n": 80}),
    ("torus_grid", {"rows": 7, "cols": 9}),
])
def test_one_pass_ids_match_power_graph_oracle_on_generated_graphs(kind, params):
    g = generate(kind, params, seed=4)
    for k in (1, 2, 3, 5):
        order = shuffled(g.vertices, k)
        ids, max_ball = greedy_power_coloring(g, order, k)
        assert (ids, max_ball) == power_graph_first_fit(g, order, k)
        assert max(ids.values()) <= max_ball
    assert greedy_coloring(g, order) == neighbor_first_fit(g, order)


@given(st.integers(0, 40), st.integers(1, 12), st.integers(-1, 4), st.integers(0, 99))
def test_one_pass_ids_match_power_graph_oracle_on_random_graphs(seed, n, k, order_seed):
    g = random_graph(seed, n, p_edge=0.25)
    order = shuffled(g.vertices, order_seed)
    assert greedy_power_coloring(g, order, k) == power_graph_first_fit(g, order, k)
    assert greedy_coloring(g, order) == neighbor_first_fit(g, order)


@pytest.mark.parametrize("order", [[0, 1, 2, 3], [0, 1, 2, 3, 3], [0, 1, 2, 3, 4, 4],
                                   [0, 1, 2, 3, 4, 5], [0, 1, 2, 3, 9]])
def test_one_pass_ids_refuse_a_non_permutation_order(order):
    g = generate("cycle", {"n": 5})
    with pytest.raises(GraphBuildError, match="order must be a permutation"):
        greedy_power_coloring(g, order, 2)
    with pytest.raises(GraphBuildError, match="order must be a permutation"):
        greedy_coloring(g, order)


@given(st.integers(0, 40), st.integers(1, 12), st.integers(-1, 4))
def test_max_ball_and_pairs_matches_two_passes(seed, n, k):
    g = random_graph(seed, n, p_edge=0.25)
    assert max_ball_and_pairs(g, k) == two_pass_max_ball_and_pairs(g, k)
    assert distance_pairs(g, k) == two_pass_max_ball_and_pairs(g, k)[1]


def test_induced_accepts_one_shot_iterable():
    g = generate("path", {"n": 5})
    sub = induced(g, (v for v in [1, 2, 3]))
    assert sub.vertices == (1, 2, 3)
    assert sub.edges == frozenset({(1, 2), (2, 3)})


def full_scan_induced(graph, vertices):
    """Oracle: the induced subgraph by a scan of every vertex, edge and
    structure entry of the whole graph, through the validated
    constructor."""
    kset = set(vertices)
    keep = [v for v in graph.vertices if v in kset]
    edges = [(u, v) for (u, v) in graph.edges if u in kset and v in kset]
    struct = {t: l for t, l in graph.structure.items() if all(x in kset for x in t)}
    return build_graph(keep, edges, struct, graph.tuple_bound)


label_values = st.recursive(
    st.integers(0, 3),
    lambda inner: st.tuples(inner, inner) | st.frozensets(inner, max_size=2),
    max_leaves=4)


@st.composite
def graph_and_subsets(draw):
    vertices = draw(st.lists(st.integers(0, 30), min_size=1, max_size=9, unique=True))
    pairs = [(u, v) for i, u in enumerate(vertices) for v in vertices[i + 1:]]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    tuples = draw(st.lists(st.lists(st.sampled_from(vertices), max_size=3).map(tuple),
                           unique=True, max_size=12))
    structure = [(t, draw(label_values)) for t in tuples]
    graph = build_graph(vertices, edges, structure, 3)
    # subsets may repeat vertices and name vertices outside the graph
    subsets = draw(st.lists(st.lists(st.integers(0, 32)), min_size=1, max_size=3))
    return graph, subsets


@given(graph_and_subsets())
def test_induced_matches_full_scan(case):
    graph, subsets = case
    balls = [graph.distances_from(x, limit=1).keys() for x in graph.vertices]
    for subset in subsets + balls:
        got, want = induced(graph, subset), full_scan_induced(graph, subset)
        assert got.vertices == want.vertices
        assert got.edges == want.edges
        assert list(got.structure.items()) == list(want.structure.items())
        assert got.tuple_bound == want.tuple_bound
        for v in want.vertices:
            assert got.neighbors(v) == want.neighbors(v)
            assert got.has_vertex(v)
        assert got == want


def index_induced(graph, vertices):
    """Oracle: the induced subgraph from the incidence index as it was
    built before the one-loop version, with generator expressions."""
    kset = graph._vset.intersection(vertices)
    pos, keys, by_first = incidence(graph)
    keep = tuple(sorted(kset, key=pos.__getitem__))
    nbrs = {u: tuple(w for w in graph._nbrs[u] if w in kset) for u in keep}
    edges = frozenset((u, w) for u in keep for w in nbrs[u] if u < w)
    hits = sorted(i for v in (None, *keep) for i in by_first.get(v, ())
                  if kset.issuperset(keys[i]))
    struct = {keys[i]: graph.structure[keys[i]] for i in hits}
    return StructuredGraph._trusted(keep, kset, edges, struct, graph.tuple_bound, nbrs)


@st.composite
def layered_graph_and_subsets(draw):
    """graph_and_subsets with seed, identifier and output layers on top
    (entries of length 0, 1 and 2 included), and the empty subset."""
    graph, subsets = draw(graph_and_subsets())
    for tag in draw(st.lists(st.sampled_from([TAG_IDS, TAG_RAND, TAG_OUTPUT]), max_size=3)):
        values = draw(st.dictionaries(st.sampled_from(graph.vertices), st.integers(0, 5)))
        graph = with_labeling(graph, values, tag)
    return graph, subsets + [[]]


@given(layered_graph_and_subsets())
def test_induced_matches_index_oracle_on_layered_graphs(case):
    graph, subsets = case
    balls = [graph.distances_from(x, limit=r).keys() for x in graph.vertices for r in (1, 2)]
    for subset in subsets + balls:
        got, want = induced(graph, subset), index_induced(graph, subset)
        assert got.vertices == want.vertices and type(got.vertices) is tuple
        assert got.edges == want.edges and type(got.edges) is frozenset
        assert list(got.structure.items()) == list(want.structure.items())
        assert got.tuple_bound == want.tuple_bound
        assert got._vset == want._vset
        assert got._nbrs == want._nbrs
        for v in want.vertices:
            assert got.neighbors(v) == want.neighbors(v)
