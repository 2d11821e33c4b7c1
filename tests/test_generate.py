import itertools
import random
import types
from dataclasses import astuple

import pytest

import locallemma
import locallemma.generators as generators
from locallemma.errors import InfeasibleParamsError
from locallemma.generators import (
    GadgetLayout,
    gadget_build,
    gadget_layout,
    generate,
    ordered_neighbor_classes,
)
from locallemma.graphs import build_graph
from reference import lift_coloring, v_ids


def test_generators_import_binds_the_module():
    # the package's `generate` is the function, and its module's name differs
    assert isinstance(generators, types.ModuleType)
    assert generators.generate is locallemma.generate


def test_cycle_basic():
    g = generate("cycle", {"n": 4})
    assert len(g.vertices) == 4 and len(g.edges) == 4
    assert all(g.degree(v) == 2 for v in g.vertices)


def test_directed_cycle_orientation():
    g = generate("directed_cycle", {"n": 5})
    assert g.structure[(0, 1)] == 1
    assert (1, 0) not in g.structure


def test_torus_grid_degrees():
    g = generate("torus_grid", {"rows": 3, "cols": 3})
    assert len(g.vertices) == 9
    assert all(g.degree(v) == 4 for v in g.vertices)


def test_random_regular():
    g = generate("random_regular", {"n": 10, "d": 3}, seed=7)
    assert all(g.degree(v) == 3 for v in g.vertices)
    assert len(g.edges) == 15
    # determinism given the seed
    g2 = generate("random_regular", {"n": 10, "d": 3}, seed=7)
    assert g2.edges == g.edges


def assert_simple_regular(edges, n, d):
    edges = [tuple(e) for e in edges]
    assert len(set(map(frozenset, edges))) == len(edges) == n * d // 2
    assert all(u != v for u, v in edges)
    assert sorted(itertools.chain.from_iterable(edges)) == sorted(list(range(n)) * d)


# sha256 of the JSON of every random_regular graph with n <= 24, d <= 4 and
# seeds 0-2, as the pairing model generated them before the fallback existed
PAIRING_GRAPHS = "38d5f43405501460f493ee2830b3e520a437a656c6fd5383ac9a7a41b5bb7894"


def test_random_regular_keeps_pairing_graphs_and_falls_back_to_switchings(monkeypatch):
    import hashlib
    import json

    from locallemma.serialize import graph_to_json

    digest = hashlib.sha256()
    for n in range(1, 25):
        for d in range(min(n, 5)):
            for seed in range(3) if n * d % 2 == 0 else ():
                graph = generate("random_regular", {"n": n, "d": d}, seed)
                digest.update(json.dumps(graph_to_json(graph)).encode())
    assert digest.hexdigest() == PAIRING_GRAPHS
    # 10,000 pairing restarts fail at these sizes; the switchings succeed
    switched, calls = generators._switched_regular, []
    monkeypatch.setattr(generators, "_switched_regular",
                        lambda n, d, rng: calls.append((n, d)) or switched(n, d, rng))
    for n, d in ((21, 6), (30, 7)):
        assert_simple_regular(generate("random_regular", {"n": n, "d": d}, 0).edges, n, d)
    assert calls == [(21, 6), (30, 7)]


def test_switched_regular_graphs_are_simple_and_regular():
    # the fallback on every feasible (n, d) with n <= 40, seeds 0-4; through
    # `generate` each size whose restarts all fail costs 10,000 shuffles first
    for n in range(1, 41):
        for d in range(n):
            for seed in range(5) if n * d % 2 == 0 else ():
                assert_simple_regular(generators._switched_regular(n, d, random.Random(seed)), n, d)


def test_random_regular_parity_rejected():
    with pytest.raises(InfeasibleParamsError):
        generate("random_regular", {"n": 5, "d": 3})


def test_random_tree():
    g = generate("random_tree", {"n": 12}, seed=3)
    assert len(g.edges) == 11
    assert len(g.distances_from(0)) == 12  # connected


def is_k_colorable(graph, k):
    order = sorted(graph.vertices, key=lambda v: -graph.degree(v))
    colors = {}

    def assign(i):
        if i == len(order):
            return True
        v = order[i]
        used = {colors[w] for w in graph.neighbors(v) if w in colors}
        for c in range(1, k + 1):
            if c not in used:
                colors[v] = c
                if assign(i + 1):
                    return True
                del colors[v]
        return False

    return assign(0)


def test_gadget_star_example():
    # star K_{1,4} with k = 2: d = 4, c = 2
    g = build_graph(range(5), [(0, 1), (0, 2), (0, 3), (0, 4)])
    layout = gadget_layout(g, 2)
    assert layout.c == 2
    classes = ordered_neighbor_classes(g, 0, layout.c)
    assert classes[1] == [1, 4] and classes[2] == [2] and classes[0] == [3]
    assert all(len(ys) <= layout.c for ys in classes.values())
    h = gadget_build(g, 2)
    assert h.max_degree() == 3  # = d - 1


def test_gadget_v_vertex_degrees_exact():
    g = build_graph(range(5), [(0, 1), (0, 2), (0, 3), (0, 4)])
    layout = gadget_layout(g, 2)
    h = gadget_build(g, 2)
    d = g.max_degree()
    for vid in v_ids(layout):
        assert h.degree(vid) == d - 1


def test_gadget_precondition():
    g = generate("cycle", {"n": 5})  # d = 2, k = 2 gives c = 0
    with pytest.raises(InfeasibleParamsError):
        gadget_build(g, 2)


def test_gadget_lift_coloring_proper():
    g = build_graph(range(5), [(0, 1), (0, 2), (0, 3), (0, 4)])
    f = {0: 1, 1: 2, 2: 2, 3: 2, 4: 2}
    h = gadget_build(g, 2)
    lifted = lift_coloring(g, 2, f)
    for (u, v) in h.edges:
        assert lifted[u] != lifted[v]
    assert max(lifted.values()) <= 2


def test_gadget_chromatic_preserved_small():
    # all graphs on 5 vertices with max degree 4, k = 2
    for mask in range(1 << 10):
        edges = [e for i, e in enumerate(itertools.combinations(range(5), 2))
                 if mask >> i & 1]
        g = build_graph(range(5), edges)
        if g.max_degree() != 4:
            continue
        h = gadget_build(g, 2)
        assert h.max_degree() <= 3
        if is_k_colorable(g, 2):
            assert is_k_colorable(h, 2)


class IndexGadgetLayout(GadgetLayout):
    """The gadget's vertex ids as they stood when each one looked its
    source vertex up in the source order by `index`."""

    def u_id(self, x, alpha):
        return self.source_order.index(x) * self.block + alpha

    def v_id(self, x, i):
        return self.source_order.index(x) * self.block + (self.c + 1) + (i - 1)


def relabeled(graph, scale):
    """`graph` with vertex v renamed to scale * (n - v) + 1, so that the
    source order is neither the ids nor their positions."""
    n = len(graph.vertices)
    name = {v: scale * (n - v) + 1 for v in graph.vertices}
    return build_graph([name[v] for v in graph.vertices],
                       [(name[u], name[v]) for u, v in graph.edges])


def test_gadget_matches_index_layout_oracle(monkeypatch):
    # equal gadget graphs and lifted colorings from the position map and
    # from `source_order.index`, on random regular graphs and tori
    graphs = [(generate("random_regular", {"n": n, "d": d}, seed=seed), k)
              for n, d, k in ((12, 4, 2), (40, 4, 2), (30, 5, 3))
              for seed in (0, 1)]
    graphs.append((generate("torus_grid", {"rows": 4, "cols": 5}), 2))
    graphs += [(relabeled(graph, 3), k) for graph, k in graphs[:4]]
    rng = random.Random(0)
    for graph, k in graphs:
        coloring = {x: rng.randint(1, k) for x in graph.vertices}
        built, lifted = gadget_build(graph, k), lift_coloring(graph, k, coloring)
        with monkeypatch.context() as patch:
            patch.setattr(generators, "gadget_layout",
                          lambda g, k: IndexGadgetLayout(*astuple(gadget_layout(g, k))))
            want, want_lifted = gadget_build(graph, k), lift_coloring(graph, k, coloring)
        assert (built.vertices, built.edges, built.structure) == \
            (want.vertices, want.edges, want.structure)
        assert list(lifted.items()) == list(want_lifted.items())
