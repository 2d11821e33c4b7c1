import pytest

from locallemma.csp import Constraint, Csp, intersection_graph, stats
from locallemma.errors import GraphBuildError
from locallemma.graphcsp import csp_to_lcl, decode_graph_csp, encode_graph_csp
from locallemma.localrun import verify_lcl
from reference import random_small_csp


def dedupe(csp: Csp) -> Csp:
    seen = set()
    keep = []
    for c in csp.constraints:
        mat = c.materialize()
        if mat.arity() == 0:
            continue
        key = (mat.domain, mat.members)
        if key in seen:
            continue
        seen.add(key)
        keep.append(mat)
    return Csp(csp.ground, csp.m, tuple(keep))


def test_encode_single_binary_constraint():
    c = Constraint.explicit((0, 1), 2, [(1, 1)])
    csp = Csp((0, 1), 2, (c,))
    encoded = encode_graph_csp(intersection_graph(csp), csp)
    entries = [t for t in encoded.structure if t and len(t) > 0]
    assert sorted(entries) == [(0, 1), (1, 0)]
    assert len(encoded.structure[(0, 1)]) == 1


def test_encode_empty_csp():
    csp = Csp((0, 1, 2), 3, ())
    encoded = encode_graph_csp(intersection_graph(csp), csp)
    assert set(encoded.structure) == {()}


def test_encode_requires_adjacency():
    from locallemma.graphs import build_graph

    c = Constraint.explicit((0, 1), 2, [(1, 1)])
    bare = build_graph((0, 1), [])
    with pytest.raises(GraphBuildError):
        encode_graph_csp(bare, Csp((0, 1), 2, (c,)))


def test_round_trip_preserves_stats_and_is_stable():
    for seed in range(40):
        csp = dedupe(random_small_csp(seed, max_ground=6, max_m=4))
        carrier = intersection_graph(csp)
        encoded = encode_graph_csp(carrier, csp)
        carrier2, decoded = decode_graph_csp(encoded)
        assert stats(decoded) == stats(csp)
        encoded2 = encode_graph_csp(carrier2, decoded)
        assert encoded2 == encoded


def test_csp_to_lcl_verifier():
    c1 = Constraint.explicit((0, 1), 2, [(1, 1)])
    c2 = Constraint.explicit((1, 2), 2, [(2, 2)])
    csp = Csp((0, 1, 2), 2, (c1, c2))
    encoded = encode_graph_csp(intersection_graph(csp), csp)
    problem = csp_to_lcl(csp.m)

    good = {0: 1, 1: 2, 2: 1}
    assert verify_lcl(problem, encoded, good).valid

    bad = {0: 1, 1: 1, 2: 1}  # violates exactly c1
    report = verify_lcl(problem, encoded, bad)
    assert not report.valid
    assert report.violating_vertices == [0, 1]  # only c1's domain vertices

    nothing = Csp((0, 1, 2), 2, ())
    encoded0 = encode_graph_csp(intersection_graph(nothing), nothing)
    for values in ({0: 1, 1: 1, 2: 1}, {0: 2, 1: 1, 2: 2}):
        assert verify_lcl(problem, encoded0, values).valid
