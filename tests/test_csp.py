import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, strategies as st

from locallemma.csp import (
    Constraint,
    Csp,
    CspStats,
    const_assignment,
    discrete_partition,
    intersection_graph,
    is_solution,
    probability,
    restrict_constraint,
    restrict_csp,
    solutions_exhaustive,
    stats,
)
from locallemma.errors import EnumerationCapError
from locallemma.graphs import StructuredGraph
from locallemma.randgen import random_cover_csp
from reference import check_partial_solution, random_small_csp


def explicit_constraints(draw_seed, n=4, m=3):
    rng = random.Random(draw_seed)
    arity = rng.randint(1, 3)
    dom = tuple(sorted(rng.sample(range(n), arity)))
    body = set()
    for _ in range(rng.randint(0, m ** arity)):
        body.add(tuple(rng.randint(1, m) for _ in dom))
    return Constraint.explicit(dom, m, body)


def test_probability_empty_is_zero():
    c = Constraint.explicit((0, 1), 3, [])
    assert probability(c) == 0
    assert c.domain == ()  # the empty constraint has empty domain


def test_probability_full_is_one():
    members = list(product((1, 2, 3), repeat=2))
    c = Constraint.explicit((0, 1), 3, members)
    assert probability(c) == 1


def test_explicit_refuses_dict_members():
    # a dict member would be read as its keys: {1: 1, 2: 2} as (1, 2)
    with pytest.raises(ValueError, match="not a dict"):
        Constraint.explicit((1, 2), 2, [{1: 1, 2: 2}])
    with pytest.raises(ValueError, match="not a dict"):
        Constraint.explicit((0, 1), 3, [(1, 2), {0: 2, 1: 3}])
    assert Constraint.explicit((1, 2), 2, [(1, 2)]).members == {(1, 2)}


def test_probability_predicate_enumeration():
    c = Constraint.from_predicate((0, 1), 3, lambda v: v[0] == v[1])
    assert probability(c) == Fraction(1, 3)


def test_probability_cap():
    c = Constraint.from_predicate(tuple(range(8)), 64, lambda v: False)
    with pytest.raises(EnumerationCapError):
        probability(c, cap_bits=20)


def test_caps_are_decided_in_integers():
    # 2^60 + 1 states at cap 60: log2 reads exactly 60.0 in floating point,
    # so a float comparison passed both on to enumeration (where the empty
    # CSP yields its first solution at once); the refusal comes first
    m = 2**60 + 1
    body = Constraint.from_predicate((0,), m, lambda v: False)
    with pytest.raises(EnumerationCapError, match="above the configured cap 2\\^60"):
        body._body(60, "constraint body count")
    with pytest.raises(EnumerationCapError, match="solution enumeration"):
        next(solutions_exhaustive(Csp((0,), m, ()), cap_bits=60))
    # at the cap itself both still run
    assert list(Constraint.from_predicate((0, 1), 2, lambda v: v[0] == v[1])._body(2, "")) \
        == [(1, 1), (2, 2)]
    assert len(list(solutions_exhaustive(Csp((0, 1), 2, ()), cap_bits=2))) == 4


def test_stats_caps_out_per_cap_and_caches_only_a_value():
    body = Constraint.from_predicate((0, 1, 2, 3), 2, lambda v: v[0] == 1)
    csp = Csp((0, 1, 2, 3), 2, (body,))
    with pytest.raises(EnumerationCapError):
        stats(csp, cap_bits=3)
    assert stats(csp) == stats(csp, cap_bits=4) == CspStats(Fraction(1, 2), 0, 4)
    assert stats(csp) is stats(csp)


def test_probability_estimate_typed():
    from randomized import probability_estimate

    c = Constraint.from_predicate((0, 1, 2), 2, lambda v: all(x == 1 for x in v))
    est = probability_estimate(c, trials=800, seed=3)
    assert abs(est.value - Fraction(1, 8)) <= est.radius


def test_stats_single_constraint():
    c = Constraint.explicit((0, 1), 2, [(1, 1)])
    st_ = stats(Csp((0, 1, 2), 2, (c,)))
    assert (st_.p, st_.d, st_.b) == (Fraction(1, 4), 0, 2)


def test_stats_disjoint_then_chain():
    m = 2
    c1 = Constraint.explicit((0, 1), m, [(1, 1)])
    c2 = Constraint.explicit((2, 3), m, [(1, 1)])
    assert stats(Csp(tuple(range(4)), m, (c1, c2))).d == 0
    # chain of 3 constraints on overlapping pairs of a 4-element ground set
    k1 = Constraint.explicit((0, 1), m, [(1, 1)])
    k2 = Constraint.explicit((1, 2), m, [(1, 1)])
    k3 = Constraint.explicit((2, 3), m, [(1, 1)])
    assert stats(Csp(tuple(range(4)), m, (k1, k2, k3))).d == 2


def test_restrict_disjoint_unchanged():
    c = Constraint.explicit((0, 1), 2, [(1, 2)])
    assert restrict_constraint(c, {5: 1}) is c


def test_restrict_violating_marker():
    c = Constraint.explicit((0, 1), 2, [(1, 2)])
    r = restrict_constraint(c, {0: 1, 1: 2})
    assert r.domain == () and r.members == frozenset([()])
    assert probability(r) == 1


def test_restrict_all_equal_example():
    c = Constraint.explicit((0, 1), 2, [(1, 1), (2, 2)])
    r = restrict_constraint(c, {0: 1})
    assert r.domain == (1,) and r.members == frozenset([(1,)])


@given(st.integers(0, 10_000))
def test_restrict_csp_monotone_stats(seed):
    csp = random_small_csp(seed)
    rng = random.Random(seed + 1)
    g = {x: rng.randint(1, csp.m) for x in csp.ground if rng.random() < 0.5}
    before = stats(csp)
    after = stats(restrict_csp(csp, g))
    assert after.d <= before.d
    assert after.b <= before.b


@given(st.integers(0, 10_000))
def test_eq_two_averaging(seed):
    # P[B] == (1/m) * sum_i P[B / const(A, i)] for discrete A
    rng = random.Random(seed)
    m = rng.randint(2, 4)
    arity = rng.randint(1, 4)
    dom = tuple(sorted(rng.sample(range(8), arity)))
    body = {tuple(rng.randint(1, m) for _ in dom)
            for _ in range(rng.randint(0, m ** arity))}
    c = Constraint.explicit(dom, m, body)
    inside = [rng.choice(dom)] if c.domain and rng.random() < 0.8 else []
    outside = [x for x in range(8, 12) if rng.random() < 0.5]
    A = inside + outside
    lhs = probability(c)
    rhs = sum(probability(restrict_constraint(c, const_assignment(A, i)))
              for i in range(1, m + 1)) / m
    assert lhs == rhs


def test_restrict_csp_empty_assignment_unchanged():
    csp = random_small_csp(77)
    after = restrict_csp(csp, {})
    assert after.ground == csp.ground
    assert after.constraints == csp.constraints


def test_is_solution_examples():
    ground = (0, 1, 2)
    empty = Csp(ground, 2, ())
    assert is_solution(empty, {0: 1, 1: 1, 2: 1})[0]
    allones = Constraint.explicit(ground, 2, [(1, 1, 1)])
    csp = Csp(ground, 2, (allones,))
    ok, violated = is_solution(csp, {0: 1, 1: 1, 2: 1})
    assert not ok and violated == [0]


def test_check_partial_solution():
    c = Constraint.explicit((0, 1), 2, [(1, 1)])
    csp = Csp((0, 1), 2, (c,))
    assert check_partial_solution(csp, {}) is True
    assert check_partial_solution(csp, {0: 1, 1: 1}) is False
    # verdicts match exhaustive extension search on random instances
    rng = random.Random(5)
    for seed in range(40):
        small = random_small_csp(seed, max_ground=4, max_m=3)
        g = {x: rng.randint(1, small.m) for x in small.ground if rng.random() < 0.6}
        expected = any(all(sol[x] == g[x] for x in g)
                       for sol in solutions_exhaustive(small))
        # equivalent: restricted instance has a solution
        assert check_partial_solution(small, g) is expected


def test_discrete_partition_properties():
    for seed in range(30):
        csp = random_small_csp(seed, max_ground=8, max_constraints=5)
        classes = discrete_partition(csp)
        st_ = stats(csp)
        flat = [x for cls in classes for x in cls]
        assert sorted(flat) == sorted(csp.ground)
        for cls in classes:
            for c in csp.constraints:
                assert len(set(cls) & set(c.domain)) <= 1
        assert len(classes) <= max((st_.b - 1) * (st_.d + 1) + 1, 1)


def test_discrete_partition_trivial_cases():
    empty = Csp((0, 1, 2), 2, ())
    assert discrete_partition(empty) == [(0, 1, 2)]
    c = Constraint.explicit((0, 1, 2), 2, [(1, 1, 1)])
    classes = discrete_partition(Csp((0, 1, 2), 2, (c,)))
    assert len(classes) == 3


def test_intersection_graph_matches_validating_constructor():
    # the unchecked build gives the graph, neighbor tuples included, that
    # the validating constructor gives on the pairs sharing a domain
    csps = ([random_small_csp(seed, max_ground=10, max_constraints=6) for seed in range(30)]
            + [random_cover_csp(seed, max_levels=12) for seed in range(10)])
    for csp in csps:
        edges = {(x, y) for c in csp.constraints for x in c.domain for y in c.domain if x < y}
        want = StructuredGraph(csp.ground, edges, {}, 1)
        got = intersection_graph(csp)
        assert got == want
        assert got.vertices == want.vertices
        for x in csp.ground:
            assert got.neighbors(x) == want.neighbors(x)
