"""`Csp.meeting`, the element -> constraint incidence index, and the sites
that read it, each against the code it replaced: the all-domains
`Reduction.degree`, the graph-built `discrete_partition`, the full-scan
`extend_solution` and the pairwise `lll_check("general")` product."""

import dataclasses
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from locallemma.binary import binary_reduce
from locallemma.connect import Connection, Reduction, compose, identity_reduction
from locallemma.csp import (
    DEFAULT_CAP_BITS,
    Constraint,
    Csp,
    discrete_partition,
    incidence,
    intersection_graph,
    probability,
    restrict_constraint,
    restrict_csp,
    stats,
)
from locallemma.engine import EPS_BINARY, _search, extend_solution, lll_check
from locallemma.errors import StepInfeasibleError
from locallemma.graphs import greedy_coloring
from locallemma.randgen import random_cover_csp, random_measurable_csp
from reference import random_small_csp


# ---------------------------------------------------------------- oracles

def degree_oracle(red: Reduction) -> int:
    """Every source element's determining set against every target domain."""
    doms = [set(c.domain) for c in red.target.constraints]
    return max((sum(1 for dom in doms if dom & red.connection.det_sets[x])
                for x in red.connection.source), default=0)


def partition_oracle(csp: Csp):
    """Greedy coloring of the intersection graph in ground order, one class
    per color in color order."""
    coloring = greedy_coloring(intersection_graph(csp), csp.ground)
    classes = {}
    for x in csp.ground:
        classes.setdefault(coloring[x], []).append(x)
    return [tuple(classes[c]) for c in sorted(classes)]


def extend_oracle(csp: Csp, g, seed=0, cap_bits=DEFAULT_CAP_BITS):
    """Per element, scan every constraint for the live ones, then restrict
    the whole CSP by the value chosen."""
    current = dict(g)
    remaining = restrict_csp(csp, g)
    for y in list(remaining.ground):
        live = [c for c in remaining.constraints if y in c.domain]
        bad = set()
        enumerable = True
        for c in live:
            if c.members is None:
                enumerable = False
                break
            pos = c.domain.index(y)
            bad.update(member[pos] for member in c.members)
        if enumerable and len(bad) < remaining.m:
            value = 1
            while value in bad:
                value += 1
            current[y] = value
            remaining = restrict_csp(remaining, {y: value})
            continue
        solution, decided = _search(remaining, seed, cap_bits)
        if solution is None:
            raise StepInfeasibleError("no extension exists for the residual CSP" if decided
                                      else "extension search capped out")
        current.update(solution)
        return current
    return current


def general_margin_oracle(csp: Csp):
    """min over constraints of eta * prod over every other domain that
    shares an element of (1 - eta), minus P[B_i], eta = 1/(max(d, 1) + 1)."""
    eta = Fraction(1, max(stats(csp).d, 1) + 1)
    doms = [set(c.domain) for c in csp.constraints]
    margin = None
    for i, c in enumerate(csp.constraints):
        rhs = eta
        for j, dom in enumerate(doms):
            if j != i and dom & doms[i]:
                rhs *= 1 - eta
        gap = rhs - probability(c)
        margin = gap if margin is None else min(margin, gap)
    return Fraction(1) if margin is None else margin


def outcome(fn, *args, **kwargs):
    """The result of fn, or the type and text of the error it raises."""
    try:
        return fn(*args, **kwargs)
    except (StepInfeasibleError, ValueError) as err:
        return type(err).__name__, str(err)


def general_margin(csp: Csp):
    return lll_check(csp, "general").margin


# ---------------------------------------------------------------- inputs

def reductions(csp: Csp):
    """The identity reduction, the binary reduction and their composition,
    as `_binary_stage` builds it."""
    identity = identity_reduction(csp)
    encoded, tau_red = binary_reduce(csp, EPS_BINARY)
    return [identity, tau_red,
            Reduction(compose(identity.connection, tau_red.connection), encoded)]


def generated_csps():
    return ([random_measurable_csp(seed, max_ground=60) for seed in range(6)]
            + [random_measurable_csp(seed, max_ground=40, hard=True) for seed in range(2)]
            + [random_cover_csp(seed, max_levels=11) for seed in range(4)]
            + [random_small_csp(seed, max_ground=8, max_constraints=5) for seed in range(10)])


@st.composite
def explicit_csps(draw):
    n = draw(st.integers(1, 7))
    m = draw(st.integers(2, 4))
    ground = tuple(range(n))
    constraints = []
    for _ in range(draw(st.integers(0, 5))):
        dom = tuple(sorted(draw(st.sets(st.sampled_from(ground), min_size=1,
                                        max_size=min(3, n)))))
        body = draw(st.sets(st.tuples(*[st.integers(1, m)] * len(dom)), max_size=6))
        constraints.append(Constraint.explicit(dom, m, body))
    return Csp(ground, m, tuple(constraints))


@st.composite
def csps_with_partial(draw):
    csp = draw(explicit_csps())
    keep = draw(st.lists(st.booleans(), min_size=len(csp.ground), max_size=len(csp.ground)))
    g = {x: draw(st.integers(1, csp.m)) for x, k in zip(csp.ground, keep) if k}
    return csp, g


# ---------------------------------------------------------------- the index

@given(explicit_csps())
def test_meeting_is_a_cached_index_and_not_a_field(csp):
    twin = Csp(csp.ground, csp.m, csp.constraints)
    assert "meeting" not in {f.name for f in dataclasses.fields(Csp)}
    meeting = csp.meeting
    assert csp.meeting is meeting           # built once
    assert csp == twin and hash(csp) == hash(twin)
    assert repr(csp) == repr(twin)
    for x in csp.ground:
        want = tuple(i for i, c in enumerate(csp.constraints) if x in c.domain)
        assert meeting.get(x, ()) == want
        assert list(want) == sorted(set(want))
    assert set(meeting) <= set(csp.ground)
    assert meeting == incidence(c.domain for c in csp.constraints)
    # stats is cached the same way: once per cap, outside the fields
    cached = stats(csp)
    assert stats(csp) is cached and stats(csp, 8) is stats(csp, 8)
    assert csp == twin and hash(csp) == hash(twin) and repr(csp) == repr(twin)
    assert cached == stats(Csp(csp.ground, csp.m, csp.constraints))
    assert cached.p == max((probability(c) for c in csp.constraints), default=0)


@given(csps_with_partial())
def test_restrict_csp_keeps_constraint_positions(case):
    csp, g = case
    restricted = restrict_csp(csp, g)
    assert len(restricted.constraints) == len(csp.constraints)
    for c, r in zip(csp.constraints, restricted.constraints):
        assert r == restrict_constraint(c, g)
        if not set(c.domain) & set(g):
            assert r is c                  # a constraint that g misses is unchanged


# ---------------------------------------------------------------- differential

def test_degree_matches_all_domains_oracle():
    for csp in generated_csps():
        for red in reductions(csp):
            assert red.degree() == degree_oracle(red)


@settings(max_examples=60, deadline=None)
@given(explicit_csps(), st.lists(st.sets(st.integers(0, 7)), max_size=4))
def test_degree_matches_oracle_on_explicit_csps(csp, det_sets):
    # the determining sets of identity and binary reductions each lie in one
    # target element's constraints; free ones may straddle several, or none
    free = Connection(source=tuple(range(len(det_sets))), target=csp.ground,
                      det_sets={x: frozenset(s) for x, s in enumerate(det_sets)},
                      rules={x: lambda view: None for x in range(len(det_sets))})
    for red in reductions(csp) + [Reduction(free, csp)]:
        assert red.degree() == degree_oracle(red)


def test_discrete_partition_matches_graph_coloring_oracle():
    for csp in generated_csps():
        encoded, _ = binary_reduce(csp, EPS_BINARY)
        for target in (csp, encoded):
            assert discrete_partition(target) == partition_oracle(target)


@given(explicit_csps())
def test_discrete_partition_matches_oracle_on_explicit_csps(csp):
    assert discrete_partition(csp) == partition_oracle(csp)


def test_general_lll_matches_pairwise_oracle():
    for csp in generated_csps():
        assert outcome(general_margin, csp) == outcome(general_margin_oracle, csp)


@given(explicit_csps())
def test_general_lll_matches_oracle_on_explicit_csps(csp):
    # eta is 1/(d+1), or 1/2 when d = 0
    assert outcome(general_margin, csp) == outcome(general_margin_oracle, csp)


def test_extend_solution_matches_full_scan_oracle():
    for csp in generated_csps():
        half = {x: 1 for x in csp.ground[::2]}
        for g in ({}, half):
            assert outcome(extend_solution, csp, g) == outcome(extend_oracle, csp, g)
        encoded, _ = binary_reduce(csp, EPS_BINARY)
        assert (outcome(extend_solution, encoded, {}, seed=3)
                == outcome(extend_oracle, encoded, {}, seed=3))


@settings(max_examples=150, deadline=None)
@given(csps_with_partial(), st.integers(0, 3))
def test_extend_solution_matches_oracle_on_explicit_csps(case, seed):
    csp, g = case
    assert (outcome(extend_solution, csp, g, seed=seed)
            == outcome(extend_oracle, csp, g, seed=seed))


def test_extend_solution_matches_oracle_when_a_restriction_empties_a_domain():
    # assigning 0 := 2 leaves the first constraint no pattern, so its domain
    # collapses to () and element 1 no longer meets it; g = {3: 1, 4: 1}
    # covers the second constraint and leaves it violated, with domain ()
    first = Constraint.explicit((0, 1), 2, [(1, 1), (1, 2)])
    second = Constraint.explicit((3, 4), 2, [(1, 1)])
    third = Constraint.explicit((1, 2), 2, [(1, 1)])
    csp = Csp(tuple(range(5)), 2, (first, second, third))
    assert restrict_constraint(first, {0: 2}).domain == ()
    assert restrict_constraint(second, {3: 1, 4: 1}).domain == ()
    for g in ({}, {3: 1, 4: 1}):
        got = extend_solution(csp, g)
        assert got == extend_oracle(csp, g)
        assert list(got.items()) == list(extend_oracle(csp, g).items())
    assert extend_solution(csp, {})[0] == 2


def test_extend_solution_matches_oracle_on_a_search_fallback_partway():
    # elements 0..2 take values one by one; the predicate on (3, 4) stops the
    # per-element pass, and the search finishes the rest
    pair = Constraint.explicit((0, 1), 3, [(1, 1)])
    unequal = Constraint.from_predicate((3, 4), 3, lambda values: values[0] != values[1])
    csp = Csp(tuple(range(6)), 3, (pair, unequal))
    got = extend_solution(csp, {})
    assert got == extend_oracle(csp, {}) and got[3] == got[4]
    assert list(got.items()) == list(extend_oracle(csp, {}).items())
    # a predicate that forbids every value: no extension, decided or capped
    hopeless = Csp(tuple(range(6)), 3,
                   (pair, Constraint.from_predicate((3,), 3, lambda values: True)))
    for cap_bits in (DEFAULT_CAP_BITS, 4):
        with pytest.raises(StepInfeasibleError) as got_err:
            extend_solution(hopeless, {}, cap_bits=cap_bits)
        with pytest.raises(StepInfeasibleError) as want_err:
            extend_oracle(hopeless, {}, cap_bits=cap_bits)
        assert str(got_err.value) == str(want_err.value)
    assert "capped out" in str(got_err.value)
