import dataclasses
import random
from collections import Counter
from fractions import Fraction
from typing import Dict, Tuple

import pytest

from locallemma import compilers
from locallemma.algorithms import proper_coloring_problem
from locallemma.canonical import _canonical_map, canonical_type
from locallemma.cli import ExperimentConfig, run_experiment
from locallemma.compilers import (_growth_string_count, _growth_strings, _typed, bootstrap,
                                  rand_to_csp)
from locallemma.connect import Connection, apply, identity_reduction
from locallemma.csp import (
    Constraint,
    Csp,
    is_solution,
    probability,
    solutions_exhaustive,
    stats,
)
from locallemma.errors import CanonicalizationCapError, EnumerationCapError, GraphBuildError
from locallemma.generators import generate
from locallemma.graphs import (TAG_OUTPUT, TAG_RAND, ball, base_structure, build_graph,
                               layer_value, with_labeling)
from locallemma.localrun import LocalAlgorithm, verify_lcl
from reference import ball_graph


def seed_echo():
    def rule(form):
        graph, root = form.decode()
        value = layer_value(graph, root, TAG_RAND)
        return value if isinstance(value, int) else 0

    return LocalAlgorithm("theta_echo", rule)


def always_right(k):
    # ignores randomness: emits a proper coloring read from nothing — only
    # correct on edgeless graphs, used for the trivial-compilation cases
    return LocalAlgorithm("const_one", lambda form: 1)


def test_compile_correct_algorithm_gives_empty_constraints():
    from locallemma.graphs import build_graph

    g = build_graph(range(4), [])
    pi = proper_coloring_problem(None)
    compiled, _ = rand_to_csp(always_right(1), pi, g, m=3, rounds=0)
    st = stats(compiled)
    assert st.p == 0


def test_compile_always_wrong_gives_full_constraints():
    g = generate("cycle", {"n": 4})
    pi = proper_coloring_problem(None)
    compiled, _ = rand_to_csp(always_right(1), pi, g, m=2, rounds=0)
    assert stats(compiled).p == 1  # constant coloring is never proper on a cycle


def test_compile_cycle_probability_exact():
    # spec-anchored: directed 6-cycle, m = 2, T = 0, seed-echo, P[B_x] = 3/4
    g = generate("directed_cycle", {"n": 6})
    pi = proper_coloring_problem(2)
    compiled, decoder = rand_to_csp(seed_echo(), pi, g, m=2, rounds=0)
    for c in compiled.constraints:
        assert probability(c) == Fraction(3, 4)
    st = stats(compiled)
    assert st.d == 4  # |ball(x, 2)| - 1 on the cycle
    for theta in solutions_exhaustive(compiled):
        out = apply(decoder, theta)
        assert verify_lcl(pi, g, out).valid


def test_bootstrap_empty_source_any_n():
    csp = Csp((0, 1, 2), 4, ())
    res = bootstrap(csp, identity_reduction(csp), N=16, epsilon=Fraction(1, 2**32))
    assert res.feasible and res.route == "direct"


def test_bootstrap_direct_route_single_constraint():
    c = Constraint.explicit((0, 1), 2**8, [(1, 1)])  # p = 2^-16
    csp = Csp((0, 1, 2), 2**8, (c,))
    res = bootstrap(csp, identity_reduction(csp), N=4, epsilon=Fraction(1, 2**8))
    assert res.feasible and res.route == "direct" and res.exact_p


def test_bootstrap_reports_infeasible_grid():
    c = Constraint.explicit((0, 1, 2), 2**5, [(1, 1, 1)])  # p = 2^-15 exactly
    csp = Csp((0, 1, 2, 3), 2**5, (c,))
    res = bootstrap(csp, identity_reduction(csp), N=16, epsilon=Fraction(1, 2**32),
                    n_grid=(16, 64))
    assert not res.feasible
    assert any(e["stage"] == "amplified" for e in res.report)
    for entry in res.report:
        assert entry["ok"] is False


def test_bootstrap_precondition_checked():
    from locallemma.errors import BootstrapInfeasibleError

    c = Constraint.explicit((0, 1), 2, [(1, 1)])  # p = 1/4: fails measurable
    csp = Csp((0, 1), 2, (c,))
    with pytest.raises(BootstrapInfeasibleError):
        bootstrap(csp, identity_reduction(csp), N=8, epsilon=Fraction(1, 2**15))


def test_bootstrap_amplified_route_solves_and_decodes():
    from locallemma.engine import moser_tardos_solve

    c = Constraint.explicit((0, 1, 2), 2**5, [(1, 1, 1)])
    csp = Csp((0, 1, 2, 3), 2**5, (c,))
    res = bootstrap(csp, identity_reduction(csp), N=2, epsilon=Fraction(1, 2**20),
                    n_grid=(2**10, 2**20, 2**27))
    assert res.feasible and res.route == "amplified"
    assert res.p_bound == Fraction(1, res.chosen_n)
    result = moser_tardos_solve(res.csp, seed=2, cap=100)
    assert result.assignment is not None
    decoded = apply(res.reduction.connection, result.assignment)
    assert is_solution(csp, decoded)[0]


def test_bootstrap_growth_along_grid():
    # d bound grows with the round count while the certified p bound is 1/n
    c = Constraint.explicit((0, 1), 2**12, [(1, 1)])  # p = 2^-24, d = 1
    extra = Constraint.explicit((1, 2), 2**12, [(2, 2)])
    csp = Csp((0, 1, 2, 3), 2**12, (c, extra))
    res = bootstrap(csp, identity_reduction(csp), N=16, epsilon=Fraction(1, 2**64),
                    n_grid=(16, 256, 4096))
    rows = [e for e in res.report if e["stage"] == "amplified"]
    assert len(rows) == 3
    rounds = [r["rounds"] for r in rows]
    assert rounds == sorted(rounds)
    for r in rows:
        assert Fraction(r["p_bound"]) == Fraction(1, r["n"])
        assert r["d_bound"] <= r["max_ball_2R"]


# -- sharing one enumeration per ball type ----------------------------------


def _run_on_ball(alg: LocalAlgorithm, rooted, rounds: int, inner_radius: int,
                 canon_cap: int):
    """Outputs of alg at every vertex within inner_radius of the root,
    computed entirely inside the stored ball (valid because sub-balls of
    radius `rounds` around those vertices lie inside)."""
    graph = ball_graph(rooted)
    out = {}
    for y, d in zip(rooted.vertices, rooted.dist):
        if d <= inner_radius:
            form = canonical_type(ball(graph, y, rounds), cap=canon_cap)
            out[y] = int(alg(form))
    return out


def oracle_rand_to_csp(alg, problem, graph, m, rounds, canon_cap=64):
    """The per-vertex compiler: every vertex enumerates its own seed
    patterns, with a memo of its own (test oracle)."""
    radius = rounds + problem.t
    balls = {x: ball(graph, x, radius) for x in graph.vertices}

    def make_pred(x):
        rooted = balls[x]
        memo: Dict[Tuple[int, ...], bool] = {}

        def predicate(values):
            values = tuple(values)
            if values not in memo:
                dom = tuple(sorted(ball_graph(rooted).vertices))
                seeded = with_labeling(ball_graph(rooted), dict(zip(dom, values)), TAG_RAND)
                outputs = _run_on_ball(alg, ball(seeded, rooted.root, rooted.radius),
                                       rounds, problem.t, canon_cap)
                labeled = with_labeling(seeded, outputs, TAG_OUTPUT)
                form = canonical_type(ball(labeled, x, problem.t), cap=canon_cap)
                memo[values] = int(problem.verifier(form)) == 0
            return memo[values]

        return predicate

    constraints = tuple(
        Constraint.from_predicate(sorted(ball_graph(balls[x]).vertices), m, make_pred(x),
                                  tag=f"B_{x}")
        for x in graph.vertices)

    def rule_for(x):
        positions = tuple(sorted(ball_graph(balls[x]).vertices))

        def rule(view):
            if any(y not in view for y in positions):
                return None
            seeded = with_labeling(ball_graph(balls[x]), {y: view[y] for y in positions},
                                   TAG_RAND)
            return int(alg(canonical_type(ball(seeded, x, rounds), cap=canon_cap)))

        return rule

    decoder = Connection(
        source=tuple(graph.vertices),
        det_sets={x: frozenset(ball_graph(balls[x]).vertices) for x in graph.vertices},
        rules={x: rule_for(x) for x in graph.vertices})
    return Csp(tuple(graph.vertices), m, constraints), decoder


def seed_mix(k):
    """Reads the root's seed, its neighbors' and, where edges are oriented,
    its successor's: on a directed cycle a map that reversed the
    orientation would change the answers."""

    def rule(form):
        graph, root = form.decode()
        seeds = {v: layer_value(graph, v, TAG_RAND) for v in graph.vertices}
        succ = [v for (u, v), label in base_structure(graph).items() if u == root
                and label == 1]
        total = 2 * seeds[root] + sum(seeds[w] for w in graph.neighbors(root))
        total += sum(3 * seeds[v] for v in succ)
        return 1 + total % k

    return LocalAlgorithm("seed_mix", rule)


def assert_same_compilation(graph, alg, problem, m, rounds, canon_cap=64):
    got, decoder = rand_to_csp(alg, problem, graph, m, rounds, canon_cap=canon_cap)
    want, want_decoder = oracle_rand_to_csp(alg, problem, graph, m, rounds, canon_cap)
    assert got.ground == want.ground and got.m == want.m
    assert len(got.constraints) == len(want.constraints)
    for c, o in zip(got.constraints, want.constraints):
        assert (c.domain, c.tag) == (o.domain, o.tag)
        assert c.materialize().members == o.materialize().members, c.tag
    rng = random.Random(len(graph.vertices) * 10 + m + rounds)
    for _ in range(4):
        theta = {x: rng.randint(1, m) for x in graph.vertices}
        assert apply(decoder, theta) == apply(want_decoder, theta)
    return got


CYCLES = [("directed_cycle", {"n": n}) for n in (3, 4, 5, 6, 8, 10)]
CYCLES += [("cycle", {"n": n}) for n in (3, 4, 6, 9)]
TORUS = ("torus_grid", {"rows": 3, "cols": 3})
# (kind, params, m, rounds); the 3x3 torus runs 9 * m^|B| patterns through
# the oracle (about 15 s at m = 2, rounds = 1), so it gets one case a round
CASES = [(k, p, m, r) for k, p in CYCLES for m, r in ((3, 0), (4, 0), (2, 1))]
CASES += [(*TORUS, 3, 0), (*TORUS, 2, 1)]


@pytest.mark.parametrize("kind,params,m,rounds", CASES)
def test_compiled_bodies_match_per_vertex_oracle(kind, params, m, rounds):
    graph = generate(kind, params)
    algs = [seed_echo()]
    if rounds:
        algs = [seed_mix(m)] + (algs if kind != "torus_grid" else [])
    for alg in algs:
        assert_same_compilation(graph, alg, proper_coloring_problem(m), m, rounds)


def counted(alg, problem):
    """(alg, problem) that count their calls in `calls`."""
    calls = {"alg": 0, "verifier": 0}

    def rule(form):
        calls["alg"] += 1
        return alg(form)

    def verifier(form):
        calls["verifier"] += 1
        return problem.verifier(form)

    checker = LocalAlgorithm(problem.verifier.name, verifier)
    return (LocalAlgorithm(alg.name, rule), dataclasses.replace(problem, verifier=checker),
            calls)


def test_capped_out_balls_are_types_of_their_own():
    # the radius-2 ball of the 9-cycle has 5 vertices, over the cap of 4;
    # every ball the memos canonicalize has 3
    graph = generate("cycle", {"n": 9})
    alg, problem, calls = counted(seed_mix(2), proper_coloring_problem(2))
    assert_same_compilation(graph, alg, problem, 2, 1, canon_cap=4)
    calls.update(alg=0, verifier=0)
    compiled, _ = rand_to_csp(alg, problem, graph, 2, 1, canon_cap=4)
    stats(compiled)
    # every inner ball is one type, seen under its 2^3 seed triples; every
    # verifier ball is one type, seen under 32 (seed, output) triples; the
    # per-vertex path made 9 * 2^5 * 3 algorithm and 9 * 2^5 verifier calls
    assert calls == {"alg": 2**3, "verifier": 32}


def test_vertices_of_one_type_share_the_enumeration():
    graph = generate("directed_cycle", {"n": 12})
    alg, problem, calls = counted(seed_echo(), proper_coloring_problem(4))
    compiled, _ = rand_to_csp(alg, problem, graph, m=4, rounds=0)
    stats(compiled)
    # one inner type of one seeded vertex, one verifier type; the
    # per-vertex path made 12 * 64 * 3 algorithm and 12 * 64 verifier calls
    assert calls == {"alg": 4, "verifier": 4**3}


def per_vertex_type(rooted, canon_cap):
    """(type key, canonical order) of a seed-free ball by its own
    `_canonical_map`, or its root and sorted vertices on a cap-out (oracle
    of the memoized typing)."""
    try:
        form, mapping = _canonical_map(rooted, cap=canon_cap)
    except CanonicalizationCapError:
        return rooted.root, tuple(sorted(rooted.vertices))
    return form.code, tuple(sorted(mapping, key=mapping.__getitem__))


def test_typing_by_bfs_key_matches_per_vertex_typing():
    rng = random.Random(5)
    graphs = [generate("directed_cycle", {"n": 9}), generate("cycle", {"n": 9}),
              generate("torus_grid", {"rows": 3, "cols": 4}),
              generate("random_tree", {"n": 14}, seed=2),
              build_graph(range(10), [(0, i) for i in range(1, 10)])]  # 9! leaves at the centre
    graphs.append(with_labeling(graphs[1], {v: rng.randint(1, 2) for v in range(9)}, TAG_RAND))
    for graph in graphs:
        for canon_cap in (64, 4):  # the radius-2 balls of the 9-cycles cap out at 4
            types: dict = {}
            balls = [ball(graph, x, r) for r in (0, 1, 2) for x in graph.vertices]
            for rooted in balls:
                got = _typed(rooted, canon_cap, types)
                assert got[0] is rooted
                assert got[1:] == per_vertex_type(rooted, canon_cap)
            assert len(types) < len(balls)
    # each cap-out seen: by size, and by the centre's search budget
    cycle, star = graphs[1], graphs[4]
    assert _typed(ball(cycle, 3, 2), 4, {})[1] == 3
    assert _typed(ball(star, 0, 1), 64, {})[1] == 0


def test_rand_compile_counts_are_pinned(monkeypatch):
    """Counts, not clocks: the canonicalizations, balls and graph layerings
    inside rand_to_csp on the README's `pipeline rand` instance (directed
    16-cycle, m = 16, seed 1), and at n = 256, where the seed-free balls
    are still typed once per BFS key: radius 0, and radius 1 at vertices 0
    and n - 1 (successor first) and elsewhere (predecessor first).  The
    pins are ceilings."""
    counts = Counter()

    def counting(name):
        inner = getattr(compilers, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(compilers, name, wrapper)

    for name in ("_canonical_map", "canonical_type", "ball", "with_labeling"):
        counting(name)
    for n, canonicalized in ((16, 27), (256, 29)):
        counts.clear()
        report = run_experiment(ExperimentConfig(
            pipeline="rand", graph={"kind": "directed_cycle", "params": {"n": n}}, seed=1,
            params={"m": 16}))
        assert report["passed"]
        # the seed-free typings; each canonical_type call is one more
        assert counts["_canonical_map"] <= 3
        assert counts["_canonical_map"] + counts["canonical_type"] <= canonicalized
        assert counts["ball"] <= 2 * n
        assert counts["with_labeling"] == 0


def test_inner_cap_out_raises_as_the_oracle_does():
    # the centre's seed-free radius-1 ball is the whole 9-leaf star: one
    # cell of 9 leaves, 9! leaves over the search budget
    graph = build_graph(range(10), [(0, i) for i in range(1, 10)])
    problem = proper_coloring_problem(2)
    for compile_ in (rand_to_csp, oracle_rand_to_csp):
        compiled, _ = compile_(seed_mix(2), problem, graph, 2, 1)
        with pytest.raises(CanonicalizationCapError) as err:
            stats(compiled)
        assert str(err.value) == ("canonicalization cap exceeded: "
                                  "bijection search 362880 > cap 100000")


# -- compiling value-symmetric pairs by seed equality pattern ----------------


def successor_echo():
    """Echoes the successor's seed on an oriented ball and, on an unoriented
    one, the root's seed when no neighbor repeats it, else 0.  It reads
    seeds only through equality, so it is value-symmetric."""

    def rule(form):
        graph, root = form.decode()
        seeds = {v: layer_value(graph, v, TAG_RAND) for v in graph.vertices}
        succ = [v for (u, v), label in base_structure(graph).items() if u == root
                and label == 1]
        if succ:
            return seeds[succ[0]]
        if any(seeds[w] == seeds[root] for w in graph.neighbors(root)):
            return 0
        return seeds[root]

    return LocalAlgorithm("successor_echo", rule)


def declared(alg, problem, flag=True):
    """Copies of alg and problem that declare value symmetry, or do not."""
    verifier = dataclasses.replace(problem.verifier, value_symmetric=flag)
    return (dataclasses.replace(alg, value_symmetric=flag),
            dataclasses.replace(problem, verifier=verifier))


def test_growth_strings_are_counted_by_stirling_sums():
    bell = [1, 1, 2, 5, 15, 52, 203]
    for size in range(7):
        strings = list(_growth_strings(size, size))
        assert len(strings) == len(set(strings)) == bell[size]
        for blocks in range(size + 2):
            assert _growth_string_count(size, blocks) == len(list(_growth_strings(size, blocks)))
    assert list(_growth_strings(3, 2)) == [(0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1)]


def test_growth_string_count_grows_with_the_size():
    # rand_to_csp's cap check reads the count at the largest domain only
    for blocks in range(1, 7):
        counts = [_growth_string_count(size, blocks) for size in range(12)]
        assert counts == sorted(counts) and counts[0] == 1


def test_seed_pattern_count_is_computed_once_per_compile(monkeypatch):
    # the count depends on a domain's size alone: the directed 256-cycle's
    # 256 radius-1 domains of 3 seeds ask for it once, as do a path's
    # domains of sizes 2 and 3 and a star's of 2 and 9
    sizes = []
    real = compilers._growth_string_count

    def counting(size, blocks):
        sizes.append((size, blocks))
        return real(size, blocks)

    monkeypatch.setattr(compilers, "_growth_string_count", counting)
    report = run_experiment(ExperimentConfig(
        pipeline="rand", graph={"kind": "directed_cycle", "params": {"n": 256}}, seed=1,
        params={"m": 16}))
    assert report["passed"] and sizes == [(3, 16)]
    alg, problem = declared(seed_echo(), proper_coloring_problem(None))
    for graph, largest in ((generate("path", {"n": 6}), 3),
                           (build_graph(range(9), [(0, i) for i in range(1, 9)]), 9)):
        sizes.clear()
        rand_to_csp(alg, problem, graph, 3, 0)
        assert sizes == [(largest, 3)]


SYMMETRIC_CASES = [(k, p, m, 0) for k, p in CYCLES for m in (1, 3, 6)]
SYMMETRIC_CASES += [(k, p, m, 1) for k, p in CYCLES for m in (2, 4)]
SYMMETRIC_CASES += [(*TORUS, m, 0) for m in (2, 4, 6)]


@pytest.mark.parametrize("kind,params,m,rounds", SYMMETRIC_CASES)
def test_pattern_path_matches_the_enumeration(kind, params, m, rounds):
    graph = generate(kind, params)
    rule = successor_echo() if rounds else seed_echo()
    pi = proper_coloring_problem(m)
    got, decoder = rand_to_csp(*declared(rule, pi), graph, m, rounds)
    want, want_decoder = rand_to_csp(*declared(rule, pi, flag=False), graph, m, rounds)
    assert got.ground == want.ground and len(got.constraints) == len(want.constraints)
    for c, o in zip(got.constraints, want.constraints):
        assert (c.domain, c.tag) == (o.domain, o.tag)
        assert o.count is None and c.count is not None
        members = c.materialize().members
        assert members == o.materialize().members, c.tag
        assert c.count == len(members)
    rng = random.Random(len(graph.vertices) * 10 + m + rounds)
    for _ in range(4):
        theta = {x: rng.randint(1, m) for x in graph.vertices}
        assert apply(decoder, theta) == apply(want_decoder, theta)


def seed_order():
    """1 if the root's seed is below its successor's, else 2: it compares
    seeds by order, so it is not value-symmetric."""

    def rule(form):
        graph, root = form.decode()
        succ = [v for (u, v), label in base_structure(graph).items() if u == root
                and label == 1]
        seeds = {v: layer_value(graph, v, TAG_RAND) for v in graph.vertices}
        return 1 if seeds[root] < seeds[succ[0]] else 2

    return LocalAlgorithm("seed_order", rule)


def test_a_wrong_declaration_is_caught_by_the_second_representative():
    graph = generate("directed_cycle", {"n": 6})
    alg, problem = declared(seed_order(), proper_coloring_problem(None))
    with pytest.raises(AssertionError, match="two representatives of seed pattern"):
        rand_to_csp(alg, problem, graph, 3, 1)


def test_palette_below_the_range_keeps_the_enumeration():
    # proper 3-coloring is not invariant under permutations of [4]: value 4
    # fails the palette, its image may not
    pi = proper_coloring_problem(3)
    assert pi.verifier.symmetric_at(3) and not pi.verifier.symmetric_at(4)
    graph = generate("directed_cycle", {"n": 12})
    seen = []
    for flag in (False, True):
        alg, problem, calls = counted(seed_echo(), pi)
        verifier = dataclasses.replace(problem.verifier, palette=pi.verifier.palette)
        alg, problem = declared(alg, dataclasses.replace(problem, verifier=verifier), flag)
        compiled, _ = rand_to_csp(alg, problem, graph, m=4, rounds=0)
        assert all(c.count is None for c in compiled.constraints)
        seen.append((stats(compiled), dict(calls)))
    assert seen[0] == seen[1]
    assert seen[1][1] == {"alg": 4, "verifier": 4**3}


def test_too_many_seed_patterns_cap_out_before_enumerating():
    # the centre's radius-1 ball has 21 vertices: about 2^30.7 patterns of
    # at most 3 blocks, above the default cap of 2^20
    graph = build_graph(range(21), [(0, i) for i in range(1, 21)])
    alg, problem, calls = counted(seed_echo(), proper_coloring_problem(None))
    alg, problem = declared(alg, problem)
    with pytest.raises(EnumerationCapError) as err:
        rand_to_csp(alg, problem, graph, 3, 0)
    assert str(err.value).startswith("seed patterns needs ~2^30.7 states")
    assert err.value.cap_bits == 20
    assert calls == {"alg": 0, "verifier": 0}


def test_bootstrap_too_wide_to_encode_is_infeasible():
    # one forbidden pattern on 20 binary elements: p = 2^-20 and d = 0 meet
    # the measurable condition but not the direct check, and the amplified
    # route's encoding would need 20! entries
    c = Constraint.explicit(range(20), 2, [(1,) * 20])
    csp = Csp(tuple(range(20)), 2, (c,))
    res = bootstrap(csp, identity_reduction(csp), N=16, epsilon=Fraction(1, 2**33))
    assert not res.feasible and res.route == "amplified" and res.csp is None
    direct, amplified = res.report
    assert direct["stage"] == "direct" and direct["ok"] is False
    assert direct["p"] == "1/1048576" and direct["d"] == 0
    assert amplified == {"stage": "amplified", "ok": False,
                         "detail": "constraint domains too large to encode exhaustively"}


def test_bootstrap_input_errors_still_raise():
    # the same constraint twice is refused by the encoder as an input error
    c = Constraint.explicit((0, 1, 2), 2**8, [(1, 1, 1)])  # p = 2^-24, d = 1
    csp = Csp((0, 1, 2), 2**8, (c, c))
    with pytest.raises(GraphBuildError, match="duplicate constraint"):
        bootstrap(csp, identity_reduction(csp), N=16, epsilon=Fraction(1, 2**32))


def test_pattern_path_on_edgeless_and_empty_graphs():
    pi = proper_coloring_problem(None)
    for graph in (build_graph(range(4), []), build_graph([], [])):
        compiled, _ = rand_to_csp(*declared(seed_echo(), pi), graph, m=3, rounds=0)
        assert [c.count for c in compiled.constraints] == [0] * len(graph.vertices)
