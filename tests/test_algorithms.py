import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st
from randomized import estimate_randomized_failure, trial_coloring
from test_canonical import local_det_balls, random_layered_ball
from test_compilers import seed_echo

from locallemma.algorithms import (
    _cole_vishkin_rule,
    builtin_algorithm,
    cole_vishkin_rounds,
    cole_vishkin_steps,
    echo_rule,
    proper_coloring_problem,
)
from locallemma.canonical import CanonicalForm, canonical_type
from locallemma.compilers import rand_to_csp
from locallemma.csp import stats
from locallemma.generators import generate
from locallemma.graphs import (LAYER_MARK, TAG_BASE, TAG_IDS, TAG_OUTPUT, TAG_RAND, ball,
                               base_structure, build_graph, layer_value, with_labeling)
from locallemma.localrun import (
    LclProblem,
    det_pipeline,
    run_deterministic,
    verify_lcl,
)
from locallemma.rng import derived_rng
from reference import ball_graph


def test_unknown_builtin():
    with pytest.raises(ValueError, match="^unknown builtin algorithm 'nope'$"):
        builtin_algorithm("nope")


def test_id_echo_proper():
    g = generate("cycle", {"n": 6})
    spec = builtin_algorithm("id_echo")
    ids = {v: v + 1 for v in g.vertices}
    outputs = run_deterministic(spec.algorithm, with_labeling(g, ids, TAG_IDS), 0)
    assert outputs == ids
    assert verify_lcl(spec.problem, g, outputs).valid


def decoded_echo(tag):
    """The echo rule as it read the decoded graph (test oracle)."""

    def rule(form):
        graph, root = form.decode()
        value = layer_value(graph, root, tag)
        return value if isinstance(value, int) else 0

    return rule


def test_echo_rule_matches_decoding_oracle():
    rng = random.Random(23)
    balls = [random_layered_ball(rng) for _ in range(300)]
    # a root with no value, an int and non-ints, beside a global
    # entry on () that sorts before the root's (0,)
    path = build_graph(range(3), [(0, 1), (1, 2)], {(): 9, (0, 1): 1})
    for value in (None, 7, (1, 2), frozenset([3])):
        for tag in (TAG_IDS, TAG_RAND):
            labeled = with_labeling(path, {} if value is None else {1: value, 2: 5}, tag)
            balls += [ball(labeled, 1, 1), ball(labeled, 0, 0)]
    balls.append(ball(build_graph(range(2), [(0, 1)], {(0,): 4}), 0, 1))  # a plain label
    outputs = set()
    for b in balls:
        form = canonical_type(b, cap=len(ball_graph(b).vertices))
        parsed = CanonicalForm.from_hex(form.hex())
        for tag in (TAG_IDS, TAG_RAND, TAG_OUTPUT):
            want = decoded_echo(tag)(form)
            assert echo_rule(tag)(form) == want == echo_rule(tag)(parsed) \
                == decoded_echo(tag)(parsed)
            outputs.add(want)
    assert {0, 7} <= outputs and len(outputs) > 4


def test_cole_vishkin_round_declaration_monotone():
    assert cole_vishkin_steps(8) <= cole_vishkin_steps(512)
    assert cole_vishkin_rounds(512) == cole_vishkin_steps(512) + 3


@pytest.mark.parametrize("n", [8, 64, 512])
def test_cole_vishkin_on_directed_cycle(n):
    g = generate("directed_cycle", {"n": n})
    spec = builtin_algorithm("cole_vishkin_3color", {"n": n})
    ids = {v: v + 1 for v in g.vertices}
    rounds = spec.rounds(n)
    outputs = run_deterministic(spec.algorithm, with_labeling(g, ids, TAG_IDS),
                                rounds, canon_cap=2 * rounds + 2)
    report = verify_lcl(spec.problem, g, outputs)
    assert report.valid
    assert set(outputs.values()) <= {1, 2, 3}


# The Cole-Vishkin rule reads the form's leaf; the oracle is the rule as it
# was written on the decoded graph, with a successor map built through
# base_structure and identifiers read through layer_value.

def successor_map(graph):
    """Orientation layer: entry (u, v) -> 1 means an edge directed u -> v."""
    succ = {}
    for tup, label in base_structure(graph).items():
        if len(tup) == 2 and label == 1 and graph.adjacent(*tup):
            succ[tup[0]] = tup[1]
    return succ


def oracle_cole_vishkin_rule(n):
    steps = cole_vishkin_steps(n)

    def rule(form):
        graph, root = form.decode()
        succ = successor_map(graph)
        pred = {v: u for u, v in succ.items()}
        colors = {}
        for v in graph.vertices:
            ident = layer_value(graph, v, TAG_IDS)
            if ident is None or not isinstance(ident, int):
                return 0
            colors[v] = ident - 1
        known = set(graph.vertices)
        for _ in range(steps):
            nxt = {}
            for v in known:
                s = succ.get(v)
                if s is None or s not in known:
                    continue
                diff = colors[v] ^ colors[s]
                if diff == 0:
                    nxt[v] = 0
                    continue
                i = (diff & -diff).bit_length() - 1
                nxt[v] = 2 * i + ((colors[v] >> i) & 1)
            known = set(nxt)
            colors = nxt
        for kill in (5, 4, 3):
            nxt = {}
            for v in known:
                s, p = succ.get(v), pred.get(v)
                if s not in known or p not in known:
                    continue
                if colors[v] == kill:
                    nxt[v] = min({0, 1, 2} - {colors[s], colors[p]})
                else:
                    nxt[v] = colors[v]
            known = set(nxt)
            colors = nxt
        if root not in colors:
            return 0
        return colors[root] + 1

    return rule


# orientation labels: plain, wrapped under TAG_BASE (the last TAG_BASE pair
# counts), layered with no TAG_BASE pair, and labels that are not 1
ORIENTATIONS = [1, 1, 1, 0, 2, (1,), (LAYER_MARK, (TAG_BASE, 1)),
                (LAYER_MARK, (TAG_BASE, 0), (TAG_BASE, 1)),
                (LAYER_MARK, (TAG_BASE, 1), (TAG_BASE, 0)),
                (LAYER_MARK, (TAG_IDS, 1)), (LAYER_MARK, (TAG_BASE, 1), (TAG_RAND, 0))]


def random_oriented_ball(rng):
    """A ball of a directed cycle or path with chords, extra orientation
    entries on edges and non-edges (some vertices get two successors or
    two predecessors), identifiers that may repeat, be 0, be missing or
    not be ints, and seed and output layers on top."""
    k = rng.randint(1, 10)
    arcs = [(i, (i + 1) % k) for i in range(k - (rng.random() < 0.3))]
    edges = {(min(a), max(a)) for a in arcs if a[0] != a[1]}
    edges.update((i, j) for i in range(k) for j in range(i + 2, k) if rng.random() < 0.1)
    structure = {a: 1 for a in arcs if a[0] != a[1]}
    for _ in range(rng.randint(0, 4)):
        structure[(rng.randrange(k), rng.randrange(k))] = rng.choice(ORIENTATIONS)
    if rng.random() < 0.3:
        structure[(rng.randrange(k),)] = rng.randint(0, 3)  # a plain label, wrapped below
    g = build_graph(range(k), sorted(edges), structure)
    spread = rng.choice([2, k, 1000])
    ids = {v: rng.randint(0, spread) for v in g.vertices if rng.random() < 0.97}
    if rng.random() < 0.05:
        ids[rng.randrange(k)] = (1, 2)
    g = with_labeling(g, ids, TAG_IDS)
    for tag in (TAG_RAND, TAG_OUTPUT, TAG_IDS):
        if rng.random() < 0.3:
            g = with_labeling(g, {v: rng.randint(1, 5) for v in g.vertices
                                  if rng.random() < 0.5}, tag)
    return ball(g, rng.randrange(k), rng.randint(0, 6))


def crafted_balls():
    """One ball per edge case of the rule, each at the middle vertex 10 of
    a directed 21-vertex path, at radius 9 unless noted."""
    def path_ball(ids, orientation=1, extra=(), chords=(), radius=9):
        edges = [(i, i + 1) for i in range(20)] + list(chords)
        structure = {(i, i + 1): orientation for i in range(20)}
        structure.update(extra)
        g = with_labeling(build_graph(range(21), edges, structure), ids, TAG_IDS)
        return ball(g, 10, radius)

    distinct = {v: (7 * v) % 23 + 1 for v in range(21)}
    cycle = generate("cycle", {"n": 21})
    return [
        path_ball(distinct),
        path_ball({v: i for v, i in distinct.items() if v != 12}),  # no identifier
        path_ball({**distinct, 11: (6,)}),  # a non-int identifier
        path_ball({**distinct, 11: distinct[10]}),  # equal adjacent identifiers
        path_ball({**distinct, 11: 0}),  # identifier 0, colour -1
        path_ball(distinct, (LAYER_MARK, (TAG_BASE, 1))),
        path_ball(distinct, (LAYER_MARK, (TAG_BASE, 0), (TAG_BASE, 1))),
        path_ball(distinct, (LAYER_MARK, (TAG_BASE, 1), (TAG_BASE, 0))),
        path_ball(distinct, extra={(10, 13): 1, (12, 8): 1}),  # orientation on non-edges
        path_ball(distinct, extra={(12, 9): 1}, chords=[(9, 12)]),  # two predecessors
        path_ball(distinct, extra={(10, 13): 1}, chords=[(10, 13)]),  # a second successor
        path_ball(distinct, radius=2),  # too few rounds
        ball(with_labeling(cycle, distinct, TAG_IDS), 10, 9),  # undirected cycle
        # outside the root's cone, at path vertex 1: the last three
        path_ball({**distinct, 1: (6,)}),  # a non-int identifier
        path_ball({v: i for v, i in distinct.items() if v != 1}),  # no identifier
        path_ball(distinct, extra={(1, 3): 1}, chords=[(1, 3)]),  # a second in-arc
    ]


def assert_rule_matches_oracle(balls, n):
    """The rule equals the oracle on every ball, from the leaf and from the
    parsed hex code; returns the outputs."""
    fast, slow = _cole_vishkin_rule(n), oracle_cole_vishkin_rule(n)
    outputs = []
    for b in balls:
        form = canonical_type(b, cap=len(ball_graph(b).vertices))
        parsed = CanonicalForm.from_hex(form.hex())
        want = slow(form)
        assert fast(form) == want == fast(parsed) == slow(parsed)
        outputs.append(want)
    return outputs


@pytest.mark.parametrize("n", [48, 256, 1024])
def test_cole_vishkin_rule_matches_oracle_on_local_det_balls(n):
    for seed in range(2):
        balls = local_det_balls(n, cole_vishkin_rounds(n), seed)
        assert set(assert_rule_matches_oracle(balls, n)) == {1, 2, 3}


def test_cole_vishkin_rule_matches_oracle_on_random_and_crafted_balls():
    rng = random.Random(20)
    layered = [random_layered_ball(rng) for _ in range(200)]
    oriented = [random_oriented_ball(rng) for _ in range(400)]
    seen = set()
    for n in (4, 8, 48, 1024, 2 ** 20):  # 0 to 5 colour-reduction steps
        assert_rule_matches_oracle(layered, n)
        seen.update(assert_rule_matches_oracle(oriented, n))
        seen.update(assert_rule_matches_oracle(crafted_balls(), n))
    assert seen >= {0, 1, 2, 3}


def test_cole_vishkin_rule_reads_identifiers_outside_the_cone():
    # an identifier outside the root's cone that is not an int, or is
    # missing, still gives 0; a second in-arc there changes no output
    for n in (4, 48, 1024):
        outside = crafted_balls()[-3:]
        assert assert_rule_matches_oracle(outside, n)[:2] == [0, 0]


# The proper-colouring verifier reads the form's leaf; the oracle is the
# verifier as it was written on the decoded graph, with outputs read
# through layer_value.

def oracle_proper_coloring_verify(k):
    def verify(form):
        graph, root = form.decode()
        values = {}
        for v in graph.vertices:
            val = layer_value(graph, v, TAG_OUTPUT)
            if val is None or not isinstance(val, int):
                return 0
            values[v] = val
        if k is not None and not (1 <= values[root] <= k):
            return 0
        for (u, v) in graph.edges:
            if values[u] == values[v]:
                return 0
        return 1

    return verify


def assert_verifier_matches_oracle(forms, palettes=(None, 1, 2, 3, 5)):
    """The verifier equals the oracle on every form, from the leaf and
    from the parsed hex code, at every palette; returns the verdicts."""
    verdicts = set()
    for k in palettes:
        fast, slow = proper_coloring_problem(k).verifier, oracle_proper_coloring_verify(k)
        for form in forms:
            parsed = CanonicalForm.from_hex(form.hex())
            want = slow(form)
            assert fast(form) == want == fast(parsed) == slow(parsed)
            verdicts.add(want)
    return verdicts


def forms_of(balls):
    return [canonical_type(b, cap=max(len(ball_graph(b).vertices), 12)) for b in balls]


@pytest.mark.parametrize("n", [48, 256])
def test_verifier_matches_oracle_on_local_det_verdict_balls(n):
    g = generate("directed_cycle", {"n": n})
    spec = builtin_algorithm("cole_vishkin_3color", {"n": n})
    rng = random.Random(n)
    order = list(g.vertices)
    rng.shuffle(order)
    outputs = det_pipeline(spec.algorithm, spec.problem, g, n=n, rounds=spec.rounds(n),
                           order=order, canon_cap=64).outputs
    # and spoiled: some outputs copy the successor's, leave the palette or go
    spoiled = dict(outputs)
    for v in rng.sample(g.vertices, n // 4):
        spoiled[v] = rng.choice([outputs[(v + 1) % n], 0, 4])
    balls = []
    for outs in (outputs, spoiled, {v: c for v, c in spoiled.items() if v % 7}):
        labeled = with_labeling(g, outs, TAG_OUTPUT)
        balls.extend(ball(labeled, x, 1) for x in labeled.vertices)
    assert assert_verifier_matches_oracle(forms_of(balls)) == {0, 1}


def test_verifier_matches_oracle_on_rand_to_csp_verdict_balls():
    forms = []
    problem = proper_coloring_problem(3)

    def record(form):
        forms.append(form)
        return problem.verifier.rule(form)

    recording = LclProblem(t=1, verifier=replace(problem.verifier, rule=record))
    for n, m, rounds in ((6, 3, 0), (5, 2, 1), (4, 4, 0)):
        compiled, _ = rand_to_csp(seed_echo(), recording, generate("directed_cycle", {"n": n}),
                                  m, rounds)
        stats(compiled)
    assert len(forms) > 20
    assert assert_verifier_matches_oracle(forms) == {0, 1}


@given(st.randoms(use_true_random=False).map(random_layered_ball))
def test_verifier_matches_oracle_on_layered_balls(b):
    assert_verifier_matches_oracle(forms_of([b]))


@pytest.mark.parametrize("outputs, k, want", [
    ({0: 1, 1: 2, 2: 1}, 2, 1),
    ({0: 1, 1: 2}, 2, 0),  # a missing output
    ({0: 1, 1: 2, 2: (1,)}, 2, 0),  # a non-int output
    ({0: 1, 1: 3, 2: 1}, 2, 0),  # the root outside the palette
    ({0: 1, 1: 0, 2: 1}, 2, 0),  # the root below the palette
    ({0: 1, 1: 7, 2: 2}, None, 1),  # no palette bound
    ({0: 2, 1: 7, 2: 2}, None, 1),  # neighbours may share a colour
    ({0: 1, 1: 1, 2: 2}, None, 0),  # adjacent outputs equal
])
def test_verifier_edge_cases_match_oracle(outputs, k, want):
    path = build_graph(range(3), [(0, 1), (1, 2)])
    form = canonical_type(ball(with_labeling(path, outputs, TAG_OUTPUT), 1, 1))
    assert proper_coloring_problem(k).verifier(form) == want
    assert assert_verifier_matches_oracle([form], palettes=(k,)) == {want}


def test_verifier_rejects_a_plain_singleton_label_like_oracle():
    # a label not under an output layer reads as no output
    g = build_graph(range(2), [(0, 1)], {(0,): 1, (1,): 2})
    form = canonical_type(ball(g, 0, 1))
    assert proper_coloring_problem(None).verifier(form) == 0
    assert assert_verifier_matches_oracle([form]) == {0}


def test_trial_coloring_failure_small():
    n, d = 10, 3
    g = generate("random_regular", {"n": n, "d": d}, seed=2)
    alg, rounds, m = trial_coloring(d, n)
    est = estimate_randomized_failure(alg, proper_coloring_problem(d + 1), g, rounds,
                                      m=m, trials=60, seed=3,
                                      canon_cap=2 * rounds + 2)
    # deterministic given the seed; the declared bound is failure <= 1/n
    assert est.rate <= Fraction(1, n)


def test_parallel_resample_on_encoded_instance():
    from locallemma.csp import Constraint, Csp
    from locallemma.graphcsp import encode_graph_csp, parallel_resample
    from locallemma.csp import intersection_graph

    # two disjoint binary constraints, m0 = 2, passing the symmetric check
    c1 = Constraint.explicit((0, 1), 2, [(1, 1)])
    c2 = Constraint.explicit((2, 3), 2, [(2, 2)])
    csp = Csp((0, 1, 2, 3), 2, (c1, c2))
    encoded = encode_graph_csp(intersection_graph(csp), csp)
    n = len(csp.ground)
    alg, rounds, m = parallel_resample(2, n)
    encoded = with_labeling(encoded, {v: v + 1 for v in encoded.vertices}, TAG_IDS)
    failures = 0
    trials = 40
    for t in range(trials):
        rng = derived_rng(9, "pr-test", t)
        theta = {v: rng.randint(1, m) for v in encoded.vertices}
        seeded = with_labeling(encoded, theta, TAG_RAND)
        outputs = run_deterministic(alg, seeded, rounds, canon_cap=64)
        from locallemma.csp import is_solution

        ok, _ = is_solution(csp, outputs)
        if not ok:
            failures += 1
    # declared contract: failure <= 1/n; deterministic given the seeds
    assert failures <= trials // len(csp.ground)
