import random
from dataclasses import replace
from fractions import Fraction
from itertools import product
from math import log2

import pytest
from randomized import estimate_randomized_failure

from locallemma import canonical
from locallemma.algorithms import builtin_algorithm, proper_coloring_problem
from locallemma.canonical import DEFAULT_SIZE_CAP, CanonicalForm, canonical_type
from locallemma.errors import EnumerationCapError, GraphBuildError, PipelineError
from locallemma.generators import generate
from locallemma.graphs import TAG_OUTPUT, TAG_RAND, ball, build_graph, layer_value, with_labeling
from locallemma.localrun import (
    LclProblem,
    LocalAlgorithm,
    RunReport,
    det_pipeline,
    run_deterministic,
    verify_lcl,
)


def degree_rule(form: CanonicalForm) -> int:
    graph, root = form.decode()
    return graph.degree(root)


DEGREE = LocalAlgorithm("root_degree", degree_rule)


def test_zero_ball_sees_no_neighbors():
    g = generate("cycle", {"n": 7})
    outputs = run_deterministic(DEGREE, g, 0)
    assert set(outputs.values()) == {0}


def test_degree_on_cycle_radius_one():
    g = generate("cycle", {"n": 5})
    outputs = run_deterministic(DEGREE, g, 1)
    assert set(outputs.values()) == {2}


def test_run_deterministic_replay():
    g = generate("random_regular", {"n": 10, "d": 3}, seed=5)
    a = run_deterministic(DEGREE, g, 1)
    b = run_deterministic(DEGREE, g, 1)
    assert a == b


def test_locality_far_surgery():
    # modifying the graph outside the radius-T ball never changes the output
    g = generate("path", {"n": 9})
    out1 = run_deterministic(DEGREE, g, 1)
    g2 = build_graph(list(g.vertices) + [100],
                     list(g.edges) + [(8, 100)])
    out2 = run_deterministic(DEGREE, g2, 1)
    for v in range(7):  # vertices whose 1-ball avoids the surgery site
        assert out1[v] == out2[v]


def test_verify_lcl_examples():
    g = generate("cycle", {"n": 4})
    pi = proper_coloring_problem(2)
    good = {0: 1, 1: 2, 2: 1, 3: 2}
    assert verify_lcl(pi, g, good).valid
    edge = build_graph([0, 1], [(0, 1)])
    bad = verify_lcl(proper_coloring_problem(2), edge, {0: 1, 1: 1})
    assert not bad.valid
    assert bad.violating_vertices == [0, 1]


def test_verify_lcl_matches_edge_scan_oracle():
    rng = random.Random(0)
    pi = proper_coloring_problem(3)
    for trial in range(200):
        n = rng.randint(3, 8)
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < 0.4]
        g = build_graph(range(n), edges)
        f = {v: rng.randint(1, 3) for v in g.vertices}
        report = verify_lcl(pi, g, f)
        oracle = all(f[u] != f[v] for (u, v) in g.edges)
        assert report.valid == oracle


def test_det_pipeline_cole_vishkin():
    n = 64
    g = generate("directed_cycle", {"n": n})
    spec = builtin_algorithm("cole_vishkin_3color", {"n": n})
    report = det_pipeline(spec.algorithm, spec.problem, g, n=n,
                          rounds=spec.rounds(n), canon_cap=64)
    assert report.valid
    assert set(report.outputs.values()) <= {1, 2, 3}
    assert report.checks["max_ball_2R"] <= n


def test_det_pipeline_runs_at_the_library_default_cap():
    # the default cap is the one every command uses; a cap of 12 refused
    # this run's balls of 13 vertices
    n = 256
    g = generate("directed_cycle", {"n": n})
    spec = builtin_algorithm("cole_vishkin_3color", {"n": n})
    report = det_pipeline(spec.algorithm, spec.problem, g, n=n, rounds=spec.rounds(n))
    assert report.valid and report.violating_vertices == []


def test_det_pipeline_trivial_lcl():
    g = generate("cycle", {"n": 8})
    always_one = LocalAlgorithm("one", lambda form: 1)
    trivial = LclProblem(t=0, verifier=always_one)
    report = det_pipeline(DEGREE, trivial, g, n=8, rounds=0)
    assert report.valid


def test_det_pipeline_ball_precondition():
    g = generate("cycle", {"n": 4})
    pi = proper_coloring_problem(3)
    with pytest.raises(PipelineError, match=r"^ball size precondition fails: "
                       r"max \|B\(x,2R\)\| = 4 > n = 2$"):
        det_pipeline(DEGREE, pi, g, n=2, rounds=1)


def test_det_pipeline_refuses_a_non_permutation_order():
    g = generate("cycle", {"n": 6})
    pi = proper_coloring_problem(3)
    for order in ([0, 1, 2, 3, 4], [0, 1, 2, 3, 4, 4], [0, 1, 2, 3, 4, 5, 5],
                  [0, 1, 2, 3, 4, 5, 6]):
        with pytest.raises(GraphBuildError, match="order must be a permutation"):
            det_pipeline(DEGREE, pi, g, n=6, rounds=0, order=order)


def seed_echo():
    def rule(form):
        graph, root = form.decode()
        value = layer_value(graph, root, TAG_RAND)
        return value if isinstance(value, int) else 0

    return LocalAlgorithm("theta_echo", rule)


def test_randomized_failure_ignoring_algorithm():
    g = generate("cycle", {"n": 6})
    fixed = {v: v % 2 + 1 for v in g.vertices}

    def rule(form):
        graph, root = form.decode()
        # 2-color by parity of degree-sequence position: use id-free trick
        return 1

    pi = proper_coloring_problem(None)
    const = LocalAlgorithm("const", lambda form: 1)
    est = estimate_randomized_failure(const, pi, build_graph(range(3), []), 0,
                                      m=4, trials=50, seed=1)
    assert est.rate == 0  # edgeless graph: constant coloring is proper


def exact_randomized_failure(alg, problem, graph, rounds, m, cap_bits=20,
                             canon_cap=DEFAULT_SIZE_CAP):
    """Exact failure probability by enumerating all m^|V| seed maps;
    capped at |V| * log2(m) <= cap_bits (test oracle)."""
    n = len(graph.vertices)
    bits = n * log2(m) if m > 1 else 0
    if bits > cap_bits:
        raise EnumerationCapError(bits, cap_bits, what="seed enumeration")
    failures = 0
    total = 0
    for values in product(range(1, m + 1), repeat=n):
        theta = dict(zip(graph.vertices, values))
        attached = with_labeling(graph, theta, TAG_RAND)
        outputs = run_deterministic(alg, attached, rounds, canon_cap=canon_cap)
        report = verify_lcl(problem, graph, outputs, canon_cap=canon_cap)
        total += 1
        if not report.valid:
            failures += 1
    return Fraction(failures, total)


def test_randomized_failure_single_edge_exact_half():
    edge = build_graph([0, 1], [(0, 1)])
    pi = proper_coloring_problem(2)
    exact = exact_randomized_failure(seed_echo(), pi, edge, 0, m=2)
    assert exact == Fraction(1, 2)
    est = estimate_randomized_failure(seed_echo(), pi, edge, 0, m=2,
                                      trials=2000, seed=4)
    assert abs(est.rate - exact) <= est.radius


def test_rule_called_once_per_distinct_form():
    # radius-2 balls of a 9-vertex path: end, next-to-end and interior forms
    g = generate("path", {"n": 9})
    calls = []

    def ball_size(form):
        calls.append(form.code)
        graph, _ = form.decode()
        return len(graph.vertices)

    outputs = run_deterministic(LocalAlgorithm("ball_size", ball_size), g, 2)
    assert sorted(calls) == sorted(set(calls)) and len(calls) == 3
    per_vertex = {x: ball_size(canonical_type(ball(g, x, 2))) for x in g.vertices}
    assert outputs == per_vertex == {0: 3, 1: 4, 2: 5, 3: 5, 4: 5, 5: 5, 6: 5, 7: 4, 8: 3}


def test_local_det_counts_are_pinned(monkeypatch):
    # counts, not clocks: det_pipeline on a directed 256-cycle, with the
    # order test_algorithms' local_det verdict test draws.  Every
    # identifier ball is typed once, and a verdict ball only when its BFS
    # key is new (14 keys for 12 forms); none goes to the bijection search.
    # The rule runs once per distinct form, the verifier at most 12 times
    # and the signature rounds (typed verdict balls whose first colouring
    # ties) at most 7 times.
    n = 256
    g = generate("directed_cycle", {"n": n})
    spec = builtin_algorithm("cole_vishkin_3color", {"n": n})
    order = list(g.vertices)
    random.Random(n).shuffle(order)
    counts = {"_search": 0, "_canonical_map": 0, "_rounds": 0, "rule": 0, "verifier": 0}
    forms = []

    def counting(name, fn, record=None):
        def wrapped(*args, **kwargs):
            counts[name] += 1
            out = fn(*args, **kwargs)
            if record is not None:
                record.append(out[0])
            return out
        return wrapped

    for name in ("_search", "_rounds"):
        monkeypatch.setattr(canonical, name, counting(name, getattr(canonical, name)))
    monkeypatch.setattr(canonical, "_canonical_map",
                        counting("_canonical_map", canonical._canonical_map, forms))
    alg = replace(spec.algorithm, rule=counting("rule", spec.algorithm.rule))
    verifier = spec.problem.verifier
    problem = LclProblem(t=1, verifier=replace(verifier, rule=counting("verifier", verifier.rule)))
    report = det_pipeline(alg, problem, g, n=n, rounds=spec.rounds(n), order=order, canon_cap=64)
    assert report.valid
    # run_deterministic types the identifier balls first, then verify_lcl
    # the verdict balls whose key misses
    assert counts["_canonical_map"] == n + 14 and counts["_search"] == 0
    assert counts["rule"] == len({form.code for form in forms[:n]}) == n
    assert counts["verifier"] == len({form.code for form in forms[n:]}) <= 12
    assert counts["_rounds"] <= 7


def unmemoized_verify(problem, graph, labeling):
    """Oracle: verify_lcl with no BFS-key memo, every verifier ball typed
    by run_deterministic."""
    results = run_deterministic(problem.verifier, with_labeling(graph, labeling, TAG_OUTPUT),
                                problem.t)
    return RunReport(outputs=dict(labeling), rounds_used=problem.t,
                     violating_vertices=sorted(v for v, bit in results.items() if bit != 1))


def test_verify_lcl_matches_the_unmemoized_oracle(monkeypatch):
    # valid and broken labellings of directed cycles, cycles and tori; the
    # torus balls have symmetries, so isomorphic balls in other BFS orders
    # miss the key memo and are typed again
    rng = random.Random(41)
    cases = []
    for kind, params in (("directed_cycle", {"n": 48}), ("cycle", {"n": 30}),
                         ("torus_grid", {"rows": 6, "cols": 6}),
                         ("torus_grid", {"rows": 9, "cols": 12})):
        graph = generate(kind, params)
        cols = params.get("cols", 1)
        proper = {v: (v // cols + v % cols) % 3 + 1 for v in graph.vertices}
        if kind != "torus_grid":
            proper = {v: v % 2 + 1 for v in graph.vertices}
            if len(graph.vertices) % 2:
                proper[graph.vertices[-1]] = 3
        broken = dict(proper)
        for v in rng.sample(graph.vertices, 3):
            broken[v] = rng.randint(1, 4)
        noise = {v: rng.randint(1, 3) for v in graph.vertices}
        cases += [(graph, labels) for labels in (proper, broken, noise)]
    # balls with one distance list and one set of entries, with and without
    # an edge between two neighbours: a 3x3 torus (every radius-1 ball
    # holds two triangles) beside a 4x4 one (none), labelled alike
    small, large = generate("torus_grid", {"rows": 3, "cols": 3}), generate(
        "torus_grid", {"rows": 4, "cols": 4})
    both = build_graph(list(range(9)) + [9 + v for v in large.vertices],
                       list(small.edges) + [(9 + u, 9 + v) for u, v in large.edges])
    cases += [(both, {v: 1 if v in (0, 9) else 2 for v in both.vertices})]
    typed = []
    canonical_map = canonical._canonical_map

    def counting(b, cap):
        typed.append(b)
        return canonical_map(b, cap)

    monkeypatch.setattr(canonical, "_canonical_map", counting)
    for k in (3, 4, None):
        problem = proper_coloring_problem(k)
        for graph, labels in cases:
            got = verify_lcl(problem, graph, labels)
            want = unmemoized_verify(problem, graph, labels)
            assert (got.outputs, got.rounds_used, got.violating_vertices, got.checks) == \
                   (want.outputs, want.rounds_used, want.violating_vertices, want.checks)
    # the proper torus colouring: more keys than forms, fewer than balls
    torus = generate("torus_grid", {"rows": 6, "cols": 6})
    labels = {v: (v // 6 + v % 6) % 3 + 1 for v in torus.vertices}
    attached = with_labeling(torus, labels, TAG_OUTPUT)
    balls = [ball(attached, x, 1) for x in attached.vertices]
    keys = {(b.nbrs, b.entries) for b in balls}
    forms = {canonical_type(b).code for b in balls}
    assert len(forms) < len(keys) < len(balls)
    typed.clear()
    assert verify_lcl(proper_coloring_problem(3), torus, labels).valid
    assert len(typed) == len(keys)
