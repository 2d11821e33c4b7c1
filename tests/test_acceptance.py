"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line with the counts it verified.  Run with `pytest tests/test_acceptance.py -v -s`.

Every inequality asserted here is exact rational arithmetic; square-root
comparisons are in squared form.
"""

import itertools
import random
import time
from fractions import Fraction

import pytest
from randomized import probability_estimate
from reference import branch_trace, random_binary_lowp_csp, v_ids

from locallemma.algorithms import builtin_algorithm, proper_coloring_problem
from locallemma.binary import binary_reduce
from locallemma.compilers import rand_to_csp
from locallemma.connect import Reduction, apply, compose, identity_reduction
from locallemma.csp import (
    Constraint,
    Csp,
    const_assignment,
    discrete_partition,
    is_solution,
    probability,
    restrict_constraint,
    restrict_csp,
    solutions_exhaustive,
    stats,
)
from locallemma.engine import (
    WeightedGroundSet,
    construct_partial,
    cover_family,
    lll_check,
    moser_tardos_solve,
    solve_weighted,
)
from locallemma.errors import StepInfeasibleError
from locallemma.generators import gadget_build, gadget_layout, generate
from locallemma.graphs import build_graph
from locallemma.localrun import LocalAlgorithm, det_pipeline, verify_lcl
from locallemma.graphs import TAG_RAND, layer_value
from locallemma.randgen import (
    random_cover_csp,
    random_measurable_csp,
    random_symmetric_csp,
)
from locallemma.rng import derived_rng


def report(criterion, ok, detail):
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok


# ------------------------------------------------------------ criterion 1

def test_criterion_1_averaging_identities():
    t0 = time.time()
    rng = random.Random(20260810)
    checked_two = checked_concat = checked_avg = 0
    for trial in range(500):
        m = rng.randint(2, 4)
        arity = rng.randint(1, 4)
        dom = tuple(sorted(rng.sample(range(10), arity)))
        body = {tuple(rng.randint(1, m) for _ in dom)
                for _ in range(rng.randint(0, min(4, m ** arity)))}
        c = Constraint.explicit(dom, m, body)
        inside = [rng.choice(dom)] if c.domain and rng.random() < 0.8 else []
        outside = rng.sample(range(10, 16), rng.randint(0, 3))
        A = tuple(inside + outside)[:4]
        lhs = probability(c)
        rhs = sum(probability(restrict_constraint(c, const_assignment(A, i)))
                  for i in range(1, m + 1)) / m
        assert lhs == rhs
        checked_two += 1

        # eq:concat along a random recursion over a discrete partition
        classes = [tuple([x]) for x in c.domain] or [(11,)]
        cur = c
        for cls in classes:
            per_value = [probability(restrict_constraint(cur, const_assignment(cls, i)))
                         for i in range(1, m + 1)]
            assert probability(cur) == sum(per_value) / m
            checked_concat += 1
            cur = restrict_constraint(cur, const_assignment(cls, rng.randint(1, m)))

        # N-fold eq:average by full enumeration over branch words
        if c.domain and m ** len(classes) <= 300:
            total = Fraction(0)
            for word in itertools.product(range(1, m + 1), repeat=len(classes)):
                cw = c
                for cls, i in zip(classes, word):
                    cw = restrict_constraint(cw, const_assignment(cls, i))
                total += probability(cw)
            assert probability(c) == total / (m ** len(classes))
            checked_avg += 1
    elapsed = time.time() - t0
    report(1, elapsed < 10.0,
           f"eq:two x{checked_two}, eq:concat x{checked_concat}, "
           f"eq:average x{checked_avg} exact in {elapsed:.1f}s")


# ------------------------------------------------------------ criteria 2+3

@pytest.fixture(scope="module")
def partial_runs():
    runs = []
    seed = 0
    while len(runs) < 50:
        csp = random_binary_lowp_csp(seed, max_ground=60, max_degree=4)
        seed += 1
        st = stats(csp)
        if st.p * (st.d + 1) ** 2 > Fraction(1353, 10_000) / 4:
            continue
        red = identity_reduction(csp)
        wts = WeightedGroundSet.uniform(csp.ground)
        h, trace = construct_partial(csp, red, wts)
        runs.append((csp, red, st, h, trace))
    return runs


def test_criterion_2_partial_solution_guarantees(partial_runs):
    t0 = time.time()
    for csp, red, st, h, trace in partial_runs:
        n = csp.m
        restricted = restrict_csp(csp, h)
        for c in restricted.constraints:
            pr = probability(c)
            assert pr * pr <= Fraction(n * n) * st.p
        shortfall = 1 - trace.covered_weight
        d_rho = red.degree()
        assert shortfall <= 0 or shortfall * shortfall <= Fraction(d_rho * d_rho) * st.p
    elapsed = time.time() - t0
    report(2, elapsed < 60.0,
           f"{len(partial_runs)} binary instances, probability and coverage "
           f"bounds exact in {elapsed:.1f}s")


def _replay_trace(csp, st, classes, chosen, dangerous, h):
    """Replay the recursion; returns the number of frozen-restriction
    equalities verified (a dangerous constraint's restriction must never
    change at later levels)."""
    freezes = 0
    current = list(csp.constraints)
    frozen = [False] * len(current)
    partial = {}
    for level, (cls, value) in enumerate(zip(classes, chosen)):
        assert dangerous[level] <= dangerous[level + 1]   # D(u) subset of D(w)
        fresh = [x for x in cls if x not in dangerous[level]]
        g = const_assignment(fresh, value)
        for i, c in enumerate(current):
            if frozen[i]:
                before = current[i]
                after = restrict_constraint(before, g)
                assert after.domain == before.domain
                assert after.materialize().members == before.materialize().members
                freezes += 1
                continue
            current[i] = restrict_constraint(c, g)
            pr = probability(current[i])
            if pr * pr > st.p:
                frozen[i] = True
        partial.update(g)
    final = dangerous[-1]
    for x in csp.ground:
        if x not in final:
            assert x in h                       # dom(h_w) covers Y \ D(w)
    assert partial == h
    return freezes


def test_criterion_3_monotone_and_freezing(partial_runs):
    freezes = 0
    for csp, red, st, h, trace in partial_runs:
        freezes += _replay_trace(csp, st, trace.classes, trace.chosen,
                                 trace.dangerous, h)
    # adversarial branch words that spell out a forbidden pattern force the
    # constraint past sqrt(p), exercising the freezing path for real
    forced = 0
    for csp, red, st, _, _ in partial_runs[:12]:
        target = max(csp.constraints, key=lambda c: c.arity())
        member = sorted(target.members)[0]
        wanted = dict(zip(target.domain, member))
        classes = discrete_partition(csp)
        word = []
        for cls in classes:
            hits = [wanted[x] for x in cls if x in wanted]
            word.append(hits[0] if hits else 1)
        h_w, dangerous = branch_trace(csp, word)
        assert any(dangerous)                    # the spelled-out constraint froze
        forced += _replay_trace(csp, st, classes, word, dangerous, h_w)
    report(3, forced > 0,
           f"{len(partial_runs)} derandomized traces and 12 adversarial "
           f"branch words replayed; {freezes + forced} frozen-restriction "
           f"equalities ({forced} on forced-dangerous paths)")


# ------------------------------------------------------------ criterion 4

def test_criterion_4_binary_lemma():
    rng = random.Random(4)
    checked = decoded = 0
    while checked < 100:
        n_range = rng.choice([3, 5, 6])
        n_ground = rng.randint(2, 5)
        ground = tuple(range(n_ground))
        constraints = []
        for _ in range(rng.randint(1, 3)):
            arity = rng.randint(1, min(3, n_ground))
            dom = tuple(sorted(rng.sample(ground, arity)))
            body = {tuple(rng.randint(1, n_range) for _ in dom)
                    for _ in range(rng.randint(0, 3))}
            constraints.append(Constraint.explicit(dom, n_range, body))
        csp = Csp(ground, n_range, tuple(constraints))
        eps = rng.choice([Fraction(1, 2), Fraction(1, 10)])
        encoded, red = binary_reduce(csp, eps)
        st, est = stats(csp), stats(encoded)
        assert est.p <= (1 + eps) * st.p
        assert est.d == st.d
        checked += 1
        if len(encoded.ground) <= 12:
            for sol in solutions_exhaustive(encoded):
                out = apply(red.connection, sol)
                assert is_solution(csp, out)[0]
            decoded += 1
    report(4, True, f"{checked} reductions with p(D) <= (1+eps) p(C) and "
                    f"d(D) = d(C) exactly; {decoded} decoded exhaustively")


# ------------------------------------------------------------ criterion 5

def test_criterion_5_composition_bounds():
    rng = random.Random(5)

    def random_conn(source, target, width):
        det, rules = {}, {}
        for x in source:
            s = tuple(sorted(rng.sample(target, min(width, len(target)))))
            det[x] = frozenset(s)

            def rule_for(s=s):
                return lambda view: (1 + sum(view.get(y, 0) for y in s) % 3
                                     if all(y in view for y in s) else None)

            rules[x] = rule_for()
        from locallemma.connect import Connection

        return Connection(source=tuple(source), target=tuple(target),
                          det_sets=det, rules=rules)

    checked = 0
    for trial in range(100):
        rho = random_conn(range(4), range(6), rng.randint(1, 3))
        sigma = random_conn(range(6), range(9), rng.randint(1, 3))
        comp = compose(rho, sigma)
        assert comp.width() <= rho.width() * sigma.width()
        csp = Csp(tuple(range(9)), 3, tuple(
            Constraint.explicit(tuple(sorted(rng.sample(range(9), 2))), 3, [(1, 1)])
            for _ in range(rng.randint(1, 4))))
        red_sigma = Reduction(sigma, csp)
        red_comp = Reduction(comp, csp)
        assert red_comp.degree() <= rho.width() * red_sigma.degree()
        checked += 1
    report(5, True, f"{checked} compositions within width and degree bounds")


# ------------------------------------------------------------ criterion 6

def seed_echo():
    def rule(form):
        graph, root = form.decode()
        value = layer_value(graph, root, TAG_RAND)
        return value if isinstance(value, int) else 0

    return LocalAlgorithm("theta_echo", rule)


def flip_on_conflict():
    # T = 1: output theta(x), flipped when it collides with the successor's
    from test_algorithms import successor_map

    def rule(form):
        graph, root = form.decode()
        mine = layer_value(graph, root, TAG_RAND)
        if not isinstance(mine, int):
            return 0
        succ = successor_map(graph).get(root)
        if succ is None:
            return mine
        theirs = layer_value(graph, succ, TAG_RAND)
        return 3 - mine if theirs == mine else mine

    return LocalAlgorithm("flip_on_conflict", rule)


def test_criterion_6_rand_to_lll():
    pi = proper_coloring_problem(2)
    algs = [(seed_echo(), 0), (flip_on_conflict(), 1)]
    checked_p = decoded = 0
    for n in (6, 8):
        graph = generate("directed_cycle", {"n": n})
        for alg, rounds in algs:
            compiled, decoder = rand_to_csp(alg, pi, graph, m=2, rounds=rounds)
            for c in compiled.constraints:
                exact = probability(c)
                est = probability_estimate(c, trials=1200, seed=n * 10 + rounds)
                assert abs(est.value - exact) <= 3 * Fraction(est.radius).limit_denominator(10**6)
                checked_p += 1
            for theta in solutions_exhaustive(compiled):
                out = apply(decoder, theta)
                assert len(out) == n
                assert verify_lcl(pi, graph, out).valid
                decoded += 1
    report(6, True, f"{checked_p} exact probabilities within 3 Monte Carlo "
                    f"radii; {decoded} solutions decoded to valid colorings")


# ------------------------------------------------------------ criterion 7

def test_criterion_7_det_pipeline():
    runs = 0
    for n in (64, 128, 256, 512):
        graph = generate("directed_cycle", {"n": n})
        spec = builtin_algorithm("cole_vishkin_3color", {"n": n})
        rounds = spec.rounds(n)
        for trial in range(10):
            rng = derived_rng(7, "order", n, trial)
            order = list(graph.vertices)
            rng.shuffle(order)
            result = det_pipeline(spec.algorithm, spec.problem, graph, n=n,
                                  rounds=rounds, order=order, canon_cap=64)
            assert result.valid
            assert set(result.outputs.values()) <= {1, 2, 3}
            assert result.checks["max_ball_2R"] <= n
            assert result.checks["identifier_colors"] <= n
            runs += 1
    report(7, True, f"{runs} pipeline runs valid (cycles 64..512, 10 greedy "
                    f"orders each, ball preconditions reported)")


# ------------------------------------------------------------ criterion 8

def test_criterion_8_moser_tardos():
    capped = invalid = 0
    for seed in range(100):
        csp = random_symmetric_csp(seed)
        verdict = lll_check(csp, "symmetric")
        assert verdict.holds
        result = moser_tardos_solve(csp, seed=seed, cap=50 * len(csp.constraints))
        if result.capped:
            capped += 1
            continue
        if not is_solution(csp, result.assignment)[0]:
            invalid += 1
    report(8, capped == 0 and invalid == 0,
           f"100 instances, {capped} cap-outs, {invalid} invalid solutions")


# ------------------------------------------------------------ criterion 9

def test_criterion_9_weighted_solver():
    completed = infeasible = 0
    failures = []
    total = 20
    for i in range(total):
        hard = i % 10 == 9
        csp = random_measurable_csp(900 + i, max_ground=200, hard=hard)
        assert lll_check(csp, "measurable").holds
        wts = WeightedGroundSet.uniform(csp.ground)
        minw = wts.min_positive()
        k = 0
        while (1 << k) * minw < 1:
            k += 1
        budget = k + 1
        try:
            result = solve_weighted(csp, wts, seed=i)
        except StepInfeasibleError as exc:
            infeasible += 1
            continue
        assert result.iterations <= budget
        for step_report in result.step_reports:
            assert Fraction(step_report["covered_fraction_of_remaining"]) >= Fraction(1, 2)
        if not is_solution(csp, result.assignment)[0]:
            failures.append(i)
            continue
        completed += 1
    ok = not failures and completed >= 0.8 * total
    report(9, ok, f"{completed}/{total} completed within budget, "
                  f"{infeasible} reported infeasible, {len(failures)} invalid")


# ------------------------------------------------------------ criterion 10

def test_criterion_10_cover_family():
    instances = recertified_ineq = recertified_witness = 0
    for seed in range(20):
        csp = random_cover_csp(1000 + seed, max_levels=12)
        result = cover_family(csp, seed=seed, budget=1 << 14)
        union = set()
        for member in result.members:
            union.update(member.keys())
        assert union == set(csp.ground)
        for x in csp.ground:
            assert result.per_element_counts[x] >= 2 ** (result.levels - 1)
        for cert in result.certificates:
            if cert["residual_(8,2^-15)"]:
                recertified_ineq += 1
            else:
                assert cert["solution_witness"]
                recertified_witness += 1
        instances += 1
    report(10, True,
           f"{instances} families cover their ground sets with per-element "
           f"counts >= 2^(N-1); residuals: {recertified_ineq} by inequality, "
           f"{recertified_witness} by solution witness")


# ------------------------------------------------------------ criterion 11

def _k_colorable_masks(adj, n, k):
    """Whether the graph on 0..n-1 with neighbour bitmasks `adj` has a
    proper k-coloring.  Backtracking that colors next the uncolored vertex
    with the fewest colors left (then the one of highest degree), stops as
    soon as an uncolored vertex has none left, and tries at most one color
    that no vertex has yet, since unused colors are interchangeable."""
    degree = [bin(a).count("1") for a in adj]
    blocked = [0] * n        # bit c: color c is on a colored neighbour
    uncolored = set(range(n))

    def assign(used):
        if not uncolored:
            return True
        v = min(uncolored, key=lambda u: (-bin(blocked[u]).count("1"), -degree[u], u))
        uncolored.remove(v)
        for c in range(1, min(used + 1, k) + 1):
            bit = 1 << c
            if blocked[v] & bit:
                continue
            newly, dead = [], False
            rest = adj[v]
            while rest:
                low = rest & -rest
                rest ^= low
                w = low.bit_length() - 1
                if w in uncolored and not blocked[w] & bit:
                    blocked[w] |= bit
                    newly.append(w)
                    dead = dead or bin(blocked[w]).count("1") == k
            if not dead and assign(max(used, c)):
                return True
            for w in newly:
                blocked[w] ^= bit
        uncolored.add(v)
        return False

    return assign(0)


def test_criterion_11_gadget():
    pairs = {n: list(itertools.combinations(range(n), 2)) for n in range(2, 7)}
    feasible = chromatic_checked = converse_checked = 0
    for n in range(2, 7):
        for mask in range(1 << len(pairs[n])):
            adj = [0] * n
            edges = []
            for i, (u, v) in enumerate(pairs[n]):
                if mask >> i & 1:
                    adj[u] |= 1 << v
                    adj[v] |= 1 << u
                    edges.append((u, v))
            d = max((bin(a).count("1") for a in adj), default=0)
            for k in range(2, d + 1):
                c = d - k
                if c * (c + 1) < d:
                    continue
                graph = build_graph(range(n), edges)
                layout = gadget_layout(graph, k)
                gadget = gadget_build(graph, k)
                assert gadget.max_degree() <= d - 1
                for vid in v_ids(layout):
                    assert gadget.degree(vid) == d - 1
                feasible += 1
                g_colorable = _k_colorable_masks(adj, n, k)
                # the converse (G not k-colorable => H not k-colorable) is
                # checked for n <= 5 only: proving the n = 6 gadgets
                # non-colorable with this backtracking search takes minutes
                if not g_colorable and n > 5:
                    continue
                gadj = {v: 0 for v in gadget.vertices}
                for (u, v) in gadget.edges:
                    gadj[u] |= 1 << v
                    gadj[v] |= 1 << u
                h_colorable = _k_colorable_masks([gadj[v] for v in gadget.vertices],
                                                 len(gadget.vertices), k)
                assert h_colorable == g_colorable
                if g_colorable:
                    chromatic_checked += 1
                else:
                    converse_checked += 1
    report(11, feasible > 0 and converse_checked > 0,
           f"{feasible} feasible (graph, k) pairs: degree identities exact; "
           f"chromatic preservation brute-checked on {chromatic_checked}, "
           f"non-colorability on {converse_checked} (n <= 5)")
