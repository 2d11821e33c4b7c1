import random

import pytest

from locallemma.connect import (
    Composed,
    Connection,
    Identity,
    Reduction,
    Residual,
    apply,
    compose,
    identity_connection,
    identity_reduction,
    pull_partial,
)
from locallemma.csp import Constraint, Csp, is_solution, restrict_csp, solutions_exhaustive
from reference import random_small_csp


def validate_reduction(red: Reduction, source: Csp, cap_bits: int = 16,
                       limit: int = 512) -> Reduction:
    """Solve the target exhaustively (capped) and check that every decoded
    solution solves the source; returns the reduction."""
    checked = 0
    for f in solutions_exhaustive(red.target, cap_bits):
        decoded = apply(red.connection, f)
        missing = [x for x in red.connection.source if x not in decoded]
        if missing:
            raise AssertionError(f"decoded solution not total at {missing[:5]}")
        ok, violated = is_solution(source, decoded)
        if not ok:
            raise AssertionError(f"decoded solution violates constraints {violated[:5]}")
        checked += 1
        if checked >= limit:
            break
    return red


def random_connection(rng, source, target, width=2):
    det_sets = {}
    rules = {}
    for x in source:
        s = tuple(sorted(rng.sample(target, min(width, len(target)))))
        det_sets[x] = frozenset(s)

        def rule_for(s=s):
            def rule(view):
                if any(y not in view for y in s):
                    return None
                return 1 + sum(view[y] for y in s) % 3
            return rule

        rules[x] = rule_for()
    return Connection(source=tuple(source), det_sets=det_sets, rules=rules)


def test_identity_apply():
    conn = identity_connection((0, 1, 2))
    f = {0: 2, 2: 1}
    assert apply(conn, f) == f


def test_empty_view_with_full_width_rule():
    rng = random.Random(1)
    conn = random_connection(rng, range(3), range(5))
    assert apply(conn, {}) == {}


def test_locality_of_apply():
    # values outside S(x) never matter
    rng = random.Random(2)
    for trial in range(100):
        conn = random_connection(rng, range(4), range(6))
        f = {y: rng.randint(1, 3) for y in range(6) if rng.random() < 0.7}
        out = apply(conn, f)
        for x in conn.source:
            restricted = {y: v for y, v in f.items() if y in conn.det_sets[x]}
            alone = conn.rules[x](restricted)
            assert out.get(x) == (alone if alone is not None else None)


def test_monotonicity_on_extension_chains():
    rng = random.Random(3)
    for trial in range(100):
        conn = random_connection(rng, range(4), range(6))
        items = [(y, rng.randint(1, 3)) for y in range(6)]
        rng.shuffle(items)
        f = {}
        prev = apply(conn, f)
        for y, v in items:
            f[y] = v
            cur = apply(conn, f)
            for x, value in prev.items():
                assert cur[x] == value
            prev = cur


def nested_compose(rho, sigma):
    """compose as it stood before identity was its unit: every composed
    rule decodes its view through sigma's rules, then applies rho's."""
    det_sets, rules = {}, {}
    for x in rho.source:
        inner = tuple(rho.det_sets[x])
        det_sets[x] = frozenset().union(*(sigma.det_sets[y] for y in inner))

        def rule(view, x=x, inner=inner):
            mid = {}
            for y in inner:
                val = sigma.rules[y]({z: view[z] for z in sigma.det_sets[y] if z in view})
                if val is not None:
                    mid[y] = val
            return rho.rules[x](mid)

        rules[x] = rule
    return Connection(source=rho.source, det_sets=det_sets, rules=rules)


def test_compose_identity_neutral():
    # identity on either side: the other side's sets and rule objects, and
    # the nested composition's outputs
    rng = random.Random(4)
    for trial in range(20):
        sigma = random_connection(rng, range(3), range(5))
        rho = random_connection(rng, range(2), range(3))
        identity = identity_connection((0, 1, 2))
        for outer, inner, kept in ((identity, sigma, sigma), (rho, identity, rho)):
            comp, want = compose(outer, inner), nested_compose(outer, inner)
            assert all(comp.rules[x] is kept.rules[x] for x in comp.source)
            assert comp.source == want.source
            assert dict(comp.det_sets) == want.det_sets
            for _ in range(20):
                f = {y: rng.randint(1, 3) for y in range(5) if rng.random() < 0.6}
                assert apply(comp, f) == apply(want, f)
                for x in comp.source:
                    view = {y: v for y, v in f.items() if y in comp.det_sets[x]}
                    assert comp.rules[x](view) == want.rules[x](view)
        f = {y: rng.randint(1, 3) for y in range(5) if rng.random() < 0.8}
        assert apply(compose(identity_connection((0, 1, 2)), sigma), f) == apply(sigma, f)


def test_compose_width_degree_bounds():
    rng = random.Random(5)
    for trial in range(100):
        rho = random_connection(rng, range(3), range(5), width=rng.randint(1, 3))
        sigma = random_connection(rng, range(5), range(8), width=rng.randint(1, 3))
        comp = compose(rho, sigma)
        assert comp.width() <= rho.width() * sigma.width()
        csp = random_small_csp(trial, max_ground=8)
        target = Csp(tuple(range(8)), csp.m, tuple(
            c for c in csp.constraints if set(c.domain) <= set(range(8))))
        red_sigma = Reduction(sigma, target)
        red_comp = Reduction(comp, target)
        assert red_comp.degree() <= rho.width() * red_sigma.degree()


def test_compose_bounds_tight_for_disjoint_sets():
    # S_rho(x) disjointly covering distinct sigma sources gives equality
    from locallemma.connect import Connection

    rho = Connection(
        source=(0,),
        det_sets={0: frozenset([0, 1])},
        rules={0: lambda view: view.get(0)},
    )
    sigma = Connection(
        source=(0, 1),
        det_sets={0: frozenset([0, 1]), 1: frozenset([2, 3])},
        rules={0: lambda view: view.get(0), 1: lambda view: view.get(2)},
    )
    comp = compose(rho, sigma)
    assert comp.width() == rho.width() * sigma.width() == 4


def test_compose_associative_on_outputs():
    rng = random.Random(6)
    a = random_connection(rng, range(2), range(4))
    b = random_connection(rng, range(4), range(6))
    c = random_connection(rng, range(6), range(8))
    left = compose(compose(a, b), c)
    right = compose(a, compose(b, c))
    for trial in range(30):
        f = {y: rng.randint(1, 3) for y in range(8) if rng.random() < 0.8}
        assert apply(left, f) == apply(right, f)


def test_pull_partial_identity_cases():
    csp = random_small_csp(11, max_ground=4, max_m=2)
    red = identity_reduction(csp)
    g0, residual = pull_partial(red, {})
    assert g0 == {}
    assert tuple(residual.connection.source) == tuple(csp.ground)

    for sol in solutions_exhaustive(csp):
        decoded = apply(red.connection, sol)
        assert is_solution(csp, decoded)[0]
        break


def test_pull_partial_residual_end_to_end():
    # residual reduction applied to a solution of target/g solves source/g
    rng = random.Random(9)
    hits = 0
    for seed in range(60):
        csp = random_small_csp(seed, max_ground=4, max_m=2)
        red = identity_reduction(csp)
        sols = list(solutions_exhaustive(csp))
        if not sols:
            continue
        g = {x: v for x, v in list(sols[0].items())[:2]}
        g_src, residual = pull_partial(red, g)
        rest = restrict_csp(csp, g_src)
        for h in solutions_exhaustive(residual.target):
            decoded = apply(residual.connection, h)
            ok, _ = is_solution(rest, decoded)
            assert ok
            hits += 1
            break
    assert hits >= 20


def test_validate_reduction_returns_checked_reduction():
    csp = random_small_csp(21, max_ground=4, max_m=2)
    red = identity_reduction(csp)
    assert validate_reduction(red, csp) is red
    # a target that drops the source's constraint decodes to a violation
    ground = (0, 1)
    source = Csp(ground, 2, (Constraint.explicit(ground, 2, [(1, 1)]),))
    with pytest.raises(AssertionError, match="violates constraints"):
        validate_reduction(Reduction(identity_connection(ground), Csp(ground, 2, ())), source)


def test_determining_sets_minimal_spot_check():
    # dropping any element of S(x) changes or undefines the output on some view
    from fractions import Fraction

    from locallemma.binary import binary_reduce
    from reference import random_small_csp

    csp = random_small_csp(33, max_ground=3, max_arity=2, m_choices=(3,))
    _, red = binary_reduce(csp, Fraction(1, 2))
    conn = red.connection
    full = {z: 1 for z in red.target.ground}
    for x in conn.source:
        base = conn.rules[x]({z: full[z] for z in conn.det_sets[x]})
        assert base is not None
        for dropped in conn.det_sets[x]:
            view = {z: full[z] for z in conn.det_sets[x] if z != dropped}
            assert conn.rules[x](view) is None  # the bit is genuinely needed


def closure_pull_partial(red, g):
    """pull_partial as it stood with rules as closures: each remaining
    rule wraps the one before it, merging g's values into its view."""
    conn = red.connection
    g_source = apply(conn, g)
    residual_target = restrict_csp(red.target, g)
    remaining = tuple(x for x in conn.source if x not in g_source)
    fixed = dict(g)
    det_sets, rules = {}, {}
    for x in remaining:
        det_sets[x] = frozenset(y for y in conn.det_sets[x] if y not in fixed)

        def rule(view, x=x):
            merged = {y: fixed[y] for y in conn.det_sets[x] if y in fixed}
            merged.update(view)
            return conn.rules[x](merged)

        rules[x] = rule
    return g_source, Reduction(Connection(remaining, det_sets, rules), residual_target)


def random_views(rng, ground, m, count=12):
    """Partial views (each element kept with probability 0.6) and total ones."""
    for k in range(count):
        keep = 0.6 if k % 3 else 1.0
        yield {y: rng.randint(1, m) for y in ground if rng.random() < keep}


def assert_same_connection(conn, want, ground, rng, m):
    assert conn.source == want.source
    assert dict(conn.det_sets) == dict(want.det_sets)
    for f in random_views(rng, ground, m):
        assert apply(conn, f) == apply(want, f)
        for x in conn.source:
            view = {y: v for y, v in f.items() if y in conn.det_sets[x]}
            assert conn.rules[x](view) == want.rules[x](view)


def pull_chain_reductions():
    """Reductions whose rules are records (binary decoders, identities) and
    closures (random connections), each with a CSP on its target."""
    from fractions import Fraction

    from locallemma.binary import binary_reduce

    rng = random.Random(12)
    for seed in range(12):
        csp = random_small_csp(seed, max_ground=4, max_arity=2, m_choices=(3, 5))
        yield binary_reduce(csp, Fraction(1, 2))[1]
        yield identity_reduction(random_small_csp(seed, max_ground=6, m_choices=(2, 3)))
        conn = random_connection(rng, range(4), range(6))
        target = random_small_csp(seed, max_ground=6, max_m=3)
        if target.ground == tuple(range(6)):
            yield Reduction(conn, target)


def test_pull_partial_matches_closure_chain():
    # three pull-backs in a row: g_source, the residual target, the sets
    # and every rule's output equal the closure chain's on partial and
    # total views, and every rule is one Residual over the first rule
    rng = random.Random(13)
    chains = 0
    for red in pull_chain_reductions():
        first, dets, want = red.connection.rules, red.connection.det_sets, red
        for _ in range(3):
            m = red.target.m
            g = {y: rng.randint(1, m) for y in red.target.ground if rng.random() < 0.3}
            g_source, red = pull_partial(red, g)
            want_source, want = closure_pull_partial(want, g)
            assert g_source == want_source and red.target == want.target
            assert_same_connection(red.connection, want.connection, red.target.ground, rng, m)
            for x in red.connection.source:
                rule = red.connection.rules[x]
                assert type(rule) is Residual and rule.base is first[x]
                fixed = {y for y, _ in rule.fixed}
                assert red.connection.det_sets[x] | fixed == dets[x]
                assert red.connection.det_sets[x].isdisjoint(fixed)
        chains += 1
    assert chains >= 24


def mixed_connection(rng, source, target, identities=0.4):
    """A connection whose rules are `Identity` records on singletons with
    probability `identities` (most reading the element itself), else
    random closures."""
    conn = random_connection(rng, source, target)
    det_sets, rules = dict(conn.det_sets), dict(conn.rules)
    for x in source:
        if rng.random() < identities:
            y = x if x in target and rng.random() < 0.7 else rng.choice(list(target))
            det_sets[x], rules[x] = frozenset([y]), Identity(y)
    return Connection(tuple(source), det_sets, rules)


def test_compose_matches_nested_compose_rule_by_rule():
    # identities on some elements of either side: equal sets and outputs,
    # an identity's partner side kept as is, and no Composed around one
    rng = random.Random(14)
    kept = {"outer": 0, "inner": 0, "composed": 0}
    for trial in range(60):
        rho = mixed_connection(rng, range(4), range(6))
        sigma = mixed_connection(rng, range(6), range(9), identities=0.7)
        comp = compose(rho, sigma)
        assert_same_connection(comp, nested_compose(rho, sigma), tuple(range(9)), rng, 3)
        for x in rho.source:
            rule, inner = rho.rules[x], rho.det_sets[x]
            if rule == Identity(min(inner)) and len(inner) == 1:
                assert comp.rules[x] is sigma.rules[min(inner)]
                kept["inner"] += 1
            elif all(sigma.rules[y] == Identity(y) and sigma.det_sets[y] == {y}
                     for y in inner):
                assert comp.rules[x] is rule and comp.det_sets[x] == inner
                kept["outer"] += 1
            else:
                assert type(comp.rules[x]) is Composed and comp.rules[x].outer is rule
                kept["composed"] += 1
    assert min(kept.values()) >= 20
