"""Restricted predicate bodies as data (`csp.Fixed`), against the closure
code they replaced: the self-rebuilding binary encoding and the
closure-wrapping `restrict_constraint`, kept here as oracles."""

import random
import sys
from fractions import Fraction
from itertools import product
from pathlib import Path
from typing import Dict, Tuple

from hypothesis import given, strategies as st

import locallemma
from locallemma.binary import BlockCode, _encode_constraint, choose_bits, choose_delta
from locallemma.csp import Constraint, Csp, Fixed, probability, restrict_constraint
from locallemma.engine import EPS_BINARY
from locallemma.randgen import random_cover_csp, random_measurable_csp

ROOT = Path(__file__).resolve().parent.parent


# ---------------------------------------------------------------- oracles

def encode_oracle(src: Constraint, code: BlockCode, zids: Dict[Tuple[int, int], int],
                  fixed: Dict[int, Dict[int, int]]):
    """The former `_encode_constraint`: the binary view of `src` with some
    bit positions fixed (source element -> {bit position -> 0/1}), rebuilt
    from scratch for every restriction.  Returns (constraint, hook), where
    hook(overlap) restricts it (the former `Constraint.restrict_hook`)."""
    n_bits = code.N
    free_positions = []
    for y in src.domain:
        fy = fixed.get(y, {})
        for j in range(1, n_bits + 1):
            if j not in fy:
                free_positions.append((y, j))
    domain = tuple(sorted(zids[pos] for pos in free_positions))
    pos_of = {zids[pos]: pos for pos in free_positions}

    def decode_with(values: Tuple[int, ...]):
        merged: Dict[int, Dict[int, int]] = {y: dict(fixed.get(y, {})) for y in src.domain}
        for z, v in zip(domain, values):
            y, j = pos_of[z]
            merged[y][j] = v - 1
        out = []
        for y in src.domain:
            bits = tuple(merged[y][j] + 1 for j in range(1, n_bits + 1))
            out.append(code.value_of(bits))
        return tuple(out)

    def predicate(values: Tuple[int, ...]) -> bool:
        return src.contains(decode_with(values))

    count = None
    if src.members is not None:
        count = 0
        for member in src.members:
            prod = 1
            for y, value in zip(src.domain, member):
                prod *= code.consistent_count(value, fixed.get(y, {}))
                if prod == 0:
                    break
            count += prod

    def restrict_hook(overlap: Dict[int, int]):
        new_fixed = {y: dict(bits) for y, bits in fixed.items()}
        for z, v in overlap.items():
            y, j = pos_of[z]
            new_fixed.setdefault(y, {})[j] = v - 1
        return encode_oracle(src, code, zids, new_fixed)

    if count == 0 and src.members is not None:
        return Constraint.explicit((), 2, []), None
    if not domain:
        violated = src.contains(decode_with(()))
        return Constraint.explicit((), 2, [()] if violated else []), None
    return (Constraint.from_predicate(domain, 2, predicate, count=count,
                                      tag=src.tag or "binary"), restrict_hook)


def restrict_oracle(constraint: Constraint, g, hook=None):
    """The former `restrict_constraint`, with the hook passed beside the
    constraint: (restricted constraint, its hook).  A predicate body is
    wrapped in one more closure per restriction."""
    overlap = {x: g[x] for x in constraint.domain if x in g}
    if not overlap:
        return constraint, hook
    if hook is not None:
        return hook(overlap)
    keep = [i for i, x in enumerate(constraint.domain) if x not in overlap]
    new_domain = tuple(constraint.domain[i] for i in keep)
    if constraint.members is not None:
        body = set()
        for member in constraint.members:
            if all(member[i] == overlap[x] for i, x in enumerate(constraint.domain)
                   if x in overlap):
                body.add(tuple(member[i] for i in keep))
        return Constraint.explicit(new_domain, constraint.m, body), None
    if not new_domain:
        full = tuple(overlap[x] for x in constraint.domain)
        return Constraint.explicit((), constraint.m,
                                   [()] if constraint.predicate(full) else []), None
    fixed = dict(overlap)
    base = constraint

    def restricted(values: Tuple[int, ...]) -> bool:
        merged = dict(zip(new_domain, values))
        merged.update(fixed)
        return base.predicate(tuple(merged[x] for x in base.domain))

    return Constraint.from_predicate(new_domain, constraint.m, restricted,
                                     tag=constraint.tag), None


# ---------------------------------------------------------------- helpers

def encoding_of(csp: Csp):
    """The block code and bit ids `binary_reduce` uses for `csp`."""
    N = choose_bits(csp.m, choose_delta(EPS_BINARY, csp.bound()))
    zids = {(y, j): i * N + (j - 1) for i, y in enumerate(csp.ground) for j in range(1, N + 1)}
    return BlockCode(csp.m, N), zids


def assert_same_constraint(new: Constraint, old: Constraint, rng: random.Random):
    """Same domain, tag, count and probability; the same members, on every
    tuple up to 2^12 of them and on random tuples above that."""
    assert (new.domain, new.tag, new.count) == (old.domain, old.tag, old.count)
    assert (new.members is None) == (old.members is None)
    if new.members is not None:
        assert new.members == old.members
        return
    if new.count is not None:
        assert probability(new) == probability(old)
    arity = new.arity()
    if new.m ** arity <= 1 << 12:
        tuples = product(range(1, new.m + 1), repeat=arity)
    else:
        tuples = (tuple(rng.randint(1, new.m) for _ in range(arity)) for _ in range(24))
    for values in tuples:
        assert new.contains(values) == old.contains(values), values


def check_bit_chains(csp: Csp, rng: random.Random):
    """Each constraint's binary view, restricted one random bit at a time
    to the end, against the rebuilding oracle at every step."""
    code, zids = encoding_of(csp)
    for src in csp.constraints:
        new = _encode_constraint(src, code, zids)
        old, hook = encode_oracle(src, code, zids, {})
        assert_same_constraint(new, old, rng)
        order = list(new.domain)
        rng.shuffle(order)
        for z in order:
            g = {z: rng.randint(1, 2)}
            new = restrict_constraint(new, g)
            old, hook = restrict_oracle(old, g, hook)
            assert_same_constraint(new, old, rng)


@st.composite
def explicit_csps(draw):
    n = draw(st.integers(1, 5))
    m = draw(st.integers(2, 6))
    ground = tuple(range(n))
    constraints = []
    for _ in range(draw(st.integers(0, 3))):
        dom = tuple(sorted(draw(st.sets(st.sampled_from(ground), min_size=1,
                                        max_size=min(3, n)))))
        body = draw(st.sets(st.tuples(*[st.integers(1, m)] * len(dom)), max_size=5))
        constraints.append(Constraint.explicit(dom, m, body))
    return Csp(ground, m, tuple(constraints))


def lll_solve_round_zero(monkeypatch):
    """The CSPs of the `lll_solve` benchmark's round 0 at seed 0, built by
    the generator calls of `perfbench/workloads.py` and checked equal to
    the CSPs its ops pass to `solve_weighted` and `cover_family`."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    rng = workloads.round_rng("lll_solve", 0, 0)
    weighted = {}
    while len(weighted) < len(workloads.LllSolve.WEIGHTED):
        s = rng.randrange(10**6)
        if "hard" not in weighted:
            weighted["hard"] = random_measurable_csp(s, max_ground=200, hard=True)
            continue
        csp = random_measurable_csp(s, max_ground=200)
        kind = f"m{csp.m.bit_length() - 1}" if workloads.csp_regime(csp) else "uncertified"
        weighted.setdefault(kind, csp)
    cover = {}
    while len(cover) < len(workloads.LllSolve.COVER):
        csp = random_cover_csp(rng.randrange(10**6), max_levels=12)
        shape = (len(csp.constraints[0].domain), len(csp.constraints))
        if shape in workloads.LllSolve.COVER:
            cover.setdefault(shape, csp)
    built = ([weighted[kind] for kind in workloads.LllSolve.WEIGHTED]
             + [cover[shape] for shape in workloads.LllSolve.COVER])

    ran = []
    monkeypatch.setattr(locallemma, "solve_weighted", lambda csp, *a, **k: ran.append(csp))
    monkeypatch.setattr(locallemma, "cover_family", lambda csp, *a, **k: ran.append(csp))
    for op in workloads.LllSolve(0).round(0):
        op.call()
    assert ran == built, "perfbench's lll_solve round 0 no longer runs these CSPs"
    return built


# ---------------------------------------------------------------- differential

@given(explicit_csps(), st.integers(0, 2**16))
def test_binary_bit_chains_match_rebuilding_oracle(csp, seed):
    check_bit_chains(csp, random.Random(seed))


def test_binary_bit_chains_match_oracle_on_lll_solve_round_zero(monkeypatch):
    csps = lll_solve_round_zero(monkeypatch)
    assert len(csps) == 8 and {csp.m for csp in csps} >= {2, 2**20, 2**21, 2**22}
    rng = random.Random(0)
    for csp in csps:
        check_bit_chains(csp, rng)


@given(st.integers(0, 2**16))
def test_predicate_restriction_matches_wrapping_oracle(seed):
    rng = random.Random(seed)
    m, domain = rng.randint(2, 3), tuple(sorted(rng.sample(range(9), 5)))
    weights = [rng.randint(1, 4) for _ in domain]
    base = Constraint.from_predicate(
        domain, m, lambda values: sum(w * v for w, v in zip(weights, values)) % 3 == 0)
    new, old = base, base
    for _ in range(rng.randint(1, 4)):
        g = {x: rng.randint(1, m) for x in rng.sample(domain, rng.randint(1, 2))}
        new = restrict_constraint(new, g)
        old, _ = restrict_oracle(old, g)
        assert_same_constraint(new, old, rng)


# ---------------------------------------------------------------- the record

def test_five_restrictions_call_the_base_through_one_wrapper():
    frames = []

    def base(values):
        frames.append((sys._getframe(1).f_code, sys._getframe(2).f_code))
        return sum(values) % 2 == 0

    c = Constraint.from_predicate(range(8), 3, base)
    for x in range(5):
        c = restrict_constraint(c, {x: 1 + x % 3})
    assert c.domain == (5, 6, 7)
    assert c.predicate == Fixed(base, tuple(range(8)), (5, 6, 7),
                                tuple((x, 1 + x % 3) for x in range(5)))
    assert c.contains((1, 1, 1)) is True  # fixed 1+2+3+1+2, free 1+1+1: 12 is even
    assert frames == [(Fixed.__call__.__code__, Constraint.contains.__code__)]


def test_restriction_collapses_at_empty_domain_and_zero_count():
    c = Constraint.from_predicate((0, 1), 3, lambda values: values[0] == values[1])
    assert restrict_constraint(c, {0: 2, 1: 2}) == Constraint.explicit((), 3, [()])
    assert restrict_constraint(restrict_constraint(c, {0: 2}), {1: 3}) \
        == Constraint.explicit((), 3, [])
    src = Constraint.explicit((0, 1), 3, [(3, 3)])
    code, zids = encoding_of(Csp((0, 1), 3, (src,)))
    encoded = _encode_constraint(src, code, zids)
    # value 3's block is the top third of the codes, so its first bit is 1:
    # a 0 there leaves no member, and the view collapses to the empty one
    assert restrict_constraint(encoded, {zids[0, 1]: 1}) == Constraint.explicit((), 2, [])


def test_equal_constraints_stay_equal_after_probability():
    def same(values):
        return values[0] == values[1]

    a, b = (Constraint.from_predicate((0, 1), 3, same) for _ in range(2))
    base = Constraint.from_predicate((0, 1, 2), 3, lambda values: len(set(values)) <= 1)
    fa, fb = (restrict_constraint(base, {0: 1}) for _ in range(2))
    assert isinstance(fa.predicate, Fixed)
    for x, y, p in ((a, b, Fraction(1, 3)), (fa, fb, Fraction(1, 9))):
        assert x == y and hash(x) == hash(y)
        assert probability(x) == p
        assert x.count is None and x == y and hash(x) == hash(y)
