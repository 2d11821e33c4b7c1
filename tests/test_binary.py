import random
from array import array
from bisect import bisect_right
from fractions import Fraction
from itertools import accumulate, chain, product, repeat

from locallemma.binary import (
    BlockCode,
    binary_reduce,
    choose_bits,
    choose_delta,
    count_codes,
)
from locallemma.connect import apply
from locallemma.csp import (
    Constraint,
    Csp,
    is_solution,
    probability,
    restrict_csp,
    solutions_exhaustive,
    stats,
)
from reference import random_small_csp


class TableBlockCode:
    """The former `BlockCode`: a materialized table of block starts searched
    with `bisect_right`.  Kept as the differential oracle for the closed
    form; the starts live in an int64 array so (2^22, 22) fits in 32 MB."""

    def __init__(self, n, N):
        self.N = N
        floor, rem = divmod(1 << N, n)
        sizes = chain((0,), repeat(floor + 1, rem), repeat(floor, n - rem))
        self.starts = array("q", accumulate(sizes))  # value i: starts[i-1]..starts[i]

    def value_of(self, bits):
        index = 0
        for c in bits:
            index = (index << 1) | (c - 1)
        return bisect_right(self.starts, index)

    def block_range(self, value):
        return self.starts[value - 1], self.starts[value]

    def consistent_count(self, value, fixed):
        lo, hi = self.block_range(value)
        return count_codes(lo, hi, fixed, self.N)


def _bits(x, N):
    return tuple(((x >> (N - j)) & 1) + 1 for j in range(1, N + 1))


def _widths(code, n):
    return tuple(hi - lo for lo, hi in map(code.block_range, range(1, n + 1)))


def test_choose_delta_bound():
    for b in (0, 1, 3, 5):
        for eps in (Fraction(1, 2), Fraction(1, 10)):
            delta = choose_delta(eps, b)
            assert (1 + delta) ** max(b, 0) <= 1 + eps


def test_power_of_two_range_is_exact():
    # n = 2 and n = 4 encode exactly: one code per value
    assert choose_bits(2, Fraction(1, 10)) == 1
    assert _widths(BlockCode(2, 1), 2) == (1, 1)
    assert choose_bits(4, Fraction(1, 10)) == 2
    assert _widths(BlockCode(4, 2), 4) == (1, 1, 1, 1)


def test_three_values_spec_example():
    # n = 3, b = 1, eps = 1/2: N = 2 with blocks 2 + 1 + 1
    delta = choose_delta(Fraction(1, 2), 1)
    N = choose_bits(3, delta)
    assert N == 2
    assert _widths(BlockCode(3, 2), 3) == (2, 1, 1)


def test_count_codes_matches_enumeration():
    rng = random.Random(0)
    for trial in range(300):
        N = rng.randint(1, 6)
        lo = rng.randint(0, (1 << N) - 1)
        hi = rng.randint(lo, 1 << N)
        fixed = {j: rng.randint(0, 1) for j in range(1, N + 1) if rng.random() < 0.5}
        expected = sum(
            1 for x in range(lo, hi)
            if all((x >> (N - j)) & 1 == b for j, b in fixed.items())
        )
        assert count_codes(lo, hi, fixed, N) == expected


def test_block_code_round_trip():
    code = BlockCode(3, 2)
    values = [code.value_of(bits) for bits in product((1, 2), repeat=2)]
    assert values == [1, 1, 2, 3]  # lexicographic blocks, larger first

    # closed form against the table oracle: every code and every value
    rng = random.Random(4)
    for N in range(1, 9):
        codes = list(product((1, 2), repeat=N))
        for n in range(2, (1 << N) + 1):
            code, oracle = BlockCode(n, N), TableBlockCode(n, N)
            assert [code.value_of(b) for b in codes] == [oracle.value_of(b) for b in codes]
            fixed = {j: rng.randint(0, 1) for j in range(1, N + 1) if rng.random() < 0.5}
            for value in range(1, n + 1):
                assert code.block_range(value) == oracle.block_range(value)
                for f in ({}, fixed):
                    assert code.consistent_count(value, f) == oracle.consistent_count(value, f)

    # range sizes of the weighted workloads: the codes on both sides of the
    # boundaries of sampled blocks (the first and last 256, the 256 around
    # the switch from size q + 1 to size q, and every (n / 4096)-th)
    cases = [(1 << k, k) for k in (20, 21, 22)]
    cases.append((2**20 + 3, choose_bits(2**20 + 3, Fraction(1, 2))))
    for n, N in cases:
        code, oracle = BlockCode(n, N), TableBlockCode(n, N)
        assert code.block_range(n)[1] == 1 << N
        r = (1 << N) % n
        sample = set(range(1, 257)) | set(range(n - 255, n + 1))
        sample |= set(range(max(1, r - 127), min(n, r + 128) + 1))
        sample |= set(range(1, n + 1, n // 4096))
        for value in sorted(sample):
            lo, hi = code.block_range(value)
            assert (lo, hi) == oracle.block_range(value)
            for x in {max(lo - 1, 0), lo, hi - 1, min(hi, (1 << N) - 1)}:
                assert code.value_of(_bits(x, N)) == oracle.value_of(_bits(x, N))


def test_binary_reduce_single_domain_enumeration():
    # one 1-element-domain constraint over [3]: verify p exactly by listing codes
    c = Constraint.explicit((0,), 3, [(2,)])
    csp = Csp((0,), 3, (c,))
    encoded, red = binary_reduce(csp, Fraction(1, 2))
    enc = encoded.constraints[0]
    assert probability(enc) <= (1 + Fraction(1, 2)) * probability(c)
    mat = enc.materialize()
    by_hand = [bits for bits in product((1, 2), repeat=2)
               if BlockCode(3, 2).value_of(bits) == 2]
    assert sorted(mat.members) == sorted(by_hand)


def test_binary_reduce_probability_and_degree():
    from locallemma.csp import neighborhood_counts

    for seed in range(120):
        csp = random_small_csp(seed, max_ground=6, max_arity=3,
                               m_choices=(3, 5, 6))
        for eps in (Fraction(1, 2), Fraction(1, 10)):
            encoded, red = binary_reduce(csp, eps)
            st, est = stats(csp), stats(encoded)
            assert est.p <= (1 + eps) * st.p
            assert est.d == st.d
            # neighborhoods carry over one-to-one per constraint
            assert neighborhood_counts(encoded) == neighborhood_counts(csp)
            assert red.connection.width() == (len(encoded.ground) // max(1, len(csp.ground)))


def test_range_one_csps_encode_with_one_bit():
    # one value: N = 1, and both bit values decode to it
    assert choose_bits(1, Fraction(1, 10)) == 1
    code = BlockCode(1, 1)
    assert _widths(code, 1) == (2,)
    assert code.value_of((1,)) == code.value_of((2,)) == 1
    free = Csp((0, 1, 2), 1, ())
    forbidding = Csp((0, 1, 2), 1, (Constraint.explicit((0, 1), 1, [(1, 1)]),
                                    Constraint.explicit((1, 2), 1, [])))
    for csp in (free, forbidding):
        encoded, red = binary_reduce(csp, Fraction(1))
        st, est = stats(csp), stats(encoded)
        assert (est.p, est.d) == (st.p, st.d)
        assert encoded.m == 2 and red.connection.width() == 1
        for bits in product((1, 2), repeat=len(encoded.ground)):
            assert apply(red.connection, dict(zip(encoded.ground, bits))) == {0: 1, 1: 1, 2: 1}
        assert bool(list(solutions_exhaustive(encoded))) == is_solution(
            csp, {0: 1, 1: 1, 2: 1})[0]


def test_binary_reduce_solutions_decode():
    checked = 0
    for seed in range(200):
        csp = random_small_csp(seed, max_ground=3, max_arity=2, m_choices=(3, 5))
        encoded, red = binary_reduce(csp, Fraction(1, 2))
        if len(encoded.ground) > 12:
            continue
        for sol in solutions_exhaustive(encoded):
            decoded = apply(red.connection, sol)
            assert len(decoded) == len(csp.ground)
            ok, _ = is_solution(csp, decoded)
            assert ok
        checked += 1
    assert checked >= 25


def test_binary_restrict_hook_keeps_exact_counts():
    rng = random.Random(8)
    for seed in range(60):
        csp = random_small_csp(seed, max_ground=3, max_arity=2, m_choices=(3, 6))
        encoded, _ = binary_reduce(csp, Fraction(1, 2))
        if len(encoded.ground) > 12:
            continue
        g = {z: rng.randint(1, 2) for z in encoded.ground if rng.random() < 0.5}
        restricted = restrict_csp(encoded, g)
        for c in restricted.constraints:
            expected = probability(c.materialize()) if c.members is None else probability(c)
            assert probability(c) == expected
