"""Binary range reduction.

Encodes a range-[n] CSP over ground Y as a range-[2] CSP over Y x [N]:
each element gets N bit positions, and bit patterns map to values through
a block assignment of the 2^N codes (block sizes floor/ceil of 2^N/n,
larger blocks first).  Probabilities of the encoded constraints are kept
exact without enumeration via a digit-walk count of codes in a block that
match the bits fixed so far — this is what lets the partial-solution
machinery run on encodings with astronomically many patterns.

Cost model: the block geometry is one `divmod` of 2^N by n, so a `BlockCode`
takes O(1) memory and O(N) time per decode, whatever the range size n is.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Tuple

from .connect import Connection, Reduction
from .csp import Constraint, Csp


def choose_delta(epsilon: Fraction, b: int) -> Fraction:
    """Largest delta of the form epsilon / 2^j with (1+delta)^b <= 1+epsilon."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    delta = Fraction(epsilon)
    while (1 + delta) ** max(b, 0) > 1 + epsilon:
        delta /= 2
    return delta


def choose_bits(n: int, delta: Fraction) -> int:
    """Least N allowing 2^N = s_1 + ... + s_n with max s_i <= (1+delta) 2^N / n."""
    N = 1
    while (1 << N) < n or n * -(-(1 << N) // n) > (1 + delta) * (1 << N):
        N += 1
    return N


def _count_lt(limit: int, fixed: Dict[int, int], N: int) -> int:
    """Codes x in [0, limit) whose bit at 1-based MSB position j equals
    fixed[j] for every fixed position."""
    if limit >= (1 << N):
        return 1 << (N - len(fixed))
    total = 0
    for j in range(1, N + 1):
        hbit = (limit >> (N - j)) & 1
        if hbit == 1 and fixed.get(j, 0) == 0:
            free = sum(1 for jj in range(j + 1, N + 1) if jj not in fixed)
            total += 1 << free
        if j in fixed and fixed[j] != hbit:
            return total
    return total


def count_codes(lo: int, hi: int, fixed: Dict[int, int], N: int) -> int:
    return _count_lt(hi, fixed, N) - _count_lt(lo, fixed, N)


class BlockCode:
    """The code map xi: [2]^N -> [n]; with q, r = divmod(2^N, n), value i's
    block is [(i-1) q + min(i-1, r), i q + min(i, r))."""

    def __init__(self, n: int, N: int):
        self.n = n
        self.N = N
        self.q, self.r = divmod(1 << N, n)

    def value_of(self, bits: Tuple[int, ...]) -> int:
        index = 0
        for c in bits:
            index = (index << 1) | (c - 1)
        head = self.r * (self.q + 1)  # codes in the r blocks of size q + 1
        if index < head:
            return index // (self.q + 1) + 1
        return self.r + (index - head) // self.q + 1

    def block_range(self, value: int) -> Tuple[int, int]:
        q, r = self.q, self.r
        return (value - 1) * q + min(value - 1, r), value * q + min(value, r)

    def consistent_count(self, value: int, fixed: Dict[int, int]) -> int:
        lo, hi = self.block_range(value)
        return count_codes(lo, hi, fixed, self.N)


def _encode_constraint(src: Constraint, code: BlockCode, zids: Dict[Tuple[int, int], int],
                       fixed: Dict[int, Dict[int, int]]) -> Constraint:
    """Binary view of `src` with some bit positions already fixed.

    fixed maps source element -> {bit position -> 0/1}.  Exact counting via
    the block geometry when the source body is explicit.
    """
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

    def restrict_hook(overlap: Dict[int, int]) -> Constraint:
        new_fixed = {y: dict(bits) for y, bits in fixed.items()}
        for z, v in overlap.items():
            y, j = pos_of[z]
            new_fixed.setdefault(y, {})[j] = v - 1
        return _encode_constraint(src, code, zids, new_fixed)

    if count == 0 and src.members is not None:
        return Constraint.explicit((), 2, [])
    if not domain:
        violated = src.contains(decode_with(()))
        return Constraint.explicit((), 2, [()] if violated else [])
    return Constraint.from_predicate(domain, 2, predicate, count=count,
                                     restrict_hook=restrict_hook, tag=src.tag or "binary")


def binary_reduce(csp: Csp, epsilon: Fraction):
    """(binary CSP D on Y x [N], reduction csp <- D).

    Guarantees p(D) <= (1+epsilon) p(csp) and d(D) = d(csp); the decoding
    connection has width N per source element.
    """
    if csp.m < 2:
        raise ValueError("binary reduction needs range size >= 2")
    epsilon = Fraction(epsilon)
    delta = choose_delta(epsilon, csp.bound())
    N = choose_bits(csp.m, delta)
    code = BlockCode(csp.m, N)

    y_index = {y: i for i, y in enumerate(csp.ground)}
    zids = {(y, j): y_index[y] * N + (j - 1) for y in csp.ground for j in range(1, N + 1)}
    ground = tuple(zids[(y, j)] for y in csp.ground for j in range(1, N + 1))

    constraints = tuple(_encode_constraint(c, code, zids, {}) for c in csp.constraints)
    encoded = Csp(ground, 2, constraints)

    det_sets = {y: frozenset(zids[(y, j)] for j in range(1, N + 1)) for y in csp.ground}

    def rule_for(y):
        positions = [zids[(y, j)] for j in range(1, N + 1)]

        def rule(view: Dict[int, int]):
            if any(z not in view for z in positions):
                return None
            bits = tuple(view[z] for z in positions)
            if any(b not in (1, 2) for b in bits):
                return None
            return code.value_of(bits)

        return rule

    tau = Connection(
        source=csp.ground,
        target=ground,
        det_sets=det_sets,
        rules={y: rule_for(y) for y in csp.ground},
    )
    return encoded, Reduction(tau, encoded)
