"""Binary range reduction.

Encodes a range-[n] CSP over ground Y as a range-[2] CSP over Y x [N]:
each element gets N bit positions, and bit patterns map to values through
a block assignment of the 2^N codes (block sizes floor/ceil of 2^N/n,
larger blocks first).  A range-2 CSP is its own encoding; a range-1 CSP
encodes with N = 1, both bit values decoding to value 1.  Each encoded
constraint is built once, as a `csp.Fixed` body: the full-bit decode
predicate plus a counter, a digit-walk count of codes in a block that
match the bits fixed so far.  Restriction only merges fixed bits into that
record, and probabilities stay exact without enumeration — this is what
lets the partial-solution machinery run on encodings with astronomically
many patterns.

Cost model: the block geometry is one `divmod` of 2^N by n, so a `BlockCode`
takes O(1) memory and O(N) time per decode, whatever the range size n is.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Optional, Tuple

from .connect import Connection, Reduction, identity_reduction
from .csp import Constraint, Csp, Fixed


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
    free = N - len(fixed)  # free positions after j, once j has been read
    for j in range(1, N + 1):
        hbit = (limit >> (N - j)) & 1
        if j not in fixed:
            free -= 1
            total += hbit << free  # a 0 here under limit's 1: every completion is below
        elif fixed[j] != hbit:
            return total + (hbit << free)
    return total


def count_codes(lo: int, hi: int, fixed: Dict[int, int], N: int) -> int:
    return _count_lt(hi, fixed, N) - _count_lt(lo, fixed, N)


class BlockCode:
    """The code map xi: [2]^N -> [n]; with q, r = divmod(2^N, n), value i's
    block is [(i-1) q + min(i-1, r), i q + min(i, r))."""

    def __init__(self, n: int, N: int):
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


@dataclass(frozen=True)
class BlockDecode:
    """One element's decoder: `code.value_of` on its `bits`, once each is 1 or 2."""

    code: BlockCode
    bits: Tuple[int, ...]

    def __call__(self, view: Dict[int, int]) -> Optional[int]:
        values = tuple(view.get(z) for z in self.bits)
        if any(b not in (1, 2) for b in values):
            return None
        return self.code.value_of(values)


def _encode_constraint(src: Constraint, code: BlockCode,
                       zids: Dict[Tuple[int, int], int]) -> Constraint:
    """Binary view of `src`: a `Fixed` body over every bit position of its
    domain, decoding the bits through `code`.  When the source body is
    explicit its counter is exact under any fixed bits, from the block
    geometry, so restriction never enumerates."""
    positions = {zids[y, j]: (y, j) for y in src.domain for j in range(1, code.N + 1)}
    domain = tuple(sorted(positions))
    at = {z: i for i, z in enumerate(domain)}
    slots = [[at[zids[y, j]] for j in range(1, code.N + 1)] for y in src.domain]

    def predicate(values: Tuple[int, ...]) -> bool:
        return src.contains(tuple(code.value_of(tuple(values[i] for i in s)) for s in slots))

    def counter(fixed: Dict[int, int]) -> int:
        bits: Dict[int, Dict[int, int]] = {y: {} for y in src.domain}
        for z, v in fixed.items():
            y, j = positions[z]
            bits[y][j] = v - 1
        total = 0
        for member in src.members:
            factor = 1
            for y, value in zip(src.domain, member):
                factor *= code.consistent_count(value, bits[y])
                if factor == 0:
                    break
            total += factor
        return total

    return Fixed(predicate, domain, domain, counter=None if src.members is None else counter
                 ).constraint(2, src.tag or "binary")


def binary_reduce(csp: Csp, epsilon: Fraction):
    """(binary CSP D on Y x [N], reduction csp <- D).

    Guarantees p(D) <= (1+epsilon) p(csp) and d(D) = d(csp); the decoding
    connection has width N per source element.  A range-2 CSP is its own
    encoding (N = 1, the identity block code), with the identity reduction;
    a range-1 CSP gets N = 1 and the block code that maps both bits to 1.
    """
    if csp.m == 2:
        return csp, identity_reduction(csp)
    epsilon = Fraction(epsilon)
    delta = choose_delta(epsilon, csp.bound())
    N = choose_bits(csp.m, delta)
    code = BlockCode(csp.m, N)

    zids = {(y, j): i * N + (j - 1) for i, y in enumerate(csp.ground) for j in range(1, N + 1)}
    ground = tuple(range(len(csp.ground) * N))   # the bits of each element in ground order

    constraints = tuple(_encode_constraint(c, code, zids) for c in csp.constraints)
    encoded = Csp(ground, 2, constraints)

    bits = {y: tuple(zids[(y, j)] for j in range(1, N + 1)) for y in csp.ground}
    tau = Connection(source=csp.ground, det_sets={y: frozenset(bits[y]) for y in csp.ground},
                     rules={y: BlockDecode(code, bits[y]) for y in csp.ground})
    return encoded, Reduction(tau, encoded)
