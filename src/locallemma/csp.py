"""Constraints and CSPs with exact rational probabilities.

A constraint is a set of forbidden total assignments on its domain, stored
either explicitly (tuples of values aligned with the sorted domain) or as
a membership predicate with an optional exact count.  A restricted
predicate body is data, a `Fixed` record: the base predicate, the values
fixed so far and, when the body has one, an exact counter.  Values live in
[m] = {1, ..., m}.  Every probability is an exact Fraction; enumeration
behind predicate bodies is capped at `cap_bits` bits of state.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property, reduce
from itertools import product
from math import log2
from operator import or_
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from .errors import EnumerationCapError
from .graphs import StructuredGraph

DEFAULT_CAP_BITS = 20

PartialAssignment = Dict[int, int]


@dataclass(frozen=True)
class Constraint:
    """Forbidden-pattern set over `domain` with range [m].

    Exactly one of `members` / `predicate` is set.  `count` is |body| when
    known up front; a `Fixed` body's counter keeps it exact under
    restriction (binary-encoded bodies are far too large to enumerate).  A
    size `body_size` enumerates is cached outside the fields, so equality
    and hashing never change.
    """

    domain: Tuple[int, ...]
    m: int
    members: Optional[frozenset] = None
    predicate: Optional[Callable[[Tuple[int, ...]], bool]] = None
    count: Optional[int] = None
    tag: str = ""

    @staticmethod
    def explicit(domain, m: int, members: Iterable) -> "Constraint":
        domain = tuple(sorted(domain))
        if len(set(domain)) != len(domain):
            raise ValueError("constraint domain has repeated elements")
        body = set()
        for member in members:
            if isinstance(member, dict):  # read as a tuple it would be its keys
                raise ValueError("member must be a value tuple, not a dict")
            member = tuple(int(v) for v in member)
            if len(member) != len(domain):
                raise ValueError("member arity mismatch")
            if any(not (1 <= v <= m) for v in member):
                raise ValueError(f"member values out of range [1..{m}]")
            body.add(member)
        if not body:
            domain = ()  # the empty constraint has empty domain
        return Constraint(domain=domain, m=int(m), members=frozenset(body))

    @staticmethod
    def from_predicate(domain, m: int, predicate, count: Optional[int] = None,
                       tag: str = "") -> "Constraint":
        domain = tuple(sorted(domain))
        if len(set(domain)) != len(domain):
            raise ValueError("constraint domain has repeated elements")
        return Constraint(domain=domain, m=int(m), predicate=predicate,
                          count=None if count is None else int(count), tag=tag)

    def __post_init__(self):
        if (self.members is None) == (self.predicate is None):
            raise ValueError("constraint needs exactly one of members/predicate")

    def arity(self) -> int:
        return len(self.domain)

    def contains(self, values: Tuple[int, ...]) -> bool:
        """Membership of a value tuple aligned with the sorted domain."""
        if self.members is not None:
            return tuple(values) in self.members
        return bool(self.predicate(tuple(values)))

    def violated_by(self, assignment: Dict[int, int]) -> bool:
        return self.contains(tuple(assignment[x] for x in self.domain))

    def body_size(self, cap_bits: int = DEFAULT_CAP_BITS) -> int:
        if self.members is not None:
            return len(self.members)
        if self.count is not None:
            return self.count
        if "_enumerated" not in self.__dict__:  # not a field: eq and hash ignore it
            self.__dict__["_enumerated"] = sum(
                1 for _ in self._body(cap_bits, "constraint body count"))
        return self.__dict__["_enumerated"]

    def materialize(self, cap_bits: int = DEFAULT_CAP_BITS) -> "Constraint":
        """Explicit version of a predicate constraint (capped)."""
        if self.members is not None:
            return self
        return Constraint.explicit(self.domain, self.m,
                                   self._body(cap_bits, "constraint materialization"))

    def _body(self, cap_bits: int, what: str):
        """The predicate's members, enumerated lazily; the cap is checked
        at once, in integers, and a cap-out names `what`."""
        if self.m ** self.arity() > 1 << cap_bits:
            raise EnumerationCapError(self.arity() * log2(self.m), cap_bits, what=what)
        return (values for values in product(range(1, self.m + 1), repeat=self.arity())
                if self.predicate(values))


def probability(constraint: Constraint, cap_bits: int = DEFAULT_CAP_BITS) -> Fraction:
    """Exact P[B] = |B| / m^|dom(B)|."""
    return Fraction(constraint.body_size(cap_bits), constraint.m ** constraint.arity())


@dataclass(frozen=True)
class Fixed:
    """A predicate body as data: `base` over `base_domain`, with the sorted
    (element, value) pairs `fixed` set and the `free` elements read from
    the call; `counter(fixed)`, if given, counts the body exactly.  Every
    restricted predicate and every binary-encoded view is one."""

    base: Callable[[Tuple[int, ...]], bool]
    base_domain: Tuple[int, ...]
    free: Tuple[int, ...]
    fixed: Tuple[Tuple[int, int], ...] = ()
    counter: Optional[Callable[[PartialAssignment], int]] = None

    def __call__(self, values: Tuple[int, ...]) -> bool:
        merged = dict(self.fixed)
        merged.update(zip(self.free, values))
        return self.base(tuple(merged[x] for x in self.base_domain))

    def constraint(self, m: int, tag: str) -> Constraint:
        """This body on its free domain; an empty domain or a zero count
        collapses to {()} (violated) or the empty constraint."""
        count = None if self.counter is None else self.counter(dict(self.fixed))
        if count == 0 or not self.free:
            return Constraint.explicit((), m, [()] if count != 0 and self(()) else [])
        return Constraint.from_predicate(self.free, m, self, count=count, tag=tag)


def restrict_constraint(constraint: Constraint, g: PartialAssignment) -> Constraint:
    """B/g: forbidden patterns on dom(B) \\ dom(g) whose union with g is
    forbidden by B.  Fully-covered domains collapse to {()} (violated) or
    the empty constraint.  A predicate body becomes (or stays) one `Fixed`
    record over the unrestricted predicate."""
    overlap = {x: g[x] for x in constraint.domain if x in g}
    if not overlap:
        return constraint
    keep = [i for i, x in enumerate(constraint.domain) if x not in overlap]
    new_domain = tuple(constraint.domain[i] for i in keep)
    if constraint.members is not None:
        body = set()
        for member in constraint.members:
            if all(member[i] == overlap[x] for i, x in enumerate(constraint.domain)
                   if x in overlap):
                body.add(tuple(member[i] for i in keep))
        return Constraint.explicit(new_domain, constraint.m, body)
    body = constraint.predicate
    if not isinstance(body, Fixed):
        body = Fixed(body, constraint.domain, constraint.domain)
    fixed = {**dict(body.fixed), **overlap}
    return replace(body, free=new_domain, fixed=tuple(sorted(fixed.items()))).constraint(
        constraint.m, constraint.tag)


@dataclass(frozen=True)
class Csp:
    """Finite CSP: ordered ground set, range size m, constraint list.  Its index
    `meeting` (element -> ascending constraint indices) and `stats` are cached."""

    ground: Tuple[int, ...]
    m: int
    constraints: Tuple[Constraint, ...]

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("range size must be >= 1")
        gset = set(self.ground)
        if len(gset) != len(self.ground):
            raise ValueError("ground elements must be distinct")
        for c in self.constraints:
            if c.m != self.m:
                raise ValueError("constraint range differs from CSP range")
            if any(x not in gset for x in c.domain):
                raise ValueError("constraint domain outside ground set")

    def bound(self) -> int:
        return max((c.arity() for c in self.constraints), default=0)

    @cached_property
    def meeting(self) -> Dict[int, Tuple[int, ...]]:
        return incidence(c.domain for c in self.constraints)


def incidence(domains: Iterable[Sequence[int]]) -> Dict[int, Tuple[int, ...]]:
    """Element -> ascending indices of the domains that hold it."""
    meeting: Dict[int, List[int]] = {}
    for i, dom in enumerate(domains):
        for x in dom:
            meeting.setdefault(x, []).append(i)
    return {x: tuple(idx) for x, idx in meeting.items()}


@dataclass(frozen=True)
class CspStats:
    p: Fraction
    d: int
    b: int


def neighborhood_counts(csp: Csp) -> List[int]:
    """|N(B)| per constraint: how many other constraints share an element."""
    return overlap_counts([c.domain for c in csp.constraints], csp.meeting)


def overlap_counts(domains: Sequence[Tuple[int, ...]],
                   meeting: Dict[int, Tuple[int, ...]]) -> List[int]:
    """Per domain, how many other domains share an element with it, given
    the domains' incidence `meeting`."""
    # a nonempty domain meets itself once
    return [len({j for x in dom for j in meeting[x]}) - bool(dom) for dom in domains]


def stats(csp: Csp, cap_bits: int = DEFAULT_CAP_BITS) -> CspStats:
    """(p, d, b) = (max probability, max neighborhood size, max arity)."""
    cache = csp.__dict__.setdefault("_stats", {})  # not a field: eq and hash ignore it
    if cap_bits not in cache:
        p = max((probability(c, cap_bits) for c in csp.constraints), default=Fraction(0))
        cache[cap_bits] = CspStats(p, max(neighborhood_counts(csp), default=0), csp.bound())
    return cache[cap_bits]


def restrict_csp(csp: Csp, g: PartialAssignment) -> Csp:
    new_ground = tuple(x for x in csp.ground if x not in g)
    return Csp(new_ground, csp.m, tuple(restrict_constraint(c, g) for c in csp.constraints))


def is_solution(csp: Csp, assignment: Dict[int, int]):
    """(ok, violated constraint indices); assignment must be total."""
    missing = [x for x in csp.ground if x not in assignment]
    if missing:
        raise ValueError(f"assignment must be total; missing {missing[:5]}")
    violated = [i for i, c in enumerate(csp.constraints) if c.violated_by(assignment)]
    return (not violated, violated)


def solutions_exhaustive(csp: Csp, cap_bits: int = DEFAULT_CAP_BITS):
    """Yield every solution; capped at m^|ground| <= 2^cap_bits."""
    if csp.m ** len(csp.ground) > 1 << cap_bits:
        raise EnumerationCapError(len(csp.ground) * log2(csp.m), cap_bits,
                                  what="solution enumeration")
    for values in product(range(1, csp.m + 1), repeat=len(csp.ground)):
        assignment = dict(zip(csp.ground, values))
        if is_solution(csp, assignment)[0]:
            yield assignment


def const_assignment(elements, value: int) -> PartialAssignment:
    return dict.fromkeys(elements, value)


def intersection_graph(csp: Csp) -> StructuredGraph:
    """Ground elements adjacent iff they share a constraint domain.  A Csp
    has distinct ground elements and domains inside the ground, so the
    graph is built unchecked, with ascending neighbor tuples."""
    adj = {x: set() for x in csp.ground}
    for c in csp.constraints:
        for x in c.domain:
            adj[x].update(y for y in c.domain if y != x)
    nbrs = {x: tuple(sorted(ws)) for x, ws in adj.items()}
    edges = frozenset((x, w) for x, ws in nbrs.items() for w in ws if x < w)
    return StructuredGraph._trusted(tuple(nbrs), frozenset(nbrs), edges, {}, 1, nbrs)


def discrete_partition(csp: Csp) -> List[Tuple[int, ...]]:
    """Partition of the ground set into classes meeting every constraint
    domain at most once: first fit in ground order, each element taking the
    first class that holds none of its co-domain elements (the greedy
    coloring of the intersection graph); at most (b-1)(d+1)+1 classes."""
    meeting = csp.meeting
    taken = [0] * len(csp.constraints)   # bit c set: class c already meets the domain
    classes: Dict[int, List[int]] = {}   # first fit opens classes in index order
    for x in csp.ground:
        used = reduce(or_, (taken[i] for i in meeting.get(x, ())), 0)
        c = (~used & (used + 1)).bit_length() - 1   # the lowest class not in use
        classes.setdefault(c, []).append(x)
        for i in meeting.get(x, ()):
            taken[i] |= 1 << c
    return [tuple(cls) for cls in classes.values()]
