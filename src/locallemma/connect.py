"""Connections: intensional local maps between labeling spaces.

Each source element carries a determining set S(x) in the target ground
and a local rule from (possibly partial) views on S(x) to a value or None.
Monotonicity — an extension of a view never changes a defined output — is
a tested contract of every registered construction, and rules must return
a value on any total view of S(x).  Rules are pure functions of their
view: equal views give equal outputs, and a rule keeps no state between
calls, so callers may memoize a rule on its view.  The library's rules
are frozen records called on a view (`Identity`, `Residual`, `Composed`
and `binary.BlockDecode`); a pull-back merges into its `Residual`, and
`compose` wraps nothing around an identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Mapping, Optional, Tuple

from .csp import Csp, PartialAssignment, restrict_csp


@dataclass(frozen=True)
class Identity:
    """The value of target element `x`, where the view has it."""

    x: int

    def __call__(self, view: Dict[int, int]) -> Optional[int]:
        return view.get(self.x)


@dataclass(frozen=True)
class Residual:
    """`base` on the view with `fixed`, sorted (element, value) pairs, set."""

    base: Callable
    fixed: Tuple[Tuple[int, int], ...]

    def __call__(self, view: Dict[int, int]) -> Optional[int]:
        merged = dict(self.fixed)
        merged.update(view)
        return self.base(merged)


@dataclass(frozen=True)
class Composed:
    """`outer` on the values of the (element, determining set, rule) `inner`."""

    outer: Callable
    inner: Tuple[Tuple[int, Tuple[int, ...], Callable], ...]

    def __call__(self, view: Dict[int, int]) -> Optional[int]:
        mid = {}
        for y, det, rule in self.inner:
            value = rule({z: view[z] for z in det if z in view})
            if value is not None:
                mid[y] = value
        return self.outer(mid)


@dataclass(frozen=True)
class Connection:
    source: Tuple[int, ...]
    target: Tuple[int, ...]
    det_sets: Mapping[int, frozenset]
    rules: Mapping[int, Callable[[Dict[int, int]], Optional[int]]]

    def __post_init__(self):
        missing = [x for x in self.source if x not in self.det_sets or x not in self.rules]
        if missing:
            raise ValueError(f"connection lacks rules for {missing[:5]}")

    def width(self) -> int:
        return max((len(self.det_sets[x]) for x in self.source), default=0)


def apply(conn: Connection, f: PartialAssignment) -> PartialAssignment:
    """Pointwise evaluation of the local rules on f; undefined outputs are
    simply absent."""
    out: PartialAssignment = {}
    for x in conn.source:
        view = {y: f[y] for y in conn.det_sets[x] if y in f}
        value = conn.rules[x](view)
        if value is not None:
            out[x] = value
    return out


def identity_connection(ground) -> Connection:
    ground = tuple(ground)
    return Connection(
        source=ground,
        target=ground,
        det_sets={x: frozenset([x]) for x in ground},
        rules={x: Identity(x) for x in ground},
    )


def compose(rho: Connection, sigma: Connection) -> Connection:
    """rho after sigma: X <- Y composed with Y <- Z gives X <- Z with
    S(x) = union of sigma's determining sets over S_rho(x).  Identity is
    the unit rule by rule: where rho's rule for x is `Identity(y)` on {y},
    x gets sigma's set and rule for y; where every sigma rule that x reads
    is an identity, x keeps rho's set and rule.  Elsewhere x gets one
    `Composed` rule."""
    units = {y for y, rule in sigma.rules.items()   # Identity(y) on {y}
             if isinstance(rule, Identity) and rule.x == y and sigma.det_sets[y] == {y}}
    det_sets = {}
    rules = {}
    for x in rho.source:
        inner, rule = rho.det_sets[x], rho.rules[x]
        if isinstance(rule, Identity) and inner == {rule.x}:
            det_sets[x], rules[x] = sigma.det_sets[rule.x], sigma.rules[rule.x]
        elif inner <= units:
            det_sets[x], rules[x] = inner, rule
        else:
            det_sets[x] = frozenset().union(*(sigma.det_sets[y] for y in inner))
            rules[x] = Composed(rule, tuple((y, tuple(sigma.det_sets[y]), sigma.rules[y])
                                            for y in inner))
    return Connection(
        source=rho.source,
        target=sigma.target,
        det_sets=det_sets,
        rules=rules,
    )


@dataclass(frozen=True)
class Reduction:
    """Connection plus target CSP; solutions of the target pull back to
    solutions of the source."""

    connection: Connection
    target: Csp

    def degree(self) -> int:
        """max over x of the number of target constraints meeting S(x)."""
        meeting, det_sets = self.target.meeting, self.connection.det_sets
        return max((len({i for z in det_sets[x] for i in meeting.get(z, ())})
                    for x in self.connection.source), default=0)


def identity_reduction(csp: Csp) -> Reduction:
    return Reduction(identity_connection(csp.ground), csp)


def pull_partial(red: Reduction, g: PartialAssignment):
    """Pull a partial solution g of the target back to the source, and
    build the residual reduction (source/g-image) <- (target/g).  Each
    remaining element's rule becomes a `Residual` with g's values on its
    determining set fixed; a rule that already is one takes them into its
    own fixed values, so residual rules stay one record deep."""
    conn = red.connection
    g_source = apply(conn, g)
    residual_target = restrict_csp(red.target, g)
    remaining = tuple(x for x in conn.source if x not in g_source)

    det_sets = {}
    rules = {}
    for x in remaining:
        det_sets[x] = frozenset(y for y in conn.det_sets[x] if y not in g)
        rule, fixed = conn.rules[x], tuple((y, g[y]) for y in conn.det_sets[x] if y in g)
        if isinstance(rule, Residual):
            rule, fixed = rule.base, rule.fixed + fixed
        rules[x] = Residual(rule, tuple(sorted(fixed)))
    residual_conn = Connection(
        source=remaining,
        target=residual_target.ground,
        det_sets=det_sets,
        rules=rules,
    )
    return g_source, Reduction(residual_conn, residual_target)
