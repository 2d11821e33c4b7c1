"""Connections: intensional local maps between labeling spaces.

Each source element carries a determining set S(x) in the target ground
and a local rule from (possibly partial) views on S(x) to a value or None.
Monotonicity — an extension of a view never changes a defined output — is
a tested contract of every registered construction, and rules must return
a value on any total view of S(x).  Rules are pure functions of their
view: equal views give equal outputs, and a rule keeps no state between
calls (`rand_to_csp`'s decoder, `pull_partial`'s residual rules and
`compose` all are), so callers may memoize a rule on its view.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Mapping, Optional, Tuple

from .csp import Csp, PartialAssignment, is_solution, restrict_csp, solutions_exhaustive


@dataclass(frozen=True)
class Connection:
    source: Tuple[int, ...]
    target: Tuple[int, ...]
    det_sets: Mapping[int, frozenset]
    rules: Mapping[int, Callable[[Dict[int, int]], Optional[int]]]
    identity: bool = False   # set by identity_connection; compose skips it

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

    def rule_for(x):
        def rule(view: Dict[int, int]):
            return view.get(x)
        return rule

    return Connection(
        source=ground,
        target=ground,
        det_sets={x: frozenset([x]) for x in ground},
        rules={x: rule_for(x) for x in ground},
        identity=True,
    )


def compose(rho: Connection, sigma: Connection) -> Connection:
    """rho after sigma: X <- Y composed with Y <- Z gives X <- Z with
    S(x) = union of sigma's determining sets over S_rho(x).  Identity is
    the unit: with it on either side, the other side's sets and rules."""
    if rho.identity or sigma.identity:
        kept = sigma if rho.identity else rho
        return Connection(
            source=rho.source,
            target=sigma.target,
            det_sets={x: kept.det_sets[x] for x in rho.source},
            rules={x: kept.rules[x] for x in rho.source},
        )
    det_sets = {}
    rules = {}
    for x in rho.source:
        inner = rho.det_sets[x]
        union = frozenset().union(*(sigma.det_sets[y] for y in inner)) if inner else frozenset()
        det_sets[x] = union

        def rule_for(x=x, inner=tuple(inner)):
            def rule(view: Dict[int, int]):
                mid = {}
                for y in inner:
                    sub = {z: view[z] for z in sigma.det_sets[y] if z in view}
                    val = sigma.rules[y](sub)
                    if val is not None:
                        mid[y] = val
                return rho.rules[x](mid)
            return rule

        rules[x] = rule_for()
    return Connection(
        source=rho.source,
        target=sigma.target,
        det_sets=det_sets,
        rules=rules,
    )


@dataclass(frozen=True)
class Reduction:
    """Connection plus target CSP; solutions of the target pull back to
    solutions of the source (checked by `validate_reduction`)."""

    connection: Connection
    target: Csp

    def width(self) -> int:
        return self.connection.width()

    def degree(self) -> int:
        """max over x of the number of target constraints meeting S(x)."""
        meeting, det_sets = self.target.meeting, self.connection.det_sets
        return max((len({i for z in det_sets[x] for i in meeting.get(z, ())})
                    for x in self.connection.source), default=0)


def identity_reduction(csp: Csp) -> Reduction:
    return Reduction(identity_connection(csp.ground), csp)


def pull_partial(red: Reduction, g: PartialAssignment):
    """Pull a partial solution g of the target back to the source, and
    build the residual reduction (source/g-image) <- (target/g)."""
    conn = red.connection
    g_source = apply(conn, g)
    residual_target = restrict_csp(red.target, g)
    remaining = tuple(x for x in conn.source if x not in g_source)
    fixed = dict(g)

    det_sets = {}
    rules = {}
    for x in remaining:
        det_sets[x] = frozenset(y for y in conn.det_sets[x] if y not in fixed)

        def rule_for(x=x):
            def rule(view: Dict[int, int]):
                merged = {y: fixed[y] for y in conn.det_sets[x] if y in fixed}
                merged.update(view)
                return conn.rules[x](merged)
            return rule

        rules[x] = rule_for()
    residual_conn = Connection(
        source=remaining,
        target=residual_target.ground,
        det_sets=det_sets,
        rules=rules,
    )
    return g_source, Reduction(residual_conn, residual_target)


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
