"""Random instance generators for the solver suites.

The generators here back `scripts/run_lll_suite.py`, the `lll_solve`
benchmark and the acceptance suite: instances are built to land in a
named regime (symmetric condition, measurable condition, covering family),
and the two conditions are re-checked exactly after generation.  The
binary low-probability and small unconstrained families that only tests
draw live in `tests/reference.py`.
"""

from __future__ import annotations

from typing import List, Tuple

from .csp import Constraint, Csp
from .engine import lll_check
from .rng import derived_rng


def _random_domains(rng, ground: List[int], count: int, arity_choices,
                    max_overlap: int) -> List[Tuple[int, ...]]:
    """Domains with bounded pairwise sharing so the dependency degree stays
    in the target range."""
    domains: List[Tuple[int, ...]] = []
    use = {x: 0 for x in ground}
    for _ in range(count):
        arity = rng.choice(list(arity_choices))
        available = [x for x in ground if use[x] < max_overlap]
        if len(available) < arity:
            break
        dom = tuple(sorted(rng.sample(available, arity)))
        if dom in domains:
            continue
        for x in dom:
            use[x] += 1
        domains.append(dom)
    return domains


def random_symmetric_csp(seed: int) -> Csp:
    """Random CSP passing the symmetric surrogate p(d+1) <= 0.3678."""
    rng = derived_rng(seed, "symmetric-instance")
    n = rng.randint(8, 24)
    ground = list(range(n))
    m = rng.choice([2, 2, 3])
    while True:
        count = rng.randint(2, max(3, n // 2))
        domains = _random_domains(rng, ground, count, (6, 7, 8), max_overlap=3)
        constraints = []
        for dom in domains:
            body_size = rng.randint(1, 3)
            body = set()
            while len(body) < body_size:
                body.add(tuple(rng.randint(1, m) for _ in dom))
            constraints.append(Constraint.explicit(dom, m, body))
        csp = Csp(tuple(ground), m, tuple(constraints))
        if lll_check(csp, "symmetric").holds:
            return csp


def random_measurable_csp(seed: int, max_ground: int = 200,
                          hard: bool = False) -> Csp:
    """Random CSP passing the measurable condition p(d+1)^8 <= 2^-15.

    The default regime keeps every constraint ternary over a power-of-two
    range large enough that the full solver pipeline certifies its
    inequalities at desk scale; `hard` mixes in a small-domain constraint
    whose probability floor makes the sparse route infeasible (used to
    exercise honest infeasibility reporting).
    """
    rng = derived_rng(seed, "measurable-instance", hard)
    n = rng.randint(24, max_ground)
    ground = list(range(n))
    m = 2 ** rng.choice([20, 21, 22])
    count = rng.randint(2, max(3, n // 6))
    # hard instances keep domains disjoint: the probability floor 1/m on the
    # singleton forces d = 0 for the measurable condition to still hold
    domains = _random_domains(rng, ground, count, (3,), max_overlap=1 if hard else 2)
    constraints = []
    for dom in domains:
        body_size = rng.randint(1, 3)
        body = set()
        while len(body) < body_size:
            body.add(tuple(rng.randint(1, m) for _ in dom))
        constraints.append(Constraint.explicit(dom, m, body))
    if hard:
        # probability 1/m on an untouched singleton: passes the measurable
        # condition (d stays 0 for it) but sits far above the sparse-step
        # threshold, so the solver must report infeasibility honestly
        used = {x for dom in domains for x in dom}
        free = [x for x in ground if x not in used]
        anchor = free[0] if free else max(ground) + 1
        if anchor not in ground:
            ground = ground + [anchor]
        constraints.append(Constraint.explicit((anchor,), m, [(1,)]))
    csp = Csp(tuple(ground), m, tuple(constraints))
    assert lll_check(csp, "measurable").holds
    return csp


def random_cover_csp(seed: int, max_levels: int = 13) -> Csp:
    """Binary CSP with pairwise-disjoint domains sized 10..max_levels and
    tiny bodies: the covering-family construction stays within budget and
    its per-element coverage bound d(rho) sqrt(p) <= 1/2 holds."""
    rng = derived_rng(seed, "cover-instance")
    count = rng.randint(2, 5)
    arity = rng.randint(10, max_levels)
    ground = list(range(count * arity + rng.randint(0, 4)))
    domains = []
    at = 0
    for _ in range(count):
        domains.append(tuple(ground[at:at + arity]))
        at += arity
    constraints = []
    for dom in domains:
        body = {tuple(rng.randint(1, 2) for _ in dom)}
        constraints.append(Constraint.explicit(dom, 2, body))
    return Csp(tuple(ground), 2, tuple(constraints))
