"""Local lemma engine: condition checkers, the resampling oracle, the
partial-solution constructor with derandomized branch selection, the
halving step, the weighted iterated solver, and covering families.

Everything asserted here is an exact rational inequality.  Comparisons
against sqrt(p) square both sides.  The branch-selection estimator phi =
a + b sqrt(p) is the pair of rationals (a, b), and two values compare by
one exact sign test, `_sign`, of their difference.  Comparisons against
e^-1 and e^-2 use the certified rational lower bounds 0.3678 and 0.1353,
so passing a check here implies the corresponding analytic condition.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Dict, List, Optional, Sequence, Tuple

from .binary import binary_reduce
from .connect import Connection, Reduction, compose, identity_reduction, pull_partial
from .csp import (
    Csp,
    DEFAULT_CAP_BITS,
    PartialAssignment,
    const_assignment,
    discrete_partition,
    incidence,
    intersection_graph,
    is_solution,
    overlap_counts,
    probability,
    restrict_constraint,
    restrict_csp,
    solutions_exhaustive,
    stats,
)
from .errors import CoverBudgetError, EnumerationCapError, StepInfeasibleError
from .rng import derived_rng

INV_E_LOWER = Fraction(3678, 10_000)    # certified rational lower bound on e^-1
INV_E2_LOWER = Fraction(1353, 10_000)   # certified rational lower bound on e^-2
STEP_TARGET_N = 16
STEP_TARGET_EPS = Fraction(1, 2**32)
RESIDUAL_N = 8
RESIDUAL_EPS = Fraction(1, 2**15)
# binary-reduction slack: the step's target must meet eps / (1 + EPS_BINARY)
# = 2^-33 before encoding.  Only the direct route can: an amplified target
# at size n certifies p <= 1/n, and for n <= 4096 that is >= 2^-12.
EPS_BINARY = Fraction(1)
# the most members `cover_family` builds when given no budget (`csp cover --budget`)
DEFAULT_COVER_BUDGET = 1 << 16


def _residual_margin(p: Fraction, d: int) -> Fraction:
    """2^-15 - p (d+1)^8: the measurable condition, which every residual meets."""
    return RESIDUAL_EPS - p * (d + 1) ** RESIDUAL_N


def _partial_surrogate(p: Fraction, d: int, m: int) -> Tuple[Fraction, Fraction]:
    """(p (d+1)^2, 0.1353/m^2): the partial-solution surrogate holds if first <= second."""
    return p * (d + 1) ** 2, INV_E2_LOWER / (m * m)


def _halves(p: Fraction, d_rho: int) -> bool:
    """p d(rho)^2 <= 1/4, i.e. d(rho) sqrt(p) <= 1/2: h covers half the weight."""
    return p * Fraction(d_rho) ** 2 <= Fraction(1, 4)


@dataclass
class LllVerdict:
    holds: bool
    margin: Fraction
    p: Fraction
    d: int


def lll_check(csp: Csp, which: str = "symmetric",
              cap_bits: int = DEFAULT_CAP_BITS) -> LllVerdict:
    """Exact-rational check of one of the solvability conditions:
    symmetric p(d+1) <= 0.3678, general P[B_i] <= eta prod (1 - eta) over
    the constraints meeting B_i (eta = 1/(d+1) for every constraint, or 1/2
    at d = 0), measurable p(d+1)^8 <= 2^-15, neighborhood-growth
    p * max|B(x,2)| <= 0.3678."""
    st = stats(csp, cap_bits)
    if which == "symmetric":
        margin = INV_E_LOWER - st.p * (st.d + 1)
    elif which == "measurable":
        margin = _residual_margin(st.p, st.d)
    elif which == "general":
        eta = Fraction(1, max(st.d, 1) + 1)
        gaps = [eta * (1 - eta) ** len({j for x in c.domain for j in csp.meeting[x]} - {i})
                - probability(c, cap_bits) for i, c in enumerate(csp.constraints)]
        margin = min(gaps, default=Fraction(1))
    elif which == "neighborhood-growth":
        graph = intersection_graph(csp)
        ball2 = max((len(graph.distances_from(x, limit=2)) for x in graph.vertices),
                    default=0)
        margin = INV_E_LOWER - st.p * ball2
    else:
        raise ValueError(f"unknown condition {which!r}")
    return LllVerdict(margin >= 0, margin, st.p, st.d)


@dataclass
class MoserTardosResult:
    assignment: Optional[Dict[int, int]]
    resamples: int
    capped: bool


def moser_tardos_solve(csp: Csp, seed: int = 0, cap: Optional[int] = None) -> MoserTardosResult:
    """Start uniform; while violated, resample the least-index violated
    constraint's domain.  Cap-out is a distinct verdict, not an error; a
    violated constraint on the empty domain caps out at once."""
    rng = derived_rng(seed, "moser-tardos", len(csp.ground))
    if cap is None:
        cap = 50 * max(1, len(csp.constraints))
    assignment = {x: rng.randint(1, csp.m) for x in csp.ground}
    resamples = 0
    while True:
        violated = None
        for c in csp.constraints:
            if c.violated_by(assignment):
                violated = c
                break
        if violated is None:
            return MoserTardosResult(assignment, resamples, False)
        if resamples >= cap or not violated.domain:  # nothing left to resample
            return MoserTardosResult(None, resamples, True)
        for x in violated.domain:
            assignment[x] = rng.randint(1, csp.m)
        resamples += 1


def refuse_full_bodies(csp: Csp, cap_bits: int):
    """Raise StepInfeasibleError at the first constraint whose body is all
    m^arity assignments of its domain (p = 1), so that no solution exists.
    A predicate of unknown count is read up to its first allowed
    assignment, and not at all past 2^cap_bits assignments."""
    for i, c in enumerate(csp.constraints):
        total = c.m ** c.arity()
        if (c.body_size() == total if c.predicate is None or c.count is not None
                else total <= 1 << cap_bits and all(
                    map(c.predicate, product(range(1, c.m + 1), repeat=c.arity())))):
            raise StepInfeasibleError(f"constraint {i}{f' ({c.tag})' if c.tag else ''} forbids "
                                      f"all {total} assignments of its domain: p = 1")


@dataclass(frozen=True)
class WeightedGroundSet:
    """Nonnegative rational weights summing to one (finite measure)."""

    weights: Dict[int, Fraction]

    def __post_init__(self):
        total = sum(self.weights.values(), Fraction(0))
        if total != 1:
            raise ValueError(f"weights must sum to 1, got {total}")
        if any(w < 0 for w in self.weights.values()):
            raise ValueError("weights must be nonnegative")

    @staticmethod
    def uniform(ground: Sequence[int]) -> "WeightedGroundSet":
        ground = list(ground)
        if not ground:
            raise ValueError("need a nonempty ground set")
        w = Fraction(1, len(ground))
        return WeightedGroundSet({x: w for x in ground})

    def weight_of(self, elements) -> Fraction:
        return sum((self.weights.get(x, Fraction(0)) for x in elements), Fraction(0))

    def min_positive(self) -> Optional[Fraction]:
        positive = [w for w in self.weights.values() if w > 0]
        return min(positive) if positive else None

    def restricted_normalized(self, elements) -> Optional["WeightedGroundSet"]:
        sub = {x: self.weights[x] for x in elements if x in self.weights}
        total = sum(sub.values(), Fraction(0))
        if total == 0:
            return None
        return WeightedGroundSet({x: w / total for x, w in sub.items()})


def _sign(a: Fraction, b: Fraction, p: Fraction) -> int:
    """The sign of a + b sqrt(p), exactly: where a and b have opposite
    signs, a^2 is compared with b^2 p."""
    sa, sb = (a > 0) - (a < 0), (b > 0) - (b < 0)
    if sa * sb >= 0 or not p:   # the terms agree, or one of them is 0
        return sa or sb * (p > 0)
    gap = a * a - b * b * p     # opposite signs: the larger square decides
    return sa * ((gap > 0) - (gap < 0))


@dataclass
class PartialSolutionTrace:
    """Replayable record of the level-by-level construction."""

    classes: List[Tuple[int, ...]]
    chosen: List[int]
    dangerous: List[frozenset]      # D(u) per prefix, length len(classes)+1
    phi: List[Tuple[Fraction, Fraction]]   # (a, b), phi = a + b sqrt(p), same length
    covered_weight: Fraction = Fraction(0)


def _is_dangerous(prob: Fraction, p: Fraction) -> bool:
    return prob * prob > p


class _LevelState:
    """One restriction state of the level recursion, never changed once
    made: the live constraints, their conditional probabilities and the
    largest, `p_max`, which of them are frozen, and the dangerous set (the
    union of the frozen constraints' original domains).  `descend` returns
    the next state, so a walk goes back to a state by holding it.  A walk
    descends from one start state on every branch value: the state
    memoizes per class (`fix`) the class's elements outside its dangerous
    set and whether a live constraint meets them, for every later value.
    """

    __slots__ = ("base", "constraints", "probs", "p_max", "frozen", "dangerous", "fixes")

    def __init__(self, base: tuple, constraints: List, probs: List[Fraction],
                 p_max: Fraction, frozen: List[bool], dangerous: frozenset):
        self.base = base   # (p, cap_bits, original domains, csp.meeting), shared by all states
        self.constraints = constraints
        self.probs = probs
        self.p_max = p_max
        self.frozen = frozen
        self.dangerous = dangerous
        self.fixes: Dict[tuple, tuple] = {}   # class -> (its keys, quiet)

    @classmethod
    def root(cls, csp: Csp, p: Fraction, cap_bits: int) -> "_LevelState":
        probs = [probability(c, cap_bits) for c in csp.constraints]
        domains = [frozenset(c.domain) for c in csp.constraints]
        frozen = [_is_dangerous(pr, p) for pr in probs]
        return cls((p, cap_bits, domains, csp.meeting), list(csp.constraints), probs,
                   max(probs, default=Fraction(0)), frozen,
                   frozenset().union(*(dom for dom, f in zip(domains, frozen) if f)))

    def fix(self, cls: Tuple[int, ...]) -> Tuple[Tuple[int, ...], bool]:
        """(cls's elements outside the dangerous set, whether no live constraint meets them)."""
        if cls not in self.fixes:
            keys = tuple(x for x in cls if x not in self.dangerous)
            self.fixes[cls] = keys, not any(not self.frozen[i] and self.constraints[i].domain
                                            for x in keys for i in self.base[3].get(x, ()))
        return self.fixes[cls]

    def descend(self, cls: Tuple[int, ...], value: int
                ) -> Tuple[PartialAssignment, List[int], "_LevelState"]:
        """One level: fix the elements of `cls` outside the dangerous set to
        `value`, restrict every live constraint they meet, and freeze those
        whose conditional probability passes sqrt(p).  Returns the
        assignment made, the indices of the restricted constraints and the
        next state, which is this one when none was restricted."""
        p, cap_bits, original_domains, meeting = self.base
        keys, quiet = self.fix(cls)
        g = const_assignment(keys, value)
        changed: List[int] = []
        if quiet:
            return g, changed, self  # nothing live meets g
        constraints, probs, frozen = list(self.constraints), list(self.probs), list(self.frozen)
        newly_frozen = []
        for i in sorted({i for x in g for i in meeting.get(x, ())}):
            if frozen[i] or g.keys().isdisjoint(constraints[i].domain):
                continue
            changed.append(i)
            constraints[i] = restrict_constraint(constraints[i], g)
            probs[i] = probability(constraints[i], cap_bits)
            if _is_dangerous(probs[i], p):
                frozen[i] = True
                newly_frozen.append(original_domains[i])
        if not changed:
            return g, changed, self
        # the old maximum survives unless a restricted constraint held it
        held = any(self.probs[i] == self.p_max for i in changed)
        p_max = max(probs) if held else max(self.p_max, *(probs[i] for i in changed))
        dangerous = self.dangerous.union(*newly_frozen) if newly_frozen else self.dangerous
        return g, changed, _LevelState(self.base, constraints, probs, p_max, frozen, dangerous)


def construct_partial(csp: Csp, red: Reduction, wts: WeightedGroundSet,
                      cap_bits: int = DEFAULT_CAP_BITS):
    """Partial solution h of `csp` by the level recursion over a discrete
    partition, freezing constraints whose conditional probability exceeds
    sqrt(p).

    Each level takes the branch value in 1..m that minimizes the
    pessimistic estimator phi (the smallest such value on a tie); the trace
    records the value, the dangerous set and phi after each level as the
    walk makes them.

    Guarantees, verified before returning: every restricted constraint has
    P^2 <= n^2 p, and the weight of source elements whose determining set
    avoids the dangerous set is >= 1 - d(rho) sqrt(p) (squared form).
    """
    n = csp.m
    st = stats(csp, cap_bits)
    p, d = st.p, st.d
    lhs, surrogate = _partial_surrogate(p, d, n)
    if lhs > surrogate:
        raise StepInfeasibleError(
            f"partial-solution precondition fails: p(d+1)^2 = {lhs} > {surrogate}")

    classes = discrete_partition(csp)
    d_rho = red.degree()
    conn = red.connection

    state = _LevelState.root(csp, p, cap_bits)
    # weight of source elements whose determining set meets each original domain
    weight_touching = [Fraction(0)] * len(csp.constraints)
    for x in conn.source:
        for i in {i for z in conn.det_sets[x] for i in csp.meeting.get(z, ())}:
            weight_touching[i] += wts.weights.get(x, Fraction(0))

    # phi = a + b sqrt(p) sums w min(1, P / sqrt(p)) over the constraints:
    # (w, 0) for a dangerous (frozen) one, else (0, w P / p); at the root
    # none is dangerous, as P <= p <= 1
    phi_a = Fraction(0)
    phi_b = sum((w * pr / p for w, pr in zip(weight_touching, state.probs) if w), Fraction(0))
    h: PartialAssignment = {}
    chosen: List[int] = []
    dangerous_trace = [state.dangerous]
    phi_trace = [(phi_a, phi_b)]
    for cls in classes:
        # phi is common to every value, so values compare by their change,
        # summed over the constraints `descend` restricted (none was frozen)
        best = None
        for value in range(1, n + 1):
            g, changed, after = state.descend(cls, value)
            da, wdp = Fraction(0), Fraction(0)   # the change in a, and in b times p
            for i in changed:
                w = weight_touching[i]
                if w and after.frozen[i]:
                    da, wdp = da + w, wdp - w * state.probs[i]
                elif w:
                    wdp += w * (after.probs[i] - state.probs[i])
            db = wdp / p if wdp else wdp
            if best is None or _sign(da - best[0], db - best[1], p) < 0:
                best = (da, db, value, g, after)
        da, db, value, g, state = best
        phi_a, phi_b = phi_a + da, phi_b + db
        h.update(g)
        chosen.append(value)
        dangerous_trace.append(state.dangerous)
        phi_trace.append((phi_a, phi_b))

    # verify the returned guarantees exactly
    if state.p_max * state.p_max > Fraction(n * n) * p:
        raise AssertionError("restricted probability bound violated")
    covered_weight = sum((wts.weights.get(x, Fraction(0)) for x in conn.source
                          if not (conn.det_sets[x] & state.dangerous)), Fraction(0))
    shortfall = Fraction(1) - covered_weight
    if shortfall > 0 and shortfall * shortfall > Fraction(d_rho * d_rho) * p:
        raise AssertionError("coverage bound violated")

    return h, PartialSolutionTrace(list(classes), chosen, dangerous_trace, phi_trace,
                                   covered_weight)


def direct_entry(p: Fraction, d: int, d_rho: int, N: int = STEP_TARGET_N,
                 epsilon: Fraction = STEP_TARGET_EPS / (1 + EPS_BINARY)) -> dict:
    """The direct route's check, p (d+1)^N <= epsilon and p d(rho)^N <=
    epsilon, as a report entry naming both sides of each inequality."""
    lhs_dplus = p * (d + 1) ** N
    lhs_drho = p * Fraction(d_rho) ** N
    return {"stage": "direct", "p": str(p), "d": d, "d_rho": d_rho,
            "ok": lhs_dplus <= epsilon and lhs_drho <= epsilon,
            "p(d+1)^N": str(lhs_dplus), "p*d(rho)^N": str(lhs_drho),
            "epsilon": str(epsilon)}


def _binary_stage(red_in: Reduction, cap_bits: int):
    """Binary-reduce the target of `red_in` and compose the decoding onto
    its connection: (encoded, sigma, stats(encoded), d(sigma))."""
    encoded, tau_red = binary_reduce(red_in.target, EPS_BINARY)
    sigma = Reduction(compose(red_in.connection, tau_red.connection), encoded)
    return encoded, sigma, stats(encoded, cap_bits), sigma.degree()


@dataclass
class StepResult:
    g: PartialAssignment
    residual_reduction: Reduction
    covered_fraction: Fraction
    certificates: dict
    trace: PartialSolutionTrace


def step(red_in: Reduction, wts: WeightedGroundSet,
         cap_bits: int = DEFAULT_CAP_BITS) -> StepResult:
    """One halving step: check that the target of `red_in` meets the
    direct (16, 2^-33) inequalities, binary-reduce it, build a partial
    solution by the derandomized level recursion, pull it back to g on
    `red_in`'s source; the residual reduction's source is the rest.  No
    step draws randomness.  The direct route is the only one at desk scale
    (see EPS_BINARY); a target that fails it raises with the failing entry.

    Certifies exactly: the binary target satisfies p (d+1)^16 <= 2^-32 and
    p d(rho)^2 <= 1/4; the returned g covers weight >= 1/2; the residual
    target satisfies p (d+1)^8 <= 2^-15.
    """
    st = stats(red_in.target, cap_bits)
    entry = direct_entry(st.p, st.d, red_in.degree())
    if not entry["ok"]:
        raise StepInfeasibleError(
            f"bootstrap infeasible: {json.dumps([entry], sort_keys=True)}")

    encoded, sigma, est, d_sigma = _binary_stage(red_in, cap_bits)
    cert = {
        "p_target": str(est.p),
        "d_target": est.d,
        "d_sigma": d_sigma,
        "target_(16,2^-32)": est.p * (est.d + 1) ** STEP_TARGET_N <= STEP_TARGET_EPS,
        "p*d(rho)^2<=1/4": _halves(est.p, d_sigma),
    }
    if not cert["target_(16,2^-32)"] or not cert["p*d(rho)^2<=1/4"]:
        raise StepInfeasibleError(
            f"step inequality failed: {json.dumps(cert, sort_keys=True)}")

    h, trace = construct_partial(encoded, sigma, wts, cap_bits=cap_bits)
    g, residual_red = pull_partial(sigma, h)
    rst = stats(residual_red.target, cap_bits)
    cert["p_residual"] = str(rst.p)
    cert["residual_(8,2^-15)"] = _residual_margin(rst.p, rst.d) >= 0
    if not cert["residual_(8,2^-15)"]:
        raise StepInfeasibleError(
            f"residual certification failed: {json.dumps(cert, sort_keys=True)}")

    covered = wts.weight_of(g.keys())
    if covered < Fraction(1, 2):
        raise StepInfeasibleError(f"step covered only {covered} < 1/2")
    return StepResult(g, residual_red, covered, cert, trace)


def extend_solution(csp: Csp, g: PartialAssignment, seed: int = 0,
                    cap_bits: int = DEFAULT_CAP_BITS) -> Dict[int, int]:
    """Extend a partial solution to a total one.

    Element by element, picks a value avoiding every live forbidden-pattern
    projection (sound and complete when the range exceeds the number of
    live patterns); falls back to exhaustive search within the cap, then
    the resampling oracle.
    """
    current = dict(g)
    # restriction keeps constraint positions, so csp.meeting names the ones
    # that can hold y; restricting one that does not returns it unchanged
    constraints = list(restrict_csp(csp, g).constraints)
    for y in [x for x in csp.ground if x not in g]:
        live = [i for i in csp.meeting.get(y, ()) if y in constraints[i].domain]
        bad = set()
        for i in live:
            c = constraints[i]
            if c.members is None:
                bad = None
                break
            pos = c.domain.index(y)
            bad.update(member[pos] for member in c.members)
        if bad is not None and len(bad) < csp.m:
            current[y] = value = next(v for v in range(1, csp.m + 1) if v not in bad)
            for i in live:
                constraints[i] = restrict_constraint(constraints[i], {y: value})
            continue
        remaining = Csp(tuple(x for x in csp.ground if x not in current), csp.m,
                        tuple(constraints))
        solution, decided = _search(remaining, seed, cap_bits)
        if solution is None:
            raise StepInfeasibleError("no extension exists for the residual CSP" if decided
                                      else "extension search capped out")
        current.update(solution)
        return current
    return current


def _search(csp: Csp, seed: int, cap_bits: int) -> Tuple[Optional[Dict[int, int]], bool]:
    """(a solution or None, decided): exhaustive search within the cap,
    else the resampling oracle at 500 resamples per constraint.  The
    answer is undecided only when resampling capped out."""
    try:
        return next(solutions_exhaustive(csp, cap_bits), None), True
    except EnumerationCapError:
        result = moser_tardos_solve(csp, seed=seed, cap=500 * max(1, len(csp.constraints)))
        return result.assignment, result.assignment is not None


@dataclass
class SolveResult:
    assignment: Dict[int, int]
    iterations: int
    step_reports: List[dict]


def solve_weighted(source: Csp, wts: WeightedGroundSet, seed: int = 0,
                   cap_bits: int = DEFAULT_CAP_BITS) -> SolveResult:
    """Iterate `step` until every positive-weight element is assigned; the
    remaining (zero-weight) elements are finished by direct extension,
    which `seed` drives when it falls back to resampling.  Remaining
    weight at least halves per iteration, so the loop runs at most
    ceil(log2(1/min positive weight)) + 1 times.  Weights on elements
    outside the source's ground set are refused."""
    outside = set(wts.weights).difference(source.ground)
    if outside:
        raise ValueError(f"weights: id {min(outside)} is not in the ground set")
    pre = lll_check(source, "measurable", cap_bits=cap_bits)
    if not pre.holds:
        raise StepInfeasibleError(
            f"source fails the measurable condition by {-pre.margin}")
    minw = wts.min_positive()
    max_iters = 1   # ceil(log2(1 / min positive weight)) + 1, in exact arithmetic
    while minw is not None and (1 << (max_iters - 1)) * minw < 1:
        max_iters += 1

    g_total: PartialAssignment = {}
    red = identity_reduction(source)   # its source: the elements not yet assigned
    reports: List[dict] = []
    iterations = 0
    while red.connection.source:
        live = wts.restricted_normalized(red.connection.source)
        if live is None:
            break  # only zero-weight elements remain
        if iterations >= max_iters:
            raise StepInfeasibleError(
                f"iteration budget {max_iters} exceeded with "
                f"{len(red.connection.source)} elements uncovered")
        result = step(red, live, cap_bits=cap_bits)
        g_total.update(result.g)
        reports.append({
            "iteration": iterations,
            "covered_fraction_of_remaining": str(result.covered_fraction),
            "covered_elements": len(result.g),
            "certificates": result.certificates,
        })
        red = result.residual_reduction
        iterations += 1

    assignment = extend_solution(source, g_total, seed=seed, cap_bits=cap_bits)
    ok, violated = is_solution(source, assignment)
    if not ok:
        raise AssertionError(f"solver produced an invalid assignment: {violated[:5]}")
    return SolveResult(assignment=assignment, iterations=iterations, step_reports=reports)


@dataclass
class CoverResult:
    members: List[PartialAssignment]
    levels: int
    per_element_counts: Dict[int, int]
    certificates: List[dict]
    route: str


def cover_family(source: Csp, seed: int = 0, budget: int = DEFAULT_COVER_BUDGET,
                 cap_bits: int = DEFAULT_CAP_BITS) -> CoverResult:
    """Finite covering family: the pulled-back partial solutions h_w over
    every branch word w in [2]^N of the binary construction.

    Verifies that the domains cover the ground set, counts per-element
    coverage (expected >= 2^(N-1) when d(rho) sqrt(p) <= 1/2), and
    certifies every residual either by the (8, 2^-15) inequality or by a
    checked solution witness (a solvable residual is reducible to the
    empty CSP).

    Cost model (see `_family_leaves`): a leaf below the last level that
    restricts a constraint costs two dict updates, merged once per level
    state, a memoized rule call per reader that the changed levels do not
    settle, and the member's copy; a level above it costs one `descend`.
    The residual is the leaf state's constraints: `descend` has restricted
    every live constraint that h meets, and a frozen one is never met
    again, since its domain lies in the dangerous set that no later level
    fixes.  Its p (`p_max`), d, certificate and witness are paid once per
    leaf state, which never changes (see `_LevelState`) and whose leaves
    share the dangerous set, the domains and h's key set.  Each leaf gets
    its own copy of the certificate.

    The route is "bootstrap-direct" when the source meets the direct
    (16, 2^-33) inequalities and "direct-binary" otherwise; both encode
    the source itself.
    """
    red_in = identity_reduction(source)
    st = stats(source, cap_bits)
    direct = direct_entry(st.p, st.d, red_in.degree())["ok"]
    route = "bootstrap-direct" if direct else "direct-binary"

    encoded, sigma, est, d_sigma = _binary_stage(red_in, cap_bits)
    p, d = est.p, est.d
    lhs, surrogate = _partial_surrogate(p, d, 2)
    if lhs > surrogate:
        raise StepInfeasibleError(
            "binary target fails the partial-solution precondition")
    if not _halves(p, d_sigma):
        raise StepInfeasibleError(
            "d(rho) sqrt(p) <= 1/2 fails; family coverage not certified")

    classes = discrete_partition(encoded)
    levels = len(classes)
    if 2**levels > budget:
        raise CoverBudgetError(levels, budget)

    conn = sigma.connection
    members: List[PartialAssignment] = []
    certificates: List[dict] = []
    per_state: Dict[_LevelState, list] = {}   # leaf state -> [certificate, leaves]
    for h, member, state in _family_leaves(encoded, classes, conn, p, cap_bits):
        members.append(member)
        entry = per_state.get(state)
        if entry is None:
            domains = [c.domain for c in state.constraints]
            rp, rd = state.p_max, max(overlap_counts(domains, incidence(domains)), default=0)
            cert = {"p_residual": str(rp), "d_residual": rd,
                    "residual_(8,2^-15)": _residual_margin(rp, rd) >= 0}
            if not cert["residual_(8,2^-15)"]:
                residual = Csp(tuple(z for z in encoded.ground if z not in h), 2,
                               tuple(state.constraints))
                if _search(residual, seed, cap_bits)[0] is None:
                    raise StepInfeasibleError(
                        "residual neither satisfies the (8,2^-15) inequality "
                        "nor has a verified solution witness")
                cert["solution_witness"] = True
            per_state[state] = entry = [cert, 0]
        entry[1] += 1
        certificates.append(dict(entry[0]))

    counts = {x: sum(leaves for state, (_, leaves) in per_state.items()
                     if not (conn.det_sets[x] & state.dangerous)) for x in source.ground}
    uncovered = [x for x in source.ground if counts[x] == 0]
    if uncovered:
        raise AssertionError(f"family fails to cover {uncovered[:5]}")
    return CoverResult(members, levels, counts, certificates, route)


def _family_leaves(encoded: Csp, classes: Sequence[Tuple[int, ...]], conn: Connection,
                   p: Fraction, cap_bits: int):
    """Yield (h, apply(conn, h), level state) for every branch word, in
    product((1, 2), repeat=len(classes)) order; h and the carried values
    are live, valid until the next leaf.  A level is quiet at a state when
    its class meets no live constraint there (`_LevelState.fix`).  An
    odometer steps through the levels above the state's quiet suffix (its
    last quiet levels): going down, a level adds its g to h, sets its
    readers' values and moves to the state `descend` returns; going up, it
    deletes g's keys and puts back the values and its start state.  The
    suffix's 2^k words keep the state: the next word's h and settled values
    differ at the levels whose branch changed, merged once per state into
    one update each.  A reader whose determining set lies in g's keys K is
    settled: h is undefined on K before the level (the classes partition
    the ground set), so one table per K holds its values; other readers
    run their rules on h.  A member is one copy of the values.  A rule
    runs once per view (rules are pure): it is memoized on h's values over
    its determining set, None where h is undefined, exact as values are
    >= 1; a reader is put back by running it again."""
    elems, rules = conn.source, conn.rules
    dets = [tuple(conn.det_sets[x]) for x in elems]
    memos: List[dict] = [{} for _ in elems]
    readers = incidence(dets)   # target element -> positions in elems of its readers

    def rule_on(k: int, h: PartialAssignment):
        key = tuple(map(h.get, dets[k]))
        if key not in memos[k]:
            memos[k][key] = rules[elems[k]]({z: v for z, v in zip(dets[k], key) if v is not None})
        return memos[k][key]

    def table_of(keys: tuple) -> list:   # [other readers, (g, settled values) per value]
        if keys not in tables:   # the values None (h undefined on keys), 1 and 2
            touched = {k for z in keys for k in readers.get(z, ())}
            settled = {k for k in touched if set(keys) >= set(dets[k])}
            tables[keys] = [[k for k in touched if k not in settled]] + [
                (g, {elems[k]: rule_on(k, g) for k in settled})
                for g in (dict.fromkeys(keys, value) for value in (None, 1, 2))]
        return tables[keys]

    h, state = {}, _LevelState.root(encoded, p, cap_bits)
    values = {x: rule_on(k, h) for k, x in enumerate(elems)}   # None where undefined
    undefined = sum(v is None for v in values.values())
    tables: Dict[tuple, list] = {}   # K -> table_of(K)
    suffixes: Dict[_LevelState, tuple] = {}   # state -> (suffix's first level, tables, moves)
    levels, level = len(classes), 0
    word, frames = [0] * levels, [None] * levels   # branch; (start state, table, None count)
    while True:
        while True:   # down, through the next branch of each level above the quiet suffix
            if state not in suffixes:   # its first visit, at the level after its descend
                start = next((i + 1 for i in range(levels - 1, level - 1, -1)
                              if not state.fix(classes[i])[1]), level)
                run = [table_of(state.fix(cls)[0]) for cls in classes[start:]]
                # n - (w & -w).bit_length(): word w's new branches over w - 1's (w = 0: None)
                changes = [[(t[3], t[2])] + [(u[2], u[3]) for u in run[j + 1:]]
                           for j, t in enumerate(run)] + [[(t[2], t[1]) for t in run]]
                suffixes[state] = start, run, [(   # (g, values, None change, other readers)
                    *(dict(kv for new, _ in change for kv in new[i].items()) for i in (0, 1)),
                    sum((v is None) - (u is None) for new, old in change
                        for v, u in zip(new[1].values(), old[1].values())),
                    list(dict.fromkeys(k for table in run[-len(change):] for k in table[0])))
                    for change in changes]
            start, run, moves = suffixes[state]
            if level == start:
                break
            value = word[level] = word[level] + 1
            g, _, after = state.descend(classes[level], value)
            if value == 1:   # both branches fix the same elements
                frames[level] = state, table_of(tuple(g)), undefined
            table = frames[level][1]
            h.update(g)
            values.update(table[value + 1][1])
            undefined += sum((v is None) - (u is None)
                             for v, u in zip(table[value + 1][1].values(), table[1][1].values()))
            for k in table[0]:
                x, new = elems[k], rule_on(k, h)
                undefined += (new is None) - (values[x] is None)
                values[x] = new
            level, state = level + 1, after
        for w in range(1 << len(run)):   # the suffix's words, from w - 1 to w by one move
            g, new, delta, others = moves[len(run) - (w & -w).bit_length()]
            h.update(g)
            values.update(new)
            undefined += delta
            for k in others:
                x, new = elems[k], rule_on(k, h)
                undefined += (new is None) - (values[x] is None)
                values[x] = new
            yield h, (values.copy() if not undefined
                      else {x: v for x, v in values.items() if v is not None}), state
        for i, table in enumerate(run, start):   # the suffix's levels, for the way up
            frames[i], word[i] = (state, table, undefined), 2
        level = levels
        while level:   # up, past every level whose second branch is done
            level -= 1
            state, table, undefined = frames[level]
            for z in table[1][0]:
                del h[z]
            values.update(table[1][1])
            for k in table[0]:
                values[elems[k]] = rule_on(k, h)
            if word[level] == 1:
                break
            word[level] = 0
        else:
            return
