import json
import random
from dataclasses import replace
from fractions import Fraction
from itertools import product
from math import sqrt
from typing import Dict, List, Sequence, Tuple

import pytest
from hypothesis import example, given, strategies as st

import locallemma.engine as engine
from locallemma.binary import BlockCode, BlockDecode, _encode_constraint, binary_reduce
from locallemma.compilers import bootstrap
from locallemma.connect import (
    Connection,
    Identity,
    Reduction,
    Residual,
    apply,
    compose,
    identity_reduction,
    pull_partial,
)
from locallemma.csp import (
    DEFAULT_CAP_BITS,
    Constraint,
    Csp,
    PartialAssignment,
    const_assignment,
    discrete_partition,
    incidence,
    is_solution,
    probability,
    restrict_constraint,
    restrict_csp,
    stats,
)
from locallemma.engine import (
    EPS_BINARY,
    RESIDUAL_EPS,
    RESIDUAL_N,
    STEP_TARGET_EPS,
    STEP_TARGET_N,
    WeightedGroundSet,
    _LevelState,
    _family_leaves,
    _is_dangerous,
    _search,
    _sign,
    construct_partial,
    cover_family,
    extend_solution,
    lll_check,
    moser_tardos_solve,
    solve_weighted,
    step,
)
from locallemma.errors import StepInfeasibleError
from locallemma.cli import main
from locallemma.serialize import csp_from_json, csp_to_json, dump_json
from locallemma.randgen import (
    random_cover_csp,
    random_measurable_csp,
    random_symmetric_csp,
)
from reference import branch_trace, check_partial_solution, random_binary_lowp_csp


# ---------------------------------------------------------------- lll_check

def test_lll_check_empty_csp():
    empty = Csp((0, 1), 2, ())
    for which in ("symmetric", "general", "measurable", "neighborhood-growth"):
        verdict = lll_check(empty, which)
        assert verdict.holds and verdict.margin > 0


def test_lll_check_measurable_margin_zero():
    c = Constraint.explicit(tuple(range(15)), 2, [tuple([1] * 15)])  # p = 2^-15, d = 0
    verdict = lll_check(Csp(tuple(range(15)), 2, (c,)), "measurable")
    assert verdict.holds and verdict.margin == 0


def test_lll_symmetric_implies_general_default_eta():
    for seed in range(40):
        csp = random_symmetric_csp(seed)
        if lll_check(csp, "symmetric").holds:
            assert lll_check(csp, "general").holds


def test_lll_neighborhood_growth():
    c1 = Constraint.explicit((0, 1), 8, [(1, 1)])
    c2 = Constraint.explicit((1, 2), 8, [(1, 1)])
    csp = Csp((0, 1, 2), 8, (c1, c2))
    verdict = lll_check(csp, "neighborhood-growth")
    assert verdict.holds  # p = 1/64, 2-ball has 3 vertices


# ---------------------------------------------------------------- _sign

class QuadExpr:
    """Exact value a + b*sqrt(p) in the quadratic field Q[sqrt(p)]."""

    __slots__ = ("a", "b", "p")

    def __init__(self, a: Fraction, b: Fraction, p: Fraction):
        self.a = Fraction(a)
        self.b = Fraction(b)
        self.p = Fraction(p)

    def __add__(self, other: "QuadExpr") -> "QuadExpr":
        return QuadExpr(self.a + other.a, self.b + other.b, self.p)

    def __sub__(self, other: "QuadExpr") -> "QuadExpr":
        return QuadExpr(self.a - other.a, self.b - other.b, self.p)

    def scaled(self, factor: Fraction) -> "QuadExpr":
        return QuadExpr(self.a * factor, self.b * factor, self.p)

    def sign(self) -> int:
        a, b = self.a, self.b
        if b == 0 or self.p == 0:
            return (a > 0) - (a < 0)
        if a == 0:
            return (b > 0) - (b < 0)
        if a > 0 and b > 0:
            return 1
        if a < 0 and b < 0:
            return -1
        # opposite signs: compare a^2 against b^2 p on the dominant side
        lhs, rhs = a * a, b * b * self.p
        if a > 0:  # a > 0, b < 0: positive iff a^2 > b^2 p
            return (lhs > rhs) - (lhs < rhs)
        return (rhs > lhs) - (rhs < lhs)

    def __lt__(self, other: "QuadExpr") -> bool:
        return (self - other).sign() < 0


def _term(prob: Fraction, p: Fraction) -> QuadExpr:
    """min(1, P / sqrt(p)) as an element of Q[sqrt(p)] (P/sqrt(p) equals
    (P/p) * sqrt(p))."""
    if _is_dangerous(prob, p):
        return QuadExpr(Fraction(1), Fraction(0), p)
    return QuadExpr(Fraction(0), prob / p, p)


def test_quadexpr_signs():
    p = Fraction(1, 4)  # sqrt(p) = 1/2
    assert _sign(Fraction(1), Fraction(-1), p) == 1   # 1 - 1/2
    assert _sign(Fraction(-1), Fraction(2), p) == 0   # -1 + 2*(1/2)
    assert _sign(Fraction(-1), Fraction(1), p) == -1  # -1 + 1/2
    assert _sign(Fraction(0), Fraction(0), p) == 0
    assert _sign(Fraction(0), Fraction(1), Fraction(0)) == 0


def quad_float(e: QuadExpr) -> float:
    """Floating-point value of a + b*sqrt(p), for comparison only."""
    return float(e.a) + float(e.b) * sqrt(float(e.p))


def test_quadexpr_compare_random_against_float():
    # `_sign` of the difference orders values as floats do, and gives the
    # oracle's sign on every difference, ties included
    rng = random.Random(1)
    for _ in range(300):
        p = Fraction(rng.randint(0, 50), 100)
        e1 = QuadExpr(Fraction(rng.randint(-8, 8), 7), Fraction(rng.randint(-8, 8), 5), p)
        e2 = QuadExpr(Fraction(rng.randint(-8, 8), 7), Fraction(rng.randint(-8, 8), 5), p)
        diff = _sign(e1.a - e2.a, e1.b - e2.b, p)
        assert diff == (e1 - e2).sign()
        if abs(quad_float(e1) - quad_float(e2)) > 1e-9:
            assert (diff < 0) == (quad_float(e1) < quad_float(e2))


# ---------------------------------------------------------------- Moser-Tardos

def test_mt_no_constraints():
    csp = Csp((0, 1), 3, ())
    result = moser_tardos_solve(csp, seed=0)
    assert result.assignment is not None and not result.capped


def test_mt_single_forbidden_value():
    c = Constraint.explicit((0,), 2, [(1,)])
    csp = Csp((0,), 2, (c,))
    for seed in range(10):
        result = moser_tardos_solve(csp, seed=seed, cap=50)
        assert result.assignment == {0: 2}


def test_mt_caps_out_on_a_violated_empty_domain_predicate():
    # read from JSON, all_equal on no elements holds for the empty tuple
    csp = csp_from_json({"ground": [0, 1], "m": 2,
                         "constraints": [{"domain": [], "predicate": {"name": "all_equal"}}]})
    assert csp.constraints[0].predicate is not None
    result = moser_tardos_solve(csp, seed=0)
    assert result.capped and result.assignment is None and result.resamples == 0
    assert check_partial_solution(csp, {}) is False


def test_mt_valid_under_symmetric_condition():
    for seed in range(100):
        csp = random_symmetric_csp(seed)
        result = moser_tardos_solve(csp, seed=seed, cap=50 * len(csp.constraints))
        assert not result.capped
        assert is_solution(csp, result.assignment)[0]


# ---------------------------------------------------------------- construct_partial

def test_construct_partial_no_constraints_total():
    csp = Csp(tuple(range(6)), 2, ())
    red = identity_reduction(csp)
    wts = WeightedGroundSet.uniform(csp.ground)
    h, trace = construct_partial(csp, red, wts)
    assert len(h) == 6 and trace.covered_weight == 1


def test_construct_partial_guarantees_and_trace():
    for seed in range(25):
        csp = random_binary_lowp_csp(seed, max_ground=40)
        st = stats(csp)
        red = identity_reduction(csp)
        wts = WeightedGroundSet.uniform(csp.ground)
        h, trace = construct_partial(csp, red, wts)
        n = csp.m
        restricted = restrict_csp(csp, h)
        for c in restricted.constraints:
            pr = probability(c)
            assert pr * pr <= Fraction(n * n) * st.p
        shortfall = 1 - trace.covered_weight
        d_rho = red.degree()
        assert shortfall <= 0 or shortfall * shortfall <= Fraction(d_rho * d_rho) * st.p
        # claim monotone (i): dangerous sets grow along the trace
        for a, b in zip(trace.dangerous, trace.dangerous[1:]):
            assert a <= b
        # claim monotone (ii): h is defined off the final dangerous set
        final = trace.dangerous[-1]
        for x in csp.ground:
            if x not in final:
                assert x in h
        # estimator is non-increasing along the chosen path
        for (a0, b0), (a1, b1) in zip(trace.phi, trace.phi[1:]):
            assert _sign(a1 - a0, b1 - b0, st.p) <= 0
        # phi at the root is at most d(rho) sqrt(p)
        root_a, root_b = trace.phi[0]
        assert _sign(root_a, root_b - d_rho, st.p) <= 0
        # final uncovered weight is at most phi at the leaf
        leaf_a, leaf_b = trace.phi[-1]
        assert _sign(1 - trace.covered_weight - leaf_a, -leaf_b, st.p) <= 0


def test_construct_partial_dangerous_freezing_replay():
    # once dangerous, a constraint's restriction never changes again
    for seed in range(12):
        csp = random_binary_lowp_csp(seed + 100, max_ground=36)
        red = identity_reduction(csp)
        wts = WeightedGroundSet.uniform(csp.ground)
        h, trace = construct_partial(csp, red, wts)
        st = stats(csp)
        # replay the recursion level by level
        current = {i: c for i, c in enumerate(csp.constraints)}
        frozen_at = {}
        partial = {}
        for level, (cls, value) in enumerate(zip(trace.classes, trace.chosen)):
            danger = trace.dangerous[level]
            fresh = [x for x in cls if x not in danger]
            g = const_assignment(fresh, value)
            for i, c in current.items():
                if i in frozen_at:
                    continue
                current[i] = restrict_constraint(c, g)
                pr = probability(current[i])
                if pr * pr > st.p:
                    frozen_at[i] = level
            partial.update(g)
        assert partial == h
        for i, c in current.items():
            if i in frozen_at:
                # frozen restrictions survive to the end unchanged
                direct = restrict_constraint(csp.constraints[i], h)
                assert direct.domain == c.domain
                assert direct.materialize().members == c.materialize().members


class _OracleLevelState:
    """The restriction state as it stood before the level walk was shared:
    copying snapshots and a `fix` that takes the elements to assign."""

    def __init__(self, csp, p, cap_bits):
        self.p = p
        self.cap_bits = cap_bits
        self.constraints = list(csp.constraints)
        self.probs = [probability(c, cap_bits) for c in csp.constraints]
        self.original_domains = [frozenset(c.domain) for c in csp.constraints]
        self.frozen = [pr * pr > p for pr in self.probs]

    def dangerous_elements(self):
        out = set()
        for i, frozen in enumerate(self.frozen):
            if frozen:
                out.update(self.original_domains[i])
        return frozenset(out)

    def snapshot(self):
        return (list(self.constraints), list(self.probs), list(self.frozen))

    def restore(self, snap):
        self.constraints, self.probs, self.frozen = (list(snap[0]), list(snap[1]),
                                                     list(snap[2]))

    def fix(self, elements, value):
        if not elements:
            return
        g = const_assignment(elements, value)
        for i, c in enumerate(self.constraints):
            if self.frozen[i]:
                continue
            if not (set(c.domain) & set(elements)):
                continue
            restricted = restrict_constraint(c, g)
            self.constraints[i] = restricted
            self.probs[i] = probability(restricted, self.cap_bits)
            if self.probs[i] * self.probs[i] > self.p:
                self.frozen[i] = True


def oracle_construct_partial(csp, red, wts, cap_bits=DEFAULT_CAP_BITS):
    """Derandomized construct_partial as it stood with its replay: choose
    the branch word level by level, then replay the word on a fresh state
    to record h, the dangerous sets, phi and the covered weight."""
    n = csp.m
    p = stats(csp, cap_bits).p
    classes = discrete_partition(csp)
    conn = red.connection
    weight_touching = [
        sum((wts.weights.get(x, Fraction(0)) for x in conn.source
             if set(c.domain) & conn.det_sets[x]), Fraction(0))
        for c in csp.constraints]

    def phi(st_):
        total = QuadExpr(Fraction(0), Fraction(0), p)
        for i in range(len(st_.constraints)):
            if weight_touching[i] != 0:
                total = total + _term(st_.probs[i], p).scaled(weight_touching[i])
        return total

    def run_word(word, st_):
        h = {}
        dangerous_trace = [st_.dangerous_elements()]
        phi_trace = [phi(st_)]
        for k, cls in enumerate(classes):
            danger = st_.dangerous_elements()
            fresh = [x for x in cls if x not in danger]
            h.update(const_assignment(fresh, word[k]))
            st_.fix(fresh, word[k])
            dangerous_trace.append(st_.dangerous_elements())
            phi_trace.append(phi(st_))
        return h, dangerous_trace, phi_trace

    state = _OracleLevelState(csp, p, cap_bits)
    chosen = []
    for cls in classes:
        danger = state.dangerous_elements()
        fresh = [x for x in cls if x not in danger]
        best_i, best_phi, best_snap = None, None, None
        for i in range(1, n + 1):
            snap = state.snapshot()
            state.fix(fresh, i)
            cand_phi = phi(state)
            if best_phi is None or cand_phi < best_phi:
                best_i, best_phi = i, cand_phi
                best_snap = state.snapshot()
            state.restore(snap)
        state.restore(best_snap)
        chosen.append(best_i)
    h, dangerous_trace, phi_trace = run_word(chosen, _OracleLevelState(csp, p, cap_bits))
    covered_weight = sum((wts.weights.get(x, Fraction(0)) for x in conn.source
                          if not (conn.det_sets[x] & dangerous_trace[-1])), Fraction(0))
    return h, classes, chosen, dangerous_trace, phi_trace, covered_weight


def assert_matches_oracle(csp, red, wts):
    h, trace = construct_partial(csp, red, wts)
    want_h, classes, chosen, dangerous, phi, covered = oracle_construct_partial(csp, red, wts)
    assert h == want_h and list(h) == list(want_h)
    assert trace.classes == list(classes)
    assert trace.chosen == chosen
    assert trace.dangerous == dangerous
    assert trace.phi == [(e.a, e.b) for e in phi]
    assert trace.covered_weight == covered


def test_construct_partial_matches_replay_oracle():
    for seed in range(40):
        csp = random_binary_lowp_csp(seed)
        assert_matches_oracle(csp, identity_reduction(csp),
                              WeightedGroundSet.uniform(csp.ground))


def test_construct_partial_matches_replay_oracle_on_step_target():
    # the binary target, composed connection and weights as `step` builds
    # them, with weights that differ between source elements
    source = random_measurable_csp(0, max_ground=90)
    red_in = identity_reduction(source)
    boot = bootstrap(source, red_in, STEP_TARGET_N, STEP_TARGET_EPS / (1 + EPS_BINARY))
    assert boot.feasible and boot.exact_p
    encoded, tau_red = binary_reduce(boot.csp, EPS_BINARY)
    sigma = Reduction(compose(boot.reduction.connection, tau_red.connection), encoded)
    raw = {x: i % 3 + 1 for i, x in enumerate(source.ground)}
    total = sum(raw.values())
    wts = WeightedGroundSet({x: Fraction(w, total) for x, w in raw.items()})
    assert len(set(wts.weights.values())) == 3
    assert_matches_oracle(encoded, sigma, wts)


def forced_freeze_csp():
    """m = 4, p = 2^-11, d = 3: C on x1, x2, x3 (levels 0-2) and e1..e3
    forbids x = (1, 1, 1) with e in {(1,1,1), (1,1,2)}; sibling j forbids
    x_j in {2, 3, 4} with its six late elements all 1, and lets its
    elements fixed before level j - 1 take any value.  Value 1 at level
    j - 1 multiplies P(C) by 4 and zeroes sibling j, every other value the
    reverse; the siblings weigh 16, 64 and 256 against C's 1, so the
    estimator picks 1 three times and C freezes at level 2 (P = 1/32)."""
    x, e = [0, 1, 2], [3, 4, 5]
    late = {1: range(6, 12), 2: range(12, 19), 3: range(19, 27)}
    constraints = [Constraint.explicit(tuple(x + e), 4, [(1,) * 6, (1,) * 5 + (2,)])]
    for j in (1, 2, 3):
        constraints.append(Constraint.explicit((x[j - 1], *late[j]), 4, [
            (v, *free, *(1,) * 6)
            for v in (2, 3, 4) for free in product(range(1, 5), repeat=j - 1)]))
    raw = {3: 1}
    for j, total in ((1, 16), (2, 64), (3, 256)):
        share, extra = divmod(total, len(late[j]))
        raw.update({y: share + (k < extra) for k, y in enumerate(late[j])})
    t = sum(raw.values())
    return Csp(tuple(range(27)), 4, tuple(constraints)), \
        WeightedGroundSet({y: Fraction(raw.get(y, 0), t) for y in range(27)})


def test_construct_partial_matches_replay_oracle_when_the_chosen_path_freezes():
    # on the random families no weighted constraint freezes on the chosen
    # path, so a frozen term's change, (w, 0) - (0, w P / p), is checked here
    csp, wts = forced_freeze_csp()
    assert stats(csp).p == Fraction(1, 2048) and stats(csp).d == 3
    h, trace = construct_partial(csp, identity_reduction(csp), wts)
    assert trace.chosen[:3] == [1, 1, 1]
    assert trace.phi[2][0] == 0 and trace.phi[3][0] == wts.weights[3] > 0
    assert_matches_oracle(csp, identity_reduction(csp), wts)


def test_construct_partial_hits_the_class_entry_of_its_start_state(monkeypatch):
    # every value of a class descends from the class's start state: value 1
    # makes the state's entry for the class and values 2..m hit that entry
    calls = []
    descend = _LevelState.descend

    def recording(self, cls, value):
        before = self.fixes.get(cls)
        out = descend(self, cls, value)
        calls.append((self, cls, value, before, self.fixes[cls]))
        return out

    monkeypatch.setattr(_LevelState, "descend", recording)
    for seed in range(10):
        csp = random_binary_lowp_csp(seed)
        construct_partial(csp, identity_reduction(csp), WeightedGroundSet.uniform(csp.ground))
    assert len(calls) > 2 * csp.m and max(value for _, _, value, _, _ in calls) > 1
    for state, cls, value, before, after in calls:
        if value == 1:
            assert before is None
            start = state, cls, after
        else:
            assert state is start[0] and cls is start[1] and before is after is start[2]


def test_construct_partial_precondition():
    c = Constraint.explicit((0, 1), 2, [(1, 1), (2, 2)])  # p = 1/2
    csp = Csp((0, 1), 2, (c,))
    with pytest.raises(StepInfeasibleError):
        construct_partial(csp, identity_reduction(csp),
                          WeightedGroundSet.uniform(csp.ground))


def test_construct_partial_h_is_partial_solution():
    for seed in range(10):
        csp = random_binary_lowp_csp(seed + 40, max_ground=30)
        red = identity_reduction(csp)
        wts = WeightedGroundSet.uniform(csp.ground)
        h, _ = construct_partial(csp, red, wts)
        assert check_partial_solution(csp, h) is True


# ---------------------------------------------------------------- step / solve

def test_step_trivial_source():
    csp = Csp(tuple(range(4)), 4, ())
    wts = WeightedGroundSet.uniform(csp.ground)
    result = step(identity_reduction(csp), wts)
    assert result.covered_fraction == 1
    assert len(result.g) == 4


def test_step_covers_half_and_certifies():
    for seed in (0, 3, 9):
        csp = random_measurable_csp(seed, max_ground=90)
        wts = WeightedGroundSet.uniform(csp.ground)
        result = step(identity_reduction(csp), wts)
        assert result.covered_fraction >= Fraction(1, 2)
        assert result.certificates["target_(16,2^-32)"]
        assert result.certificates["p*d(rho)^2<=1/4"]
        assert result.certificates["residual_(8,2^-15)"]
        # residual certification replay: 2 sqrt(p) (d+1)^8 <= 2^-15 in squared form
        p = Fraction(result.certificates["p_target"])
        d = result.certificates["d_target"]
        lhs_sq = 4 * p * Fraction((d + 1) ** 16)
        assert lhs_sq <= Fraction(1, 2**30)


# One all-1 pattern on 40 binary elements: p = 2^-40 and d = 0 meet the
# direct (16, 2^-33) inequalities, so every certificate of `step` holds
# unless a fault is planted.  Each planted fault must be refused by the
# certificate it breaks, in `step` and through `csp solve --method weighted`.
STEP_SOURCE = Csp(tuple(range(40)), 2, (Constraint.explicit(tuple(range(40)), 2, [(1,) * 40]),))


def assert_step_refuses(monkeypatch, tmp_path, plant, *named):
    """`plant(patch)` installs a fault; `step` and the weighted solve then
    raise StepInfeasibleError with every text in `named` in the message,
    and the CLI exits 4 with outcome `infeasible`."""
    wts = WeightedGroundSet.uniform(STEP_SOURCE.ground)
    assert step(identity_reduction(STEP_SOURCE), wts).covered_fraction >= Fraction(1, 2)
    cpath, out = tmp_path / "c.json", tmp_path / "r.json"
    dump_json(csp_to_json(STEP_SOURCE), cpath)
    with monkeypatch.context() as patch:
        plant(patch)
        with pytest.raises(StepInfeasibleError) as refused:
            step(identity_reduction(STEP_SOURCE), wts)
        assert main(["csp", "solve", "--csp", str(cpath), "--method", "weighted",
                     "--out", str(out)]) == 4
    report = json.loads(out.read_text())
    assert report["outcome"] == "infeasible"
    for text in named:
        assert text in str(refused.value) and text in report["error"]


@pytest.mark.parametrize("field, named", [
    ("p", '"target_(16,2^-32)": false'),          # p = 2^-20 > 2^-32 at d = 0
    ("d_sigma", '"p*d(rho)^2<=1/4": false'),      # 2^-40 (2^20)^2 = 1 > 1/4
])
def test_step_refuses_a_binary_target_failing_the_step_inequality(monkeypatch, tmp_path,
                                                                  field, named):
    real = engine._binary_stage

    def inflated(red_in, cap_bits):
        encoded, sigma, est, d_sigma = real(red_in, cap_bits)
        if field == "p":
            return encoded, sigma, replace(est, p=Fraction(1, 2**20)), d_sigma
        return encoded, sigma, est, 2**20

    assert_step_refuses(monkeypatch, tmp_path,
                        lambda patch: patch.setattr(engine, "_binary_stage", inflated),
                        "step inequality failed: ", named)


def test_step_refuses_a_residual_failing_the_measurable_condition(monkeypatch, tmp_path):
    real_pull, real_stats, residual = engine.pull_partial, engine.stats, []

    def pull(sigma, h):
        g, red = real_pull(sigma, h)
        residual.append(red.target)
        return g, red

    def planted(csp, cap_bits=DEFAULT_CAP_BITS):   # p = 1/2 on a residual target only
        st = real_stats(csp, cap_bits)
        return replace(st, p=Fraction(1, 2)) if any(csp is t for t in residual) else st

    def plant(patch):
        patch.setattr(engine, "pull_partial", pull)
        patch.setattr(engine, "stats", planted)

    assert_step_refuses(monkeypatch, tmp_path, plant,
                        "residual certification failed: ", '"residual_(8,2^-15)": false')


def test_step_refuses_a_partial_solution_covering_less_than_half(monkeypatch, tmp_path):
    real_pull = engine.pull_partial

    def smaller(sigma, h):   # keeps the first fifth of g: covered 8/40 = 1/5
        g, red = real_pull(sigma, h)
        return dict(sorted(g.items())[:len(g) // 5]), red

    assert_step_refuses(monkeypatch, tmp_path,
                        lambda patch: patch.setattr(engine, "pull_partial", smaller),
                        "step covered only 1/5 < 1/2")


def assert_refused(monkeypatch, tmp_path, source, command, call, message, plant=None):
    """With `plant(patch)` installed, if given, `call(source)` raises
    StepInfeasibleError with exactly `message`, and `csp <command>` on
    `source` exits 4 with outcome `infeasible` and that error."""
    cpath, out = tmp_path / "c.json", tmp_path / "r.json"
    dump_json(csp_to_json(source), cpath)
    with monkeypatch.context() as patch:
        if plant is not None:
            plant(patch)
        with pytest.raises(StepInfeasibleError) as refused:
            call(source)
        assert main(["csp", *command, "--csp", str(cpath), "--out", str(out)]) == 4
    report = json.loads(out.read_text())
    assert report["outcome"] == "infeasible"
    assert str(refused.value) == report["error"] == message


def test_cover_family_refuses_a_target_failing_the_partial_solution_precondition(
        monkeypatch, tmp_path):
    # p = 1/2 and d = 0: p (d+1)^2 = 1/2 > 0.1353/4, with no fault planted
    source = csp_from_json({"ground": [0, 1], "m": 2,
                            "constraints": [{"domain": [0], "forbidden": [[1]]}]})
    assert_refused(monkeypatch, tmp_path, source, ["cover"], cover_family,
                   "binary target fails the partial-solution precondition")


def test_cover_family_refuses_an_uncertified_coverage(monkeypatch, tmp_path):
    # once the precondition holds, d(sigma) <= d + 1 gives p d(sigma)^2 <=
    # 0.1353/4, so no input reaches this check: the binary stage is made to
    # report d(sigma) = 2^20, and 2^-40 (2^20)^2 = 1 > 1/4
    real = engine._binary_stage

    def inflated(red_in, cap_bits):
        encoded, sigma, est, _ = real(red_in, cap_bits)
        return encoded, sigma, est, 2**20

    assert_refused(monkeypatch, tmp_path, STEP_SOURCE, ["cover"], cover_family,
                   "d(rho) sqrt(p) <= 1/2 fails; family coverage not certified",
                   lambda patch: patch.setattr(engine, "_binary_stage", inflated))


def test_cover_family_refuses_a_residual_with_no_certificate(monkeypatch, tmp_path):
    # every residual is made to fail the (8, 2^-15) inequality and to have
    # no solution witness
    def plant(patch):
        patch.setattr(engine, "_residual_margin", lambda p, d: Fraction(-1))
        patch.setattr(engine, "_search", lambda csp, seed, cap_bits: (None, True))

    assert_refused(monkeypatch, tmp_path, random_cover_csp(0, max_levels=10), ["cover"],
                   cover_family, "residual neither satisfies the (8,2^-15) inequality "
                   "nor has a verified solution witness", plant)


def test_solve_weighted_refuses_past_its_iteration_budget(monkeypatch, tmp_path):
    # a step that covers nothing returns the reduction it was given; four
    # elements of weight 1/4 allow ceil(log2 4) + 1 = 3 iterations
    calls = []

    def stalled(red, wts, cap_bits=DEFAULT_CAP_BITS):
        calls.append(red)
        if len(calls) > 10:   # the budget failed to stop the loop
            raise RuntimeError("step called past the iteration budget")
        return engine.StepResult({}, red, Fraction(0), {}, None)

    def solve(source):
        return solve_weighted(source, WeightedGroundSet.uniform(source.ground))

    assert_refused(monkeypatch, tmp_path, Csp(tuple(range(4)), 2, ()),
                   ["solve", "--method", "weighted"], solve,
                   "iteration budget 3 exceeded with 4 elements uncovered",
                   lambda patch: patch.setattr(engine, "step", stalled))


def assert_internal_error(monkeypatch, tmp_path, source, command, call, message, plant):
    """With `plant(patch)` installed, `call(source)` raises AssertionError
    with exactly `message`, and `csp <command>` on `source` exits 5 with
    outcome `internal-error` and that error."""
    cpath, out = tmp_path / "c.json", tmp_path / "r.json"
    dump_json(csp_to_json(source), cpath)
    with monkeypatch.context() as patch:
        plant(patch)
        with pytest.raises(AssertionError) as broken:
            call(source)
        assert main(["csp", *command, "--csp", str(cpath), "--out", str(out)]) == 5
    report = json.loads(out.read_text())
    assert report["outcome"] == "internal-error" and report["passed"] is False
    assert str(broken.value) == report["error"] == message


def weighted_solve(source):
    return solve_weighted(source, WeightedGroundSet.uniform(source.ground))


def planted_root(**fields):
    """A patch of `_LevelState.root` whose start state has `fields` (a
    value, or a function of the CSP) in place of its own."""
    real = _LevelState.root

    def root(cls, csp, p, cap_bits):
        state = real(csp, p, cap_bits)
        for name, value in fields.items():
            setattr(state, name, value(csp) if callable(value) else value)
        return state

    return lambda patch: patch.setattr(_LevelState, "root", classmethod(root))


# The invariants below hold on every input (construct_partial proves its
# two bounds, the family covers by d(rho) sqrt(p) <= 1/2, and the solver
# checks what it already built); each test plants the fault that breaks one.

def test_construct_partial_refuses_a_restricted_probability_over_its_bound(
        monkeypatch, tmp_path):
    # the walk carries p_max = 1 from the root: 1 > 2^2 p at p = 2^-40
    assert_internal_error(monkeypatch, tmp_path, STEP_SOURCE, ["solve", "--method", "weighted"],
                          weighted_solve, "restricted probability bound violated",
                          planted_root(p_max=Fraction(1)))


def test_construct_partial_refuses_a_coverage_under_its_bound(monkeypatch, tmp_path):
    # every element starts dangerous: no level fixes one, nothing is
    # covered, and a shortfall of 1 exceeds d(rho)^2 p
    assert_internal_error(monkeypatch, tmp_path, STEP_SOURCE, ["solve", "--method", "weighted"],
                          weighted_solve, "coverage bound violated",
                          planted_root(dangerous=lambda csp: frozenset(csp.ground)))


def test_cover_family_refuses_a_family_that_misses_an_element(monkeypatch, tmp_path):
    # the walk drops the leaves of every state under which element 0 is
    # covered (its determining set avoids the dangerous set); its whole
    # domain freezes together, so the error names that domain's first five
    real = engine._family_leaves

    def dropping(encoded, classes, conn, p, cap_bits):
        for h, member, state in real(encoded, classes, conn, p, cap_bits):
            if conn.det_sets[0] & state.dangerous:
                yield h, member, state

    source = random_cover_csp(0, max_levels=10)
    assert cover_family(source).per_element_counts[0] < 2 ** 10
    assert_internal_error(monkeypatch, tmp_path, source, ["cover"], cover_family,
                          "family fails to cover [0, 1, 2, 3, 4]",
                          lambda patch: patch.setattr(engine, "_family_leaves", dropping))


def test_solve_weighted_refuses_an_assignment_that_violates_the_source(monkeypatch, tmp_path):
    # the extension returns all 1s, the pattern STEP_SOURCE forbids
    def all_ones(csp, g, seed=0, cap_bits=DEFAULT_CAP_BITS):
        return dict.fromkeys(csp.ground, 1)

    assert_internal_error(monkeypatch, tmp_path, STEP_SOURCE, ["solve", "--method", "weighted"],
                          weighted_solve, "solver produced an invalid assignment: [0]",
                          lambda patch: patch.setattr(engine, "extend_solution", all_ones))


def test_solve_weighted_no_constraints():
    csp = Csp(tuple(range(5)), 3, ())
    wts = WeightedGroundSet.uniform(csp.ground)
    result = solve_weighted(csp, wts)
    assert is_solution(csp, result.assignment)[0]


def test_solve_weighted_random_instances():
    for seed in range(6):
        csp = random_measurable_csp(seed + 50, max_ground=120)
        wts = WeightedGroundSet.uniform(csp.ground)
        result = solve_weighted(csp, wts, seed=seed)
        assert is_solution(csp, result.assignment)[0]
        minw = wts.min_positive()
        k = 0
        while (1 << k) * minw < 1:
            k += 1
        assert result.iterations <= k + 1


def test_solve_weighted_zero_weight_extension():
    csp = random_measurable_csp(31, max_ground=60)
    n = len(csp.ground)
    weights = {x: Fraction(0) for x in csp.ground}
    positive = list(csp.ground)[: n // 2]
    for x in positive:
        weights[x] = Fraction(1, len(positive))
    wts = WeightedGroundSet(weights)
    result = solve_weighted(csp, wts, seed=2)
    assert is_solution(csp, result.assignment)[0]


def test_solve_weighted_rejects_bad_source():
    c = Constraint.explicit((0, 1), 2, [(1, 1), (2, 2)])
    csp = Csp((0, 1), 2, (c,))
    with pytest.raises(StepInfeasibleError):
        solve_weighted(csp, WeightedGroundSet.uniform(csp.ground))


def test_extend_solution_large_range():
    csp = random_measurable_csp(17, max_ground=40)
    f = extend_solution(csp, {})
    assert is_solution(csp, f)[0]


def test_extend_solution_failure_texts():
    # every value of element 0 is forbidden, so the per-element pass falls
    # back to search; within the cap, exhaustive search decides there is none
    csp = Csp((0, 1), 2, (Constraint.explicit((0,), 2, [(1,), (2,)]),))
    with pytest.raises(StepInfeasibleError, match="no extension exists for the residual CSP"):
        extend_solution(csp, {})
    # above the cap, resampling caps out on a predicate that forbids everything
    csp = Csp(tuple(range(6)), 2, (Constraint.from_predicate((0,), 2, lambda values: True),))
    with pytest.raises(StepInfeasibleError, match="extension search capped out"):
        extend_solution(csp, {}, cap_bits=4)


def test_check_partial_solution_above_the_cap():
    pair = Constraint.explicit((0, 1), 2, [(1, 1)])
    csp = Csp(tuple(range(6)), 2, (pair,))
    assert check_partial_solution(csp, {0: 1, 1: 1}, cap_bits=2) is False
    assert check_partial_solution(csp, {0: 1}, cap_bits=2) is True
    hopeless = Csp(csp.ground, 2, (pair, Constraint.from_predicate((2,), 2, lambda values: True)))
    assert check_partial_solution(hopeless, {}, cap_bits=2) is None


# ---------------------------------------------------------------- cover_family

def test_cover_family_no_constraints():
    csp = Csp((0, 1, 2), 2, ())
    result = cover_family(csp)
    assert result.route == "bootstrap-direct"
    assert result.levels == 1
    assert len(result.members) == 2
    assert sorted(set(m.values()) for m in result.members) == [{1}, {2}]
    # the empty ground: zero levels, so the walk yields exactly one leaf
    result = cover_family(Csp((), 2, ()))
    assert (result.levels, result.members) == (0, [{}])
    assert [cert["p_residual"] for cert in result.certificates] == ["0"]


def test_cover_family_coverage_counts():
    for seed in range(5):
        csp = random_cover_csp(seed, max_levels=11)
        result = cover_family(csp, budget=1 << 14)
        assert len(result.members) == 2 ** result.levels
        for x in csp.ground:
            assert result.per_element_counts[x] >= 2 ** (result.levels - 1)
        union = set()
        for member in result.members:
            union.update(member.keys())
        assert union == set(csp.ground)


def test_cover_family_budget():
    from locallemma.errors import CoverBudgetError

    csp = random_cover_csp(3, max_levels=12)
    with pytest.raises(CoverBudgetError):
        cover_family(csp, budget=4)


def test_cover_family_members_are_branch_traces():
    # on the direct-binary route every member is the pulled-back h_w of
    # its branch word, in the order of product((1, 2), repeat=levels)
    csp = random_cover_csp(0, max_levels=10)
    result = cover_family(csp, budget=1 << 14)
    assert result.route == "direct-binary"
    encoded, tau_red = binary_reduce(csp, EPS_BINARY)
    conn = compose(identity_reduction(csp).connection, tau_red.connection)
    words = list(product((1, 2), repeat=result.levels))
    assert len(result.members) == len(words)
    for member, word in zip(result.members, words):
        assert member == apply(conn, branch_trace(encoded, word)[0])


def oracle_cover_family(source, seed=0, budget=1 << 16, cap_bits=DEFAULT_CAP_BITS):
    """cover_family as it stood with a full rebuild at every leaf: apply
    the composed connection to h, restrict the encoded CSP to h and take
    the residual's stats.  Returns (members, levels, counts, certificates,
    route)."""
    red_in, route = identity_reduction(source), "direct-binary"
    if lll_check(source, "measurable", cap_bits=cap_bits).holds:
        boot = bootstrap(source, red_in, STEP_TARGET_N, STEP_TARGET_EPS / (1 + EPS_BINARY),
                         cap_bits=cap_bits)
        if boot.feasible and boot.exact_p:
            red_in, route = boot.reduction, f"bootstrap-{boot.route}"
    encoded, tau_red = binary_reduce(red_in.target, EPS_BINARY)
    conn = compose(red_in.connection, tau_red.connection)
    classes = discrete_partition(encoded)
    assert 2 ** len(classes) <= budget
    members, certificates = [], []
    counts = {x: 0 for x in source.ground}

    def visit(level, state, h):
        if level == len(classes):
            for x in conn.source:
                if not (conn.det_sets[x] & state.dangerous):
                    counts[x] += 1
            members.append(apply(conn, h))
            residual = restrict_csp(encoded, h)
            rst = stats(residual, cap_bits)
            cert = {"p_residual": str(rst.p), "d_residual": rst.d}
            cert["residual_(8,2^-15)"] = rst.p * (rst.d + 1) ** RESIDUAL_N <= RESIDUAL_EPS
            if not cert["residual_(8,2^-15)"]:
                witness, _ = _search(residual, seed, cap_bits)
                assert witness is not None
                cert["solution_witness"] = True
            certificates.append(cert)
            return
        start = state.snapshot()
        for value in (1, 2):
            g, _ = state.descend(classes[level], value)
            visit(level + 1, state, {**h, **g})
            state.restore(start)

    visit(0, MutableLevelState(encoded, stats(encoded, cap_bits).p, cap_bits), {})
    return members, len(classes), counts, certificates, route


def test_cover_family_matches_leaf_rebuild_oracle():
    arities, witnesses = set(), 0
    for seed in range(20):
        csp = random_cover_csp(seed, max_levels=12)
        result = cover_family(csp, seed=seed, budget=1 << 14)
        members, levels, counts, certificates, route = oracle_cover_family(
            csp, seed=seed, budget=1 << 14)
        assert [list(m.items()) for m in result.members] == [list(m.items()) for m in members]
        assert list(result.per_element_counts.items()) == list(counts.items())
        assert result.certificates == certificates
        assert (result.levels, result.route) == (levels, route)
        arities.add(csp.constraints[0].arity())
        witnesses += sum("solution_witness" in cert for cert in certificates)
    assert arities == {10, 11, 12} and witnesses > 0


def test_family_leaves_carry_members_of_partial_view_rules():
    # a hand-built monotone connection whose rules answer on partial views
    # (a min settled by any decoded 1, constants), composed over a binary
    # decode: at every leaf the carried member is apply(conn, h)
    target = Csp(tuple(range(7)), 4, (
        Constraint.explicit((0, 1), 4, [(1, 1)]),
        Constraint.explicit((1, 2), 4, [(2, 3)]),
        Constraint.explicit((3, 4, 5), 4, [(1, 2, 3)]),
    ))  # element 6 lies in no constraint
    reads = {0: (0, 1), 1: (1, 2, 3), 2: (5, 6), 3: (4,), 4: ()}

    def settled_min(ys):
        def rule(view):
            if 1 in view.values():
                return 1
            return min(view.values()) if len(view) == len(ys) else None
        return rule

    rules = {x: settled_min(ys) for x, ys in reads.items() if x < 3}
    rules.update({3: lambda view: 3, 4: lambda view: 2})
    rho = Connection(source=tuple(reads), target=target.ground,
                     det_sets={x: frozenset(ys) for x, ys in reads.items()}, rules=rules)
    encoded, tau_red = binary_reduce(target, EPS_BINARY)
    conn = compose(rho, tau_red.connection)
    classes = discrete_partition(encoded)
    leaves = early = 0
    for h, member, state in _family_leaves(encoded, classes, conn, stats(encoded).p,
                                           DEFAULT_CAP_BITS):
        want = apply(conn, h)
        assert member == want and list(member) == list(want)
        leaves += 1
        early += any(not conn.det_sets[x] <= h.keys() for x in member)
    assert leaves == 2 ** len(classes)
    assert early > 0  # some leaf holds a value its rule gave on a partial view


def test_family_leaves_run_each_rule_once_per_distinct_view():
    # rules that count their calls and read every element of a total view:
    # each (reader, view) pair runs once, and every carried member is
    # apply(conn, h) of the same connection without the counters
    target = Csp(tuple(range(8)), 2, (Constraint.explicit(tuple(range(8)), 2, [(1,) * 8]),))
    reads = {0: (0, 1, 2), 1: (2, 3), 2: (3, 4, 5, 6), 3: (7,), 4: (1, 6), 5: ()}

    def weighted_sum(ys):
        def rule(view):
            if len(view) < len(ys):
                return None
            return 1 + sum((i + 1) * view[y] for i, y in enumerate(ys))
        return rule

    calls = {}

    def counted(x, rule):
        def counting_rule(view):
            key = (x, tuple(sorted(view.items())))
            calls[key] = calls.get(key, 0) + 1
            return rule(view)
        return counting_rule

    det_sets = {x: frozenset(ys) for x, ys in reads.items()}
    plain = Connection(source=tuple(reads), target=target.ground, det_sets=det_sets,
                       rules={x: weighted_sum(ys) for x, ys in reads.items()})
    counting = Connection(source=plain.source, target=target.ground, det_sets=det_sets,
                          rules={x: counted(x, plain.rules[x]) for x in reads})
    classes = discrete_partition(target)
    leaves = 0
    for h, member, state in _family_leaves(target, classes, counting, stats(target).p,
                                           DEFAULT_CAP_BITS):
        assert member == apply(plain, h)
        leaves += 1
    assert leaves == 2 ** len(classes) == 256
    assert calls and set(calls.values()) == {1}


def test_cover_family_coverage_by_dangerous_set_matches_per_leaf_oracle():
    # two constraints sharing element 9 and a third apart: the leaves end
    # with several dangerous sets, two residual degrees and two residual
    # probabilities, so every memo of the walk meets more than one key
    doms = (tuple(range(0, 10)), tuple(range(9, 19)), tuple(range(19, 29)))
    patterns = ((1,) * 10, (1,) * 10, (1, 2, 2, 1, 2, 1, 1, 2, 1, 2))
    csp = Csp(tuple(range(30)), 2, tuple(Constraint.explicit(dom, 2, [pattern])
                                        for dom, pattern in zip(doms, patterns)))
    encoded, tau_red = binary_reduce(csp, EPS_BINARY)
    conn = compose(identity_reduction(csp).connection, tau_red.connection)
    dangerous = {}
    for h, member, state in _family_leaves(encoded, discrete_partition(encoded), conn,
                                           stats(encoded).p, DEFAULT_CAP_BITS):
        dangerous[state.dangerous] = dangerous.get(state.dangerous, 0) + 1
    assert len(dangerous) >= 3 and max(dangerous.values()) > 1

    result = cover_family(csp, seed=3, budget=1 << 14)
    members, levels, counts, certificates, route = oracle_cover_family(csp, seed=3,
                                                                       budget=1 << 14)
    assert list(result.per_element_counts.items()) == list(counts.items())
    assert result.certificates == certificates
    assert len({id(cert) for cert in result.certificates}) == len(certificates)
    assert [list(m.items()) for m in result.members] == [list(m.items()) for m in members]
    assert {cert["d_residual"] for cert in certificates} == {0, 1}
    assert len({cert["p_residual"] for cert in certificates}) == 2
    assert any("solution_witness" in cert for cert in certificates)
    assert len(set(counts.values())) > 1


# ------------------------------------- cover walk against the copying walk

class MutableLevelState:
    """The level state as it stood while the walks changed it in place and
    went back to a `snapshot()` by `restore`, with a quiet memo keyed by
    ids; the value `_LevelState` must make the same states."""

    def __init__(self, csp: Csp, p: Fraction, cap_bits: int):
        self.p = p
        self.cap_bits = cap_bits
        self.constraints = list(csp.constraints)
        self.probs = [probability(c, cap_bits) for c in csp.constraints]
        self.p_max = max(self.probs, default=Fraction(0))
        self.original_domains = [frozenset(c.domain) for c in csp.constraints]
        self.meeting = csp.meeting
        self.frozen = [_is_dangerous(pr, p) for pr in self.probs]
        self.dangerous = frozenset().union(
            *(dom for dom, frozen in zip(self.original_domains, self.frozen) if frozen))
        self.quiet: Dict[Tuple[int, int], tuple] = {}   # -> (cls, constraints, g's keys, quiet)

    def snapshot(self):
        return self.constraints, self.probs, self.p_max, self.frozen, self.dangerous

    def restore(self, snap):
        self.constraints, self.probs, self.p_max, self.frozen, self.dangerous = snap

    def descend(self, cls: Sequence[int], value: int) -> Tuple[PartialAssignment, List[int]]:
        """One level: fix the elements of `cls` outside the dangerous set to
        `value`, restrict every live constraint they meet, and freeze those
        whose conditional probability passes sqrt(p).  Returns the
        assignment made and the indices of the restricted constraints."""
        constraints, probs, frozen = self.constraints, self.probs, self.frozen
        memo = self.quiet.get((id(cls), id(constraints)))
        if memo is None or memo[0] is not cls or memo[1] is not constraints:
            keys = [x for x in cls if x not in self.dangerous]
            quiet = not any(not frozen[i] and constraints[i].domain
                            for x in keys for i in self.meeting.get(x, ()))
            memo = self.quiet[id(cls), id(constraints)] = cls, constraints, keys, quiet
        g = const_assignment(memo[2], value)
        changed: List[int] = []
        if memo[3]:
            return g, changed  # nothing live meets g: every state list stays as it is
        constraints, probs, frozen = list(constraints), list(probs), list(frozen)
        newly_frozen = []
        for i in sorted({i for x in g for i in self.meeting.get(x, ())}):
            if frozen[i] or g.keys().isdisjoint(constraints[i].domain):
                continue
            changed.append(i)
            constraints[i] = restrict_constraint(constraints[i], g)
            probs[i] = probability(constraints[i], self.cap_bits)
            if _is_dangerous(probs[i], self.p):
                frozen[i] = True
                newly_frozen.append(self.original_domains[i])
        if changed:
            # the old maximum survives unless a restricted constraint held it
            held = any(self.probs[i] == self.p_max for i in changed)
            self.p_max = max(probs) if held else max(self.p_max, *(probs[i] for i in changed))
            self.constraints, self.probs, self.frozen = constraints, probs, frozen
        if newly_frozen:
            self.dangerous = self.dangerous.union(*newly_frozen)
        return g, changed


class CopyingLevelState(MutableLevelState):
    """`MutableLevelState` with `descend` as it stood before its early return:
    every level builds and sorts the set of constraints its g meets."""

    def descend(self, cls, value):
        g = const_assignment([x for x in cls if x not in self.dangerous], value)
        changed = []
        constraints, probs, frozen = self.constraints, self.probs, self.frozen
        newly_frozen = []
        for i in sorted({i for x in g for i in self.meeting.get(x, ())}):
            if frozen[i] or g.keys().isdisjoint(constraints[i].domain):
                continue
            if not changed:
                constraints, probs, frozen = list(constraints), list(probs), list(frozen)
            changed.append(i)
            constraints[i] = restrict_constraint(constraints[i], g)
            probs[i] = probability(constraints[i], self.cap_bits)
            if probs[i] * probs[i] > self.p:
                frozen[i] = True
                newly_frozen.append(self.original_domains[i])
        if changed:
            held = any(self.probs[i] == self.p_max for i in changed)
            self.p_max = max(probs) if held else max(self.p_max, *(probs[i] for i in changed))
            self.constraints, self.probs, self.frozen = constraints, probs, frozen
        if newly_frozen:
            self.dangerous = self.dangerous.union(*newly_frozen)
        return g, changed


def copying_family_leaves(encoded, classes, conn, p, cap_bits):
    """`_family_leaves` as it stood with a fresh h = {**h, **g} at every
    node and `CopyingLevelState`; each yielded h is its own dict."""
    elems, det_sets, rules = conn.source, conn.det_sets, conn.rules
    dets = [tuple(det_sets[x]) for x in elems]
    memos = [{} for _ in elems]
    readers = {}
    for k, ys in enumerate(dets):
        for z in ys:
            readers.setdefault(z, []).append(k)

    def rule_on(k, h):
        key = tuple(map(h.get, dets[k]))
        if key not in memos[k]:
            memos[k][key] = rules[elems[k]]({z: v for z, v in zip(dets[k], key) if v is not None})
        return memos[k][key]

    def visit(level, state, h, values):
        if level == len(classes):
            yield h, {x: v for x, v in zip(elems, values) if v is not None}, state
            return
        start = state.snapshot()
        for value in (1, 2):
            g, _ = state.descend(classes[level], value)
            h_next = {**h, **g}
            touched = {k for z in g for k in readers.get(z, ())}
            values_next = list(values) if touched else values
            for k in touched:
                values_next[k] = rule_on(k, h_next)
            yield from visit(level + 1, state, h_next, values_next)
            state.restore(start)

    yield from visit(0, CopyingLevelState(encoded, p, cap_bits), {},
                     [rule_on(k, {}) for k in range(len(elems))])


def recursive_family_leaves(encoded, classes, conn, p, cap_bits):
    """`_family_leaves` as it stood with a recursive generator per level: a
    chain of `levels` frames resumes at every leaf, each node copies the
    carried values, and each leaf rescans them for None."""
    elems, rules = conn.source, conn.rules
    dets = [tuple(conn.det_sets[x]) for x in elems]
    memos = [{} for _ in elems]
    readers = incidence(dets)   # target element -> positions in elems of its readers

    def rule_on(k, h):
        key = tuple(map(h.get, dets[k]))
        if key not in memos[k]:
            memos[k][key] = rules[elems[k]]({z: v for z, v in zip(dets[k], key) if v is not None})
        return memos[k][key]

    h, state = {}, MutableLevelState(encoded, p, cap_bits)

    def visit(level, values):   # source element -> value, None where undefined
        if level == len(classes):
            yield h, (values.copy() if None not in values.values()
                      else {x: v for x, v in values.items() if v is not None}), state
            return
        start, touched = state.snapshot(), None
        for value in (1, 2):
            g, _ = state.descend(classes[level], value)
            h.update(g)
            if touched is None:  # both branches fix the same elements
                touched = {k for z in g for k in readers.get(z, ())}
            values_next = values.copy() if touched else values
            for k in touched:
                values_next[elems[k]] = rule_on(k, h)
            yield from visit(level + 1, values_next)
            for z in g:
                del h[z]
            state.restore(start)

    yield from visit(0, {x: rule_on(k, h) for k, x in enumerate(elems)})


def state_view(state):
    return (state.dangerous, state.p_max, [c.domain for c in state.constraints],
            list(state.probs), list(state.frozen))


def leaf_view(h, member, state):
    return (list(h.items()), list(member.items())) + state_view(state)


def assert_walk_matches_copying_walk(encoded, conn, classes=None):
    """Leaf by leaf, the live walk equals the recursive walk and the
    copying walk in h (values and key order), member, dangerous set, p_max
    and the constraints' domains, probabilities and freezing, and each h
    is the branch trace of its word in product((1, 2), repeat=levels)
    order.  The classes default to the discrete partition; given, they
    need only partition the ground set.  Returns the leaves' dangerous
    sets."""
    custom = classes is not None
    classes = classes if custom else discrete_partition(encoded)
    p = stats(encoded).p
    words = product((1, 2), repeat=len(classes))
    leaves = zip(_family_leaves(encoded, classes, conn, p, DEFAULT_CAP_BITS),
                 recursive_family_leaves(encoded, classes, conn, p, DEFAULT_CAP_BITS),
                 copying_family_leaves(encoded, classes, conn, p, DEFAULT_CAP_BITS), words,
                 strict=True)
    dangerous = []
    for live, recursive, copied, word in leaves:
        assert leaf_view(*live) == leaf_view(*recursive) == leaf_view(*copied)
        trace = replay(encoded, classes, word) if custom else branch_trace(encoded, word)
        assert list(live[0].items()) == list(trace[0].items())
        dangerous.append(live[2].dangerous)
    assert len(dangerous) == 2 ** len(classes)
    return dangerous


def replay(csp, classes, word):
    """`branch_trace` over any classes: (h, leaf state, the first level of
    its quiet suffix, that is one past the last level that moved the state)."""
    state, h, start = _LevelState.root(csp, stats(csp).p, DEFAULT_CAP_BITS), {}, 0
    for level, (cls, value) in enumerate(zip(classes, word)):
        g, _, after = state.descend(cls, value)
        h.update(g)
        if after is not state:
            state, start = after, level + 1
    return h, state, start


def suffix_leaves(csp, conn, classes):
    """Per branch word: (its leaf state, the first level of the state's
    quiet suffix, the readers that some suffix level's keys meet but do not
    hold, so the walk runs their rules below the suffix's first level)."""
    out = []
    for word in product((1, 2), repeat=len(classes)):
        _, state, start = replay(csp, classes, word)
        split = set()
        for cls in classes[start:]:
            keys = set(state.fix(cls)[0])
            split |= {x for x in conn.source
                      if conn.det_sets[x] & keys and not conn.det_sets[x] <= keys}
        out.append((state, start, split))
    return out


def overlapping_cover_csp():
    """The three-constraint CSP of the dangerous-set coverage test: two
    domains sharing element 9 and a third apart."""
    doms = (tuple(range(0, 10)), tuple(range(9, 19)), tuple(range(19, 29)))
    patterns = ((1,) * 10, (1,) * 10, (1, 2, 2, 1, 2, 1, 1, 2, 1, 2))
    return Csp(tuple(range(30)), 2, tuple(Constraint.explicit(dom, 2, [pattern])
                                         for dom, pattern in zip(doms, patterns)))


def encoded_with_connection(csp):
    encoded, tau_red = binary_reduce(csp, EPS_BINARY)
    return encoded, compose(identity_reduction(csp).connection, tau_red.connection)


def test_family_leaves_match_copying_walk_on_cover_csps():
    frozen_somewhere = 0
    for seed in range(8):
        dangerous = assert_walk_matches_copying_walk(
            *encoded_with_connection(random_cover_csp(seed, max_levels=10)))
        frozen_somewhere += len(set(dangerous)) > 1
    dangerous = assert_walk_matches_copying_walk(*encoded_with_connection(overlapping_cover_csp()))
    assert len(set(dangerous)) >= 3 and frozen_somewhere > 0


def test_family_leaves_match_copying_walk_on_zero_and_one_level_csps():
    # the empty ground (zero levels: one leaf) and one level, where fixing
    # the single element to the forbidden value freezes the constraint
    unary = Csp((0,), 2, (Constraint.explicit((0,), 2, [(1,)]),))
    for csp in (Csp((), 2, ()), Csp((0, 1, 2), 2, ()), unary):
        assert len(discrete_partition(csp)) == (len(csp.ground) > 0)
        dangerous = assert_walk_matches_copying_walk(csp, identity_reduction(csp).connection)
        assert_walk_matches_copying_walk(*encoded_with_connection(csp))
    assert dangerous == [frozenset({0}), frozenset()]   # the unary CSP's two leaves


def min_on_partial_view(ys):
    """A min settled by any 1, None until then or until all of ys is read."""
    def rule(view):
        if 1 in view.values():
            return 1
        return min(view.values()) if len(view) == len(ys) else None
    return rule


def withdrawn(view):
    # defined on the empty view only: settling this reader raises the None count
    return None if view else 2


def reading_connection(ground, reads, rules):
    return Connection(source=tuple(reads), target=tuple(ground),
                      det_sets={x: frozenset(ys) for x, ys in reads.items()}, rules=rules)


def reader_kinds(classes, conn, level=0):
    """The source elements whose determining set lies in the level's class
    (settled while it is not dangerous) and those it meets but does not hold."""
    cls = set(classes[level])
    dets = [conn.det_sets[x] for x in conn.source]
    return ([x for x, ys in zip(conn.source, dets) if ys and ys <= cls],
            [x for x, ys in zip(conn.source, dets) if ys & cls and not ys <= cls])


def test_family_leaves_settle_readers_next_to_split_readers():
    # one level holds both kinds of reader: readers of elements that lie in
    # no constraint (their bits all fall in the first class), readers whose
    # bits span several classes (binary encodings at m = 3 and 4), a reader
    # defined on the empty view only, and a reader of nothing; the same
    # readers also run on the target itself, whose first class holds 0, 2,
    # 3 and the free elements
    for m in (3, 4):
        target = Csp(tuple(range(8)), m, (
            Constraint.explicit((0, 1), m, [(1, 1)]),
            Constraint.explicit((1, 2), m, [(2, 3)]),
            Constraint.explicit((3, 4, 5), m, [(1, 2, 3)]),
        ))  # elements 6 and 7 lie in no constraint
        reads = {0: (0, 1), 1: (1, 6), 2: (6, 7), 3: (6,), 4: (7,), 5: (), 6: (2, 3)}
        rules = {x: min_on_partial_view(reads[x]) for x in (0, 1, 2, 6)}
        rules.update({3: withdrawn, 4: lambda view: 3 if view else None, 5: lambda view: 2})
        rho = reading_connection(target.ground, reads, rules)
        encoded, tau_red = binary_reduce(target, EPS_BINARY)
        for csp, conn in ((target, rho), (encoded, compose(rho, tau_red.connection))):
            settled, split = reader_kinds(discrete_partition(csp), conn)
            assert 3 in settled and 1 in split and not conn.det_sets[5]
            assert_walk_matches_copying_walk(csp, conn)
    # on a constraint-free ground the one level settles every reader, and
    # the reader defined on the empty view only is the one whose value
    # changes between defined and None
    free = Csp((0, 1, 2), 2, ())
    conn = reading_connection(free.ground, {0: (0, 1), 1: (2,), 2: ()},
                              {0: withdrawn, 1: lambda view: 1, 2: lambda view: 2})
    assert reader_kinds(discrete_partition(free), conn) == ([0, 1], [])
    assert_walk_matches_copying_walk(free, conn)


def test_family_leaves_settle_readers_by_key_set_not_by_level():
    # freezing gives one level of the overlapping CSP's encoding different
    # key sets in different states: a reader of two elements of one class is
    # settled where both are fixed, split where one is dangerous and not
    # read where both are, next to one reader per bit as a cover op has
    csp = overlapping_cover_csp()
    encoded, conn = encoded_with_connection(csp)
    classes = discrete_partition(encoded)
    reads = {x: tuple(conn.det_sets[x]) for x in conn.source}
    extra = {100: (6, 16), 101: (16, 25), 102: (9, 28), 103: (25,), 104: (0, 10), 105: ()}
    reads.update(extra)
    rules = {**conn.rules, **{x: min_on_partial_view(ys) for x, ys in extra.items()}}
    rules.update({103: withdrawn, 105: lambda view: 2})
    mixed = reading_connection(encoded.ground, reads, rules)
    key_sets = {}
    for h, _, _ in _family_leaves(encoded, classes, mixed, stats(encoded).p, DEFAULT_CAP_BITS):
        for level, cls in enumerate(classes):
            key_sets.setdefault(level, set()).add(tuple(x for x in cls if x in h))
    assert len(key_sets[6]) == 3 and {(6, 16, 25), (6, 16), (25,)} == key_sets[6]
    assert_walk_matches_copying_walk(encoded, mixed)


@st.composite
def overlapping_csps(draw, max_m=3, min_m=2):
    """Explicit CSPs on at most 7 elements, with range from `min_m` to
    `max_m`, whose domains overlap: each domain after the first shares an
    element with an earlier one."""
    n, m = draw(st.integers(2, 7)), draw(st.integers(min_m, max_m))
    ground = tuple(range(n))
    constraints, used = [], set()
    for _ in range(draw(st.integers(1, 4))):
        dom = set(draw(st.sets(st.sampled_from(ground), min_size=1, max_size=min(3, n))))
        if used:
            dom.add(draw(st.sampled_from(sorted(used))))
        used |= dom
        dom = tuple(sorted(dom))
        body = draw(st.sets(st.tuples(*[st.integers(1, m)] * len(dom)), min_size=1,
                            max_size=m ** len(dom)))
        constraints.append(Constraint.explicit(dom, m, body))
    return Csp(ground, m, tuple(constraints))


@given(overlapping_csps())
def test_family_leaves_match_copying_walk_on_overlapping_csps(csp):
    # the walk on the CSP itself (values 1 and 2 of [m]) and, when it has
    # at most 8 levels, on its binary encoding through the decoding
    assert_walk_matches_copying_walk(csp, identity_reduction(csp).connection)
    encoded, conn = encoded_with_connection(csp)
    if len(discrete_partition(encoded)) <= 8:
        assert_walk_matches_copying_walk(encoded, conn)


def counted_descends(monkeypatch):
    """Patch `_LevelState.descend` to record its calls; returns the record."""
    calls, real = [], _LevelState.descend

    def counting(self, cls, value):
        calls.append((cls, value))
        return real(self, cls, value)

    monkeypatch.setattr(_LevelState, "descend", counting)
    return calls


def test_family_leaves_walk_a_suffix_from_level_0(monkeypatch):
    # no constraint: every level is quiet at the root, so the whole walk is
    # one suffix and calls no descend.  Given classes split the readers'
    # determining sets, on the CSP itself (readers of several elements,
    # one defined on the empty view only, one of nothing) and on a range-4
    # encoding whose bits each take a class of their own
    free = Csp(tuple(range(6)), 2, ())
    reads = {0: (0, 1, 2), 1: (1,), 2: (2, 5), 3: (3, 4), 4: (4,), 5: ()}
    rules = {x: min_on_partial_view(ys) for x, ys in reads.items() if len(ys) > 1}
    rules.update({1: withdrawn, 4: lambda view: 2 if view else None, 5: lambda view: 1})
    encoded, tau_red = binary_reduce(Csp((0, 1, 2), 4, ()), EPS_BINARY)
    cases = [(free, reading_connection(free.ground, reads, rules), [(0, 1), (2, 3), (4,), (5,)],
              {0, 2, 3}),
             (encoded, tau_red.connection, [(z,) for z in encoded.ground], {0, 1, 2})]
    for csp, conn, classes, split_readers in cases:
        calls = counted_descends(monkeypatch)
        assert_walk_matches_copying_walk(csp, conn, classes)
        calls.clear()
        assert sum(1 for _ in _family_leaves(csp, classes, conn, stats(csp).p,
                                             DEFAULT_CAP_BITS)) == 2 ** len(classes)
        assert calls == []
        monkeypatch.undo()
        leaves = suffix_leaves(csp, conn, classes)
        assert all(start == 0 and split == split_readers for _, start, split in leaves)


def test_family_leaves_walk_a_suffix_after_a_deep_freeze():
    # the all-1 pattern on 0..4 freezes once three of its elements are 1
    # (P^2 = 2^-4 > p = 2^-5): on the words 1, 1, 1, ... the walk descends
    # three levels and its last two, all dangerous, form the suffix; a 2
    # anywhere kills the pattern, and the suffix starts right after it
    csp = Csp(tuple(range(6)), 2, (Constraint.explicit(tuple(range(5)), 2, [(1,) * 5]),))
    conn = identity_reduction(csp).connection
    classes = discrete_partition(csp)
    assert classes == [(0, 5), (1,), (2,), (3,), (4,)]
    leaves = suffix_leaves(csp, conn, classes)
    assert [start for _, start, _ in leaves[:4]] == [3, 3, 3, 3]
    assert leaves[0][0].dangerous == frozenset(range(5))
    assert {start for _, start, _ in leaves} == {1, 2, 3}
    assert_walk_matches_copying_walk(csp, conn)
    assert_walk_matches_copying_walk(*encoded_with_connection(csp))
    # on the overlapping CSP's encoding, leaves that froze a constraint
    # make their last move as late as level 5, leaving four suffix levels
    encoded, conn = encoded_with_connection(overlapping_cover_csp())
    classes = discrete_partition(encoded)
    assert len(classes) == 10 and 6 in {start for state, start, _ in
                                        suffix_leaves(encoded, conn, classes) if state.dangerous}


SPLIT_BITS_CSP = Csp((0, 1), 3, (Constraint.explicit((0, 1), 3, [(1, 1)]),))


def test_split_bits_example_leaves_readers_below_the_suffix():
    # a range-3 element's bits lie in classes of their own; once a fixed
    # bit kills the pattern, its domain empties and the bits left form a
    # suffix whose levels the element's reader spans
    encoded, conn = encoded_with_connection(SPLIT_BITS_CSP)
    leaves = suffix_leaves(encoded, conn, discrete_partition(encoded))
    assert any(split for _, start, split in leaves if start < len(discrete_partition(encoded)))


@example(SPLIT_BITS_CSP)
@given(overlapping_csps(max_m=4, min_m=3))
def test_family_leaves_match_copying_walk_on_range_3_and_4_encodings(csp):
    # encoded bit by bit, an element of range 3 or 4 spans several
    # classes; the walk agrees with both oracles wherever the encoding has
    # at most 8 levels, also where suffix levels leave such readers
    encoded, conn = encoded_with_connection(csp)
    if len(discrete_partition(encoded)) <= 8:
        assert_walk_matches_copying_walk(encoded, conn)


def test_cover_walk_descend_calls_are_pinned(monkeypatch):
    """Counts, not clocks: the `descend` calls of `cover_family`'s walk on
    a fixed 12 x 2 cover instance (12 levels, 4,096 leaves) and on the
    overlapping CSP (10 levels), where every level used to descend on both
    branches: 8,190 and 2,046 calls.  The pins are ceilings."""
    cover = random_cover_csp(13, max_levels=12)
    assert (len(cover.constraints[0].domain), len(cover.constraints)) == (12, 2)
    calls = counted_descends(monkeypatch)
    for csp, levels, ceiling in ((cover, 12, 20), (overlapping_cover_csp(), 10, 20)):
        calls.clear()
        result = cover_family(csp, budget=1 << 14)
        assert (result.levels, len(result.members)) == (levels, 2 ** levels)
        assert len(calls) <= ceiling


@st.composite
def descend_programs(draw):
    """A CSP of range at most 4, a few classes (one of them repeated as an
    equal but distinct tuple) and a sequence of snapshot, descend and
    restore calls, descending on values 1..m."""
    csp = draw(overlapping_csps(max_m=4))
    classes = [tuple(sorted(draw(st.sets(st.sampled_from(csp.ground), min_size=1))))
               for _ in range(draw(st.integers(1, 3)))]
    classes.append(tuple(list(classes[0])))
    calls = draw(st.lists(st.one_of(
        st.just(("snapshot",)),
        st.tuples(st.just("descend"), st.integers(0, len(classes) - 1), st.integers(1, csp.m)),
        st.tuples(st.just("restore"), st.integers(0, 7))), max_size=30))
    return csp, classes, calls


FREEZING_PROGRAM = (
    Csp((0, 1, 2), 2, (Constraint.explicit((0, 1), 2, [(1, 1)]),
                       Constraint.explicit((1, 2), 2, [(2, 1)]))),
    [(0, 1), (2,)],
    [("snapshot",), ("descend", 1, 1), ("descend", 0, 2), ("restore", 0), ("descend", 0, 1),
     ("descend", 1, 1), ("descend", 1, 2), ("snapshot",), ("restore", 0), ("descend", 0, 1),
     ("restore", 1), ("descend", 1, 1)])


@example(FREEZING_PROGRAM)
@given(descend_programs())
def test_descend_memo_matches_copying_descend(program):
    # the memoized quiet test answers exactly as a fresh scan: after every
    # call the value state and the copying state agree in g (keys and
    # order), the changed constraints and the whole state, also on repeated
    # classes and after a freeze has replaced the state or a restore has
    # gone back to an old one (a snapshot of the value state is the state)
    csp, classes, calls = program
    p = stats(csp).p
    state = _LevelState.root(csp, p, DEFAULT_CAP_BITS)
    copying = CopyingLevelState(csp, p, DEFAULT_CAP_BITS)
    snapshots = []
    for call in calls:
        if call[0] == "snapshot":
            snapshots.append((state, copying.snapshot()))
        elif call[0] == "restore" and snapshots:
            state, copied = snapshots[call[1] % len(snapshots)]
            copying.restore(copied)
        elif call[0] == "descend":
            g, changed, state = state.descend(classes[call[1]], call[2])
            want_g, want_changed = copying.descend(classes[call[1]], call[2])
            assert list(g.items()) == list(want_g.items()) and changed == want_changed
        assert state_view(state) == state_view(copying)


@example(FREEZING_PROGRAM)
@given(descend_programs())
def test_descend_returns_a_new_state_and_keeps_its_own(program):
    # a state is a value: `descend` leaves the state it starts from, and
    # every state made before, as they were, and returns the state itself
    # exactly when it restricted no constraint
    csp, classes, calls = program
    state = _LevelState.root(csp, stats(csp).p, DEFAULT_CAP_BITS)
    states = [(state, state_view(state))]
    for call in calls:
        if call[0] == "restore":
            state = states[call[1] % len(states)][0]
        elif call[0] == "descend":
            before = state_view(state)
            g, changed, after = state.descend(classes[call[1]], call[2])
            assert state_view(state) == before
            assert (after is state) == (not changed)
            state = after
            states.append((state, state_view(state)))
    assert all(state_view(state) == view for state, view in states)


def test_descend_memo_program_freezes():
    # the pinned example of the memo test does meet frozen constraints
    csp, classes, calls = FREEZING_PROGRAM
    state = MutableLevelState(csp, stats(csp).p, DEFAULT_CAP_BITS)
    state.descend(classes[0], 1)
    assert state.frozen == [True, False] and state.dangerous == {0, 1}


def test_cover_family_searches_once_per_level_state(monkeypatch):
    import locallemma.engine as engine

    csp = overlapping_cover_csp()
    want = oracle_cover_family(csp, seed=3, budget=1 << 14)
    encoded, conn = encoded_with_connection(csp)
    states = {}   # id -> the list itself, held so that no id is reused
    witness_leaves = 0
    for (h, member, state), cert in zip(
            _family_leaves(encoded, discrete_partition(encoded), conn, stats(encoded).p,
                           DEFAULT_CAP_BITS), want[3]):
        if "solution_witness" in cert:
            states[id(state.constraints)] = state.constraints
            witness_leaves += 1

    calls = []

    def counting_search(*args):
        calls.append(args)
        return _search(*args)

    monkeypatch.setattr(engine, "_search", counting_search)
    result = cover_family(csp, seed=3, budget=1 << 14)
    assert 0 < len(calls) <= len(states) < witness_leaves
    assert [list(m.items()) for m in result.members] == [list(m.items()) for m in want[0]]
    assert (result.levels, result.per_element_counts, result.certificates, result.route) == \
        (want[1], want[2], want[3], want[4])
    assert list(result.per_element_counts) == list(want[2])
    assert len({id(cert) for cert in result.certificates}) == len(result.certificates)


# ------------------------------------------------- range 2 and pull-back depth
def n1_binary_reduce(csp, epsilon):
    """binary_reduce with a range-2 CSP encoded as it was before it passed
    through: N = 1, elements renumbered in ground order, each constraint a
    Fixed body over its bits, and a BlockDecode reader per element."""
    if csp.m != 2:
        return binary_reduce(csp, epsilon)
    code, zid = BlockCode(2, 1), {y: i for i, y in enumerate(csp.ground)}
    encoded = Csp(tuple(range(len(csp.ground))), 2, tuple(
        _encode_constraint(c, code, {(y, 1): zid[y] for y in csp.ground})
        for c in csp.constraints))
    tau = Connection(csp.ground, encoded.ground,
                     {y: frozenset([zid[y]]) for y in csp.ground},
                     {y: BlockDecode(code, (zid[y],)) for y in csp.ground})
    return encoded, Reduction(tau, encoded)


def test_range_2_cover_family_matches_its_n1_encoding(monkeypatch):
    import locallemma.engine as engine
    from test_cli import overlap_csp

    cases = [(random_cover_csp(seed, max_levels=12), seed) for seed in range(8)]
    cases += [(overlap_csp(), 3), (overlapping_cover_csp(), 0)]
    got = [cover_family(csp, seed=seed, budget=1 << 14) for csp, seed in cases]
    monkeypatch.setattr(engine, "binary_reduce", n1_binary_reduce)
    for result, (csp, seed) in zip(got, cases):
        want = cover_family(csp, seed=seed, budget=1 << 14)
        assert [list(m.items()) for m in result.members] == \
            [list(m.items()) for m in want.members]
        assert list(result.per_element_counts.items()) == list(want.per_element_counts.items())
        assert (result.certificates, result.levels, result.route) == \
            (want.certificates, want.levels, want.route)


def range_2_weighted_csp(seed):
    """Range-2 CSP in the certified regime: constraints of arity 64..72
    with one or two forbidden patterns, each sharing one element with each
    neighbour (d <= 2), so p (d+1)^16 <= 2^-33."""
    rng = random.Random(seed)
    arity, count = rng.randint(64, 72), rng.randint(2, 4)
    starts = [i * (arity - 1) for i in range(count)]   # neighbours share one element
    ground = tuple(range(starts[-1] + arity + rng.randint(0, 5)))
    return Csp(ground, 2, tuple(
        Constraint.explicit(range(s, s + arity), 2,
                            [tuple(rng.randint(1, 2) for _ in range(arity))
                             for _ in range(rng.randint(1, 2))])
        for s in starts))


def test_range_2_solve_weighted_matches_its_n1_encoding(monkeypatch):
    import locallemma.engine as engine

    cases = []
    for seed in range(4):
        csp = range_2_weighted_csp(seed)
        weights = {x: Fraction(1 + x % 3) for x in csp.ground}
        total = sum(weights.values())
        cases.append((csp, WeightedGroundSet({x: w / total for x, w in weights.items()})))
    got = [solve_weighted(csp, wts, seed=5) for csp, wts in cases]
    monkeypatch.setattr(engine, "binary_reduce", n1_binary_reduce)
    for result, (csp, wts) in zip(got, cases):
        want = solve_weighted(csp, wts, seed=5)
        assert result.assignment == want.assignment
        assert result.step_reports == want.step_reports and result.iterations >= 1


def assert_one_record_deep(red, base_kind):
    """Every rule of `red` is one Residual over a `base_kind` record whose
    bits are the rule's determining set and fixed elements together."""
    conn = red.connection
    assert conn.source
    for x in conn.source:
        rule = conn.rules[x]
        assert type(rule) is Residual and type(rule.base) is base_kind
        read = {rule.base.x} if base_kind is Identity else set(rule.base.bits)
        assert conn.det_sets[x] | {y for y, _ in rule.fixed} == read


def test_pull_backs_stay_one_record_deep_through_steps():
    # two zero-weight constraints forbidding all-1: the walk breaks their
    # ties toward value 1, so both grow until they freeze and keep
    # elements for later pull-backs; one weighted element covers the weight
    for m, arity, base_kind in ((2, 80, Identity), (3, 60, BlockDecode)):
        doms = (tuple(range(arity)), tuple(range(arity, 2 * arity)))
        ground = tuple(range(2 * arity + 1))
        csp = Csp(ground, m, tuple(Constraint.explicit(d, m, [(1,) * arity]) for d in doms))
        first = step(identity_reduction(csp),
                     WeightedGroundSet({x: Fraction(x == ground[-1]) for x in ground}))
        red = first.residual_reduction   # pull-back 1
        assert_one_record_deep(red, base_kind)
        # pull-back 2: a 2 on the first target element read by doms[0] kills it
        x = next(x for x in red.connection.source if x in doms[0])
        g_mid, red = pull_partial(red, {min(red.connection.det_sets[x]): 2})
        assert_one_record_deep(red, base_kind)
        # pull-back 3: a step on the residual, weighting what doms[0] keeps
        kept = [x for x in red.connection.source if x in doms[0]]
        second = step(red, WeightedGroundSet(
            {x: Fraction(x in kept, len(kept)) for x in red.connection.source}))
        assert second.covered_fraction == 1
        assert_one_record_deep(second.residual_reduction, base_kind)
        # the three pull-backs decide all but the residual's source, and
        # with 2 on that (which kills the all-1 pattern) solve the source
        g = {**first.g, **g_mid, **second.g}
        rest = second.residual_reduction.connection.source
        assert set(rest) == set(ground) - g.keys() and set(rest) <= set(doms[1])
        assert is_solution(csp, {**g, **dict.fromkeys(rest, 2)})[0]
