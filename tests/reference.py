"""Reference code that only tests call: the raw branch recursion and the
three-valued extension check of the engine, the gadget's colouring lift
and its v-vertices, the distance-k power graph, and two random CSP
families.  No command, engine path, script or benchmark workload reaches
them, so they live beside the tests that use them as oracles and
instance sources."""

from typing import Dict, Optional, Sequence

from locallemma import generators
from locallemma.csp import (
    Constraint,
    Csp,
    DEFAULT_CAP_BITS,
    PartialAssignment,
    discrete_partition,
    restrict_csp,
    stats,
)
from locallemma.engine import _LevelState, _partial_surrogate, _search
from locallemma.errors import GraphBuildError
from locallemma.generators import GadgetLayout
from locallemma.graphs import StructuredGraph
from locallemma.randgen import _random_domains
from locallemma.rng import derived_rng


def branch_trace(csp: Csp, word: Sequence[int], cap_bits: int = DEFAULT_CAP_BITS):
    """Raw level recursion for a given branch word (no estimator, no
    guarantee verification): returns (h_w, dangerous sets per prefix).

    Used to replay the construction along adversarial words, where
    constraints do get dangerous and freeze.
    """
    st = stats(csp, cap_bits)
    classes = discrete_partition(csp)
    if len(word) != len(classes):
        raise ValueError(f"word length {len(word)} != {len(classes)} classes")
    state = _LevelState.root(csp, st.p, cap_bits)
    h: PartialAssignment = {}
    dangerous = [state.dangerous]
    for cls, value in zip(classes, word):
        g, _, state = state.descend(cls, value)
        h.update(g)
        dangerous.append(state.dangerous)
    return h, dangerous


def check_partial_solution(csp: Csp, g: PartialAssignment,
                           cap_bits: int = DEFAULT_CAP_BITS, seed: int = 0) -> Optional[bool]:
    """Whether g extends to a solution of `csp`.  Three-valued: True when
    a solution is found, False when none exists (exhaustive search within
    the cap, or an immediate contradiction), None when only the resampling
    oracle was available and it capped out."""
    restricted = restrict_csp(csp, g)
    for c in restricted.constraints:
        if c.arity() == 0 and c.contains(()):
            return False  # g already violates a fully-covered constraint
    solution, decided = _search(restricted, seed, cap_bits)
    return solution is not None if decided else None


def v_ids(layout: GadgetLayout):
    """The gadget's v-vertices, block by block: the vertices whose degree
    the gadget's correctness proof pins at d - 1."""
    return [layout.v_id(x, i) for x in layout.source_order for i in range(1, layout.k)]


def lift_coloring(graph: StructuredGraph, k: int, coloring: Dict[int, int]) -> Dict[int, int]:
    """Lift a proper k-coloring of the source graph to the gadget: every
    u-vertex of x gets the color of x, the v-vertices get the other k-1.
    The layout is looked up on the module, so a test can replace it."""
    layout = generators.gadget_layout(graph, k)
    out = {}
    for x in graph.vertices:
        fx = coloring[x]
        for a in range(layout.c + 1):
            out[layout.u_id(x, a)] = fx
        rest = [col for col in range(1, k + 1) if col != fx]
        for i, col in enumerate(rest, start=1):
            out[layout.v_id(x, i)] = col
    return out


def distance_pairs(graph: StructuredGraph, k: int):
    """All unordered pairs at graph distance between 1 and k."""
    return {(v, w) for v in graph.vertices
            for w, d in graph.distances_from(v, limit=k).items() if d and v < w}


def power_graph(graph: StructuredGraph, k: int) -> StructuredGraph:
    """Same vertex set, x ~ y iff 1 <= dist(x, y) <= k; structure dropped."""
    if k < 1:
        raise GraphBuildError("power requires k >= 1")
    return StructuredGraph(graph.vertices, distance_pairs(graph, k), {}, 1)


def random_binary_lowp_csp(seed: int, max_ground: int = 60, max_degree: int = 4) -> Csp:
    """Random binary CSP passing the partial-solution surrogate
    p(d+1)^2 <= 0.1353 / 4 (single-pattern bodies on domains of size >= 10)."""
    rng = derived_rng(seed, "binary-lowp-instance")
    n = rng.randint(24, max_ground)
    ground = list(range(n))
    while True:
        count = rng.randint(2, 6)
        domains = _random_domains(rng, ground, count, (10, 11, 12, 13, 14),
                                  max_overlap=min(3, max_degree))
        constraints = []
        for dom in domains:
            body = {tuple(rng.randint(1, 2) for _ in dom)}
            if rng.random() < 0.3:
                body.add(tuple(rng.randint(1, 2) for _ in dom))
            constraints.append(Constraint.explicit(dom, 2, body))
        csp = Csp(tuple(ground), 2, tuple(constraints))
        st = stats(csp)
        lhs, surrogate = _partial_surrogate(st.p, st.d, 2)
        if st.d <= max_degree and lhs <= surrogate:
            return csp


def random_small_csp(seed: int, max_ground: int = 6, max_m: int = 6,
                     max_arity: int = 3, max_constraints: int = 4,
                     m_choices=None) -> Csp:
    """Small unconstrained-regime CSP for oracle-style tests."""
    rng = derived_rng(seed, "small-instance")
    n = rng.randint(2, max_ground)
    ground = list(range(n))
    m = rng.choice(list(m_choices)) if m_choices else rng.randint(2, max_m)
    constraints = []
    for _ in range(rng.randint(1, max_constraints)):
        arity = rng.randint(1, min(max_arity, n))
        dom = tuple(sorted(rng.sample(ground, arity)))
        patterns = rng.randint(0, min(4, m ** arity))
        body = set()
        for _ in range(patterns):
            body.add(tuple(rng.randint(1, m) for _ in dom))
        constraints.append(Constraint.explicit(dom, m, body))
    return Csp(tuple(ground), m, tuple(constraints))
