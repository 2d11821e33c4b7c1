"""The four benchmark workloads.

A workload turns the benchmark seed into rounds of ops.  Every round has
the same list of op kinds in the same order, so runs that complete a
different number of rounds still measure the same mix.  An op is one
user-level call into the library, made through the same public functions
the CLI and the experiment scripts use; its result is checked here by code
that does not call the library, and round 0's results are hashed into the
workload's digest.

Importing this module imports the library, which is part of set-up time.
"""

from __future__ import annotations

import hashlib
import json
import random
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import locallemma as ll
from locallemma import cli
from locallemma.errors import (  # noqa: F401  (classified by worker.py)
    CanonicalizationCapError,
    CoverBudgetError,
    EnumerationCapError,
    StepInfeasibleError,
)
from locallemma.randgen import random_cover_csp, random_measurable_csp

# the CLI's default cap, fixed here rather than read from the library so
# that a lower cap shows as cap-outs instead of as a faster op
CANON_CAP = 64


class CheckFailed(Exception):
    """An op returned a result that its check rejects."""


class CapOut(Exception):
    """An op ended at one of the library's declared caps."""


@dataclass
class Op:
    kind: str
    call: Callable[[], object]
    # result -> JSON-ready digest record; raises CheckFailed on a wrong result
    check: Callable[[object], object]
    # the op's known answer is a certified StepInfeasibleError
    expect_infeasible: bool = False
    # a cap-out is an accepted answer for this op; elsewhere it fails
    cap_expected: bool = False


def round_rng(workload: str, seed: int, r: int) -> random.Random:
    # str seeds are hashed with sha512, so the stream ignores PYTHONHASHSEED
    return random.Random(f"{workload}:{seed}:{r}")


def expect(cond: bool, message: str):
    if not cond:
        raise CheckFailed(message)


def record_hash(record) -> str:
    text = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


class Workload:
    """Rounds of ops drawn from one benchmark seed."""

    def __init__(self, seed: int):
        self.seed = seed

    def round(self, r: int) -> list:
        raise NotImplementedError

    def digest_entry(self, record):
        """What one round-0 result keeps for the digest."""
        return record_hash(record)

    def digest_records(self, entries: list) -> list:
        """What round 0's entries contribute to the digest."""
        return entries


def check_proper_coloring(values: dict, vertices, edges, palette) -> list:
    expect(set(values) == set(vertices), "labeling is not total")
    expect(all(v in palette for v in values.values()), "color outside the palette")
    bad = [(u, v) for u, v in edges if values[u] == values[v]]
    expect(not bad, f"adjacent vertices share a color: {bad[:3]}")
    return sorted([int(v), int(c)] for v, c in values.items())


class LocalDet(Workload):
    """det_pipeline with cole_vishkin_3color on directed cycles at n, 2n
    and 4n; the seed draws the greedy identifier orders."""

    SIZES = (256, 512, 1024)

    def __init__(self, seed: int):
        super().__init__(seed)
        self.graphs = {n: ll.generate("directed_cycle", {"n": n}) for n in self.SIZES}
        self.specs = {n: ll.builtin_algorithm("cole_vishkin_3color", {"n": n})
                      for n in self.SIZES}

    def round(self, r: int) -> list:
        rng = round_rng("local_det", self.seed, r)
        ops = []
        for n in self.SIZES:
            graph, spec = self.graphs[n], self.specs[n]
            order = list(graph.vertices)
            rng.shuffle(order)

            def call(graph=graph, spec=spec, n=n, order=order):
                return ll.det_pipeline(spec.algorithm, spec.problem, graph, n=n,
                                       rounds=spec.rounds(n), order=order,
                                       canon_cap=CANON_CAP)

            def check(report, graph=graph, n=n):
                expect(report.valid, f"verifier rejects at {report.violating_vertices[:5]}")
                expect(report.checks["identifier_colors"] <= n, "too many identifier colors")
                return check_proper_coloring(report.outputs, graph.vertices,
                                             sorted(graph.edges), {1, 2, 3})

            ops.append(Op(f"n{n}", call, check))
        return ops


def ball_profile(graph, x: int, radius: int):
    """(|V|, |E|, degree multiset, root degree) of the radius ball at x,
    from a breadth-first search that does not use the library."""
    dist = {x: 0}
    queue = deque([x])
    while queue:
        v = queue.popleft()
        if dist[v] == radius:
            continue
        for w in graph.neighbors(v):
            if w not in dist:
                dist[w] = dist[v] + 1
                queue.append(w)
    inside = set(dist)
    degree = {v: sum(1 for w in graph.neighbors(v) if w in inside) for v in inside}
    edges = sum(degree.values()) // 2
    return len(inside), edges, sorted(degree.values()), degree[x]


class LocalSym(Workload):
    """canonical_type(ball(G, x, R)) for one vertex of an unlabeled
    symmetric graph: random 3-regular graphs (n=2000) at R=2, random trees at R=3
    and a 12x12 torus at R=2.  Each round draws fresh graphs and vertices.

    Regular balls are the majority of every round, so the median op is a
    regular ball.  At n=2000 almost every radius-2 ball is a tree, so their
    times agree; at n=200 short cycles touch about a third of them, which
    made the median jump between seeds.  Tree balls carry the heavy tail
    and today's cap-outs, the only cap-outs the workload accepts.

    Canonicity is checked across the whole run: the torus is
    vertex-transitive, so all its balls must get one code, and every
    regular ball shaped as a tree (|V|=10, |E|=9) is the same depth-2
    3-regular tree, so these must get one code too.
    """

    PLAN = (("regular", 24), ("tree", 8), ("torus", 2))
    RADIUS = {"regular": 2, "tree": 3, "torus": 2}

    def __init__(self, seed: int):
        super().__init__(seed)
        self.torus = ll.generate("torus_grid", {"rows": 12, "cols": 12})
        self.group_codes = {}  # isomorphism group -> the first code seen

    def round(self, r: int) -> list:
        rng = round_rng("local_sym", self.seed, r)
        graphs = {
            "regular": ll.generate("random_regular", {"n": 2000, "d": 3},
                                   rng.randrange(2**31)),
            "tree": ll.generate("random_tree", {"n": 300}, rng.randrange(2**31)),
            "torus": self.torus,
        }
        ops = []
        for kind, count in self.PLAN:
            graph, radius = graphs[kind], self.RADIUS[kind]
            for x in rng.sample(graph.vertices, count):
                def call(graph=graph, x=x, radius=radius):
                    return ll.canonical_type(ll.ball(graph, x, radius), cap=CANON_CAP)

                def check(form, graph=graph, x=x, radius=radius, kind=kind):
                    profile = ball_profile(graph, x, radius)
                    rep, root = form.decode()
                    got = (len(rep.vertices), len(rep.edges),
                           sorted(rep.degree(v) for v in rep.vertices), rep.degree(root))
                    expect(got == profile, "canonical representative differs from the ball")
                    group = ("torus" if kind == "torus"
                             else "regular_tree" if kind == "regular" and profile[:2] == (10, 9)
                             else None)
                    if group is not None:
                        first = self.group_codes.setdefault(group, form.code)
                        expect(form.code == first,
                               f"isomorphic {group} balls got different codes")
                    return {"code": form.hex(), "profile": got}

                ops.append(Op(kind, call, check, cap_expected=kind == "tree"))
        return ops

    def digest_entry(self, record):
        return [record_hash(record["code"]), record["profile"]]

    def digest_records(self, entries):
        """Each ball's isomorphism class, numbered by first occurrence, and
        its representative's profile: the digest does not depend on how a
        code is spelled or which representative is canonical."""
        classes = {}
        out = []
        for entry in entries:
            if isinstance(entry, str):  # a cap-out or a failed op
                out.append(entry)
                continue
            code, profile = entry
            out.append([classes.setdefault(code, len(classes)), profile])
        return out


class RandCompile(Workload):
    """The `pipeline rand` chain exactly as cli.run_experiment runs it:
    rand_to_csp, stats and lll_check, moser_tardos_solve, decoding through
    apply, verify_lcl.  Sizes are fixed; the seed drives the solver."""

    PLAN = ((12, 4), (6, 6), (4, 8))

    def round(self, r: int) -> list:
        rng = round_rng("rand_compile", self.seed, r)
        ops = []
        for n, m in self.PLAN:
            cfg = cli.ExperimentConfig(
                pipeline="rand",
                graph={"kind": "directed_cycle", "params": {"n": n}},
                seed=rng.randrange(2**31),
                params={"m": m, "rounds": 0},
            )

            def call(cfg=cfg):
                return cli.run_experiment(cfg)

            def check(report, n=n, m=m):
                solver = [c for c in report["checks"] if c["name"] == "solver"]
                if solver and not solver[0]["ok"]:
                    raise CapOut(f"resampling capped after {solver[0]['resamples']}")
                expect(report["passed"], "decoded coloring rejected")
                values = {v: c for v, c in report["outputs"]["values"]}
                edges = [(i, (i + 1) % n) for i in range(n)]
                check_proper_coloring(values, range(n), edges, set(range(1, m + 1)))
                return report

            ops.append(Op(f"n{n}m{m}", call, check))
        return ops


def csp_regime(csp) -> bool:
    """True when the instance itself meets the inequalities the weighted
    solver's first step must certify on the direct route:
    p (d+1)^16 <= 2^-33 and p d(rho)^16 <= 2^-33 (README, "Desk-scale
    honesty"; eps_binary = 1 halves 2^-32).  Outside it the solver's
    known answer at desk scale is a certified StepInfeasibleError."""
    doms = [set(c.domain) for c in csp.constraints]
    p = max((Fraction(len(c.members), csp.m ** len(c.domain)) for c in csp.constraints),
            default=Fraction(0))
    d = max((sum(1 for j, other in enumerate(doms) if j != i and dom & other)
             for i, dom in enumerate(doms)), default=0)
    d_rho = max((sum(1 for dom in doms if x in dom) for x in csp.ground), default=0)
    eps = Fraction(1, 2**33)
    return p * (d + 1) ** 16 <= eps and p * Fraction(d_rho) ** 16 <= eps


def check_assignment(csp, assignment: dict) -> list:
    expect(set(assignment) == set(csp.ground), "assignment is not total")
    expect(all(1 <= v <= csp.m for v in assignment.values()), "value outside the range")
    for c in csp.constraints:
        expect(tuple(assignment[x] for x in c.domain) not in c.members,
               f"constraint {c.domain} violated")
    return sorted([int(x), int(v)] for x, v in assignment.items())


class LllSolve(Workload):
    """solve_weighted on random_measurable_csp instances and cover_family
    on random_cover_csp instances.  Every round has one certified-regime
    weighted instance per range size 2^20, 2^21, 2^22, one hard instance
    and one outside the certified regime (both must end in
    StepInfeasibleError), and one cover instance per (domain size, domain
    count) in COVER, so the mix of costs is the same in every round: a
    family has 2^size members and each costs work in proportion to the
    count."""

    WEIGHTED = ("m20", "m21", "m22", "hard", "uncertified")
    COVER = ((10, 5), (11, 3), (12, 2))

    def round(self, r: int) -> list:
        rng = round_rng("lll_solve", self.seed, r)
        weighted = {}
        while len(weighted) < len(self.WEIGHTED):
            s = rng.randrange(10**6)
            if "hard" not in weighted:
                weighted["hard"] = random_measurable_csp(s, max_ground=200, hard=True)
                continue
            csp = random_measurable_csp(s, max_ground=200)
            kind = f"m{csp.m.bit_length() - 1}" if csp_regime(csp) else "uncertified"
            weighted.setdefault(kind, csp)
        cover = {}
        while len(cover) < len(self.COVER):
            csp = random_cover_csp(rng.randrange(10**6), max_levels=12)
            shape = (len(csp.constraints[0].domain), len(csp.constraints))
            if shape in self.COVER:
                cover.setdefault(shape, csp)
        ops = [self._weighted(kind, weighted[kind], rng.randrange(2**30))
               for kind in self.WEIGHTED]
        ops += [self._cover(f"cover{a}x{c}", cover[a, c], rng.randrange(2**30))
                for a, c in self.COVER]
        return ops

    @staticmethod
    def _weighted(kind, csp, seed) -> Op:
        wts = ll.WeightedGroundSet.uniform(csp.ground)

        def call():
            return ll.solve_weighted(csp, wts, seed=seed)

        def check(result):
            budget = 1
            while (1 << (budget - 1)) * wts.min_positive() < 1:
                budget += 1
            expect(result.iterations <= budget, "iteration budget exceeded")
            for step in result.step_reports:
                expect(Fraction(step["covered_fraction_of_remaining"]) >= Fraction(1, 2),
                       "a step covered less than half")
            return {"assignment": check_assignment(csp, result.assignment),
                    "iterations": result.iterations,
                    "certificates": [s["certificates"] for s in result.step_reports]}

        return Op(kind, call, check, expect_infeasible=kind in ("hard", "uncertified"))

    @staticmethod
    def _cover(kind, csp, seed) -> Op:
        def call():
            return ll.cover_family(csp, seed=seed, budget=1 << 14)

        def check(result):
            expect(len(result.members) == 2 ** result.levels, "family size is not 2^levels")
            union = set()
            for member in result.members:
                union.update(member)
            expect(union == set(csp.ground), "family does not cover the ground set")
            floor = 2 ** (result.levels - 1)
            expect(all(result.per_element_counts[x] >= floor for x in csp.ground),
                   "an element is covered fewer than 2^(N-1) times")
            for cert in result.certificates:
                expect(cert["residual_(8,2^-15)"] or cert.get("solution_witness"),
                       "residual certified neither way")
            return {"levels": result.levels, "route": result.route,
                    "counts": sorted(result.per_element_counts.items()),
                    "certificates": result.certificates,
                    "members": [sorted(m.items()) for m in result.members]}

        return Op(kind, call, check)


WORKLOADS = {
    "local_det": LocalDet,
    "local_sym": LocalSym,
    "rand_compile": RandCompile,
    "lll_solve": LllSolve,
}
