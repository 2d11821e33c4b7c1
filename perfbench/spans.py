"""Spans around the library's public functions, recorded from outside.

`Tracer.install()` replaces each traced function at every module of the
package that binds it, so calls made through a module-level import
(`localrun` binds `ball` and `canonical_type`) and calls made through an
import inside a function body (`compilers` and `engine` import
`canonical_type`, `binary_reduce` and `bootstrap` there, which reads the
defining module's attribute) are both seen.  `LocalAlgorithm.__call__` is
replaced on the class, and the predicates of every CSP returned by
`rand_to_csp` are wrapped one by one.

Spans (name, start, end, parent) are kept in flat arrays in memory and
written when the run ends.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import Counter
from dataclasses import replace

# (module, function): the span name is "<module>.<function>"
TRACED = (
    ("graphs", "ball"),
    ("graphs", "with_labeling"),
    ("canonical", "canonical_type"),
    ("localrun", "run_deterministic"),
    ("localrun", "verify_lcl"),
    ("localrun", "det_pipeline"),
    ("compilers", "rand_to_csp"),
    ("compilers", "bootstrap"),
    ("csp", "stats"),
    ("csp", "restrict_csp"),
    ("csp", "is_solution"),
    ("binary", "binary_reduce"),
    ("connect", "apply"),
    ("connect", "pull_partial"),
    ("connect", "compose"),
    ("engine", "construct_partial"),
    ("engine", "step"),
    ("engine", "solve_weighted"),
    ("engine", "cover_family"),
    ("engine", "extend_solution"),
    ("engine", "lll_check"),
    ("engine", "moser_tardos_solve"),
)
OP_SPAN = "op"
RULE_SPAN = "localrun.rule"
PREDICATE_SPAN = "compilers.predicate"


class Tracer:
    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counters: Counter = Counter()
        self._forms: set = set()

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin(self, nid: int) -> int:
        i = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def finish(self, i: int):
        self.end[i] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, on_result=None, on_error=None):
        nid = self._id(name)
        begin, finish, stack = self.begin, self.finish, self._stack

        def traced(*args, **kwargs):
            if len(stack) == 1:
                # outside an op: input generation for the next round
                return fn(*args, **kwargs)
            i = begin(nid)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                finish(i)
                if on_error is not None:
                    on_error(exc)
                raise
            finish(i)
            return result if on_result is None else on_result(result)

        traced.__wrapped__ = fn
        return traced

    def begin_op(self) -> int:
        return self.begin(self._id(OP_SPAN))

    def finish_op(self, i: int):
        self.finish(i)
        # repeats are counted within one op: the memoization headroom of
        # a single pipeline call, not of a cache shared between calls
        self._forms.clear()

    # -- counters measured at the span boundaries --------------------------

    def _canonical_result(self, form):
        self.counters["canonical.repeats"] += form.code in self._forms
        self._forms.add(form.code)
        return form

    def _canonical_error(self, exc):
        from locallemma.errors import CanonicalizationCapError

        self.counters["canonical.cap_outs"] += isinstance(exc, CanonicalizationCapError)

    def _mt_result(self, result):
        self.counters["engine.mt.resamples"] += result.resamples
        self.counters["engine.mt.capped"] += bool(result.capped)
        return result

    def _rand_to_csp_result(self, pair):
        compiled, decoder = pair
        constraints = tuple(
            replace(c, predicate=self.wrap(PREDICATE_SPAN, c.predicate))
            if c.predicate is not None else c
            for c in compiled.constraints)
        return replace(compiled, constraints=constraints), decoder

    def install(self):
        """Wrap every traced function at each binding inside the package."""
        hooks = {
            "canonical_type": (self._canonical_result, self._canonical_error),
            "moser_tardos_solve": (self._mt_result, None),
            "rand_to_csp": (self._rand_to_csp_result, None),
        }
        package = [m for name, m in sys.modules.items()
                   if name == "locallemma" or name.startswith("locallemma.")]
        for module, attr in TRACED:
            fn = getattr(sys.modules[f"locallemma.{module}"], attr)
            wrapped = self.wrap(f"{module}.{attr}", fn, *hooks.get(attr, (None, None)))
            for mod in package:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, wrapped)
        from locallemma.localrun import LocalAlgorithm

        LocalAlgorithm.__call__ = self.wrap(RULE_SPAN, LocalAlgorithm.__call__)

    # -- aggregation -------------------------------------------------------

    def self_times(self, seconds) -> dict:
        """name -> [calls, self seconds], where `seconds(a, b)` converts an
        interval and a span's self time is its duration minus the
        durations of its direct children."""
        n = len(self.start)
        child = [0.0] * n
        dur = [0.0] * n
        for i in range(n - 1, -1, -1):
            dur[i] = seconds(self.start[i], self.end[i])
            if self.parent[i] >= 0:
                child[self.parent[i]] += dur[i]
        out = {name: [0, 0.0] for name in self.names}
        for i in range(n):
            entry = out[self.names[self.name_id[i]]]
            entry[0] += 1
            entry[1] += dur[i] - child[i]
        return out

    def write(self, path, limit: int):
        """Write the first `limit` spans as tab-separated
        name, start, end, parent (times in microseconds)."""
        n = min(len(self.start), limit)
        with open(path, "w") as fh:
            fh.write(f"# spans {len(self.start)} written {n}\n")
            for i in range(n):
                fh.write(f"{self.names[self.name_id[i]]}\t{self.start[i] * 1e6:.1f}\t"
                         f"{self.end[i] * 1e6:.1f}\t{self.parent[i]}\n")
