"""Shared exception types.

Every operation that hits a configured desk-scale cap raises a dedicated
error carrying the cap, so callers can distinguish "wrong input" from
"too big for exact arithmetic".
"""

import json


class GraphBuildError(ValueError):
    """Invalid graph construction input (self-loop, unknown vertex, ...)."""


class EncodingBudgetError(GraphBuildError):
    """A graph-CSP encoding would need more entries than its budget."""


class CanonicalizationCapError(RuntimeError):
    def __init__(self, size, cap, what="ball size"):
        super().__init__(f"canonicalization cap exceeded: {what} {size} > cap {cap}")
        self.size = size
        self.cap = cap


class EnumerationCapError(RuntimeError):
    def __init__(self, bits, cap_bits, what="enumeration"):
        super().__init__(
            f"{what} needs ~2^{bits:.1f} states, above the configured cap 2^{cap_bits}"
        )
        self.bits = bits
        self.cap_bits = cap_bits


class InfeasibleParamsError(ValueError):
    """Generator or gadget parameters violate a stated precondition."""


class PipelineError(RuntimeError):
    """A pipeline precondition failed (ball too large, too many colors, ...)."""


class BootstrapInfeasibleError(RuntimeError):
    """No candidate size in the grid satisfied the certified inequalities."""

    def __init__(self, report):
        super().__init__(
            f"bootstrap infeasible at desk scale: {json.dumps(report, sort_keys=True)}")
        self.report = report


class StepInfeasibleError(RuntimeError):
    """A step cannot certify its inequalities, or a constraint forbids everything."""


class CoverBudgetError(RuntimeError):
    def __init__(self, n_levels, budget):
        super().__init__(f"covering family needs 2^{n_levels} members, above budget {budget}")
        self.n_levels = n_levels
        self.budget = budget
