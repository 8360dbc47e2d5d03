"""Brute-force model counting used as an independent test oracle.

Enumerates every complete assignment in plain binary order (assignment
``m`` sets variable ``v`` true when bit ``v-1`` of ``m`` is set) and
checks each constraint by direct summation. Nothing here is shared with
the search-based counter beyond the formula types, so the two sides can
check each other. Each function imports numpy when it runs, so importing
the package does not load it.
"""

from __future__ import annotations

from .formula import Assignment, PBFormula, lit_is_true, lit_var

ENUMERATION_LIMIT = 24

# Tables are built in int64; fall back to Python integers well before the
# sums could wrap.
_INT64_SAFE = 1 << 60


class OracleLimitError(ValueError):
    """The instance is too large for exhaustive enumeration."""


class OracleResult:
    """Exact count plus how many assignments were enumerated."""

    __slots__ = ("count", "enumerated")

    def __init__(self, count: int, enumerated: int):
        self.count = count
        self.enumerated = enumerated

    def __repr__(self) -> str:
        return "OracleResult(count=%d, enumerated=%d)" % (self.count, self.enumerated)


def constraint_sum_table(terms, bit_vars):
    """Left-hand-side value of one constraint for all 2**k assignments.

    Returns a numpy array. ``bit_vars[j]`` is the variable controlled by
    bit ``j`` of the assignment index. Variables outside ``bit_vars``
    contribute nothing; callers fold those into the degree beforehand.
    """
    import numpy as np

    by_var = {lit_var(lit): (coeff, lit > 0) for coeff, lit in terms}
    big = sum(abs(c) for c, _ in terms) >= _INT64_SAFE
    table = np.zeros(1, dtype=object if big else np.int64)
    for v in bit_vars:
        coeff, positive = by_var.get(v, (0, True))
        when_false = 0 if positive else coeff
        when_true = coeff if positive else 0
        doubled = np.empty(2 * len(table), dtype=table.dtype)
        doubled[: len(table)] = table + when_false
        doubled[len(table):] = table + when_true
        table = doubled
    return table


def brute_count(formula: PBFormula, limit_vars: int = ENUMERATION_LIMIT) -> OracleResult:
    """Exact model count by exhaustive enumeration of all assignments."""
    import numpy as np

    n = formula.num_vars
    if n > limit_vars:
        raise OracleLimitError("brute_count limited to %d variables, got %d" % (limit_vars, n))
    enumerated = 1 << n
    if formula.unsat_at_load:
        return OracleResult(0, enumerated)
    bit_vars = list(range(1, n + 1))
    ok = np.ones(enumerated, dtype=bool)
    for c in formula.constraints:
        ok &= constraint_sum_table(c.terms, bit_vars) >= c.degree
    return OracleResult(int(np.count_nonzero(ok)), enumerated)


def brute_residual_count(formula: PBFormula, assignment: Assignment,
                         limit_vars: int = ENUMERATION_LIMIT) -> int:
    """Number of total extensions of a partial assignment that are models.

    Assigned variables are fixed; the remaining ones are enumerated
    exhaustively, again in plain binary order.
    """
    import numpy as np

    unassigned = [v for v in range(1, formula.num_vars + 1) if v not in assignment]
    if len(unassigned) > limit_vars:
        raise OracleLimitError("brute_residual_count limited to %d free variables, got %d"
                               % (limit_vars, len(unassigned)))
    if formula.unsat_at_load:
        return 0
    ok = np.ones(1 << len(unassigned), dtype=bool)
    for c in formula.constraints:
        fixed = sum(coeff for coeff, lit in c.terms if lit_is_true(lit, assignment))
        open_terms = [(coeff, lit) for coeff, lit in c.terms if lit_var(lit) not in assignment]
        ok &= constraint_sum_table(open_terms, unassigned) >= c.degree - fixed
    return int(np.count_nonzero(ok))
