"""Search budgets for the exact solvers.

All NP-hard searches in this package are exact and budgeted: they either
finish and return an exact answer, or raise :class:`~mtfsubdiv.errors.BudgetExceeded`.
They never fall back to a heuristic answer.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .errors import BudgetExceeded

# wall clock is only consulted every this many nodes; keeps tick() cheap
_TIME_CHECK_INTERVAL = 2048


@dataclass(frozen=True)
class SearchBudget:
    """Limits for one exact search call.

    ``max_nodes`` bounds the number of search tree nodes expanded and
    ``max_seconds`` bounds wall-clock time.  The defaults are sized for
    desk-scale instances.
    """

    max_nodes: int = 10_000_000
    max_seconds: float = 30.0


DEFAULT_BUDGET = SearchBudget()


class _Meter:
    """Mutable node/time counter of one user-facing search call.

    Each search ticks it once per node, whether it runs on an explicit
    stack (all of them but ``_find_dsw``'s ``extend``) or recurses.  A
    single meter may span several internal searches (for example the
    upward search over d in ``max_dsw_structure``) so that the budget
    covers the whole user-facing call.
    """

    __slots__ = ("budget", "nodes", "_t0", "_next_time_check")

    def __init__(self, budget: SearchBudget | None):
        self.budget = budget if budget is not None else DEFAULT_BUDGET
        self.nodes = 0
        self._t0 = time.monotonic()
        self._next_time_check = _TIME_CHECK_INTERVAL

    def tick(self, label: str = "search") -> None:
        """Count one search node; raise BudgetExceeded when over budget."""
        self.nodes += 1
        if self.nodes > self.budget.max_nodes:
            self._exhausted(label)
        if self.nodes >= self._next_time_check:
            self._check_time(label)

    def advance(self, count: int, label: str = "search") -> None:
        """Count ``count`` nodes at once; raises where ``count`` ticks would."""
        if self.nodes + count > self.budget.max_nodes:
            self.nodes = self.budget.max_nodes + 1
            self._exhausted(label)
        self.nodes += count
        if self.nodes >= self._next_time_check:
            self._check_time(label)

    def _exhausted(self, label: str) -> None:
        raise BudgetExceeded(
            f"{label}: node budget of {self.budget.max_nodes} exhausted",
            nodes=self.nodes,
            seconds=time.monotonic() - self._t0,
        )

    def _check_time(self, label: str) -> None:
        self._next_time_check = self.nodes + _TIME_CHECK_INTERVAL
        elapsed = time.monotonic() - self._t0
        if elapsed > self.budget.max_seconds:
            raise BudgetExceeded(
                f"{label}: time budget of {self.budget.max_seconds}s exhausted",
                nodes=self.nodes,
                seconds=elapsed,
            )


def meter_for(budget: SearchBudget | None) -> _Meter:
    """Meter for a fresh top-level call under ``budget`` (None means default)."""
    return _Meter(budget)


def _guarded(exceeded: list[str], field: str, fn, *args):
    """fn(*args), or None with ``field`` appended to ``exceeded`` when the
    solve runs out of budget: one field of a partial statistics report."""
    try:
        return fn(*args)
    except BudgetExceeded:
        exceeded.append(field)
        return None
