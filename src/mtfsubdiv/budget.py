"""Search budgets for the exact solvers.

All NP-hard searches in this package are exact and budgeted: they either
finish and return an exact answer, or raise :class:`~mtfsubdiv.errors.BudgetExceeded`.
They never fall back to a heuristic answer.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .errors import BadParameter, BudgetExceeded

__all__ = ["DEFAULT_BUDGET", "SearchBudget"]

# wall clock is only consulted every this many nodes; keeps tick() cheap
_TIME_CHECK_INTERVAL = 2048


@dataclass(frozen=True)
class SearchBudget:
    """Limits for one exact search call.

    ``max_nodes`` bounds the number of search tree nodes expanded and
    ``max_seconds`` bounds wall-clock time.  The defaults are sized for
    desk-scale instances.  ``max_nodes`` must be an int >= 0 and
    ``max_seconds`` a number >= 0 (``inf`` for no time limit); anything
    else raises :class:`~mtfsubdiv.errors.BadParameter`.

    A node budget counts meter ticks, and some work is not ticked: the one
    breadth-first search behind each candidate-path call of the subdivision
    routing, and each edge it forces between host-adjacent branch images.
    So the wall time a node budget allows varies from search to search;
    ``max_seconds`` is the bound on time.
    """

    max_nodes: int = 10_000_000
    max_seconds: float = 30.0

    def __post_init__(self):
        nodes, secs = self.max_nodes, self.max_seconds
        # bool is an int subclass; reject it explicitly
        if isinstance(nodes, bool) or not isinstance(nodes, int) or nodes < 0:
            raise BadParameter(f"max_nodes must be an integer >= 0, got {nodes!r}")
        # NaN fails every comparison, so ``not secs >= 0`` rejects it too
        if isinstance(secs, bool) or not isinstance(secs, (int, float)) or not secs >= 0:
            raise BadParameter(f"max_seconds must be a number >= 0, got {secs!r}")


DEFAULT_BUDGET = SearchBudget()


class _Meter:
    """Mutable node/time counter of one user-facing search call.

    Each search ticks it once per node; every search runs on an explicit
    stack, so none is bounded by the interpreter's recursion limit.  A
    single meter may span several internal searches (for example the
    upward search over d in ``max_dsw_structure``) so that the budget
    covers the whole user-facing call.  The meter is all a search passes
    down: its BudgetExceeded names only the limit that tripped, since the
    exception leaves no call but the one the caller made.
    """

    __slots__ = ("budget", "nodes", "_t0", "_next_time_check")

    def __init__(self, budget: SearchBudget | None):
        self.budget = budget if budget is not None else DEFAULT_BUDGET
        self.nodes = 0
        self._t0 = time.monotonic()
        self._next_time_check = _TIME_CHECK_INTERVAL

    def tick(self) -> None:
        """Count one search node; raise BudgetExceeded when over budget."""
        self.nodes += 1
        if self.nodes > self.budget.max_nodes:
            self._exhausted()
        if self.nodes >= self._next_time_check:
            self._check_time()

    def advance(self, count: int) -> None:
        """Count ``count`` nodes at once; raises where ``count`` ticks would."""
        if self.nodes + count > self.budget.max_nodes:
            self.nodes = self.budget.max_nodes + 1
            self._exhausted()
        self.nodes += count
        if self.nodes >= self._next_time_check:
            self._check_time()

    def _exhausted(self) -> None:
        raise BudgetExceeded(
            f"node budget of {self.budget.max_nodes} exhausted",
            nodes=self.nodes,
            seconds=time.monotonic() - self._t0,
        )

    def _check_time(self) -> None:
        self._next_time_check = self.nodes + _TIME_CHECK_INTERVAL
        elapsed = time.monotonic() - self._t0
        if elapsed > self.budget.max_seconds:
            raise BudgetExceeded(
                f"time budget of {self.budget.max_seconds}s exhausted",
                nodes=self.nodes,
                seconds=elapsed,
            )


def meter_for(budget: SearchBudget | None) -> _Meter:
    """Meter for a fresh top-level call under ``budget`` (None means default);
    any other value raises BadParameter."""
    if budget is not None and not isinstance(budget, SearchBudget):
        raise BadParameter(f"budget must be a SearchBudget or None, got {budget!r}")
    return _Meter(budget)


def _guarded(exceeded: list[str], field: str, fn, *args):
    """fn(*args), or None with ``field`` appended to ``exceeded`` when the
    solve runs out of budget: one field of a partial statistics report."""
    try:
        return fn(*args)
    except BudgetExceeded:
        exceeded.append(field)
        return None
