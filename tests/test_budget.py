"""Node and time metering shared by the exact searches."""

import pytest

from mtfsubdiv import BadParameter, BudgetExceeded, SearchBudget
from mtfsubdiv.budget import _TIME_CHECK_INTERVAL, meter_for


def test_advance_trips_where_single_ticks_would():
    meter = meter_for(SearchBudget(max_nodes=10))
    meter.advance(4)
    meter.tick()
    meter.advance(5)
    assert meter.nodes == 10
    with pytest.raises(BudgetExceeded) as exc:
        meter.advance(3)
    assert exc.value.nodes == 11


def test_advance_checks_the_clock_at_the_same_interval():
    meter = meter_for(SearchBudget(max_seconds=0.0))
    meter.advance(_TIME_CHECK_INTERVAL - 1)
    with pytest.raises(BudgetExceeded, match="time budget"):
        meter.advance(1)


@pytest.mark.parametrize(
    "limits",
    [
        {"max_nodes": -1},
        {"max_nodes": True},
        {"max_nodes": 10.0},
        {"max_nodes": "10"},
        {"max_seconds": -5.0},
        {"max_seconds": float("nan")},
        {"max_seconds": False},
        {"max_seconds": "1"},
        {"max_seconds": None},
    ],
)
def test_budget_rejects_values_outside_its_domain(limits):
    # a negative node budget would read as exceeded, a NaN time budget would
    # never trip and a negative one would trip only at the first clock check
    with pytest.raises(BadParameter):
        SearchBudget(**limits)


def test_budget_accepts_its_boundary_values():
    assert SearchBudget(max_nodes=0, max_seconds=0).max_nodes == 0
    assert SearchBudget(max_seconds=float("inf")).max_seconds == float("inf")
