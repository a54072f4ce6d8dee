"""Node and time metering shared by the exact searches."""

import pytest

from mtfsubdiv import BudgetExceeded, SearchBudget
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
