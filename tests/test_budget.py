"""Node and time metering shared by the exact searches."""

import pytest

from mtfsubdiv import (
    BadParameter,
    BudgetExceeded,
    Graph,
    Hypergraph,
    SearchBudget,
    analyze,
    chromatic_number,
    find_subdivision,
    gen_cycle,
    gen_petersen,
    max_dsw_structure,
    max_independent_set,
    neighborhood_hypergraph,
    run_pipeline,
    transversality,
)
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


_PETERSEN = gen_petersen()
_C5 = gen_cycle(5)


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: analyze(_PETERSEN, 5), id="analyze"),
        pytest.param(lambda: run_pipeline(_PETERSEN, _C5, budget=5), id="run_pipeline"),
        pytest.param(lambda: chromatic_number(_PETERSEN, "x"), id="chromatic_number"),
        pytest.param(lambda: transversality(neighborhood_hypergraph(_PETERSEN), 1.5), id="transversality"),
        pytest.param(lambda: find_subdivision(_C5, _PETERSEN, budget={"max_nodes": 10}), id="find_subdivision"),
        # the value is checked before any answer that needs no search
        pytest.param(lambda: find_subdivision(_PETERSEN, _C5, budget=5), id="find_subdivision-pattern-too-large"),
        pytest.param(lambda: chromatic_number(Graph(0), 5), id="chromatic_number-empty"),
        pytest.param(lambda: max_independent_set(Graph(0), 5), id="max_independent_set-empty"),
        pytest.param(lambda: max_dsw_structure(Hypergraph(1, []), 5), id="max_dsw_structure-no-edges"),
    ],
)
def test_public_solvers_reject_a_budget_that_is_not_a_search_budget(call):
    # a bad budget is a bad parameter, not an AttributeError from the meter
    with pytest.raises(BadParameter, match="budget must be a SearchBudget"):
        call()
