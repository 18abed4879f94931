"""``ScenarioConfig`` checks every field it stores, from a descriptor or
from Python alike: the outcome and the model are built objects, and the
kinds a non-empty list of distinct bound kinds, stored as members. The
grid is stored as a tuple of floats, so a one-shot iterator serves every
kind. A report is built from its scenario alone, and its verdict is that
of the scenario's rows grouped by t. Two known defects of the report are
strict xfails, each naming the ROADMAP item that mends it."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdpfeas import (
    BoundKind, HazardFamily, HazardModel, InvalidInputError, ParseError, Regime, SdpFeasError, SdpOutcome, bound_sweep,
)
from sdpfeas.report import FeasibilityReport, ScenarioConfig, run_sweep, run_verification
from test_bounds import sweep_cases

OUTCOME = SdpOutcome(l=100, p=0.05)
MODEL = HazardModel(HazardFamily.WEIBULL, K=1.0, m=1.0)
DESCRIPTOR = {
    "outcome": {"l": 100, "p": 0.05},
    "model": {"family": "weibull", "K": 1.0, "m": 1.0},
    "time_grid": {"t": 1.0},
}


def test_kinds_are_stored_as_members():
    config = ScenarioConfig(OUTCOME, MODEL, [1.0], ["reliability", BoundKind.HAZARD])
    assert config.kinds == [BoundKind.RELIABILITY, BoundKind.HAZARD]
    assert all(type(kind) is BoundKind for kind in config.kinds)
    assert dataclasses.replace(config, seed=3).kinds == config.kinds


def test_descriptor_kinds_default_to_hazard():
    assert ScenarioConfig.from_descriptor(DESCRIPTOR).kinds == [BoundKind.HAZARD]
    both = ScenarioConfig.from_descriptor(dict(DESCRIPTOR, kinds=["hazard", "reliability"]))
    assert both.kinds == [BoundKind.HAZARD, BoundKind.RELIABILITY]


@pytest.mark.parametrize(
    "kinds, message",
    [
        (["hazard", BoundKind.HAZARD], "kinds must be a non-empty set, got ['hazard', <BoundKind.HAZARD: 'hazard'>]"),
        (("hazard",), "kinds must be a list, got ('hazard',)"),
        (["bogus"], "unknown bound kind 'bogus'; expected one of: hazard, reliability"),
    ],
)
def test_malformed_kinds_are_one_parse_error(kinds, message):
    with pytest.raises(ParseError) as info:
        ScenarioConfig(OUTCOME, MODEL, [1.0], kinds)
    assert str(info.value) == message


@pytest.mark.parametrize("kinds", [[], ["hazard", "hazard"], "hazard", ["bogus"]])
def test_descriptor_kinds_are_read_as_python_kinds_are(kinds):
    with pytest.raises(ParseError) as from_python:
        ScenarioConfig(OUTCOME, MODEL, [1.0], kinds)
    with pytest.raises(ParseError) as from_descriptor:
        ScenarioConfig.from_descriptor(dict(DESCRIPTOR, kinds=kinds))
    assert str(from_descriptor.value) == str(from_python.value)


@pytest.mark.parametrize(
    "outcome, model, message",
    [
        ({"l": 100, "p": 0.05}, MODEL, "scenario outcome must be an SdpOutcome, got dict"),
        (OUTCOME, HazardFamily.WEIBULL, "scenario model must be a HazardModel, got HazardFamily"),
    ],
)
def test_outcome_and_model_must_be_built_objects(outcome, model, message):
    with pytest.raises(InvalidInputError) as info:
        FeasibilityReport(ScenarioConfig(outcome, model, [1.0], ["hazard"]))
    assert str(info.value) == message


def reference_verdict(rows, epsilon) -> dict:
    """The verdict's ranges from the rows grouped by t, in sorted t order."""
    by_time = {}
    for row in rows:
        by_time.setdefault(row.t, []).append(row)
    ranges = {"feasible_at": [], "infeasible_at": [], "out_of_regime_at": []}
    previous = None
    for t in sorted(by_time):
        bounds = [row.bound for row in by_time[t] if row.regime is not Regime.OUT_OF_REGIME]
        key = "out_of_regime_at" if not bounds else "infeasible_at" if min(bounds) <= epsilon else "feasible_at"
        if key == previous:
            ranges[key][-1][1] = t
        else:
            ranges[key].append([t, t])
        previous = key
    return ranges


@settings(max_examples=200, deadline=None)
@given(case=sweep_cases(), epsilon=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
def test_verdict_is_that_of_the_rows_grouped_by_t(case, epsilon):
    outcome, model, grid, kind, corrected = case
    kinds = [kind, *(other for other in BoundKind if other is not kind)]
    try:
        config = ScenarioConfig(outcome, model, grid, kinds, corrected=corrected, verify_exact=False, epsilon=epsilon)
    except SdpFeasError as exc:
        # a grid the sweep refuses is refused as the scenario is built
        with pytest.raises(SdpFeasError) as info:
            bound_sweep(outcome, model, grid, kind, corrected)
        assert (type(info.value), str(info.value)) == (type(exc), str(exc))
        return
    try:
        blocks = run_sweep(config)
    except SdpFeasError as exc:
        # a sweep that fails fails the report as it fails alone
        with pytest.raises(SdpFeasError) as info:
            FeasibilityReport(config)
        assert (type(info.value), str(info.value)) == (type(exc), str(exc))
        return
    report = FeasibilityReport(config)
    assert report.blocks == blocks and report.verification == []
    rows = [row for block in blocks for row in block]
    summary = report.verdict()
    assert summary.pop("epsilon") == epsilon and summary.pop("note")
    assert summary == reference_verdict(rows, epsilon)


def test_int_grid_is_stored_as_a_tuple_of_floats():
    config = ScenarioConfig(OUTCOME, MODEL, [1, 2, 30], ["hazard"])
    assert config.grid == (1.0, 2.0, 30.0) and all(type(t) is float for t in config.grid)
    assert dataclasses.replace(config, seed=3).grid == config.grid


def test_one_shot_grid_serves_every_kind():
    kinds = ["hazard", "reliability"]
    report = FeasibilityReport(ScenarioConfig(OUTCOME, MODEL, iter([1.0, 2.0]), kinds))
    assert [len(block) for block in report.blocks] == [2, 2]
    assert report.blocks == FeasibilityReport(ScenarioConfig(OUTCOME, MODEL, [1.0, 2.0], kinds)).blocks


def test_verification_of_no_blocks_is_empty():
    assert run_verification(ScenarioConfig(OUTCOME, MODEL, [1.0, 2.0], ["hazard", "reliability"]), []) == []


def test_verdict_writes_an_int_grid_as_floats():
    # the verdict reads each t from the grid, which the scenario stores as floats
    summary = FeasibilityReport(ScenarioConfig(OUTCOME, MODEL, [1, 2, 30], ["hazard", "reliability"])).verdict()
    ranges = [summary["feasible_at"], summary["infeasible_at"], summary["out_of_regime_at"]]
    assert ranges == [[[1.0, 2.0]], [], [[30.0, 30.0]]]
    assert all(type(t) is float for key in ("feasible_at", "out_of_regime_at") for t in summary[key][0])


def exact_report(outcome, model, t):
    """The report of verifying ``model``'s hazard bounds at ``t`` against
    the exact oracle alone: one exact record per in-regime row."""
    return FeasibilityReport(ScenarioConfig(outcome, model, [t], ["hazard"]))


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 9: K*t is 1 + 1.5e-17 exactly, but the float product is 1.0, "
    "so the record checks Pr[X < 1.0] = Pr[X = 0] = 0.00592, not the event {X <= 1}, 0.0371",
)
def test_count_threshold_just_above_an_integer_checks_its_event():
    # README's "Known defect"
    from scipy.stats import binom

    report = exact_report(
        SdpOutcome(l=100, p=0.05), HazardModel(HazardFamily.LINEAR_INCREASING, K=0.021984539640669102), 45.48651080917357
    )
    [record] = report.verification
    assert record.oracle == pytest.approx(binom.cdf(1, 100, 0.05), rel=1e-12, abs=0)


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 13: feasible_at lists t where the Chernoff upper bound is above epsilon, "
    "here [[80.0, 80.0]] with a bound of 0.117, though the exact tail there is 0.0105 <= 0.05",
)
def test_feasible_point_has_no_exact_tail_at_or_below_epsilon():
    report = exact_report(SdpOutcome(l=2000, p=0.01), HazardModel(HazardFamily.WEIBULL, K=0.5, m=0.7), 80.0)
    checked = [row for block in report.blocks for row in block if row.bound is not None]
    summary = report.verdict()
    assert len(checked) == len(report.verification)
    for row, record in zip(checked, report.verification):
        if any(lo <= row.t <= hi for lo, hi in summary["feasible_at"]):
            assert record.oracle > summary["epsilon"], record.event
