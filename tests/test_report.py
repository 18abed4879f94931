"""``ScenarioConfig`` checks every field it stores, from a descriptor or
from Python alike: the outcome and the model are built objects, and the
kinds a non-empty list of distinct bound kinds, stored as members. A
report refuses a row without a t. Two known defects of the report are
strict xfails, each naming the ROADMAP item that mends it."""

import dataclasses

import pytest

from sdpfeas import BoundKind, HazardFamily, HazardModel, InvalidInputError, ParseError, SdpOutcome, chernoff_lower_tail
from sdpfeas.report import FeasibilityReport, ScenarioConfig, build_report, run_sweep

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
        build_report(ScenarioConfig(outcome, model, [1.0], ["hazard"]))
    assert str(info.value) == message


@pytest.mark.parametrize("swept", [0, 2], ids=["alone", "after-swept-rows"])
def test_report_row_without_t_is_refused(swept):
    # the kernel's row has no t: alone its report wrote "infeasible_at":
    # [[null, null]], and after swept rows sorting the grid raised a TypeError
    rows = run_sweep(ScenarioConfig(OUTCOME, MODEL, [1.0, 2.0], ["hazard"]))[:swept]
    report = FeasibilityReport({}, [*rows, chernoff_lower_tail(10.0, 2.0)], [], 0.05, "")
    for write in (report.verdict, report.to_dict, report.to_json):
        with pytest.raises(InvalidInputError) as info:
            write()
        assert str(info.value) == f"report row {swept} has no t: a report holds swept rows"


def exact_report(outcome, model, t):
    """The report of verifying ``model``'s hazard bounds at ``t`` against
    the exact oracle alone: one exact record per in-regime row."""
    return build_report(ScenarioConfig(outcome, model, [t], ["hazard"]))


@pytest.mark.xfail(
    strict=True,
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
    reason="ROADMAP item 13: feasible_at lists t where the Chernoff upper bound is above epsilon, "
    "here [[80.0, 80.0]] with a bound of 0.117, though the exact tail there is 0.0105 <= 0.05",
)
def test_feasible_point_has_no_exact_tail_at_or_below_epsilon():
    report = exact_report(SdpOutcome(l=2000, p=0.01), HazardModel(HazardFamily.WEIBULL, K=0.5, m=0.7), 80.0)
    checked = [row for row in report.rows if row.bound is not None]
    summary = report.verdict()
    assert len(checked) == len(report.verification)
    for row, record in zip(checked, report.verification):
        if any(lo <= row.t <= hi for lo, hi in summary["feasible_at"]):
            assert record.oracle > summary["epsilon"], record.event
