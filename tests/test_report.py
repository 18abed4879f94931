"""``ScenarioConfig`` checks every field it stores, from a descriptor or
from Python alike: the outcome and the model are built objects, and the
kinds a non-empty list of distinct bound kinds, stored as members."""

import dataclasses

import pytest

from sdpfeas import BoundKind, HazardFamily, HazardModel, InvalidInputError, ParseError, SdpOutcome
from sdpfeas.report import ScenarioConfig, build_report

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
