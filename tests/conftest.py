import json
import math

import pytest
from scipy.integrate import quad

from sdpfeas.hazards import FAMILIES, HazardFamily, HazardModel


def strict_json(text: str):
    """``json.loads(text)``, refusing the NaN, Infinity and -Infinity that
    ``json`` writes for non-finite floats and JSON itself does not allow."""

    def reject(constant):
        raise ValueError(f"not valid JSON: {constant}")

    return json.loads(text, parse_constant=reject)


def quadrature_cumulative_hazard(model: HazardModel, t: float) -> float:
    """Adaptive-quadrature oracle for the cumulative hazard: the integral of
    the family's ``FAMILIES`` z column, independent of its H/t column.

    Families with an integrable singularity at 0 (nld, weibull with m < 0)
    are integrated after the substitution x = u**2, which removes the
    singularity: dx = 2u du, so z(u**2) * 2u is bounded near 0.
    """
    if t == 0:
        return 0.0
    z = FAMILIES[model.family].z
    singular = model.family is HazardFamily.NONLINEAR_DECREASING or (
        model.family is HazardFamily.WEIBULL and model.m < 0
    )
    if singular:
        value, _ = quad(lambda u: z(model, u * u) * 2 * u, 0.0, math.sqrt(t), limit=200)
    else:
        value, _ = quad(lambda x: z(model, x), 0.0, t, limit=200)
    return value


@pytest.fixture
def desk_outcome():
    from sdpfeas import SdpOutcome

    return SdpOutcome(l=100, p=0.05)


def bound_at(outcome, model, t, kind="hazard", corrected=True):
    """The bound at the single time t: the one row of a one-point sweep,
    out of regime too."""
    from sdpfeas import bound_sweep

    [row] = bound_sweep(outcome, model, [t], kind, corrected)
    return row
