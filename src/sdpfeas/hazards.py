"""Hazard-curve families for manually tested software.

Six families are supported. Four of them are power laws and therefore
special cases of the general power-law (Weibull-type) hazard z(t) = K*t^m:

    weibull   z(t) = K * t**m          (K > 0, m > -1)
    nld       z(t) = K / sqrt(t)       non-linearly decreasing (= m = -1/2)
    ld        z(t) = K - m*t           linearly decreasing, valid on (0, K/m]
    nli       z(t) = K * t**2          non-linearly increasing (= m = 2)
    li        z(t) = K * t             linearly increasing (= m = 1)
    constant  z(t) = lambda

Reliability is R(t) = exp(-H(t)) with H(t) the cumulative hazard
(integral of z over [0, t]); every family has a closed form for H. The
ratio H(t)/t is the threshold at which a reliability comparison between
two systems reduces to a hazard-level comparison, and is what the bound
engine consumes; R(t) is exp(-t * H(t)/t).

Each family is one row of ``FAMILIES``: its parameters, the closed forms
of z and H/t, its time domain and its theorem tags. Nothing else in the
package branches on the family, so a new family is one new row.
``bounds.bound_sweep`` is the one evaluator of the table: a closed form
at one t is the ``threshold`` of a one-point sweep, of the hazard kind
for z and of the reliability kind for H/t.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from collections.abc import Callable

from .errors import InvalidInputError, ParseError, read_choice, read_number, read_object

__all__ = [
    "HazardFamily",
    "HazardModel",
    "model_from_descriptor",
]


class HazardFamily(str, enum.Enum):
    WEIBULL = "weibull"
    NONLINEAR_DECREASING = "nld"
    LINEAR_DECREASING = "ld"
    NONLINEAR_INCREASING = "nli"
    LINEAR_INCREASING = "li"
    CONSTANT = "constant"


@dataclass(frozen=True)
class HazardModel:
    """One hazard-curve family with its parameters, read as a descriptor's
    are and stored as read: the family (a member or its value) as the member,
    ``K`` the rate scale (unused by the constant family), ``m`` the exponent
    (weibull) or slope (ld) and ``lam`` the constant rate as finite floats.
    A parameter the family does not take must be None."""

    family: HazardFamily
    K: float | None = None
    m: float | None = None
    lam: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "family", read_choice(self.family, "hazard family", HazardFamily))
        for field, lower, rule in FAMILIES[self.family].params:
            value = getattr(self, _ATTRIBUTE[field])
            if value is not None:
                value = read_number(value, f"{self.family.value} {field}")
                object.__setattr__(self, _ATTRIBUTE[field], value)
            if value is None or not value > lower:
                raise InvalidInputError(f"{self.family.value} hazard requires {rule}, got {value!r}")
        taken = [field for field, _, _ in FAMILIES[self.family].params]
        unused = [f"{field}={getattr(self, name)!r}" for field, name in _ATTRIBUTE.items()
                  if field not in taken and getattr(self, name) is not None]
        if unused:
            raise InvalidInputError(f"{self.family.value} hazard does not take {', '.join(unused)}")

    @property
    def max_time(self) -> float:
        """Upper end of the valid time domain (inf unless linearly decreasing)."""
        return FAMILIES[self.family].max_time(self)


@dataclass(frozen=True)
class FamilySpec:
    """One family: its theorem tags, its descriptor fields (each with the
    exclusive lower bound its value must exceed and the rule as printed in
    errors), the closed forms z(t) and H(t)/t, which take a time inside the
    domain and check none, and the end of its time domain."""

    hazard_tag: str
    reliability_tag: str
    params: tuple[tuple[str, float, str], ...]
    z: Callable[[HazardModel, float], float]
    H_over_t: Callable[[HazardModel, float], float]
    max_time: Callable[[HazardModel], float] = lambda model: math.inf


#: descriptor field -> HazardModel attribute
_ATTRIBUTE = {"K": "K", "m": "m", "lambda": "lam"}
_K = ("K", 0.0, "K > 0")

FAMILIES = {
    HazardFamily.WEIBULL: FamilySpec(
        hazard_tag="Thm1", reliability_tag="Thm2", params=(_K, ("m", -1.0, "m > -1")),
        z=lambda model, t: model.K * t**model.m,
        H_over_t=lambda model, t: model.K * t**model.m / (model.m + 1),
    ),
    HazardFamily.NONLINEAR_DECREASING: FamilySpec(
        hazard_tag="Cor1", reliability_tag="Cor2", params=(_K,),
        z=lambda model, t: model.K / math.sqrt(t),
        H_over_t=lambda model, t: 2.0 * model.K / math.sqrt(t),
    ),
    HazardFamily.LINEAR_DECREASING: FamilySpec(
        hazard_tag="Cor3", reliability_tag="Cor4", params=(_K, ("m", 0.0, "slope m > 0")),
        z=lambda model, t: model.K - model.m * t,
        H_over_t=lambda model, t: model.K - model.m * t / 2.0,
        max_time=lambda model: model.K / model.m,
    ),
    HazardFamily.NONLINEAR_INCREASING: FamilySpec(
        hazard_tag="Cor5", reliability_tag="Cor6", params=(_K,),
        z=lambda model, t: model.K * t**2,
        H_over_t=lambda model, t: model.K * t**2 / 3.0,
    ),
    HazardFamily.LINEAR_INCREASING: FamilySpec(
        hazard_tag="Cor7", reliability_tag="Cor8", params=(_K,),
        z=lambda model, t: model.K * t,
        H_over_t=lambda model, t: model.K * t / 2.0,
    ),
    HazardFamily.CONSTANT: FamilySpec(
        hazard_tag="Cor9", reliability_tag="Cor10", params=(("lambda", 0.0, "lambda > 0"),),
        z=lambda model, t: model.lam,
        H_over_t=lambda model, t: model.lam,
    ),
}


def model_from_descriptor(payload: dict) -> HazardModel:
    """Build a model from the JSON descriptor form
    ``{"family": "...", "K": num, "m": num, "lambda": num}``.

    Only the family-appropriate fields are accepted; extras are rejected.
    """
    read_object(payload, "model descriptor", optional=None)
    if "family" not in payload:
        raise ParseError("model descriptor missing 'family'")
    family = read_choice(payload["family"], "hazard family", HazardFamily)
    fields = [field for field, _, _ in FAMILIES[family].params]
    read_object(payload, f"{family.value} descriptor", required=fields, optional=["family"])
    return HazardModel(family, **{_ATTRIBUTE[field]: payload[field] for field in fields})
