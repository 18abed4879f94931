"""The failure model of software tested with a defect-prediction classifier.

Out of l modules predicted clean, each is independently misclassified
with probability p, so the failure count X is Binomial(l, p) with mean
l*p. In the Y-variant each misclassified module contributes the weibull
hazard Khat*t^mhat instead of a single failure, making Y a scaled
binomial at any fixed t. An outcome is of the Y-variant exactly when it
has an ``injection``, a weibull ``HazardModel`` with K = Khat and
m = mhat; every expectation below follows it.

The expected reliability of the X-variant system is bounded above by
exp(l*p*(exp(-t) - 1)). The Y-variant bound carries a ``corrected`` sign
flag: the published form uses exp(+Khat*t^(mhat+1)) inside the outer
exponent, which contradicts the per-module reliability exp(-Y*t) and can
exceed 1. The corrected form flips that inner sign; only the corrected
form is consistent with simulation. Both are kept, clearly labelled.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass
from typing import Callable

from .confusion import counts_from_descriptor, false_omission_rate
from .errors import DomainError, InvalidInputError, ParseError
from .errors import read_integer, read_number, read_object
from .hazards import HazardFamily, HazardModel, hazard_at

__all__ = [
    "SdpOutcome",
    "expected_hazard",
    "expected_reliability_bound",
    "outcome_from_descriptor",
]


@dataclass(frozen=True)
class SdpOutcome:
    """(l, p) description of the predicted-clean modules.

    ``p`` lies strictly inside (0, 1). ``n`` (total developed modules) is
    reporting metadata only; the math uses just l and p. ``injection``
    makes the outcome, and every bound on it, of the Y-variant.
    """

    l: int
    p: float
    injection: HazardModel | None = None
    n: int | None = None

    def __post_init__(self):
        # l * p is a float: an l past the float range has no mean
        if not 1 <= read_integer(self.l, "module count l") <= sys.float_info.max:
            raise InvalidInputError(f"module count l must be an integer in [1, {sys.float_info.max!r}], got {self.l!r}")
        if not 0.0 < read_number(self.p, "failure probability") < 1.0:
            raise InvalidInputError(f"failure probability must lie strictly in (0, 1), got {self.p!r}")
        if self.injection is not None and getattr(self.injection, "family", None) is not HazardFamily.WEIBULL:
            raise InvalidInputError(f"injection must be a weibull HazardModel, got {self.injection!r}")
        if self.n is not None and read_integer(self.n, "total module count n") < self.l:
            raise InvalidInputError(f"total module count n={self.n} cannot be below l={self.l}")

    @property
    def mean_failures(self) -> float:
        return self.l * self.p


def hazard_mean(outcome: SdpOutcome) -> Callable[[float], float]:
    """The expected hazard as a function of t, for the outcome's variant:
    the failure count l*p at every t (X), or l*p*Khat*t**mhat (Y)."""
    mean_failures, injection = outcome.mean_failures, outcome.injection
    if injection is None:
        return lambda t: mean_failures
    return lambda t: mean_failures * hazard_at(injection, t)


def reliability_mean(outcome: SdpOutcome, corrected: bool = True) -> Callable[[float], float]:
    """The upper bound on the expected reliability as a function of t > 0,
    for the outcome's variant.

    X: exp(l*p*(exp(-t) - 1)), the bound on E[exp(-X*t)], strictly inside
       (0, 1); ``corrected`` does not apply.
    Y: the bound on E[exp(-Y*t)];
       corrected=True  -> exp(l*p*(exp(-Khat*t^(mhat+1)) - 1)), in (0, 1)
       corrected=False -> exp(l*p*(exp(+Khat*t^(mhat+1)) - 1)), the
                          published form, which can exceed 1 and is
                          retained only for fidelity to the printed result.
    """
    mean_failures, injection = outcome.mean_failures, outcome.injection
    if injection is None:
        exponent = operator.neg
    elif corrected:
        exponent = lambda t: -injection.K * t ** (injection.m + 1)
    else:
        exponent = lambda t: injection.K * t ** (injection.m + 1)

    def mean(t: float) -> float:
        if t <= 0:
            raise DomainError(f"reliability bound requires t > 0, got {t!r}")
        return math.exp(mean_failures * math.expm1(exponent(t)))

    return mean


def expected_hazard(outcome: SdpOutcome, t: float) -> float:
    """Expected hazard at time t (see ``hazard_mean``)."""
    return hazard_mean(outcome)(t)


def expected_reliability_bound(outcome: SdpOutcome, t: float, corrected: bool = True) -> float:
    """Upper bound on the expected reliability at time t (see
    ``reliability_mean``)."""
    return reliability_mean(outcome, corrected)(t)


def outcome_from_descriptor(payload: dict) -> SdpOutcome:
    """Build an outcome from the JSON descriptor form.

    Either ``{"l": int, "p": num}`` or ``{"l": int, "confusion": {...}}``
    (p derived as the false omission rate), plus optional
    ``"injection": {"K_hat": num, "m_hat": num}`` and ``"n": int``.
    """
    read_object(payload, "outcome descriptor", required=("l",), optional=("p", "confusion", "injection", "n"))
    if ("p" in payload) == ("confusion" in payload):
        raise ParseError("outcome descriptor needs exactly one of 'p' or 'confusion'")
    if "p" in payload:
        p = read_number(payload["p"], "outcome p")
    else:
        p = float(false_omission_rate(counts_from_descriptor(payload["confusion"])))
    injection = None
    if "injection" in payload:
        fields = read_object(payload["injection"], "injection descriptor", required=("K_hat", "m_hat"))
        K, m = read_number(fields["K_hat"], "K_hat"), read_number(fields["m_hat"], "m_hat")
        try:
            injection = HazardModel(HazardFamily.WEIBULL, K=K, m=m)
        except InvalidInputError as exc:
            raise InvalidInputError(f"injection (K_hat, m_hat): {exc}") from None
    return SdpOutcome(l=payload["l"], p=p, injection=injection, n=payload.get("n"))
