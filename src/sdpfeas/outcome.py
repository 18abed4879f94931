"""The failure model of software tested with a defect-prediction classifier.

Out of l modules predicted clean, each is independently misclassified
with probability p, so the failure count X is Binomial(l, p) with mean
l*p. In the Y-variant each misclassified module contributes a power-law
hazard Khat*t^mhat instead of a single failure, making Y a scaled
binomial at any fixed t. An outcome is of the Y-variant exactly when it
has an ``injection``; every expectation below follows it.

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
from dataclasses import dataclass
from typing import Callable

from .confusion import FailureProbability, counts_from_descriptor, false_omission_rate
from .errors import DomainError, InvalidInputError, ParseError
from .errors import read_integer, read_number, read_object

__all__ = [
    "WeibullInjection",
    "SdpOutcome",
    "expected_hazard",
    "expected_reliability_bound",
    "outcome_from_descriptor",
]


@dataclass(frozen=True)
class WeibullInjection:
    """Per-module hazard parameters for the Y-variant: each misclassified
    module injects hazard Khat * t**mhat."""

    K_hat: float
    m_hat: float

    def __post_init__(self):
        if not self.K_hat > 0:
            raise InvalidInputError(f"injection requires K_hat > 0, got {self.K_hat!r}")
        if not self.m_hat > -1:
            raise InvalidInputError(f"injection requires m_hat > -1, got {self.m_hat!r}")

    def scale_at(self, t: float) -> float:
        """Khat * t**mhat, the common per-module hazard at time t."""
        if t <= 0 and self.m_hat < 0:
            raise DomainError(f"injection hazard singular at t = {t!r} with m_hat < 0")
        if t < 0:
            raise DomainError(f"time must be >= 0, got {t!r}")
        return self.K_hat * t**self.m_hat

    def cumulative_at(self, t: float) -> float:
        """Khat * t**(mhat+1): the per-module cumulative exponent Y_i * t."""
        if t < 0:
            raise DomainError(f"time must be >= 0, got {t!r}")
        return self.K_hat * t ** (self.m_hat + 1)


@dataclass(frozen=True)
class SdpOutcome:
    """(l, p) description of the predicted-clean modules.

    ``n`` (total developed modules) is reporting metadata only; the math
    uses just l and p. ``injection`` makes the outcome, and every bound
    on it, of the Y-variant.
    """

    l: int
    p: FailureProbability
    injection: WeibullInjection | None = None
    n: int | None = None

    def __post_init__(self):
        if read_integer(self.l, "module count l") < 1:
            raise InvalidInputError(f"module count l must be an integer >= 1, got {self.l!r}")
        if isinstance(self.p, float):
            object.__setattr__(self, "p", FailureProbability.from_float(self.p))
        if self.n is not None and read_integer(self.n, "total module count n") < self.l:
            raise InvalidInputError(f"total module count n={self.n} cannot be below l={self.l}")

    @property
    def p_value(self) -> float:
        return self.p.p

    @property
    def mean_failures(self) -> float:
        return self.l * self.p.p


def hazard_mean(outcome: SdpOutcome) -> Callable[[float], float]:
    """The expected hazard as a function of t, for the outcome's variant:
    the failure count l*p at every t (X), or l*p*Khat*t**mhat (Y)."""
    mean_failures, injection = outcome.mean_failures, outcome.injection
    if injection is None:
        return lambda t: mean_failures
    scale_at = injection.scale_at
    return lambda t: mean_failures * scale_at(t)


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
        exponent = lambda t: -injection.cumulative_at(t)
    else:
        exponent = injection.cumulative_at

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
        p = false_omission_rate(counts_from_descriptor(payload["confusion"]))
    injection = None
    if "injection" in payload:
        fields = read_object(payload["injection"], "injection descriptor", required=("K_hat", "m_hat"))
        injection = WeibullInjection(read_number(fields["K_hat"], "K_hat"), read_number(fields["m_hat"], "m_hat"))
    return SdpOutcome(l=payload["l"], p=p, injection=injection, n=payload.get("n"))
