"""The Chernoff lower-tail bound engine.

Every named bound in the analysis is one kernel applied with a different
(mu, threshold) pair:

    Pr[X < threshold] < exp(-(mu - threshold)^2 / (2*mu))

valid when the deviation band delta = 1 - threshold/mu lies in (0, 1].
Outside that band the bound says nothing, and the engine reports the
point as out-of-regime rather than clamping; an inapplicable theorem is a
finding the report must show.

The theorem tag of an X-variant bound is the family's hazard or
reliability tag in ``hazards.FAMILIES``; the per-module-injection (Y)
variant is Thm3 (hazard) and Thm4 (reliability), weibull models only.

The kernel works in log space; exp() happens once at the end so the
interesting near-zero bounds at large l do not underflow prematurely.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Iterable, List, Union

from .errors import InvalidInputError, NumericOverflowError, OutOfRegimeError
from .hazards import FAMILIES, HazardFamily, HazardModel, hazard_at, reliability_tail_threshold
from .outcome import (
    SdpOutcome,
    expected_hazard_x,
    expected_hazard_y,
    expected_reliability_bound_x,
    expected_reliability_bound_y,
)

__all__ = [
    "Regime",
    "BoundKind",
    "Variant",
    "BoundResult",
    "OutOfRegime",
    "chernoff_lower_tail",
    "hazard_bound",
    "reliability_bound",
    "hazard_bound_y",
    "reliability_bound_y",
    "bound_sweep",
    "SWEEP_COLUMNS",
]


class Regime(str, enum.Enum):
    VALID = "valid"
    #: threshold exactly 0 (delta = 1): the bound degenerates to exp(-mu/2)
    TRIVIAL = "trivial"


class BoundKind(str, enum.Enum):
    HAZARD = "hazard"
    RELIABILITY = "reliability"


class Variant(str, enum.Enum):
    X = "X"
    Y = "Y"


@dataclass(frozen=True)
class BoundResult:
    """One computed Chernoff bound and its diagnostics."""

    theorem_tag: str
    mu: float
    threshold: float
    delta: float
    bound: float
    log_bound: float
    regime: Regime
    t: float | None = None
    sign_mode: str | None = None

    def to_dict(self) -> dict:
        payload = {
            "theorem": self.theorem_tag,
            "mu": self.mu,
            "threshold": self.threshold,
            "delta": self.delta,
            "bound": self.bound,
            "log_bound": self.log_bound,
            "regime": self.regime.value,
        }
        if self.t is not None:
            payload["t"] = self.t
        if self.sign_mode is not None:
            payload["sign_mode"] = self.sign_mode
        return payload


@dataclass(frozen=True)
class OutOfRegime:
    """Sweep entry for a point where the bound is inapplicable."""

    theorem_tag: str
    mu: float
    threshold: float
    delta: float
    t: float | None = None

    def to_dict(self) -> dict:
        payload = {
            "theorem": self.theorem_tag,
            "mu": self.mu,
            "threshold": self.threshold,
            "delta": self.delta,
            "regime": "out-of-regime",
        }
        if self.t is not None:
            payload["t"] = self.t
        return payload

    @classmethod
    def from_error(cls, err: OutOfRegimeError) -> "OutOfRegime":
        return cls(
            theorem_tag=err.theorem_tag or "Chernoff",
            mu=err.mu,
            threshold=err.threshold,
            delta=err.delta,
            t=err.t,
        )


def chernoff_lower_tail(
    mu: float,
    threshold: float,
    theorem_tag: str = "Chernoff",
    t: float | None = None,
    sign_mode: str | None = None,
) -> BoundResult:
    """The kernel: bound on Pr[X < threshold] for a variable with mean mu.

    Requires 0 <= threshold < mu; raises OutOfRegimeError otherwise.
    """
    if not (mu > 0 and math.isfinite(mu)):
        raise InvalidInputError(f"expectation mu must be positive and finite, got {mu!r}")
    if not math.isfinite(threshold):
        raise InvalidInputError(f"threshold must be finite, got {threshold!r}")
    delta = 1.0 - threshold / mu
    if threshold >= mu or threshold < 0:
        raise OutOfRegimeError(mu=mu, threshold=threshold, theorem_tag=theorem_tag, t=t)
    log_bound = -((mu - threshold) ** 2) / (2.0 * mu)
    return BoundResult(
        theorem_tag=theorem_tag,
        mu=mu,
        threshold=threshold,
        delta=delta,
        bound=math.exp(log_bound),
        log_bound=log_bound,
        regime=Regime.TRIVIAL if threshold == 0 else Regime.VALID,
        t=t,
        sign_mode=sign_mode,
    )


def _bound(
    outcome: SdpOutcome,
    model: HazardModel,
    t: float,
    kind: BoundKind,
    variant: Variant,
    corrected: bool = True,
) -> BoundResult:
    """Resolve (kind, variant, corrected) to the (mu, threshold, tag,
    sign_mode) of one named bound at time t and apply the kernel. An
    overflow (the as-published Thm4 form at moderate t, for one) raises
    NumericOverflowError naming the bound and t."""
    injected = variant is Variant.Y
    if injected and model.family is not HazardFamily.WEIBULL:
        raise InvalidInputError(
            f"injection-variant bounds compare against a weibull manual-testing "
            f"model only, got {model.family.value!r}"
        )
    spec, hazard = FAMILIES[model.family], kind is BoundKind.HAZARD
    if injected:
        tag, sign_mode = ("Thm3", None) if hazard else ("Thm4", "corrected" if corrected else "as-published")
    else:
        tag, sign_mode = (spec.hazard_tag if hazard else spec.reliability_tag), None
    try:
        if hazard:
            mu = expected_hazard_y(outcome, t) if injected else expected_hazard_x(outcome)
            threshold = hazard_at(model, t)
        elif injected:
            mu = expected_reliability_bound_y(outcome, t, corrected)
            threshold = reliability_tail_threshold(model, t)
        else:
            mu = expected_reliability_bound_x(outcome, t)
            threshold = reliability_tail_threshold(model, t)
        return chernoff_lower_tail(mu, threshold, theorem_tag=tag, t=t, sign_mode=sign_mode)
    except OverflowError as exc:
        form = tag if sign_mode is None else f"{tag} ({sign_mode})"
        raise NumericOverflowError(f"{form} overflows a 64-bit float at t = {t!r}") from exc


def hazard_bound(outcome: SdpOutcome, model: HazardModel, t: float) -> BoundResult:
    """Bound on Pr[X < z(t)]: fewer failures under prediction-based testing
    than the manual-testing hazard level."""
    return _bound(outcome, model, t, BoundKind.HAZARD, Variant.X)


def reliability_bound(outcome: SdpOutcome, model: HazardModel, t: float) -> BoundResult:
    """Bound on Pr[exp(-X*t) > R(t)]: better reliability under
    prediction-based testing than the manual-testing survival curve.

    The comparison reduces to Pr[X < H(t)/t]; the expectation slot holds
    the expected-reliability bound, following the source derivation.
    """
    return _bound(outcome, model, t, BoundKind.RELIABILITY, Variant.X)


def hazard_bound_y(outcome: SdpOutcome, model: HazardModel, t: float) -> BoundResult:
    """Y-variant of the hazard bound: Pr[Y < K*t^m] with mean l*p*Khat*t^mhat."""
    return _bound(outcome, model, t, BoundKind.HAZARD, Variant.Y)


def reliability_bound_y(
    outcome: SdpOutcome, model: HazardModel, t: float, corrected: bool = True
) -> BoundResult:
    """Y-variant of the reliability bound; ``corrected`` selects the sign
    convention of the expected-reliability factor (see outcome module)."""
    return _bound(outcome, model, t, BoundKind.RELIABILITY, Variant.Y, corrected)


SweepEntry = Union[BoundResult, OutOfRegime]

#: CSV column contract for serialized sweeps
SWEEP_COLUMNS = ("t", "theorem", "mu", "threshold", "delta", "bound", "regime")


def bound_sweep(
    outcome: SdpOutcome,
    model: HazardModel,
    grid: Iterable[float],
    kind: BoundKind = BoundKind.HAZARD,
    variant: Variant = Variant.X,
    corrected: bool = True,
) -> List[SweepEntry]:
    """Evaluate one bound over a time grid.

    The grid must be non-empty, strictly increasing and positive.
    Out-of-regime points are carried as tagged entries, never dropped;
    results are in grid order.
    """
    grid = [float(t) for t in grid]
    if not grid:
        raise InvalidInputError("time grid is empty")
    if any(t <= 0 for t in grid):
        raise InvalidInputError("time grid values must be > 0")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise InvalidInputError("time grid must be strictly increasing")

    kind = BoundKind(kind)
    variant = Variant(variant)
    entries: List[SweepEntry] = []
    for t in grid:
        try:
            entries.append(_bound(outcome, model, t, kind, variant, corrected))
        except OutOfRegimeError as err:
            entries.append(OutOfRegime.from_error(err))
    return entries
