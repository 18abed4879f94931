"""The Chernoff lower-tail bound engine.

Every named bound in the analysis is one kernel applied with a different
(mu, threshold) pair:

    Pr[X < threshold] < exp(-(mu - threshold)^2 / (2*mu))

valid when the deviation band delta = 1 - threshold/mu lies in (0, 1].
Outside that band the bound says nothing, and the engine reports the
point as out-of-regime rather than clamping; an inapplicable theorem is a
finding the report must show.

The outcome fixes the variant. On an outcome without an injection (X)
the theorem tag is the family's hazard or reliability tag in
``hazards.FAMILIES``; on one with a per-module injection (Y) it is Thm3
(hazard) or Thm4 (reliability), weibull models only.

One resolver gives both the named bounds and the sweep: it resolves an
(outcome, kind, sign mode) to its tag, mean and threshold once per grid,
then makes one pass over the grid. A named bound is a one-point grid.
Inside a sweep an out-of-regime point is an entry, not an exception;
only the named bounds and ``chernoff_lower_tail`` raise OutOfRegimeError.

The kernel works in log space; exp() happens once at the end so the
interesting near-zero bounds at large l do not underflow prematurely.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass
from typing import Iterable, List, Sequence, Union

from .errors import InvalidInputError, NumericOverflowError, OutOfRegimeError, read_choice
from .hazards import FAMILIES, HazardFamily, HazardModel, check_time
from .outcome import SdpOutcome, hazard_mean, reliability_mean

__all__ = [
    "Regime",
    "BoundKind",
    "BoundResult",
    "OutOfRegime",
    "chernoff_lower_tail",
    "hazard_bound",
    "reliability_bound",
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


@dataclass(slots=True)
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


@dataclass(slots=True)
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


SweepEntry = Union[BoundResult, OutOfRegime]


def _kernel(mu: float, threshold: float, theorem_tag: str, t: float | None, sign_mode: str | None) -> SweepEntry:
    """The kernel as a sweep entry: an OutOfRegime entry, not an exception,
    when the band misses (0, 1]. Malformed mu or threshold still raise."""
    if not (mu > 0 and math.isfinite(mu)):
        raise InvalidInputError(f"expectation mu must be positive and finite, got {mu!r}")
    if not math.isfinite(threshold):
        raise InvalidInputError(f"threshold must be finite, got {threshold!r}")
    delta = 1.0 - threshold / mu
    if threshold >= mu or threshold < 0:
        return OutOfRegime(theorem_tag, mu, threshold, delta, t)
    try:
        log_bound = -((mu - threshold) ** 2) / (2.0 * mu)
    except OverflowError:
        # the square passes the float range from mu ~ 1.3e154 on, the log
        # bound (about -mu/2) does not; 0 < d/mu <= 1 keeps this finite
        d = mu - threshold
        log_bound = -0.5 * (d / mu) * d
    regime = Regime.TRIVIAL if threshold == 0 else Regime.VALID
    return BoundResult(theorem_tag, mu, threshold, delta, math.exp(log_bound), log_bound, regime, t, sign_mode)


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
    return _in_regime(_kernel(mu, threshold, theorem_tag, t, sign_mode))


def _in_regime(entry: SweepEntry) -> BoundResult:
    """``entry`` if it is a bound; an OutOfRegime entry raises its error."""
    if isinstance(entry, OutOfRegime):
        raise OutOfRegimeError(mu=entry.mu, threshold=entry.threshold, theorem_tag=entry.theorem_tag, t=entry.t)
    return entry


def _bound(
    outcome: SdpOutcome,
    model: HazardModel,
    grid: Sequence[float],
    kind: BoundKind,
    corrected: bool = True,
) -> List[SweepEntry]:
    """One named bound over ``grid`` in one pass.

    (outcome, kind, corrected) is resolved once to the theorem tag, the
    sign mode, the mean (an ``outcome`` function of t, of the outcome's
    variant) and the threshold (a ``FAMILIES`` closed form); each point
    then costs one mean, one threshold and one kernel call. Out-of-regime
    points are entries. The first point whose mean, threshold or kernel
    fails raises, mean first, as if evaluated alone: a time outside the
    family's domain raises DomainError, and an overflow (the as-published
    Thm4 form at moderate t, for one) raises NumericOverflowError naming
    the bound and t."""
    injected = outcome.injection is not None
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
    mean = hazard_mean(outcome) if hazard else reliability_mean(outcome, corrected)
    threshold = spec.z if hazard else spec.H_over_t
    # times every domain admits skip the check; the rest get its message
    end, singular = min(spec.max_time(model), sys.float_info.max), spec.singular_at_zero(model)
    entries: List[SweepEntry] = []
    try:
        for t in grid:
            mu = mean(t)
            if not 0.0 < t <= end:
                check_time(model, spec, t, positive=not hazard or (t == 0 and singular))
            entries.append(_kernel(mu, threshold(model, t), tag, t, sign_mode))
    except OverflowError as exc:
        form = tag if sign_mode is None else f"{tag} ({sign_mode})"
        raise NumericOverflowError(f"{form} overflows a 64-bit float at t = {t!r}") from exc
    return entries


def _one(outcome, model, t, kind, corrected=True) -> BoundResult:
    """``_bound`` at the single time t; an out-of-regime point raises."""
    [entry] = _bound(outcome, model, [t], kind, corrected)
    return _in_regime(entry)


def hazard_bound(outcome: SdpOutcome, model: HazardModel, t: float) -> BoundResult:
    """Bound on Pr[X < z(t)]: fewer failures under prediction-based testing
    than the manual-testing hazard level. With an injection it is Thm3,
    Pr[Y < K*t^m] with mean l*p*Khat*t^mhat."""
    return _one(outcome, model, t, BoundKind.HAZARD)


def reliability_bound(outcome: SdpOutcome, model: HazardModel, t: float, corrected: bool = True) -> BoundResult:
    """Bound on Pr[exp(-X*t) > R(t)]: better reliability under
    prediction-based testing than the manual-testing survival curve.

    The comparison reduces to Pr[X < H(t)/t]; the expectation slot holds
    the expected-reliability bound, following the source derivation. With
    an injection it is Thm4, and ``corrected`` selects the sign convention
    of the expected-reliability factor (see outcome module).
    """
    return _one(outcome, model, t, BoundKind.RELIABILITY, corrected)


#: CSV column contract for serialized sweeps
SWEEP_COLUMNS = ("t", "theorem", "mu", "threshold", "delta", "bound", "regime")


def bound_sweep(
    outcome: SdpOutcome,
    model: HazardModel,
    grid: Iterable[float],
    kind: BoundKind = BoundKind.HAZARD,
    corrected: bool = True,
) -> List[SweepEntry]:
    """Evaluate one bound over a time grid, of the outcome's variant.

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

    return _bound(outcome, model, grid, read_choice(kind, "bound kind", BoundKind), corrected)
