"""The Chernoff lower-tail bound engine.

Every named bound in the analysis is one kernel applied with a different
(mu, threshold) pair:

    Pr[X < threshold] < exp(-(mu - threshold)^2 / (2*mu))

valid when the deviation band delta = 1 - threshold/mu lies in (0, 1].
Outside that band the bound says nothing, and the engine reports the
point as out-of-regime rather than clamping; an inapplicable theorem is a
finding the report must show.

Each printed form is one row of ``FORMS``, keyed by the outcome's variant
(X without an injection, Y with one), the kind and the sign mode. X rows
take the family's tags in ``hazards.FAMILIES``; Y rows are Thm3 (hazard)
and Thm4 (reliability), weibull models only.

One resolver gives both the named bounds and the sweep: it looks up the
row of an (outcome, kind, sign mode) once per grid, then makes one pass
over the grid. A named bound is a one-point grid.
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
from operator import attrgetter
from typing import Callable, Iterable, List, Sequence, Union

from .errors import DomainError, InvalidInputError, NumericOverflowError, OutOfRegimeError, read_choice
from .hazards import FAMILIES, FamilySpec, HazardFamily, HazardModel, check_time, hazard_at
from .outcome import SdpOutcome

__all__ = [
    "Regime",
    "BoundKind",
    "BoundResult",
    "OutOfRegime",
    "chernoff_lower_tail",
    "hazard_bound",
    "reliability_bound",
    "bound_sweep",
    "expected_hazard",
    "expected_reliability_bound",
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


@dataclass(frozen=True)
class BoundForm:
    """One printed form: its theorem tag, given the family's ``FAMILIES``
    row; its mean, a function of (l*p, the outcome's injection, t); and the
    ``FamilySpec`` closed form of its threshold, ``z`` or ``H_over_t``."""

    tag: Callable[[FamilySpec], str]
    mean: Callable[[float, HazardModel | None, float], float]
    threshold: str


def _reliability_mean(exponent: Callable[[HazardModel | None, float], float]):
    """The reliability mean exp(l*p*(exp(exponent(injection, t)) - 1)), t > 0."""

    def mean(mean_failures: float, injection: HazardModel | None, t: float) -> float:
        if t <= 0:
            raise DomainError(f"reliability bound requires t > 0, got {t!r}")
        return math.exp(mean_failures * math.expm1(exponent(injection, t)))

    return mean


#: (variant, kind, sign mode) -> the printed form. The hazard means are l*p
#: (X) and l*p*Khat*t**mhat (Y); the reliability means bound the expected
#: reliability E[exp(-X*t)] by exp(l*p*(exp(-t) - 1)), strictly inside (0, 1),
#: and E[exp(-Y*t)] by Thm4. The published Thm4 uses exp(+Khat*t^(mhat+1))
#: inside the outer exponent, which contradicts the per-module reliability
#: exp(-Y*t) and can exceed 1; the corrected form flips that inner sign; only
#: it is consistent with simulation. Both are kept, clearly labelled.
FORMS = {
    ("X", BoundKind.HAZARD, None): BoundForm(attrgetter("hazard_tag"), lambda lp, injection, t: lp, "z"),
    ("X", BoundKind.RELIABILITY, None): BoundForm(
        attrgetter("reliability_tag"), _reliability_mean(lambda injection, t: -t), "H_over_t"
    ),
    ("Y", BoundKind.HAZARD, None): BoundForm(lambda spec: "Thm3", lambda lp, injection, t: lp * hazard_at(injection, t), "z"),
    ("Y", BoundKind.RELIABILITY, "corrected"): BoundForm(
        lambda spec: "Thm4", _reliability_mean(lambda injection, t: -injection.K * t ** (injection.m + 1)), "H_over_t"
    ),
    ("Y", BoundKind.RELIABILITY, "as-published"): BoundForm(
        lambda spec: "Thm4", _reliability_mean(lambda injection, t: injection.K * t ** (injection.m + 1)), "H_over_t"
    ),
}


def _form(outcome: SdpOutcome, kind: BoundKind, corrected: bool) -> tuple[str | None, BoundForm]:
    """The sign mode and ``FORMS`` row of (outcome, kind, corrected);
    ``corrected`` picks the row only where the form has a sign mode."""
    variant, sign_mode = "X" if outcome.injection is None else "Y", "corrected" if corrected else "as-published"
    sign_mode = sign_mode if (variant, kind, sign_mode) in FORMS else None
    return sign_mode, FORMS[variant, kind, sign_mode]


def _bound(
    outcome: SdpOutcome,
    model: HazardModel,
    grid: Sequence[float],
    kind: BoundKind,
    corrected: bool = True,
) -> List[SweepEntry]:
    """One named bound over ``grid`` in one pass.

    (outcome, kind, corrected) is resolved once to its ``FORMS`` row; each
    point then costs one mean, one threshold and one kernel call.
    Out-of-regime points are entries. The first point whose mean,
    threshold or kernel fails raises, mean first, as if evaluated alone: a
    time outside the family's domain raises DomainError, and an overflow
    (the as-published Thm4 form at moderate t, for one) raises
    NumericOverflowError naming the bound and t."""
    if outcome.injection is not None and model.family is not HazardFamily.WEIBULL:
        raise InvalidInputError(
            f"injection-variant bounds compare against a weibull manual-testing "
            f"model only, got {model.family.value!r}"
        )
    spec = FAMILIES[model.family]
    sign_mode, form = _form(outcome, kind, corrected)
    tag, mean, threshold = form.tag(spec), form.mean, getattr(spec, form.threshold)
    mean_failures, injection = outcome.mean_failures, outcome.injection
    # times outside (0, end] get the domain's message; reliability means refuse t <= 0
    end, singular = min(spec.max_time(model), sys.float_info.max), spec.singular_at_zero(model)
    entries: List[SweepEntry] = []
    try:
        for t in grid:
            mu = mean(mean_failures, injection, t)
            if not 0.0 < t <= end:
                check_time(model, spec, t, positive=t == 0 and singular)
            entries.append(_kernel(mu, threshold(model, t), tag, t, sign_mode))
    except OverflowError as exc:
        label = tag if sign_mode is None else f"{tag} ({sign_mode})"
        raise NumericOverflowError(f"{label} overflows a 64-bit float at t = {t!r}") from exc
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
    of the expected-reliability factor (see ``FORMS``).
    """
    return _one(outcome, model, t, BoundKind.RELIABILITY, corrected)


def expected_hazard(outcome: SdpOutcome, t: float) -> float:
    """Expected hazard at time t, the mean of the outcome's hazard form."""
    return _form(outcome, BoundKind.HAZARD, True)[1].mean(outcome.mean_failures, outcome.injection, t)


def expected_reliability_bound(outcome: SdpOutcome, t: float, corrected: bool = True) -> float:
    """Upper bound on the expected reliability at time t > 0, the mean of
    the outcome's reliability form (see ``FORMS``)."""
    return _form(outcome, BoundKind.RELIABILITY, corrected)[1].mean(outcome.mean_failures, outcome.injection, t)


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
