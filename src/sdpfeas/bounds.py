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
and Thm4 (reliability), weibull models only. The kind fixes the threshold,
the family's z(t) for a hazard bound and H(t)/t for a reliability bound.
A row also holds its count: a swept row's threshold in units of X, which
the oracle checks as Pr[X < count].

``bound_sweep`` is the one evaluator of that table: it looks up the row
of an (outcome, kind, sign mode) once per grid, then makes one pass over
it. A bound at one t is a one-point grid, and a form's mean at t is its
row's ``mu``. An out-of-regime point is a row whose ``bound`` and
``log_bound`` are None, from the sweep and ``chernoff_lower_tail`` alike.

The kernel works in log space; exp() happens once at the end so the
interesting near-zero bounds at large l do not underflow prematurely.
"""

from __future__ import annotations

import enum
import functools
import math
import operator
import sys
from collections.abc import Callable, Iterable
from dataclasses import dataclass

from .errors import InvalidInputError, NumericOverflowError, ParseError, read_boolean, read_choice
from .errors import read_instance, read_number, read_real
from .hazards import FAMILIES, HazardFamily, HazardModel
from .outcome import SdpOutcome

__all__ = [
    "Regime",
    "BoundKind",
    "BoundResult",
    "chernoff_lower_tail",
    "bound_sweep",
]


class Regime(str, enum.Enum):
    VALID = "valid"
    #: threshold exactly 0 (delta = 1): the bound degenerates to exp(-mu/2)
    TRIVIAL = "trivial"
    #: delta outside (0, 1]: the theorem does not apply, and there is no bound
    OUT_OF_REGIME = "out-of-regime"


#: the members as module names: on Python 3.11 every ``Regime.X`` read runs
#: ``EnumType.__getattr__`` (about 0.1 us), and a sweep reads one per row
_VALID, _TRIVIAL, _OUT_OF_REGIME = Regime.VALID, Regime.TRIVIAL, Regime.OUT_OF_REGIME


class BoundKind(str, enum.Enum):
    #: Pr[X < z(t)]: fewer failures than the manual-testing hazard level
    HAZARD = "hazard"
    #: Pr[X < H(t)/t], i.e. Pr[exp(-X*t) > R(t)]: better reliability than manual testing
    RELIABILITY = "reliability"


@dataclass(slots=True)
class BoundResult:
    """One sweep row: a computed Chernoff bound and its diagnostics, or,
    with ``regime`` out-of-regime, a point where the bound is inapplicable
    and ``bound`` and ``log_bound`` are None."""

    theorem_tag: str
    mu: float
    threshold: float
    delta: float
    bound: float | None
    log_bound: float | None
    regime: Regime
    t: float | None = None
    sign_mode: str | None = None

    def to_dict(self) -> dict:
        if type(self.regime) is not Regime:
            raise InvalidInputError(f"sweep row regime must be a Regime member, got {self.regime!r}")
        payload = {
            "theorem": self.theorem_tag,
            "mu": self.mu,
            "threshold": self.threshold,
            # JSON has no infinity: the delta of an underflowed mean is null
            "delta": self.delta if math.isfinite(self.delta) else None,
        }
        in_regime = self.regime is not _OUT_OF_REGIME
        if in_regime:
            payload["bound"] = self.bound
            payload["log_bound"] = self.log_bound
        # _value_, not the value property, which costs 0.2 us a read on 3.11
        payload["regime"] = self.regime._value_
        if self.t is not None:
            payload["t"] = self.t
        if in_regime and self.sign_mode is not None:
            payload["sign_mode"] = self.sign_mode
        return payload


def _kernel(mu: float, threshold: float, theorem_tag: str, t: float | None, sign_mode: str | None) -> BoundResult:
    """The kernel as a sweep row: an out-of-regime row, not an exception,
    when the band misses (0, 1]. It takes a finite mu >= 0 and a finite
    threshold, and checks neither. A mu of 0.0 is a positive mean that
    underflowed: no threshold >= 0 is known to lie below it, so the point
    is out of regime with delta -inf."""
    delta = 1.0 - threshold / mu if mu else -math.inf
    if threshold >= mu or threshold < 0:
        return BoundResult(theorem_tag, mu, threshold, delta, None, None, _OUT_OF_REGIME, t, sign_mode)
    try:
        log_bound = -((mu - threshold) ** 2) / (2.0 * mu)
    except OverflowError:
        # the square passes the float range from mu ~ 1.3e154 on, the log
        # bound (about -mu/2) does not; 0 < d/mu <= 1 keeps this finite
        d = mu - threshold
        log_bound = -0.5 * (d / mu) * d
    regime = _TRIVIAL if threshold == 0 else _VALID
    return BoundResult(theorem_tag, mu, threshold, delta, math.exp(log_bound), log_bound, regime, t, sign_mode)


def chernoff_lower_tail(mu: float, threshold: float) -> BoundResult:
    """The kernel: bound on Pr[X < threshold] for a variable with mean mu,
    as a row tagged "Chernoff" with no time. Where 0 <= threshold < mu
    fails, the row is out of regime and its bound and log_bound are None.

    Raises ParseError where mu or the threshold is not a number, and
    InvalidInputError where mu is not positive and finite or the threshold
    is not finite.
    """
    if not 0 < read_real(mu, "expectation mu") <= sys.float_info.max:
        raise InvalidInputError(f"expectation mu must be positive and finite, got {mu!r}")
    if not abs(read_real(threshold, "threshold")) <= sys.float_info.max:
        raise InvalidInputError(f"threshold must be finite, got {threshold!r}")
    return _kernel(mu, threshold, "Chernoff", None, None)


def _x_count(row: BoundResult, model: HazardModel, injection: HazardModel | None) -> float:
    """An X row's count: its threshold, but the smallest float, the event
    {X = 0}, where it underflowed to 0.0 below max_time (ld's 0.0 at K/m is true)."""
    threshold = row.threshold
    return math.ulp(0.0) if threshold == 0 and row.t < model.max_time else threshold


def _y_count(row: BoundResult, model: HazardModel, injection: HazardModel, reliability: bool = False) -> float:
    """A Y row's count, the closed form of z(t)/zhat(t), (K/Khat)*t**(m -
    mhat), over m + 1 for a ``reliability`` row (Thm4, threshold H/t = z/(m
    + 1)): one power, so where m = mhat it is K/Khat correctly rounded.
    Where K/Khat or the power leaves the float range and the product is not
    in (0, inf), it comes from the logs, log K - log Khat + (m - mhat)*log
    t, less log1p(m) for reliability. A count past the float range is the
    largest float, the event certain; one that underflows to 0.0 is the
    smallest float, the event {X = 0}."""
    K, m, t = model.K, model.m, row.t
    try:
        count = K / injection.K * t ** (m - injection.m) / (m + 1 if reliability else 1.0)
    except OverflowError:
        count = math.inf
    if not 0 < count < math.inf:
        log_count = math.log(K) - math.log(injection.K) + (m - injection.m) * math.log(t)
        try:
            count = math.exp(log_count - math.log1p(m) if reliability else log_count)
        except OverflowError:
            count = math.inf
    return min(max(count, math.ulp(0.0)), sys.float_info.max)


@dataclass(frozen=True)
class BoundForm:
    """One printed form: its theorem tag, None on an X row, whose tag is
    the family's ``FAMILIES`` tag for the kind; its mean, a function of
    (l*p, the outcome's injection, t); and its count, a swept row's
    threshold in units of X, a function of (row, model, injection)."""

    tag: str | None
    mean: Callable[[float, HazardModel | None, float], float]
    count: Callable[[BoundResult, HazardModel, HazardModel | None], float]


#: (variant, kind, sign mode) -> the printed form's tag, mean and count. The
#: hazard means are l*p (X) and l*p*(Khat*t**mhat) (Y), the injection's closed
#: form, as in Thm4; the reliability means bound the expected reliability
#: E[exp(-X*t)] by exp(l*p*(exp(-t) - 1)), strictly inside (0, 1), and
#: E[exp(-Y*t)] by Thm4. The published Thm4 uses exp(+Khat*t^(mhat+1)) inside
#: the outer exponent, which contradicts the per-module reliability exp(-Y*t)
#: and can exceed 1; the corrected form flips that inner sign; only it is
#: consistent with simulation. Both are kept, clearly labelled.
FORMS = {
    ("X", BoundKind.HAZARD, None): BoundForm(None, lambda lp, injection, t: lp, _x_count),
    ("X", BoundKind.RELIABILITY, None): BoundForm(None, lambda lp, injection, t: math.exp(lp * math.expm1(-t)), _x_count),
    ("Y", BoundKind.HAZARD, None): BoundForm("Thm3", lambda lp, injection, t: lp * (injection.K * t**injection.m), _y_count),
    ("Y", BoundKind.RELIABILITY, "corrected"): BoundForm(
        "Thm4", lambda lp, injection, t: math.exp(lp * math.expm1(-injection.K * t ** (injection.m + 1))),
        functools.partial(_y_count, reliability=True),
    ),
    ("Y", BoundKind.RELIABILITY, "as-published"): BoundForm(
        "Thm4", lambda lp, injection, t: math.exp(lp * math.expm1(injection.K * t ** (injection.m + 1))),
        functools.partial(_y_count, reliability=True),
    ),
}


def _form(outcome: SdpOutcome, kind: BoundKind, corrected: bool) -> tuple[str | None, BoundForm]:
    """The sign mode and ``FORMS`` row of (outcome, kind, corrected);
    ``corrected`` picks the row only where the form has a sign mode."""
    variant = "X" if outcome.injection is None else "Y"
    sign_mode = "corrected" if read_boolean(corrected, "corrected") else "as-published"
    sign_mode = sign_mode if (variant, kind, sign_mode) in FORMS else None
    return sign_mode, FORMS[variant, kind, sign_mode]


def read_grid(grid: Iterable[float]) -> list[float]:
    """A time grid as a list of floats: an iterable (ParseError otherwise)
    of finite numbers, non-empty, positive and strictly increasing."""
    try:
        points = iter(grid)
    except TypeError:
        raise ParseError(f"time grid must be iterable, got {type(grid).__name__}") from None
    grid = [t if type(t) is float else read_number(t, "time grid value") for t in points]
    if not grid:
        raise InvalidInputError("time grid is empty")
    # increasing from > 0 to finite holds no NaN or inf; a value not finite is refused first
    if not (0 < grid[0] and grid[-1] <= sys.float_info.max and all(map(operator.lt, grid, grid[1:]))):
        for t in grid:
            read_number(t, "time grid value")
        if any(t <= 0 for t in grid):
            raise InvalidInputError("time grid values must be > 0")
        raise InvalidInputError("time grid must be strictly increasing")
    return grid


def bound_sweep(
    outcome: SdpOutcome,
    model: HazardModel,
    grid: Iterable[float],
    kind: BoundKind = BoundKind.HAZARD,
    corrected: bool = True,
) -> list[BoundResult]:
    """The ``FORMS`` row of (outcome, kind, corrected) over a time grid,
    in one pass; the bound at one t is ``bound_sweep(..., [t], ...)[0]``.

    The grid is read by ``read_grid``: an iterable of finite numbers,
    non-empty, strictly increasing and positive. Each point costs one mean,
    one threshold and one kernel call, and makes one row in grid order, out
    of regime too (a mean that underflowed to 0.0 included). The first point whose mean or
    threshold fails raises, mean first: a time past ld's domain raises
    InvalidInputError, and an overflow (the as-published Thm4 at moderate
    t, for one) NumericOverflowError naming the bound and t.
    """
    grid = read_grid(grid)
    kind = read_choice(kind, "bound kind", BoundKind)
    read_instance(outcome, "outcome", SdpOutcome, "an SdpOutcome")
    read_instance(model, "model", HazardModel, "a HazardModel")
    if outcome.injection is not None and model.family is not HazardFamily.WEIBULL:
        raise InvalidInputError(
            f"injection-variant bounds compare against a weibull manual-testing "
            f"model only, got {model.family.value!r}"
        )
    spec = FAMILIES[model.family]
    family_tag, threshold = (spec.hazard_tag, spec.z) if kind is BoundKind.HAZARD else (spec.reliability_tag, spec.H_over_t)
    sign_mode, form = _form(outcome, kind, corrected)
    tag, mean = form.tag or family_tag, form.mean
    mean_failures, injection = outcome.mean_failures, outcome.injection
    # every t is a finite float > 0, and only ld's domain ends, at K/m
    end = model.max_time
    entries: list[BoundResult] = []
    append, isfinite = entries.append, math.isfinite
    try:
        for t in grid:
            mu = mean(mean_failures, injection, t)
            if t > end:
                raise InvalidInputError(f"ld hazard is negative beyond t = K/m = {end!r}; got t = {t!r}")
            z = threshold(model, t)
            # a product such as l*p*Khat*t**mhat or K*t**m overflows to inf
            if not (isfinite(mu) and isfinite(z)):
                raise OverflowError
            append(_kernel(mu, z, tag, t, sign_mode))
    except OverflowError as exc:
        label = tag if sign_mode is None else f"{tag} ({sign_mode})"
        raise NumericOverflowError(f"{label} overflows a 64-bit float at t = {t!r}") from exc
    return entries
