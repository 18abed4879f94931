"""Scenario configuration, sweep/verification campaigns and the
feasibility report.

A scenario bundles an outcome, a hazard model, a time grid and the
requested bound kinds; running it yields per-point bound rows, optional
verification records against the exact and Monte-Carlo oracles, and a
verdict that classifies each grid point as feasible, infeasible or
out-of-regime. "Infeasible" means the bound on the probability that
prediction-based testing beats manual testing fell at or below epsilon;
epsilon is a tool convention (default 0.05), not a claim from the
analysis itself.
"""

from __future__ import annotations

import datetime
import math
import os
import sys
from dataclasses import dataclass, field
from typing import List, Sequence

from . import __version__ as _version
from .bounds import (
    SWEEP_COLUMNS,
    BoundKind,
    BoundResult,
    Regime,
    SweepEntry,
    bound_sweep,
)
from .errors import InvalidInputError, ParseError, indented_json, read_boolean, read_choice, read_integer, read_json
from .errors import read_integer_text, read_list, read_number, read_object
from .hazards import HazardModel, hazard_at, model_from_descriptor
from .oracle import MAX_TRIALS, BinomialWindow, VerificationRecord, verify_bound
from .outcome import SdpOutcome, outcome_from_descriptor

__all__ = [
    "ScenarioConfig",
    "FeasibilityReport",
    "run_sweep",
    "run_verification",
    "build_report",
    "sweep_to_csv",
    "indented_json",
    "DEFAULT_EPSILON",
    "SEED_ENV_VAR",
]

DEFAULT_EPSILON = 0.05
SEED_ENV_VAR = "SDPFEAS_SEED"
#: grid points a time_grid may ask for, checked before the grid is allocated
MAX_STEPS = 10**6


#: one CSV row template per regime; %.17g gives format(x, ".17g"), 17
#: significant digits, which round-trip every 64-bit float exactly
_BOUND_ROWS = {regime: "%.17g,%s,%.17g,%.17g,%.17g,%.17g," + regime.value for regime in Regime}
_OUT_OF_REGIME_ROW = "%.17g,%s,%.17g,%.17g,%.17g,,out-of-regime"


def _build_grid(payload: dict) -> List[float]:
    if "t" in read_object(payload, "time_grid", optional=None):
        t = read_number(read_object(payload, "time_grid", required=("t",))["t"], "time_grid t")
        if not t > 0:
            raise InvalidInputError(f"time point must be > 0, got {t!r}")
        return [t]
    read_object(payload, "time_grid", required=("start", "stop", "steps"), optional=("spacing",))
    start = read_number(payload["start"], "time_grid start")
    stop = read_number(payload["stop"], "time_grid stop")
    steps = read_integer(payload["steps"], "time_grid steps")
    spacing = payload.get("spacing", "linear")
    if spacing not in ("linear", "log"):
        raise ParseError(f"time_grid spacing must be 'linear' or 'log', got {spacing!r}")
    if not start > 0:
        raise InvalidInputError(f"time_grid start must be > 0, got {start!r}")
    if not 1 <= steps <= MAX_STEPS:
        raise InvalidInputError(f"time_grid steps must lie in [1, {MAX_STEPS}], got {steps!r}")
    if steps == 1:
        return [start]
    if not stop > start:
        raise InvalidInputError(f"time_grid requires stop > start, got {start!r}..{stop!r}")
    # np.linspace(lo, hi, steps) without numpy, bit for bit: where the step
    # underflows to 0 (a subnormal span), numpy's own fallback. A log grid
    # is np.geomspace's algorithm on libm: the linspace of the log10 ends,
    # each point after the first raised to 10 ** x, the ends pinned.
    lo, hi = (math.log10(start), math.log10(stop)) if spacing == "log" else (start, stop)
    div, delta = steps - 1, hi - lo
    step = delta / div
    if step == 0:
        grid = [i / div * delta + lo for i in range(div)]
    else:
        grid = [i * step + lo for i in range(div)]
    if spacing == "log":
        try:
            grid = [start, *(10.0**x for x in grid[1:])]
        except OverflowError:
            raise InvalidInputError(f"time_grid {start!r}..{stop!r} has a log point past the float range") from None
    grid.append(stop)
    return grid


@dataclass(frozen=True)
class ScenarioConfig:
    """A checked scenario; ``__post_init__`` also checks the settings that
    CLI flags override through ``dataclasses.replace``."""

    outcome: SdpOutcome
    model: HazardModel
    grid: List[float]
    kinds: List[BoundKind]
    corrected: bool = True
    verify_exact: bool = True
    mc_trials: int = 0
    seed: int | None = None
    epsilon: float = DEFAULT_EPSILON
    raw: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        read_boolean(self.corrected, "corrected")
        read_boolean(self.verify_exact, "verify.exact")
        if not 0 <= read_integer(self.mc_trials, "mc_trials") <= MAX_TRIALS:
            raise InvalidInputError(f"mc_trials must lie in [0, {MAX_TRIALS}], got {self.mc_trials}")
        if self.seed is not None and not 0 <= read_integer(self.seed, "seed") < 2**128:
            raise InvalidInputError(f"seed must lie in the Philox key range [0, 2**128), got {self.seed}")
        if not 0.0 < read_number(self.epsilon, "epsilon") < 1.0:
            raise InvalidInputError(f"epsilon must lie strictly in (0, 1), got {self.epsilon!r}")

    @classmethod
    def from_descriptor(cls, payload: dict) -> "ScenarioConfig":
        read_object(
            payload,
            "scenario",
            required=("outcome", "model", "time_grid"),
            optional=("kinds", "variant", "corrected", "verify", "epsilon"),
        )
        outcome = outcome_from_descriptor(payload["outcome"])
        model = model_from_descriptor(payload["model"])
        grid = _build_grid(payload["time_grid"])
        kinds_raw = payload.get("kinds", ["hazard"])
        kinds = [read_choice(kind, "bound kind", BoundKind) for kind in read_list(kinds_raw, "kinds")]
        if not kinds or len(set(kinds)) != len(kinds):
            raise ParseError(f"kinds must be a non-empty set, got {kinds_raw!r}")
        # the outcome fixes the variant; a stated one must agree with it
        variant, having = ("X", "without") if outcome.injection is None else ("Y", "with")
        if payload.get("variant", variant) != variant:
            raise ParseError(
                f"variant {payload['variant']!r} contradicts the outcome: an outcome {having} "
                f"an 'injection' descriptor is of variant {variant!r}"
            )
        verify = read_object(payload.get("verify", {}), "verify", optional=("exact", "mc_trials", "seed"))
        seed = verify.get("seed")
        if seed is None and SEED_ENV_VAR in os.environ:
            text = os.environ[SEED_ENV_VAR]
            try:
                seed = read_integer_text(text)
            except ValueError:
                raise ParseError(f"{SEED_ENV_VAR} must be an integer, got {text!r}") from None
        return cls(
            outcome=outcome,
            model=model,
            grid=grid,
            kinds=kinds,
            corrected=payload.get("corrected", True),
            verify_exact=verify.get("exact", True),
            mc_trials=verify.get("mc_trials", 0),
            seed=seed,
            epsilon=payload.get("epsilon", DEFAULT_EPSILON),
            raw=payload,
        )

    @classmethod
    def from_json(cls, text: str) -> "ScenarioConfig":
        return cls.from_descriptor(read_json(text))


def run_sweep(config: ScenarioConfig) -> List[SweepEntry]:
    """All bound rows for the scenario, kind-major then grid order."""
    entries: List[SweepEntry] = []
    for kind in config.kinds:
        entries.extend(
            bound_sweep(
                config.outcome,
                config.model,
                config.grid,
                kind=kind,
                corrected=config.corrected,
            )
        )
    return entries


def _count_threshold(entry: BoundResult, model: HazardModel, injection: HazardModel | None) -> float:
    """A row's threshold in count units, the one map from a verified row to
    its oracle query Pr[X < count].

    An X row's (no ``injection``) count is its threshold, or the smallest
    float, the event {X = 0}, where the threshold underflowed to 0.0 at a t
    below the family's max_time; at max_time a 0.0 is ld's true zero.

    A Y row's count is ``threshold / scale``, with the injected hazard at
    the row's t as the scale, or the integer k >= 1 it lies within 4 ulp of.
    The division can land an ulp above an integer k that is exact in
    real arithmetic, and the strict '<' of Pr[X < count] would then take
    in Pr[X = k]. The threshold and the scale are positive in real
    arithmetic; where either underflowed to 0.0, the count comes from the
    logs of its closed form, log K - log Khat + (m - mhat)*log t, less
    log1p(m) for Thm4, whose threshold is H/t = z/(m + 1). Where the count
    overflows, it lies beyond every count and the count threshold is the
    largest float: the event is certain. Where the count underflows to 0.0
    (or the scale overflowed) or lies within 4 ulp of 0, it stays positive,
    at least the smallest float: the event is {X = 0}.
    """
    threshold = entry.threshold
    if injection is None:
        return math.ulp(0.0) if threshold == 0 and entry.t < model.max_time else threshold
    scale = hazard_at(injection, entry.t)
    if threshold > 0 and scale > 0:
        count = threshold / scale
    else:
        log_count = math.log(model.K) - math.log(injection.K) + (model.m - injection.m) * math.log(entry.t)
        if entry.theorem_tag == "Thm4":
            log_count -= math.log1p(model.m)
        try:
            count = math.exp(log_count)
        except OverflowError:
            count = math.inf
    if not math.isfinite(count):
        return sys.float_info.max
    k = float(round(count))
    if k >= 1 and abs(count - k) <= 4 * math.ulp(count):
        return k
    return max(count, math.ulp(0.0))


def run_verification(config: ScenarioConfig, entries: Sequence[SweepEntry]) -> List[VerificationRecord]:
    """Check every in-regime row against the exact and/or MC oracle.

    Every bound in the engine is a lower-tail statement about the
    underlying count X (reliability events transform to X < H(t)/t, and
    Y = scale * X at fixed t), so one binomial query covers both kinds of
    either variant: ``_count_threshold`` maps each row to its count, and
    one oracle answers every row at that count.
    """
    checks = [entry for entry in entries if isinstance(entry, BoundResult)]
    if not checks or not (config.verify_exact or config.mc_trials > 0):
        return []
    thresholds = [_count_threshold(entry, config.model, config.outcome.injection) for entry in checks]
    # one oracle sums each distinct k*'s exact tail once, one MC draw answers every MC row
    window = BinomialWindow(config.outcome.l, config.outcome.p)
    if config.mc_trials > 0:
        seed = config.seed if config.seed is not None else 0
        estimates = window.mc_tails(thresholds, config.mc_trials, seed)
    else:
        estimates = [None] * len(checks)
    records: List[VerificationRecord] = []
    for entry, threshold, estimate in zip(checks, thresholds, estimates):
        event = f"{entry.theorem_tag} @ t={entry.t!r}: {window.describe(threshold)}"
        if config.verify_exact:
            records.append(verify_bound(entry, window.exact_tail(threshold), event=event))
        if estimate is not None:
            records.append(verify_bound(entry, estimate, event=event))
    return records


@dataclass
class FeasibilityReport:
    scenario: dict
    rows: List[SweepEntry]
    verification: List[VerificationRecord]
    epsilon: float
    timestamp: str

    @property
    def all_hold(self) -> bool:
        return all(r.holds for r in self.verification)

    def verdict(self) -> dict:
        """Classify each grid point and report each class as [lo, hi]
        ranges, one per run of consecutive grid points in that class."""
        by_time: dict[float, List[SweepEntry]] = {}
        for row in self.rows:
            by_time.setdefault(row.t, []).append(row)
        ranges = {"feasible_at": [], "infeasible_at": [], "out_of_regime_at": []}
        previous = None
        for t in sorted(by_time):
            bounds = [r.bound for r in by_time[t] if isinstance(r, BoundResult)]
            if not bounds:
                key = "out_of_regime_at"
            elif min(bounds) <= self.epsilon:
                key = "infeasible_at"
            else:
                key = "feasible_at"
            if key == previous:
                ranges[key][-1][1] = t
            else:
                ranges[key].append([t, t])
            previous = key
        return {
            "epsilon": self.epsilon,
            "note": (
                "bound <= epsilon means the chance that prediction-based testing "
                "beats manual testing at this t is small (tool convention)"
            ),
            **ranges,
        }

    def to_dict(self) -> dict:
        slacks = [r.slack for r in self.verification]
        summary = self.verdict()
        summary["all_hold"] = self.all_hold
        if slacks:
            summary["min_slack"] = min(slacks)
            summary["max_slack"] = max(slacks)
        return {
            "scenario": self.scenario,
            "rows": [row.to_dict() for row in self.rows],
            "verification": [r.to_dict() for r in self.verification],
            "summary": summary,
            "tool_version": _version,
            "timestamp": self.timestamp,
        }

    def to_json(self) -> str:
        return indented_json(self.to_dict())


def build_report(config: ScenarioConfig) -> FeasibilityReport:
    rows = run_sweep(config)
    return FeasibilityReport(
        scenario=config.raw,
        rows=rows,
        verification=run_verification(config, rows),
        epsilon=config.epsilon,
        timestamp=datetime.datetime.now(datetime.timezone.utc).isoformat(),
    )


def sweep_to_csv(entries: Sequence[SweepEntry]) -> str:
    """Serialize sweep rows to the CSV contract
    ``t,theorem,mu,threshold,delta,bound,regime`` with 17-significant-digit
    numbers (round-trip exact), one format per row from its regime's
    template."""
    lines = [",".join(SWEEP_COLUMNS)]
    for e in entries:
        if isinstance(e, BoundResult):
            lines.append(_BOUND_ROWS[e.regime] % (e.t, e.theorem_tag, e.mu, e.threshold, e.delta, e.bound))
        else:
            lines.append(_OUT_OF_REGIME_ROW % (e.t, e.theorem_tag, e.mu, e.threshold, e.delta))
    return "\n".join(lines) + "\n"
