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
import sys
from collections.abc import Sequence
from dataclasses import dataclass, field

from . import __version__ as _version
from .bounds import _OUT_OF_REGIME, BoundKind, BoundResult, Regime, bound_sweep
from .errors import InvalidInputError, ParseError, indented_json, read_boolean, read_choice, read_instance, read_integer
from .errors import read_json, read_list, read_number, read_object
from .hazards import HazardModel, model_from_descriptor
from .oracle import MAX_TRIALS, BinomialWindow, VerificationRecord, read_seed, verify_bound
from .outcome import SdpOutcome, outcome_from_descriptor

__all__ = [
    "ScenarioConfig",
    "FeasibilityReport",
    "run_sweep",
    "run_verification",
    "build_report",
    "sweep_to_csv",
    "DEFAULT_EPSILON",
]

DEFAULT_EPSILON = 0.05
#: grid points a time_grid may ask for, checked before the grid is allocated
MAX_STEPS = 10**6


#: the CSV header, and one row template per regime (keyed by ``_value_``)
#: in its column order; %.17g gives 17 significant digits, which round-trip
#: every 64-bit float exactly, and %.0s writes an out-of-regime row's None
#: bound as the empty field
_CSV_HEADER = "t,theorem,mu,threshold,delta,bound,regime"
_CSV_ROWS = {
    regime._value_: "%.17g,%s,%.17g,%.17g,%.17g," + ("%.0s," if regime is _OUT_OF_REGIME else "%.17g,") + regime.value
    for regime in Regime
}


def _build_grid(payload: dict) -> list[float]:
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
    # np.linspace(lo, hi, steps) without numpy, bit for bit, where its step
    # is not 0: a step that rounds to 0 (a span of at most half an ulp per
    # interval) repeats a point, which the sweep refuses. A log grid is
    # np.geomspace's algorithm on libm: the linspace of the log10 ends,
    # each point after the first raised to 10 ** x, the ends pinned.
    lo, hi = (math.log10(start), math.log10(stop)) if spacing == "log" else (start, stop)
    step = (hi - lo) / (steps - 1)
    grid = [i * step + lo for i in range(steps - 1)]
    if spacing == "log":
        try:
            grid = [start, *(10.0**x for x in grid[1:])]
        except OverflowError:
            raise InvalidInputError(f"time_grid {start!r}..{stop!r} has a log point past the float range") from None
    grid.append(stop)
    return grid


@dataclass(frozen=True)
class ScenarioConfig:
    """A checked scenario, read from its descriptor alone; ``__post_init__``
    checks every field but ``grid``, which the sweep reads, and ``raw``, so
    also what the CLI layers over it through ``dataclasses.replace``, and it
    stores ``kinds`` as ``BoundKind`` members."""

    outcome: SdpOutcome
    model: HazardModel
    grid: list[float]
    kinds: list[BoundKind]
    corrected: bool = True
    verify_exact: bool = True
    mc_trials: int = 0
    seed: int | None = None
    epsilon: float = DEFAULT_EPSILON
    raw: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        read_instance(self.outcome, "scenario outcome", SdpOutcome, "an SdpOutcome")
        read_instance(self.model, "scenario model", HazardModel, "a HazardModel")
        kinds = [read_choice(kind, "bound kind", BoundKind) for kind in read_list(self.kinds, "kinds")]
        if not kinds or len(set(kinds)) != len(kinds):
            raise ParseError(f"kinds must be a non-empty set, got {self.kinds!r}")
        object.__setattr__(self, "kinds", kinds)
        read_boolean(self.corrected, "corrected")
        read_boolean(self.verify_exact, "verify.exact")
        if not 0 <= read_integer(self.mc_trials, "mc_trials") <= MAX_TRIALS:
            raise InvalidInputError(f"mc_trials must lie in [0, {MAX_TRIALS}], got {self.mc_trials}")
        if self.seed is not None:
            read_seed(self.seed, "seed")
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
        # the outcome fixes the variant; a stated one must agree with it
        variant, having = ("X", "without") if outcome.injection is None else ("Y", "with")
        if payload.get("variant", variant) != variant:
            raise ParseError(
                f"variant {payload['variant']!r} contradicts the outcome: an outcome {having} "
                f"an 'injection' descriptor is of variant {variant!r}"
            )
        verify = read_object(payload.get("verify", {}), "verify", optional=("exact", "mc_trials", "seed"))
        return cls(
            outcome=outcome,
            model=model,
            grid=grid,
            kinds=payload.get("kinds", ["hazard"]),
            corrected=payload.get("corrected", True),
            verify_exact=verify.get("exact", True),
            mc_trials=verify.get("mc_trials", 0),
            seed=verify.get("seed"),
            epsilon=payload.get("epsilon", DEFAULT_EPSILON),
            raw=payload,
        )

    @classmethod
    def from_json(cls, text: str) -> "ScenarioConfig":
        return cls.from_descriptor(read_json(text))


def run_sweep(config: ScenarioConfig) -> list[BoundResult]:
    """All bound rows for the scenario, kind-major then grid order."""
    entries: list[BoundResult] = []
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

    A Y row's count is the closed form of z(t)/zhat(t), (K/Khat)*t**(m -
    mhat), over m + 1 for Thm4 (whose threshold is H/t = z/(m + 1)): one
    power, so where m = mhat it is K/Khat correctly rounded. Where K/Khat
    or the power leaves the float range and the product is not in (0, inf),
    it comes from the logs, log K - log Khat + (m - mhat)*log t, less
    log1p(m) for Thm4. A count past the float range is the largest float,
    the event certain; one that underflows to 0.0 is the smallest float,
    the event {X = 0}.
    """
    threshold = entry.threshold
    if injection is None:
        return math.ulp(0.0) if threshold == 0 and entry.t < model.max_time else threshold
    K, m, t, thm4 = model.K, model.m, entry.t, entry.theorem_tag == "Thm4"
    try:
        count = K / injection.K * t ** (m - injection.m) / (m + 1 if thm4 else 1.0)
    except OverflowError:
        count = math.inf
    if not 0 < count < math.inf:
        log_count = math.log(K) - math.log(injection.K) + (m - injection.m) * math.log(t)
        try:
            count = math.exp(log_count - math.log1p(m) if thm4 else log_count)
        except OverflowError:
            count = math.inf
    return min(max(count, math.ulp(0.0)), sys.float_info.max)


def run_verification(config: ScenarioConfig, entries: Sequence[BoundResult]) -> list[VerificationRecord]:
    """Check every in-regime row against the exact and/or MC oracle.

    Every bound in the engine is a lower-tail statement about the
    underlying count X (reliability events transform to X < H(t)/t, and
    Y = zhat(t) * X at fixed t), so one binomial query covers both kinds of
    either variant: ``_count_threshold`` maps each row to its count, and
    one oracle answers every row at that count.
    """
    checks = [entry for entry in entries if entry.regime is not _OUT_OF_REGIME]
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
    records: list[VerificationRecord] = []
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
    rows: list[BoundResult]
    verification: list[VerificationRecord]
    epsilon: float
    timestamp: str

    @property
    def all_hold(self) -> bool:
        return all(r.holds for r in self.verification)

    def verdict(self) -> dict:
        """Classify each grid point and report each class as [lo, hi]
        ranges, one per run of consecutive grid points in that class. A row
        without a t, such as the kernel's, is refused."""
        by_time: dict[float, list[BoundResult]] = {}
        for index, row in enumerate(self.rows):
            if row.t is None:
                raise InvalidInputError(f"report row {index} has no t: a report holds swept rows")
            by_time.setdefault(row.t, []).append(row)
        ranges = {"feasible_at": [], "infeasible_at": [], "out_of_regime_at": []}
        previous = None
        for t in sorted(by_time):
            bounds = [r.bound for r in by_time[t] if r.regime is not _OUT_OF_REGIME]
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


def _csv_text(entries: Sequence[BoundResult]) -> str:
    """Sweep rows as CSV text: ``_CSV_HEADER``, then each row from its
    regime's template, every row written by one format over the templates."""
    templates = [_CSV_HEADER]
    values: list | tuple = []
    for e in entries:
        templates.append(_CSV_ROWS[e.regime._value_])
        values += (e.t, e.theorem_tag, e.mu, e.threshold, e.delta, e.bound)
    # the final newline joined in; the list is let go before the format
    # runs, so the values are not held twice
    templates.append("")
    values = tuple(values)
    return "\n".join(templates) % values


def sweep_to_csv(config: ScenarioConfig) -> str:
    """The rows of ``run_sweep(config)`` as CSV text. A swept row always has
    a CSV form: a theorem tag, a ``Regime`` member, and numbers that are
    finite but for delta, -inf where a mean underflowed."""
    return _csv_text(run_sweep(config))
