"""Scenario configuration, sweep/verification campaigns and the
feasibility report.

A scenario bundles an outcome, a hazard model, a checked time grid and
the requested bound kinds. ``run_sweep(config)`` sweeps it into one block
of rows per kind, and ``FeasibilityReport(config)`` is built from it
alone: those blocks, their verification against the exact and Monte-Carlo
oracles, and a verdict that classifies each grid point, from its rows
across kinds, as feasible, infeasible or out-of-regime. "Infeasible"
means the bound on the probability that prediction-based testing beats
manual testing fell at or below epsilon; epsilon is a tool convention
(default 0.05), not a claim from the analysis itself.
"""

from __future__ import annotations

import datetime
import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from itertools import chain

from . import __version__ as _version
from .bounds import _OUT_OF_REGIME, BoundKind, BoundResult, Regime, _form, bound_sweep, read_grid
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
    "sweep_to_csv",
    "DEFAULT_EPSILON",
]

DEFAULT_EPSILON = 0.05
#: grid points a time_grid may ask for, checked before the grid is allocated
MAX_STEPS = 10**6


#: the CSV header, and per regime the end of a row template: the format of
#: a bound that varies over the block, then the regime field. %.17g gives
#: 17 significant digits, which round-trip every 64-bit float exactly, and
#: %.0s writes an out-of-regime row's None bound as the empty field
_CSV_HEADER = "t,theorem,mu,threshold,delta,bound,regime"
_CSV_ROWS = {regime: ("%.0s" if regime is _OUT_OF_REGIME else "%.17g", f",{regime.value}\n") for regime in Regime}


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
    checks every field but ``raw``, which only ``to_json`` writes, so also
    what the CLI layers over it through ``dataclasses.replace``, and it
    stores ``kinds`` as ``BoundKind`` members and ``grid`` as a tuple of
    floats."""

    outcome: SdpOutcome
    model: HazardModel
    grid: tuple[float, ...]
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
        object.__setattr__(self, "grid", tuple(read_grid(self.grid)))

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


def run_sweep(config: ScenarioConfig) -> list[list[BoundResult]]:
    """The scenario's sweep, one block of rows per kind in ``config.kinds``
    order, each in grid order; a config that is not a ``ScenarioConfig``
    raises InvalidInputError."""
    read_instance(config, "config", ScenarioConfig, "a ScenarioConfig")
    return [bound_sweep(config.outcome, config.model, config.grid, kind, config.corrected) for kind in config.kinds]


def run_verification(config: ScenarioConfig, blocks: Sequence[Sequence[BoundResult]]) -> list[VerificationRecord]:
    """Check every in-regime row of ``blocks``, the blocks of
    ``run_sweep(config)``, against the exact and/or MC oracle.

    Every bound in the engine is a lower-tail statement about the
    underlying count X (reliability events transform to X < H(t)/t, and
    Y = zhat(t) * X at fixed t), so one binomial query covers both kinds of
    either variant: each block's ``FORMS`` row maps its rows to their
    counts, and one oracle answers every row at that count.
    """
    if not (config.verify_exact or config.mc_trials > 0):
        return []
    checks, thresholds = [], []
    for kind, block in zip(config.kinds, blocks):
        count = _form(config.outcome, kind, config.corrected)[1].count
        block = [entry for entry in block if entry.regime is not _OUT_OF_REGIME]
        thresholds += [count(e, config.model, config.outcome.injection) for e in block]
        checks += block
    if not checks:
        return []
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


class FeasibilityReport:
    """A scenario's sweep, one block of rows per kind, its verification and
    the UTC time it was built."""

    def __init__(self, config: ScenarioConfig):
        self.config = config
        self.blocks = run_sweep(config)
        self.verification = run_verification(config, self.blocks)
        self.timestamp = datetime.datetime.now(datetime.timezone.utc).isoformat()

    @property
    def all_hold(self) -> bool:
        return all(r.holds for r in self.verification)

    def verdict(self) -> dict:
        """Classify each grid point, from its rows across kinds, and report
        each class as [lo, hi] ranges, one per run of consecutive grid
        points in that class."""
        epsilon = self.config.epsilon
        ranges = {"feasible_at": [], "infeasible_at": [], "out_of_regime_at": []}
        previous = None
        for t, point in zip(self.config.grid, zip(*self.blocks)):
            bounds = [r.bound for r in point if r.regime is not _OUT_OF_REGIME]
            if not bounds:
                key = "out_of_regime_at"
            elif min(bounds) <= epsilon:
                key = "infeasible_at"
            else:
                key = "feasible_at"
            if key == previous:
                ranges[key][-1][1] = t
            else:
                ranges[key].append([t, t])
            previous = key
        return {
            "epsilon": epsilon,
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
            "scenario": self.config.raw,
            "rows": [row.to_dict() for block in self.blocks for row in block],
            "verification": [r.to_dict() for r in self.verification],
            "summary": summary,
            "tool_version": _version,
            "timestamp": self.timestamp,
        }

    def to_json(self) -> str:
        return indented_json(self.to_dict())


def _csv_text(times: Sequence[float], blocks: Iterable[Sequence[BoundResult]]) -> str:
    """Sweep rows as CSV text: ``_CSV_HEADER``, then the rows of each block
    in order. A block is one kind's rows over the grid: row i is at
    ``times[i]``, and every row carries the first row's theorem tag.

    A value the sweep repeats is formatted once: each time for all blocks,
    and in a block a column (mu, threshold, delta, bound) that holds one
    nonzero number at every row; an out-of-regime row's bound is None, so
    a block with one has no shared bound. That text and the tag, its "%"
    escaped, are baked into the block's row templates, and one ``%`` over
    the joined templates writes every other field. The bytes are those of
    formatting each row on its own: equal nonzero floats have one %.17g
    text, and a zero column is formatted row by row, since 0.0 == -0.0 but
    the two write "0" and "-0".
    """
    stamps = ["%.17g," % t for t in times]
    pieces = [_CSV_HEADER + "\n"]
    values: list | tuple = []
    for block in blocks:
        columns = (
            [e.mu for e in block],
            [e.threshold for e in block],
            [e.delta for e in block],
            [e.bound for e in block],
        )
        shared = ["%.17g" % c[0] if c[0] and c.count(c[0]) == len(c) else None for c in columns]
        values += chain.from_iterable(zip(*(c for c, text in zip(columns, shared) if text is None)))
        head = ",".join([block[0].theorem_tag.replace("%", "%%"), *(text or "%.17g" for text in shared[:3])]) + ","
        templates = {regime: head + (shared[3] or bound) + end for regime, (bound, end) in _CSV_ROWS.items()}
        pieces += chain.from_iterable(zip(stamps, map(templates.__getitem__, [e.regime for e in block])))
    # the list is let go before the format runs, so the values are not held twice
    values = tuple(values)
    return "".join(pieces) % values


def sweep_to_csv(config: ScenarioConfig) -> str:
    """The blocks of ``run_sweep(config)`` as CSV text. A swept row always
    has a CSV form: a theorem tag, a ``Regime`` member, and numbers that are
    finite but for delta, -inf where a mean underflowed."""
    # run_sweep checks the config before its grid is read
    blocks = run_sweep(config)
    return _csv_text(config.grid, blocks)
