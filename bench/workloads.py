"""Seeded inputs for the three benchmark workloads.

Each workload writes its records CSV and scenario JSON files into a
directory it is given and returns the CLI calls of one round. Every call
carries the parameters it was generated from, so the checks can
recompute its output without asking sdpfeas. The seed changes values
only, never the shape of a round: the number of calls, grid points and
kinds is fixed per workload, so a round does the same amount of work and
attempts the same operations whatever the seed.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

WORKLOADS = ("sweep-grid", "verify-campaign", "verify-large-l")

# Rounds are kept short (0.1-0.2 s): the run times each call at its
# fastest, and on a shared host that figure steadies with the number of
# times a call is made far more than with the length of one call.

#: records in the sweep-grid classifier CSV
RECORDS = 5_000
#: grid points per sweep-grid scenario; 7 scenarios x 2 kinds per round
SWEEP_STEPS = 500
#: Monte-Carlo trials of verify-campaign (inversion sampler, l <= 1e5)
CAMPAIGN_TRIALS = 20_000
CAMPAIGN_L = 2_000
#: grid points of the X (both kinds) and Y (hazard) campaign scenarios
CAMPAIGN_STEPS_X = 50
CAMPAIGN_STEPS_Y = 25
#: verify-large-l: l above the sampler's Bernoulli cutoff, few trials
LARGE_L = 200_000
#: grid points: the deep-tail point and one in the bulk
LARGE_STEPS = 2
LARGE_P = 0.01
LARGE_K = 200.0
LARGE_TRIALS = 20
#: fixed so that the deep-tail records do not depend on the workload seed
LARGE_MC_SEED = 20230116

#: sweep-grid families: (family, parameters, target l*p, grid start, grid stop).
#: Each gives both kinds in-regime and out-of-regime points. The constant
#: family's hazard threshold does not vary with t, so it is swept twice,
#: once below and once above l*p. The ld grid ends at t = K/m, where the
#: threshold is exactly 0 (m is a power of two, so K/m*m == K).
SWEEP_FAMILIES = (
    ("weibull", {"K": 1.0, "m": 1.5}, 3.0, 1e-4, 1e2),
    ("nld", {"K": 0.1}, 3.0, 1e-4, 1e2),
    ("ld", {"K": 1.5, "m": 8.0}, 0.5, 1e-4, None),
    ("nli", {"K": 1.0}, 3.0, 1e-4, 1e2),
    ("li", {"K": 1.0}, 3.0, 1e-4, 1e2),
    ("constant", {"lambda": 0.5}, 3.0, 1e-4, 1e2),
    ("constant", {"lambda": 5.0}, 3.0, 1e-4, 1e2),
)


@dataclass(frozen=True)
class Scenario:
    """The parameters of one scenario file, as the benchmark chose them."""

    l: int
    p: float
    family: str
    params: dict
    start: float
    stop: float
    steps: int
    spacing: str
    kinds: tuple
    variant: str = "X"
    injection: dict | None = None
    mc_trials: int = 0
    seed: int | None = None
    epsilon: float = 0.05

    def to_json(self) -> str:
        outcome = {"l": self.l, "p": self.p}
        if self.injection is not None:
            outcome["injection"] = self.injection
        payload = {
            "outcome": outcome,
            "model": {"family": self.family, **self.params},
            "time_grid": {"start": self.start, "stop": self.stop, "steps": self.steps, "spacing": self.spacing},
            "kinds": list(self.kinds),
            "variant": self.variant,
            "epsilon": self.epsilon,
            "verify": {"exact": True, "mc_trials": self.mc_trials, "seed": self.seed},
        }
        return json.dumps(payload)


@dataclass(frozen=True)
class Confusion:
    """Counts the benchmark tallied from the records it generated."""

    tp: int
    fn: int
    fp: int
    tn: int


@dataclass(frozen=True)
class Call:
    """One CLI call of a round: its argv and what it was generated from."""

    argv: list
    scenario: Scenario | None = None
    confusion: Confusion | None = None


def write_records(rng: np.random.Generator, path: Path) -> Confusion:
    """A classifier's (actual, predicted) labels with seeded prevalence,
    recall and specificity; returns the benchmark's own tally."""
    prevalence = rng.uniform(0.15, 0.25)
    recall = rng.uniform(0.6, 0.8)
    specificity = rng.uniform(0.8, 0.9)
    actual = rng.random(RECORDS) < prevalence
    u = rng.random(RECORDS)
    predicted = np.where(actual, u < recall, u >= specificity)
    labels = np.array(["clean", "defective"])
    lines = ["actual,predicted"]
    lines += [f"{a},{b}" for a, b in zip(labels[actual.astype(int)], labels[predicted.astype(int)])]
    path.write_text("\n".join(lines) + "\n")
    return Confusion(
        tp=int((actual & predicted).sum()),
        fn=int((actual & ~predicted).sum()),
        fp=int((~actual & predicted).sum()),
        tn=int((~actual & ~predicted).sum()),
    )


def _scenario_call(directory: Path, name: str, scenario: Scenario, command: str) -> Call:
    path = directory / f"{name}.json"
    path.write_text(scenario.to_json())
    argv = [command, "--config", str(path)]
    if command == "sweep":
        argv += ["--format", "csv"]
    return Call(argv=argv, scenario=scenario)


def sweep_grid(seed: int, directory: Path, p: float) -> list:
    """Seven sweep calls over all six families, both kinds, p from records."""
    rng = random.Random(seed)
    calls = []
    for index, (family, params, lp, start, stop) in enumerate(SWEEP_FAMILIES):
        factor = rng.uniform(0.9, 1.1)
        params = {k: (v * factor if k in ("K", "lambda") else v) for k, v in params.items()}
        if stop is None:
            stop = params["K"] / params["m"]
        scenario = Scenario(
            l=max(1, round(lp / p)),
            p=p,
            family=family,
            params=params,
            start=start,
            stop=stop,
            steps=SWEEP_STEPS,
            spacing="log",
            kinds=("hazard", "reliability"),
        )
        calls.append(_scenario_call(directory, f"sweep-{index}-{family}", scenario, "sweep"))
    return calls


def verify_campaign(seed: int, directory: Path) -> list:
    """An X-variant li scenario with both kinds and a Y-variant weibull
    hazard scenario whose injection scale stays <= 1 on the grid."""
    rng = random.Random(seed)
    p = rng.uniform(0.0049, 0.0051)
    x = Scenario(
        l=CAMPAIGN_L,
        p=p,
        family="li",
        params={"K": rng.uniform(0.98, 1.02)},
        start=0.05,
        stop=20.0,
        steps=CAMPAIGN_STEPS_X,
        spacing="log",
        kinds=("hazard", "reliability"),
        mc_trials=CAMPAIGN_TRIALS,
        seed=seed,
    )
    y = Scenario(
        l=CAMPAIGN_L,
        p=p,
        family="weibull",
        params={"K": rng.uniform(0.49, 0.51), "m": 1.0},
        start=0.05,
        stop=20.0,
        steps=CAMPAIGN_STEPS_Y,
        spacing="log",
        kinds=("hazard",),
        variant="Y",
        # scale K_hat * t**m_hat <= 0.2 * sqrt(20) < 1 on the grid
        injection={"K_hat": 0.2, "m_hat": 0.5},
        mc_trials=CAMPAIGN_TRIALS,
        seed=seed,
    )
    return [
        _scenario_call(directory, "campaign-x", x, "verify"),
        _scenario_call(directory, "campaign-y", y, "verify"),
    ]


def verify_large_l(seed: int, directory: Path) -> list:
    """li hazard side at l = 2e5 (Bernoulli sampler). The grid starts at
    the deep-tail point t = 0.5 (threshold 100, mean 2000), where the
    bound and the exact tail both underflow to 0.0; only the grid's end
    depends on the seed."""
    rng = random.Random(seed)
    scenario = Scenario(
        l=LARGE_L,
        p=LARGE_P,
        family="li",
        params={"K": LARGE_K},
        start=0.5,
        stop=rng.uniform(9.0, 9.8),
        steps=LARGE_STEPS,
        spacing="linear",
        kinds=("hazard",),
        mc_trials=LARGE_TRIALS,
        seed=LARGE_MC_SEED,
    )
    return [_scenario_call(directory, "large-l", scenario, "verify")]


def records_call(seed: int, directory: Path) -> Call:
    path = directory / "records.csv"
    confusion = write_records(np.random.default_rng(seed), path)
    return Call(argv=["metrics", "--records", str(path)], confusion=confusion)
