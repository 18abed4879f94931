"""A complete desk-scale run, from confusion matrix to verified bound.

A defect predictor was evaluated on 27 modules: 5 true positives, 3
false negatives, 2 false positives, 17 true negatives. We ship the
l = 100 modules it cleared and ask: how likely is it that the shipped
build beats a manual-testing regime whose hazard rate is a constant
lambda = 2 failures per unit time?
"""

import json

from sdpfeas import (
    ConfusionMatrix,
    HazardFamily,
    HazardModel,
    SdpOutcome,
    binomial_window,
    false_omission_rate,
    hazard_bound,
    verify_bound,
)

# step 1: the failure probability per shipped module is the false
# omission rate of the predictor
matrix = ConfusionMatrix(tp=5, fn_=3, fp=2, tn=17)
p = false_omission_rate(matrix)
print(f"false omission rate: {p} = {float(p)}")

# the worked numbers below use the round p = 0.05 from the write-up of
# this scenario; swap in float(p) to rerun with the measured rate
outcome = SdpOutcome(l=100, p=0.05)
model = HazardModel(HazardFamily.CONSTANT, lam=2.0)

# step 2: the bound. X counts failures among the shipped modules,
# E[X] = 5; "fewer failures than manual testing" is the event X < 2
result = hazard_bound(outcome, model, t=5.0)
print(f"\n{result.theorem_tag}: Pr[X < {result.threshold}] < {result.bound:.6f}")
print(f"  mu = {result.mu}, delta = {result.delta}, regime = {result.regime.value}")

# step 3: check it against the exact binomial tail and a seeded
# Monte-Carlo estimate, both read from one oracle for Binomial(100, 0.05).
# Both must land below the bound.
window = binomial_window(outcome.l, outcome.p)
[mc] = window.mc_tails([result.threshold], trials=200_000, seed=42)
for oracle in (window.exact_tail(result.threshold), mc):
    record = verify_bound(result, oracle, event=window.describe(result.threshold))
    print(f"\n{oracle.method.value}: oracle = {record.oracle:.6f}")
    print(f"  holds = {record.holds}, slack = {record.slack:.6f}")

# the same run through the CLI:
#   sdpfeas verify --config desk.json
# with desk.json holding the scenario below (exit code 0 on success)
scenario = {
    "outcome": {"l": 100, "p": 0.05},
    "model": {"family": "constant", "lambda": 2.0},
    "time_grid": {"t": 5.0},
    "kinds": ["hazard"],
    "verify": {"exact": True, "mc_trials": 100000, "seed": 42},
}
print("\nequivalent CLI scenario:")
print(json.dumps(scenario, indent=2))
