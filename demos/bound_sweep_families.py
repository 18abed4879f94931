"""Sweep the hazard bound across all six manual-testing hazard shapes.

The interesting feature is the regime boundary: the Chernoff kernel only
says something while the manual-testing hazard z(t) sits below the
expected failure count l*p. Increasing hazards cross that line at a
finite time and the sweep reports every later point as out-of-regime
instead of fabricating a number.
"""

from sdpfeas import (
    BoundKind,
    HazardFamily,
    HazardModel,
    Regime,
    SdpOutcome,
    bound_sweep,
)
from sdpfeas.report import ScenarioConfig, sweep_to_csv

outcome = SdpOutcome(l=100, p=0.05)  # E[X] = 5

models = [
    HazardModel(HazardFamily.WEIBULL, K=0.5, m=0.5),
    HazardModel(HazardFamily.NONLINEAR_DECREASING, K=2.0),
    HazardModel(HazardFamily.LINEAR_DECREASING, K=4.0, m=0.4),
    HazardModel(HazardFamily.NONLINEAR_INCREASING, K=0.1),
    HazardModel(HazardFamily.LINEAR_INCREASING, K=1.0),
    HazardModel(HazardFamily.CONSTANT, lam=2.0),
]

grid = [0.5 + i for i in range(10)]

for model in models:
    usable = [t for t in grid if t <= model.max_time]
    entries = bound_sweep(outcome, model, usable, kind=BoundKind.HAZARD)
    marks = []
    for entry in entries:
        if entry.regime is Regime.OUT_OF_REGIME:
            marks.append("out")  # z(t) >= l*p here
        else:
            marks.append(f"{entry.bound:.3f}")
    tag = entries[0].theorem_tag
    print(f"{model.family.value:>9} ({tag:>4}): " + "  ".join(marks))

# the li family crosses at exactly t = l*p / K = 5: bounds up to t < 5,
# out-of-regime afterwards. The CSV serialisation keeps those rows, with
# an empty bound column:
model = HazardModel(HazardFamily.LINEAR_INCREASING, K=1.0)
print("\n" + sweep_to_csv(ScenarioConfig(outcome, model, [4.0, 4.9, 5.0, 6.0], ["hazard"])))
