"""Oracle campaign: where the published bounds hold and where they fail.

The hazard-side results are the genuine Chernoff lower-tail bound on a
binomial count and survive every exact-oracle check. The
reliability-side results put the expected-reliability factor in the mean
slot of the kernel; that factor is below 1, so for small l*p the bound
dips under the exact tail Pr[X = 0] = (1-p)^l and the inequality
breaks. This script runs both campaigns and prints the score, plus the
smallest concrete counterexample it finds.
"""

from sdpfeas import (
    BinomialWindow,
    BoundKind,
    HazardFamily,
    HazardModel,
    Regime,
    SdpOutcome,
    bound_sweep,
    verify_bound,
)

LS = [5, 20, 100, 500]
PS = [0.02, 0.05, 0.15, 0.3]
TS = [0.05, 0.2, 0.9, 2.5, 5.0]

hazard_models = [
    HazardModel(HazardFamily.CONSTANT, lam=0.5),
    HazardModel(HazardFamily.LINEAR_INCREASING, K=0.3),
    HazardModel(HazardFamily.WEIBULL, K=0.8, m=0.5),
]
reliability_models = [
    HazardModel(HazardFamily.CONSTANT, lam=0.01),
    HazardModel(HazardFamily.LINEAR_INCREASING, K=0.02),
    HazardModel(HazardFamily.WEIBULL, K=0.02, m=0.5),
]


def campaign(models, kind):
    held = failed = 0
    first_failure = None
    for model in models:
        for l in LS:
            for p in PS:
                outcome = SdpOutcome(l=l, p=p)
                window = BinomialWindow(l, p)
                # one sweep per outcome; an out-of-regime row has no bound to check
                for result in bound_sweep(outcome, model, TS, kind):
                    if result.regime is Regime.OUT_OF_REGIME:
                        continue
                    oracle = window.exact_tail(result.threshold)
                    if verify_bound(result, oracle).holds:
                        held += 1
                    else:
                        failed += 1
                        if first_failure is None:
                            first_failure = (l, p, model, result.t, oracle.value, result.bound)
    return held, failed, first_failure


held, failed, _ = campaign(hazard_models, BoundKind.HAZARD)
print(f"hazard side:      {held} held, {failed} failed")

held, failed, failure = campaign(reliability_models, BoundKind.RELIABILITY)
print(f"reliability side: {held} held, {failed} failed")

if failure is not None:
    l, p, model, t, oracle, bound = failure
    print(
        f"\nfirst counterexample: l={l}, p={p}, {model.family.value} model, t={t}"
        f"\n  exact tail {oracle:.4f} >= claimed bound {bound:.4f}"
    )
    print(
        "\nwhy: in the valid regime the threshold sits below the sub-unit mean"
        "\nslot, so the event is X = 0 and the exact tail is (1-p)^l ="
        f" {(1 - p) ** l:.4f}."
        "\nThe kernel mean is at most 1, so its bound can never get below"
        " exp(-1/2) = 0.6065;"
        f"\nwith l*p = {l * p:.2f} the exact tail clears that floor."
    )
    print(
        "\nsafe subdomain: once l*p >= 0.5, (1-p)^l <= exp(-l*p) <= exp(-1/2)"
        "\nand the reliability-side bounds hold again."
    )
