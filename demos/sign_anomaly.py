"""The sign flag on the injected-variant reliability bound.

With a per-module failure injection Khat * t^mhat, the expected
reliability factor is exp(l*p*(exp(s) - 1)) where s is the cumulative
injection. Written with a positive s it exceeds 1 the moment any
failures can be injected, which is impossible for an expected value of
exp(-Y*t) <= 1; the negative-sign form stays in (0, 1]. The library
computes both: corrected=True (default) flips the inner sign,
corrected=False reproduces the positive-sign form verbatim so the
discrepancy can be inspected rather than papered over.
"""

import math

from sdpfeas import BoundKind, HazardFamily, HazardModel, SdpOutcome, bound_sweep

outcome = SdpOutcome(l=10, p=0.5, injection=HazardModel(HazardFamily.WEIBULL, K=1.0, m=0.0))
model = HazardModel(HazardFamily.WEIBULL, K=0.02, m=0.0)
t = 1.0


def reliability_row(corrected_flag):
    """The reliability bound at t: the one row of a one-point sweep."""
    [result] = bound_sweep(outcome, model, [t], BoundKind.RELIABILITY, corrected=corrected_flag)
    return result


# each mean slot is the mu of its bound's row
published = reliability_row(False).mu
corrected = reliability_row(True).mu

print(f"as-published mean slot: exp(5*(e - 1))    = {published:.4f}   (> 1!)")
print(f"corrected mean slot:    exp(5*(1/e - 1))  = {corrected:.6f}")
print(f"reference check: exp(5*(exp(-1) - 1)) = {math.exp(5 * (math.exp(-1) - 1)):.6f}")

# downstream effect on the bound itself: the inflated mean makes the
# kernel exponent about -mu/2 ~ -2693, i.e. the "bound" underflows to 0
# and would certify any tail whatsoever
for corrected_flag in (False, True):
    result = reliability_row(corrected_flag)
    print(
        f"\nsign_mode={result.sign_mode}: mu={result.mu:.4g}, "
        f"log bound = {result.log_bound:.4g}, bound = {result.bound:.4g}"
    )

print(
    "\nEvery result object carries its sign_mode, and the CLI exposes the"
    "\nchoice as --corrected / --as-published, so reports always say which"
    "\nconvention produced their numbers."
)
