"""Independent verification layer: exact binomial tails and seeded
Monte-Carlo simulation.

Strictness convention, stated once and relied on everywhere: for an
integer-valued X and integral threshold k, Pr[X < k] = CDF(k - 1). An
off-by-one here would silently invalidate every soundness check, so one
helper, ``_strict_upper_index``, centralises it.

Both oracles are methods of one object, ``BinomialWindow(l, p)`` (alias
``binomial_window``), which checks l, p and the caps once.
``exact_tail`` computes log Pr[X <= k*] once per distinct k*, in plain
``math``: one Loader saddle-point term log Pr[X = k*] plus the log of a
sum of pmf ratios taken down from k* (above the mean, log1p(-U) of the
same kind of sum U taken up from k* + 1), stopped once a geometric bound
on the dropped terms is below 2**-60 of the sum. The work is O(sigma)
per distinct k* at most, and far less in a deep tail. ``mc_tails`` reads
every hit count from one sorted draw of uniforms at those same exact
tails.

The Monte-Carlo sampler uses the Philox counter-based generator, so a
(seed, trials, threshold) triple maps to a bit-reproducible estimate
regardless of how the trials are scheduled.

Only ``mc_tails`` uses numpy, and it imports it in its own body: neither
importing this module nor an exact-only ``verify`` loads numpy.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass, field
from typing import List, Sequence

from .bounds import BoundResult
from .errors import InvalidInputError, read_integer, read_number

__all__ = [
    "TailMethod",
    "TailEstimate",
    "VerificationRecord",
    "BinomialWindow",
    "binomial_window",
    "verify_bound",
]

class TailMethod(str, enum.Enum):
    EXACT = "exact"
    MONTE_CARLO = "monte-carlo"


@dataclass(slots=True)
class TailEstimate:
    """A tail probability with its provenance; MC entries carry trials,
    standard error and the seed that reproduces them. ``log_value`` (by
    default log(value)) stays finite where ``value`` underflows."""

    value: float
    method: TailMethod
    trials: int | None = None
    stderr: float | None = None
    seed: int | None = None
    log_value: float | None = None

    def __post_init__(self):
        # a log_value is kept only while it names value (dataclasses.replace
        # passes the old one on with a new value), which an underflowed
        # value's finite log still does
        log_value = self.log_value
        if log_value is None or not (log_value <= 0.0 and math.exp(log_value) == self.value):
            self.log_value = math.log(self.value) if self.value > 0 else -math.inf


def _strict_upper_index(threshold: float, l: int) -> int:
    """Largest k with Pr[X <= k] contributing to Pr[X < threshold];
    -1 means the event is empty, >= l means it is certain."""
    if not math.isfinite(threshold):
        raise InvalidInputError(f"threshold must be finite, got {threshold!r}")
    if threshold <= 0:
        return -1
    if threshold > l:
        return l
    if float(threshold).is_integer():
        return int(threshold) - 1
    return math.floor(threshold)


#: stirlerr(n) = log(n!) - log(sqrt(2*pi*n) * (n/e)**n) for n = 1..15
#: (n = 0 is never looked up); from n = 16 on the series below is exact
#: to about 1e-16
_STIRLERR_SMALL = (
    math.nan, 0.08106146679532726, 0.0413406959554093, 0.02767792568499834,
    0.020790672103765093, 0.016644691189821193, 0.013876128823070748,
    0.01189670994589177, 0.010411265261972096, 0.009255462182712733,
    0.00833056343336287, 0.007573675487951841, 0.00694284010720953,
    0.006408994188004207, 0.0059513701127588475, 0.005554733551962801,
)
#: counts more than SPAN_SIGMAS * (sigma + 1) from the mean hold less than
#: exp(-55) of the mass (Bernstein's inequality), and one tail sums fewer
#: terms than that span: its ratio sum stops within 9.2 (sigma + 1) terms
#: (measured for l = 10..4e10, p = 1e-9..1 - 1e-9, k* across the support)
SPAN_SIGMAS = 40
#: a ratio sum stops once the terms it drops are bounded by this share of it
DROP = 2.0**-60
#: the largest count a tail may need: past 2**53 a float no longer holds
#: every integer, so neither a log-pmf term nor a threshold can name one count
MAX_COUNT = 2**53
#: terms one tail may sum, checked from sigma before any is summed; a tail
#: at the cap takes about 0.15 s on a 2-vCPU x86-64 host (Python 3.11)
MAX_TERMS = 2 * 10**6
#: trials one Monte-Carlo draw may ask for, checked before it is allocated
MAX_TRIALS = 10**8


def _stirlerr(n: float) -> float:
    """The error of Stirling's formula in log n!, for integers n >= 1."""
    if n <= 15:
        return _STIRLERR_SMALL[int(n)]
    nn = n * n
    return (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / (1188 * nn)) / nn) / nn) / nn) / n


def _bd0(x: float, mean: float) -> float:
    """The deviance term x*log(x/mean) + mean - x, without the cancellation
    of that form: a series in v = (x - mean)/(x + mean) near the mean."""
    d = x - mean
    if not abs(d) < 0.1 * (x + mean):
        return x * math.log1p(d / mean) - d
    v = d / (x + mean)
    s, ej, v2 = d * v, 2.0 * x * v, v * v
    for j in range(1, 1000):
        ej *= v2
        s1 = s + ej / (2 * j + 1)
        if s1 == s:
            break
        s = s1
    return s1


def _log_pmf(l: int, p: float, k: int) -> float:
    """log Pr[X = k] for an integer k in [0, l], X ~ Binomial(l, p), by
    Loader's saddle-point form (C. Loader, "Fast and Accurate Computation
    of Binomial Probabilities", 2000):

        log Pr[X = k] = stirlerr(l) - stirlerr(k) - stirlerr(l - k)
                        - bd0(k, l*p) - bd0(l - k, l*q)
                        - log(2*pi*k*(l - k)/l) / 2

    It carries no log-gamma anchor whose rounding grows with l: tested
    against 50-digit arithmetic to 1e-12 * max(1, |log Pr|) up to l = 1e6.

    Near the ends of the float range an intermediate overflows (l * l in
    stirlerr, harmlessly; 2*pi*k*(l - k) or, for a subnormal l*p,
    k / (l*p), into an infinite term): BinomialWindow refuses a binomial
    whose term at the highest count a tail may need is not finite.
    """
    if k == 0:
        return l * math.log1p(-p)
    if k == l:
        return l * math.log(p)
    x, y = float(k), float(l - k)
    return (
        _stirlerr(float(l)) - _stirlerr(x) - _stirlerr(y)
        - _bd0(x, l * p) - _bd0(y, l * (1.0 - p))
        - 0.5 * math.log(2.0 * math.pi * x * y / l)
    )


def _ratio_sum(l: int, k: int, p: float, q: float) -> float:
    """Pr[X <= k] / Pr[X = k] for X ~ Binomial(l, p), q = 1 - p and k below
    the mean: 1 + r_k + r_k * r_(k-1) + ..., where r_i = i*q / ((l + 1 - i)*p)
    is Pr[X = i - 1] / Pr[X = i]. Run on l - X (p and q swapped, k = l - k* - 1)
    it is Pr[X > k*] / Pr[X = k* + 1].

    Below the mean every r_i < 1, and r_i falls as i does (the pmf is
    log-concave), so the terms after one reached with ratio r sum to at
    most term * r / (1 - r); the sum stops once that is below DROP of it.
    Every term is positive, so its relative error is O(terms * ulp).
    """
    total = term = 1.0
    top = l + 1
    for i in range(k, 0, -1):
        r = i * q / ((top - i) * p)
        term *= r
        total += term
        if term * r < DROP * (1.0 - r) * total:
            break
    return total


@dataclass(frozen=True, eq=False)
class BinomialWindow:
    """Both oracles of X ~ Binomial(l, p), which construction checks, and
    refuses before any term is summed if they cannot be computed: exact
    tails in plain ``math``, each summed once per k* and remembered, and
    Monte-Carlo hit counts read at those same tails. It holds no window of
    terms; the name is public API."""

    l: int
    p: float
    #: k* -> (value, log_value) of every exact tail this oracle has summed
    _tails: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        l, p = self.l, self.p
        # p is a float (a Fraction would carry every ratio of a sum as a rational)
        if not 1 <= read_integer(l, "l") <= sys.float_info.max:
            raise InvalidInputError(f"l must be an integer in [1, {sys.float_info.max!r}], got {l!r}")
        if not 0.0 < read_number(p, "p") < 1.0:
            raise InvalidInputError(f"p must lie strictly in (0, 1), got {p!r}")
        span = SPAN_SIGMAS * (math.sqrt(l * p * (1.0 - p)) + 1.0)
        hi = min(l, math.ceil(l * p + span))
        if hi > MAX_COUNT:
            raise InvalidInputError(f"Binomial(l={l}, p={p!r}) needs counts up to {hi}, past 2**53, where floats skip integers")
        if span > MAX_TERMS:
            raise InvalidInputError(f"Binomial(l={l}, p={p!r}) may sum up to {math.ceil(span)} terms in one tail, over {MAX_TERMS}")
        # within the caps, the intermediates that can overflow, 2*pi*k*(l - k)
        # and k / (l*p), grow with k: if the term at the highest count below l
        # that a tail may need is finite, so is every term below it
        top = min(hi, l - 1)
        if not math.isfinite(_log_pmf(l, p, top)):
            raise InvalidInputError(f"Binomial(l={l}, p={p!r}) has a log-pmf that overflows a float at count {top}")

    def describe(self, threshold: float) -> str:
        """The event Pr[X < threshold], strict '<', as the report prints it."""
        return f"Pr[X < {threshold!r}], X ~ Binomial(l={self.l}, p={self.p!r})"

    def exact_tail(self, threshold: float) -> TailEstimate:
        """Pr[X < threshold], from Loader's log-pmf and a ratio sum.

        log Pr[X <= k*] is one Loader term log Pr[X = k*] plus the log of
        the ratio sum down from k* (``_ratio_sum``) where k* lies below the
        mean l*p; at or above it, log1p(-U), where U = Pr[X > k*] is the
        same kind of sum taken up from k* + 1. Each branch sums the side of
        k* away from the mean, which holds at most about half the mass, so
        neither cancels: a deep tail keeps its relative accuracy, and so
        does the log of a tail within 1e-11 of 1.

        Tested against 30- and 40-digit full-support sums to 1e-12 relative
        (of the log, once the tail is below 1/e) at l = 3000 for every k*,
        at l = 2e4 in the bulk and the deep tails and for random (l, p, k*)
        up to l = 5000; the Loader terms themselves to the same bound up to
        l = 1e6.
        """
        k_star = _strict_upper_index(threshold, self.l)
        if k_star < 0:
            return TailEstimate(0.0, TailMethod.EXACT)
        if k_star >= self.l:
            return TailEstimate(1.0, TailMethod.EXACT)
        # the tail depends on threshold only through k*: sum it once
        tail = self._tails.get(k_star)
        if tail is None:
            log_value = self._log_cdf(k_star)
            tail = self._tails[k_star] = (math.exp(log_value), log_value)
        return TailEstimate(tail[0], TailMethod.EXACT, None, None, None, tail[1])

    def _log_cdf(self, k_star: int) -> float:
        """log Pr[X <= k_star] for 0 <= k_star < l; see exact_tail."""
        l, p = self.l, self.p
        q = 1.0 - p
        if k_star < l * p:
            return _log_pmf(l, p, k_star) + math.log(_ratio_sum(l, k_star, p, q))
        upper = _log_pmf(l, p, k_star + 1) + math.log(_ratio_sum(l, l - k_star - 1, q, p))
        return math.log1p(-math.exp(upper))

    def mc_tails(self, thresholds: Sequence[float], trials: int, seed: int) -> List[TailEstimate]:
        """Monte-Carlo estimates of Pr[X < threshold] for each of
        ``thresholds`` from one draw of ``trials`` Binomial(l, p) samples,
        seeded by ``seed`` and inverted over the exact CDF. Reruns with the
        same (seed, trials) are bit-identical, and each estimate equals
        the one a draw for its threshold alone would give.

        Inversion draws #{k : Pr[X <= k] <= u} for a uniform u, so a draw
        is at most k* exactly when u < Pr[X <= k*]: each hit count is read
        from the sorted uniforms at that one cut, the exact tail of k*,
        with no draw formed.

        The estimates share one sample, so they are perfectly correlated: a
        3-sigma test of each record is not a test of the whole campaign.
        """
        if not 1 <= read_integer(trials, "trials") <= MAX_TRIALS:
            raise InvalidInputError(f"trials must be an integer in [1, {MAX_TRIALS}], got {trials!r}")
        if not 0 <= read_integer(seed, "seed") < 2**128:
            raise InvalidInputError(f"seed must lie in the Philox key range [0, 2**128), got {seed!r}")
        # draws are integers, so X < threshold is X <= k*, and its cut is
        # the exact tail Pr[X < threshold]
        cuts = [self.exact_tail(threshold).value for threshold in thresholds]
        if not cuts:
            return []
        import numpy as np

        uniforms = np.random.Generator(np.random.Philox(key=seed)).random(trials)
        uniforms.sort()
        estimates = []
        for hits in np.searchsorted(uniforms, cuts, side="left").tolist():
            value = hits / trials
            stderr = math.sqrt(value * (1.0 - value) / trials)
            estimates.append(TailEstimate(value, TailMethod.MONTE_CARLO, trials, stderr, seed))
        return estimates


#: the oracle's other public name: the same class, with the same checks
binomial_window = BinomialWindow


@dataclass(slots=True)
class VerificationRecord:
    """Outcome of checking one bound against one oracle estimate."""

    event: str
    bound: float
    oracle: float
    method: TailMethod
    holds: bool
    slack: float
    ratio: float
    seed: int | None = None
    #: MC only: the point estimate alone exceeds the bound even though the
    #: 3-sigma test passed
    advisory: bool = False

    def to_dict(self) -> dict:
        payload = {
            "event": self.event,
            "bound": self.bound,
            "oracle": self.oracle,
            "method": self.method.value,
            "holds": self.holds,
            "slack": self.slack,
            # JSON has no infinity: a ratio past the float range is null
            "ratio": self.ratio if math.isfinite(self.ratio) else None,
        }
        if self.seed is not None:
            payload["seed"] = self.seed
        if self.advisory:
            payload["advisory"] = True
        return payload


def verify_bound(bound: BoundResult, oracle: TailEstimate, event: str = "") -> VerificationRecord:
    """Check the strict inequality oracle < bound, in log space so that
    the verdict holds where the bound or the oracle underflows to 0.0.

    Exact oracles are compared directly; MC oracles pass when the point
    estimate minus three standard errors stays below the bound, with an
    advisory flag when the point estimate alone does not.
    """
    if not isinstance(bound, BoundResult):
        raise InvalidInputError(
            f"verification needs a computed BoundResult, got {type(bound).__name__}"
        )
    below = oracle.log_value < bound.log_bound
    advisory = False
    if oracle.method is TailMethod.EXACT:
        holds = below
    else:
        lower = oracle.value - 3.0 * oracle.stderr
        holds = lower <= 0 or math.log(lower) < bound.log_bound
        advisory = holds and not below
    try:  # an underflowed bound or oracle takes the ratio from the logs
        if bound.bound > 0 and oracle.value > 0:
            ratio = oracle.value / bound.bound
        else:
            ratio = math.exp(oracle.log_value - bound.log_bound)
    except OverflowError:
        ratio = math.inf
    return VerificationRecord(
        event, bound.bound, oracle.value, oracle.method, holds, bound.bound - oracle.value, ratio, oracle.seed, advisory
    )
