"""Independent verification layer: exact binomial tails and seeded
Monte-Carlo simulation.

Strictness convention, stated once and relied on everywhere: for an
integer-valued X and integral threshold k, Pr[X < k] = CDF(k - 1). An
off-by-one here would silently invalidate every soundness check, so one
helper, ``_strict_upper_index``, centralises it.

Both oracles are methods of one object, ``binomial_window(l, p)``: Loader's
saddle-point log Pr[X = k] over mean +- (40 sigma + 40), evaluated once per
(l, p) of a campaign in O(sqrt(l)) time. ``exact_tail`` sums the terms
within 40 nats of the largest one, once per distinct k*; ``mc_tails``
reads every hit count from one sorted draw of uniforms at the window's CDF.

The Monte-Carlo sampler uses the Philox counter-based generator, so a
(seed, trials, threshold) triple maps to a bit-reproducible estimate
regardless of how the trials are scheduled.

Each function that uses numpy imports it in its own body, so importing
this module (and with it the CLI) does not load numpy: only ``verify``
pays for it.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Sequence

from .bounds import BoundResult
from .errors import InvalidInputError, read_integer, read_number

if TYPE_CHECKING:
    import numpy as np

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
#: the window holds mean +- (WINDOW_SIGMAS * sigma + WINDOW_SIGMAS); the
#: mass outside it is below exp(-55) (Bernstein's inequality)
WINDOW_SIGMAS = 40
#: exact-tail terms more than this many nats below the tail's largest term
#: are dropped
TAIL_SPAN = 40.0
#: the largest count a window may hold: past 2**53 a float no longer holds
#: every integer, so neither the log-pmf nor a threshold can name one count
MAX_COUNT = 2**53
#: entries a window may hold, checked before it is allocated
MAX_WINDOW = 10**7
#: trials one Monte-Carlo draw may ask for, checked before it is allocated
MAX_TRIALS = 10**8


def _stirlerr(n):
    """The error of Stirling's formula in log n!, for integers n >= 1."""
    import numpy as np

    nn = n * n
    series = (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / (1188 * nn)) / nn) / nn) / nn) / n
    return np.where(n <= 15, np.array(_STIRLERR_SMALL)[np.minimum(n, 15).astype(np.intp)], series)


def _bd0(x: np.ndarray, mean: float) -> np.ndarray:
    """The deviance term x*log(x/mean) + mean - x, without the cancellation
    of that form: a series in v = (x - mean)/(x + mean) near the mean."""
    import numpy as np

    d = x - mean
    out = x * np.log1p(d / mean) - d
    near = np.abs(d) < 0.1 * (x + mean)
    if near.any():
        xs, ds = x[near], d[near]
        v = ds / (xs + mean)
        s, ej, v2 = ds * v, 2.0 * xs * v, v * v
        for j in range(1, 1000):
            ej = ej * v2
            s1 = s + ej / (2 * j + 1)
            if np.array_equal(s1, s):
                break
            s = s1
        out[near] = s1
    return out


def _log_pmf(l: int, p: float, ks: np.ndarray) -> np.ndarray:
    """log Pr[X = k] for each k in ``ks`` (integers in [0, l]), X ~
    Binomial(l, p), by Loader's saddle-point form (C. Loader, "Fast and
    Accurate Computation of Binomial Probabilities", 2000):

        log Pr[X = k] = stirlerr(l) - stirlerr(k) - stirlerr(l - k)
                        - bd0(k, l*p) - bd0(l - k, l*q)
                        - log(2*pi*k*(l - k)/l) / 2

    It carries no log-gamma anchor whose rounding grows with l: tested
    against 50-digit arithmetic to 1e-12 * max(1, |log Pr|) up to l = 1e6.

    Near the top of the float range an intermediate overflows (l * l in
    stirlerr, harmlessly; 2*pi*k*(l - k) and x + mean, into inf and NaN
    entries). numpy is told not to warn of it: binomial_window refuses a
    window with any non-finite entry.
    """
    import numpy as np

    q = 1.0 - p
    k = ks.astype(float)
    out = np.empty(len(k))
    inner = (ks > 0) & (ks < l)
    ki = k[inner]
    li = l - ki
    with np.errstate(over="ignore", invalid="ignore"):
        out[inner] = (
            _stirlerr(float(l))
            - _stirlerr(ki)
            - _stirlerr(li)
            - _bd0(ki, l * p)
            - _bd0(li, l * q)
            - 0.5 * np.log(2.0 * math.pi * ki * li / l)
        )
    out[ks == 0] = l * math.log1p(-p)
    out[ks == l] = l * math.log(p)
    return out


@dataclass(frozen=True, eq=False)
class BinomialWindow:
    """log Pr[X = k] for k = lo..hi, X ~ Binomial(l, p): the window mean
    +- (40 sigma + 40) clipped to [0, l], which holds all but exp(-55) of
    the mass. One window answers every exact tail and the Monte-Carlo draw
    of a verify campaign; it is evaluated once, in O(sqrt(l pq)) time."""

    l: int
    p: float
    lo: int
    log_pmf: np.ndarray
    #: k* -> (value, log_value) of every exact tail this window has summed
    _tails: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def hi(self) -> int:
        return self.lo + len(self.log_pmf) - 1

    @property
    def mode(self) -> int:
        return min(math.floor((self.l + 1) * self.p), self.l)

    def describe(self, threshold: float) -> str:
        """The event Pr[X < threshold], strict '<', as the report prints it."""
        return f"Pr[X < {threshold!r}], X ~ Binomial(l={self.l}, p={self.p!r})"

    def exact_tail(self, threshold: float) -> TailEstimate:
        """Pr[X < threshold], from Loader's log-pmf.

        The terms are read from this window: from the largest term of
        [0, k*] down to the first term more than 40 nats below it, and up
        to min(k*, hi). Where that first term lies below the window (k*
        below or just above its low edge), the tail evaluates its own short
        run down from k*. The binomial pmf is log-concave: the terms rise up
        to the mode, and below the cut each term falls from the one above
        by at least the mean step of the J summed terms below the peak,
        which is over 40/J nats. The dropped terms below therefore sum to
        less than exp(-40) * (1 + J/40) of the tail, and those above the
        window to less than exp(-55).

        Tested against 30-digit full-support sums to 1e-12 relative (of the
        log, once the tail is below 1/e) at l = 3000 for every k* and at
        l = 2e4 at the window's edges, the mode and the deep tail; the terms
        themselves are tested to the same bound up to l = 1e6.
        """
        k_star = _strict_upper_index(threshold, self.l)
        if k_star < 0:
            return TailEstimate(0.0, TailMethod.EXACT)
        if k_star >= self.l:
            return TailEstimate(1.0, TailMethod.EXACT)
        # the tail depends on threshold only through k*: sum it once
        tail = self._tails.get(k_star)
        if tail is None:
            log_value = min(self._log_cdf(k_star), 0.0)
            tail = self._tails[k_star] = (math.exp(log_value), log_value)
        return TailEstimate(tail[0], TailMethod.EXACT, None, None, None, tail[1])

    def _log_cdf(self, k_star: int) -> float:
        """log Pr[X <= k_star] for 0 <= k_star < l; see exact_tail."""
        import numpy as np

        l, p = self.l, self.p
        peak_at = min(k_star, self.mode)
        if peak_at >= self.lo:
            terms = self.log_pmf[: min(k_star, self.hi) - self.lo + 1]
            peak = terms[peak_at - self.lo]
            # terms rise up to the mode (log-concavity), so the first one
            # within TAIL_SPAN of the peak is found by bisection
            cut = int(np.searchsorted(terms[: peak_at - self.lo + 1], peak - TAIL_SPAN))
            if cut > 0 or self.lo == 0:
                return _log_sum(terms[max(cut - 1, 0):], peak)
        # the cut lies below the window: evaluate the run down from the peak
        # on its own. The peak is then k* below the mode (whose term lies
        # over 100 nats above the window's low edge), so the step down from
        # it is positive, and each step below is at least as large
        # (log-concavity)
        step = math.log((l - peak_at + 1) * p / (peak_at * (1.0 - p))) if peak_at > 0 else math.inf
        width = min(peak_at, math.ceil(TAIL_SPAN / step) + 1)
        terms = _log_pmf(l, p, np.arange(peak_at - width, peak_at + 1))
        return _log_sum(terms, terms[-1])

    def mc_tails(self, thresholds: Sequence[float], trials: int, seed: int) -> List[TailEstimate]:
        """Monte-Carlo estimates of Pr[X < threshold] for each of
        ``thresholds`` from one draw of ``trials`` Binomial(l, p) samples,
        seeded by ``seed`` and inverted over this window. Reruns with the
        same (seed, trials) are bit-identical, and each estimate equals
        the one a draw for its threshold alone would give.

        Inversion draws lo + #{j : cdf[j] <= u} for a uniform u, so a draw
        is at most k* exactly when u < cdf[k* - lo]: each hit count is read
        from the sorted uniforms at that one cut, with no draw formed. The
        mass outside the window, below exp(-55), is far below the 2**-53
        step of a uniform.

        The estimates share one sample, so they are perfectly correlated: a
        3-sigma test of each record is not a test of the whole campaign.
        """
        if not 1 <= read_integer(trials, "trials") <= MAX_TRIALS:
            raise InvalidInputError(f"trials must be an integer in [1, {MAX_TRIALS}], got {trials!r}")
        if not 0 <= read_integer(seed, "seed") < 2**128:
            raise InvalidInputError(f"seed must lie in the Philox key range [0, 2**128), got {seed!r}")
        import numpy as np

        # draws are integers, so X < threshold is X <= k*, with k* from the
        # strictness convention above
        k_stars = [_strict_upper_index(threshold, self.l) for threshold in thresholds]
        if not k_stars:
            return []
        # cuts[i] = cdf[i - 1]: cuts[0] = 0 takes every k* below lo (no
        # hits), and cuts[-1] = 1 every k* at or above hi (all hits)
        cuts = np.empty(len(self.log_pmf) + 1)
        cuts[0] = 0.0
        np.cumsum(np.exp(self.log_pmf), out=cuts[1:])
        cuts[-1] = 1.0
        uniforms = np.random.Generator(np.random.Philox(key=seed)).random(trials)
        uniforms.sort()
        index = np.clip(np.array(k_stars) - (self.lo - 1), 0, len(cuts) - 1)
        estimates = []
        for hits in np.searchsorted(uniforms, cuts[index], side="left").tolist():
            value = hits / trials
            stderr = math.sqrt(value * (1.0 - value) / trials)
            estimates.append(TailEstimate(value, TailMethod.MONTE_CARLO, trials, stderr, seed))
        return estimates


def binomial_window(l: int, p: float) -> BinomialWindow:
    """The log-pmf window of Binomial(l, p); see BinomialWindow."""
    # the window's mean l * p is a float, and p is one (a Fraction would
    # reach numpy as an object)
    if not 1 <= read_integer(l, "l") <= sys.float_info.max:
        raise InvalidInputError(f"l must be an integer in [1, {sys.float_info.max!r}], got {l!r}")
    if not 0.0 < read_number(p, "p") < 1.0:
        raise InvalidInputError(f"p must lie strictly in (0, 1), got {p!r}")
    mean, half = l * p, WINDOW_SIGMAS * (math.sqrt(l * p * (1.0 - p)) + 1.0)
    lo, hi = max(0, math.floor(mean - half)), min(l, math.ceil(mean + half))
    if hi > MAX_COUNT:
        raise InvalidInputError(
            f"Binomial(l={l}, p={p!r}) needs counts up to {hi}, past 2**53, where floats skip integers"
        )
    if hi - lo + 1 > MAX_WINDOW:
        raise InvalidInputError(f"Binomial(l={l}, p={p!r}) needs a window of {hi - lo + 1} counts, over {MAX_WINDOW}")
    import numpy as np

    log_pmf = _log_pmf(l, p, np.arange(lo, hi + 1))
    if not np.isfinite(log_pmf).all():
        raise InvalidInputError(f"Binomial(l={l}, p={p!r}) has a log-pmf that overflows a float in its window")
    return BinomialWindow(l=l, p=p, lo=lo, log_pmf=log_pmf)


def _log_sum(terms: np.ndarray, shift: float) -> float:
    import numpy as np

    return float(shift + math.log(np.exp(terms - shift).sum()))


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
