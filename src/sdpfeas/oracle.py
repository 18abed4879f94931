"""Independent verification layer: exact binomial tails and seeded
Monte-Carlo simulation.

Strictness convention, stated once and relied on everywhere: for an
integer-valued X and integral threshold k, Pr[X < k] = CDF(k - 1). An
off-by-one here would silently invalidate every soundness check, so the
tail helpers centralise it.

The Monte-Carlo sampler uses the Philox counter-based generator, so a
(seed, trials, query) triple maps to a bit-reproducible estimate
regardless of how the trials are scheduled.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from .bounds import BoundResult
from .errors import InvalidInputError

__all__ = [
    "TailMethod",
    "TailQuery",
    "TailEstimate",
    "VerificationRecord",
    "exact_binomial_tail",
    "exact_scaled_tail_y",
    "exact_reliability_tail",
    "mc_tail",
    "mc_tails",
    "verify_bound",
]

class TailMethod(str, enum.Enum):
    EXACT = "exact"
    MONTE_CARLO = "monte-carlo"


@dataclass(frozen=True)
class TailQuery:
    """The event Pr[X < threshold] for X ~ Binomial(l, p), strict '<'."""

    l: int
    p: float
    threshold: float

    def __post_init__(self):
        if not isinstance(self.l, int) or isinstance(self.l, bool) or self.l < 1:
            raise InvalidInputError(f"l must be an integer >= 1, got {self.l!r}")
        if not 0.0 < self.p < 1.0:
            raise InvalidInputError(f"p must lie strictly in (0, 1), got {self.p!r}")
        if not math.isfinite(self.threshold):
            raise InvalidInputError(f"threshold must be finite, got {self.threshold!r}")

    def describe(self) -> str:
        return f"Pr[X < {self.threshold!r}], X ~ Binomial(l={self.l}, p={self.p!r})"


@dataclass(frozen=True)
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
        if self.log_value is None:
            object.__setattr__(self, "log_value", math.log(self.value) if self.value > 0 else -math.inf)


def _strict_upper_index(threshold: float, l: int) -> int:
    """Largest k with Pr[X <= k] contributing to Pr[X < threshold];
    -1 means the event is empty, >= l means it is certain."""
    if threshold <= 0:
        return -1
    if threshold > l:
        return l
    if float(threshold).is_integer():
        return int(threshold) - 1
    return math.floor(threshold)


def _log_pmf(l: int, p: float, k_max: int) -> np.ndarray:
    """log Pr[X = k] for k = 0..k_max, X ~ Binomial(l, p), via log-gamma."""
    # imported here, its only use, so that sweep, bound and metrics, which
    # never reach an oracle, do not pay scipy's import time and memory
    from scipy.special import gammaln

    ks = np.arange(k_max + 1)
    return (
        gammaln(l + 1)
        - gammaln(ks + 1)
        - gammaln(l - ks + 1)
        + ks * math.log(p)
        + (l - ks) * math.log1p(-p)
    )


def exact_binomial_tail(query: TailQuery) -> TailEstimate:
    """Pr[X < threshold] for X ~ Binomial(l, p), computed exactly.

    Terms are accumulated in log space: log binomial coefficients via
    log-gamma, then a max-shifted exponentiation of the partial sum. Holds
    relative accuracy ~1e-10 up to l = 1e6.
    """
    k_star = _strict_upper_index(query.threshold, query.l)
    if k_star < 0:
        return TailEstimate(value=0.0, method=TailMethod.EXACT)
    if k_star >= query.l:
        return TailEstimate(value=1.0, method=TailMethod.EXACT)
    log_terms = _log_pmf(query.l, query.p, k_star)
    shift = log_terms.max()
    total = np.exp(log_terms - shift).sum()
    log_value = min(float(shift + math.log(total)), 0.0)
    value = min(float(math.exp(shift) * total), 1.0)
    return TailEstimate(value=value, method=TailMethod.EXACT, log_value=log_value)


def exact_scaled_tail_y(l: int, p: float, scale: float, threshold: float) -> TailEstimate:
    """Pr[Y < threshold] where Y = scale * Binomial(l, p) at a fixed time.

    ``scale`` is the common per-module hazard Khat * t**mhat.
    """
    if not scale > 0:
        raise InvalidInputError(f"scale must be > 0, got {scale!r}")
    return exact_binomial_tail(TailQuery(l=l, p=p, threshold=threshold / scale))


def exact_reliability_tail(l: int, p: float, t: float, r_threshold: float) -> TailEstimate:
    """Pr[exp(-X*t) > r_threshold], transformed to the equivalent
    lower-tail event Pr[X < -ln(r_threshold)/t]."""
    if not 0.0 < r_threshold < 1.0:
        raise InvalidInputError(f"r_threshold must lie strictly in (0, 1), got {r_threshold!r}")
    if not t > 0:
        raise InvalidInputError(f"t must be > 0, got {t!r}")
    return exact_binomial_tail(TailQuery(l=l, p=p, threshold=-math.log(r_threshold) / t))


def sample_binomial(rng: np.random.Generator, l: int, p: float, trials: int) -> np.ndarray:
    """``trials`` Binomial(l, p) draws by inversion on the exact CDF: one
    uniform per trial, O(l) setup whatever the trial count."""
    cdf = np.cumsum(np.exp(_log_pmf(l, p, l)))
    cdf[-1] = 1.0
    return np.searchsorted(cdf, rng.random(trials), side="right")


def mc_tails(queries: Sequence[TailQuery], trials: int, seed: int) -> List[TailEstimate]:
    """Monte-Carlo estimates of every Pr[X < threshold] in ``queries`` from
    one draw of ``trials`` seeded Binomial(l, p) samples; the queries must
    share (l, p). Each estimate is bit-identical to a draw of its own.

    The estimates share one sample, so they are perfectly correlated: a
    3-sigma test of each record is not a test of the whole campaign.
    """
    if not isinstance(trials, int) or trials < 1:
        raise InvalidInputError(f"trials must be an integer >= 1, got {trials!r}")
    if len({(query.l, query.p) for query in queries}) > 1:
        raise InvalidInputError("queries of one Monte-Carlo draw must share (l, p)")
    if not queries:
        return []
    l, p = queries[0].l, queries[0].p
    draws = sample_binomial(np.random.Generator(np.random.Philox(key=seed)), l, p, trials)
    draws.sort()
    # draws are integers, so X < threshold is X <= k*, with k* from the
    # strictness convention above
    keys = [_strict_upper_index(query.threshold, l) + 1 for query in queries]
    estimates = []
    for hits in np.searchsorted(draws, keys, side="left").tolist():
        value = hits / trials
        stderr = math.sqrt(value * (1.0 - value) / trials)
        estimates.append(
            TailEstimate(value=value, method=TailMethod.MONTE_CARLO, trials=trials, stderr=stderr, seed=seed)
        )
    return estimates


def mc_tail(query: TailQuery, trials: int, seed: int) -> TailEstimate:
    """Monte-Carlo estimate of Pr[X < threshold] from ``trials`` seeded
    Binomial(l, p) draws; reruns with the same (seed, trials, query) are
    bit-identical."""
    return mc_tails([query], trials, seed)[0]


@dataclass(frozen=True)
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
        event=event,
        bound=bound.bound,
        oracle=oracle.value,
        method=oracle.method,
        holds=holds,
        slack=bound.bound - oracle.value,
        ratio=ratio,
        seed=oracle.seed,
        advisory=advisory,
    )
