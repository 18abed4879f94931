import json
import math
import sys
import tracemalloc
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp
from scipy.stats import binom

from reference_formulas import sample_binomial
from sdpfeas import (
    BinomialWindow,
    FeasibilityReport,
    InvalidInputError,
    ParseError,
    TailEstimate,
    TailMethod,
    chernoff_lower_tail,
    verify_bound,
)
from sdpfeas import oracle as oracle_module
from sdpfeas.oracle import (
    MAX_COUNT, MAX_TERMS, MAX_TRIALS, MC_BLOCK, SPAN_SIGMAS, _STIRLERR_SMALL, _log_pmf, _strict_upper_index,
)


def naive_tail(l, p, threshold):
    """Plain-arithmetic reference, usable only at small l."""
    total = 0.0
    for k in range(l + 1):
        if k < threshold:
            total += math.comb(l, k) * p**k * (1 - p) ** (l - k)
    return total


def span(l, p):
    """(lo, hi): the counts mean +- (40 sigma + 40), clipped to [0, l], which
    hold all but exp(-55) of the mass; ``BinomialWindow`` refuses a
    binomial whose hi is past 2**53."""
    mean, half = l * p, SPAN_SIGMAS * (math.sqrt(l * p * (1.0 - p)) + 1.0)
    return max(0, math.floor(mean - half)), min(l, math.ceil(mean + half))


def mode(l, p):
    return min(math.floor((l + 1) * p), l)


class TestStrictUpperIndex:
    def test_integral_threshold_excludes_itself(self):
        assert _strict_upper_index(2.0, 10) == 1

    def test_fractional_threshold_keeps_floor(self):
        assert _strict_upper_index(2.5, 10) == 2

    def test_empty_event(self):
        assert _strict_upper_index(0.0, 10) == -1
        assert _strict_upper_index(-3.0, 10) == -1

    def test_certain_event(self):
        assert _strict_upper_index(10.5, 10) == 10

    @given(threshold=st.floats(-60.0, 60.0) | st.integers(-60, 60), l=st.integers(1, 50))
    @example(threshold=0.0, l=10)
    @example(threshold=-0.0, l=10)
    @example(threshold=5e-324, l=10)
    @example(threshold=-5e-324, l=10)
    @example(threshold=3, l=10)
    @example(threshold=3.0, l=10)
    @example(threshold=math.nextafter(3.0, math.inf), l=10)
    @example(threshold=10, l=10)
    @example(threshold=10.0, l=10)
    @example(threshold=math.nextafter(10.0, -math.inf), l=10)
    @example(threshold=math.nextafter(10.0, math.inf), l=10)
    @example(threshold=11, l=10)
    def test_largest_count_the_strict_event_admits(self, threshold, l):
        # the literal rule: the largest count k in [0, l] with k < threshold,
        # or -1 where there is none
        assert _strict_upper_index(threshold, l) == max([-1] + [k for k in range(l + 1) if k < threshold])


class TestExactTail:
    def test_frozen_small_example(self):
        # sum of the k=0 and k=1 terms of Binomial(10, 0.3), checked by hand:
        # 0.7^10 + 10*0.3*0.7^9
        est = BinomialWindow(10, 0.3).exact_tail(2.0)
        assert est.value == pytest.approx(0.14930834589999992, rel=1e-14)
        assert est.method is TailMethod.EXACT

    def test_frozen_desk_example(self):
        est = BinomialWindow(100, 0.05).exact_tail(2.0)
        assert est.value == pytest.approx(0.037081209327355036, rel=1e-12)

    def test_dyadic_example(self):
        # Pr[Binom(10, 1/2) < 3] = 56/1024 exactly
        est = BinomialWindow(10, 0.5).exact_tail(3.0)
        assert est.value == pytest.approx(56.0 / 1024.0, rel=1e-14)

    def test_empty_and_certain(self, monkeypatch):
        # both events are read from the oracle's table, never summed
        summed = []
        log_cdf = BinomialWindow._log_cdf

        def counting_log_cdf(window, k_star):
            summed.append(k_star)
            return log_cdf(window, k_star)

        monkeypatch.setattr(BinomialWindow, "_log_cdf", counting_log_cdf)
        window = BinomialWindow(10, 0.3)
        for threshold in [0.0, -0.0, 0, -3.0, -5, -1e300]:
            assert window.exact_tail(threshold) == TailEstimate(0.0, TailMethod.EXACT)
        for threshold in [math.nextafter(10.0, math.inf), 10.5, 11, 1e300]:
            assert window.exact_tail(threshold) == TailEstimate(1.0, TailMethod.EXACT)
        assert summed == []
        window.exact_tail(10.0)
        assert summed == [9]

    @given(
        l=st.integers(1, 30),
        p=st.floats(0.01, 0.99),
        threshold=st.floats(-1.0, 32.0),
    )
    def test_matches_naive_summation(self, l, p, threshold):
        est = BinomialWindow(l, p).exact_tail(threshold)
        assert est.value == pytest.approx(naive_tail(l, p, threshold), abs=1e-12)

    def test_large_l_stays_normalised(self):
        est = BinomialWindow(10**6, 0.3).exact_tail(10**6 + 1)
        assert est.value == 1.0

    def test_large_l_tail_below_chernoff(self):
        l, p = 10**6, 0.3
        mu = l * p
        est = BinomialWindow(l, p).exact_tail(0.99 * mu)
        assert 0.0 < est.value < chernoff_lower_tail(mu, 0.99 * mu).bound

    def test_log_value_survives_underflow(self):
        # the tail is about 1e-702: value underflows to 0.0, its log does not
        reference = logsumexp(binom.logpmf(np.arange(100), 200_000, 0.01))
        est = BinomialWindow(200_000, 0.01).exact_tail(100.0)
        assert est.value == 0.0
        assert est.log_value == pytest.approx(reference, rel=1e-10)

    def test_log_value_matches_value(self):
        est = BinomialWindow(100, 0.05).exact_tail(2.0)
        assert est.log_value == pytest.approx(math.log(est.value), rel=1e-13)
        assert TailEstimate(value=0.25, method=TailMethod.EXACT).log_value == math.log(0.25)
        assert TailEstimate(value=0.0, method=TailMethod.EXACT).log_value == -math.inf

    def test_rejects_bad_query(self):
        # one class, one construction path: no oracle object skips the checks
        for l, p in [(0, 0.5), (True, 0.5), (2.0, 0.5), (10, 0.0), (10, 1.0), (10, 1.5), (10, math.nan), (10**20, 0.5)]:
            with pytest.raises(InvalidInputError):
                BinomialWindow(l, p)
        window = BinomialWindow(10, 0.3)
        for threshold in (math.inf, -math.inf, math.nan):
            with pytest.raises(InvalidInputError, match="threshold must be finite"):
                window.exact_tail(threshold)
            with pytest.raises(InvalidInputError, match="threshold must be finite"):
                window.mc_tails([2.0, threshold], 100, 1)


def reference_log_pmf(l, p, k):
    """log Pr[X = k] in 50-digit arithmetic, p taken as the exact binary float."""
    with mpmath.workdps(50):
        P = mpmath.mpf(p)
        value = (
            mpmath.loggamma(l + 1) - mpmath.loggamma(k + 1) - mpmath.loggamma(l - k + 1)
            + k * mpmath.log(P) + (l - k) * mpmath.log(1 - P)
        )
        return float(value)


def reference_log_cdf(l, p):
    """log Pr[X <= k] for k = 0..l, each a 30-digit sum over the full
    support [0, k] (terms by the ratio recurrence from q**l)."""
    with mpmath.workdps(30):
        P = mpmath.mpf(p)
        ratio = P / (1 - P)
        term = (1 - P) ** l
        total, out = term, [float(mpmath.log(term))]
        for k in range(1, l + 1):
            term = term * (l - k + 1) * ratio / k
            total += term
            out.append(float(mpmath.log(total)))
        return out


def close_in_log(got, want, tol=1e-12):
    """|got - want| within tol, relative once |want| > 1: the log's error is
    the relative error of the probability, where that is representable."""
    return abs(got - want) <= tol * max(1.0, abs(want))


class TestLoaderLogPmf:
    def test_stirlerr_table(self):
        with mpmath.workdps(50):
            for n in range(1, 16):
                exact = mpmath.loggamma(n + 1) - (n + 0.5) * mpmath.log(n) + n - mpmath.log(2 * mpmath.pi) / 2
                assert _STIRLERR_SMALL[n] == float(exact)

    @pytest.mark.parametrize("l", [10, 2_000, 100_000, 1_000_000])
    #: at 1 - 3e-7 and l = 1e6, Pr[X = l - 1] is about 0.22: the term's
    #: k(l - k)/l must not lose digits as k nears l
    @pytest.mark.parametrize("p", [0.004, 0.3, 0.9, 1 - 3e-7])
    def test_matches_mpmath(self, l, p):
        lo, hi = span(l, p)
        edges = [0, 1, l - 1, l, lo, hi, mode(l, p), max(lo - 1, 0), min(hi + 1, l)]
        inside = np.linspace(lo, hi, 13).astype(int).tolist()
        outside = np.linspace(0, l, 9).astype(int).tolist()
        for k in sorted(set(edges + inside + outside)):
            got, want = _log_pmf(l, p, k), reference_log_pmf(l, p, k)
            assert close_in_log(got, want), (l, p, k, got, want)

    def test_window_is_mean_plus_minus_40_sigma_plus_40(self):
        assert span(200_000, 0.01) == (180, 3820) and mode(200_000, 0.01) == 2000
        # clipped to the support
        assert span(2_000, 0.004) == (0, 161) and span(10, 0.5) == (0, 10)
        # the term cap reads the same 40 sigma + 40: at p = 1/2 and l =
        # 4 * 49999**2, sigma = 49999 puts it exactly at MAX_TERMS
        assert SPAN_SIGMAS * (49_999 + 1) == MAX_TERMS
        assert BinomialWindow(4 * 49_999**2, 0.5).l == 4 * 49_999**2
        with pytest.raises(InvalidInputError, match=f"may sum up to {MAX_TERMS + 1} terms in one tail"):
            BinomialWindow(4 * 49_999**2 + 1, 0.5)


class TestWindowedTail:
    """The exact tail against a full-support sum. Below the mean l*p it is
    summed down from k*; at or above it, from k* + 1 up, as log1p(-U). At
    (20000, 0.5) the mean is 10000 and the span mean +- (40 sigma + 40) is
    [7131, 12869]; at (3000, 0.7) it is [1056, 3000]."""

    @pytest.mark.parametrize("l,p", [(20_000, 0.5), (20_000, 0.9)])
    def test_against_full_support_sum(self, l, p):
        lo, hi = span(l, p)
        assert 0 < lo and hi < l
        log_cdf = reference_log_cdf(l, p)
        mean = math.floor(l * p)
        cases = {
            "at lo": lo,
            "at lo + 1": lo + 1,
            "at the mode": mode(l, p),
            "just below the mean": mean - 1,
            "at the mean": mean,
            "just above the mean": mean + 1,
            "deep below lo": lo // 2,
            "just below lo": lo - 1,
            "at 0": 0,
            "above hi": hi + 7,
            "at l - 1": l - 1,
        }
        for name, k_star in cases.items():
            est = BinomialWindow(l, p).exact_tail(k_star + 0.5)
            assert close_in_log(est.log_value, log_cdf[k_star]), (name, est.log_value, log_cdf[k_star])
            if log_cdf[k_star] > -700:
                assert est.value == pytest.approx(math.exp(log_cdf[k_star]), rel=1e-12)

    def test_every_threshold(self):
        l, p = 3_000, 0.7
        window = BinomialWindow(l, p)
        log_cdf = reference_log_cdf(l, p)
        for k_star in range(l):
            got = window.exact_tail(k_star + 0.5).log_value
            assert close_in_log(got, log_cdf[k_star]), (k_star, got, log_cdf[k_star])


def reference_log_cdf_at(l, p, k):
    """log Pr[X <= k] in 40-digit arithmetic, from the full-support sums of
    both sides (terms by the ratio recurrence from q**l): log1p(-upper)
    where the upper side is the smaller one, so a tail near 1 keeps its
    digits."""
    with mpmath.workdps(40):
        P = mpmath.mpf(p)
        ratio = P / (1 - P)
        term = (1 - P) ** l
        lower, upper = term, mpmath.mpf(0)
        for i in range(1, l + 1):
            term = term * (l - i + 1) * ratio / i
            if i <= k:
                lower += term
            else:
                upper += term
        return float(mpmath.log(lower) if lower < upper else mpmath.log1p(-upper))


class TestLogCdf:
    """``_log_cdf`` against 40-digit sums, to 1e-12 relative in the log:
    that is the tail's relative error where the log is below -1, and far
    tighter than the tail's absolute error where it is within 1e-11 of 1."""

    @settings(max_examples=150, deadline=None)
    @given(
        l=st.integers(1, 5000),
        p=st.floats(1e-4, 1 - 1e-4),
        # k* = mean + z * (sigma + 1): deep lower tails, both sides of the
        # mean, and tails within 1e-11 of 1
        z=st.floats(-40.0, 40.0),
    )
    @example(l=100, p=0.05, z=6.0)  # k* = 24, the tail below
    @example(l=4000, p=0.5, z=0.0)  # k* = the mean exactly: the upper branch
    @example(l=4000, p=0.5, z=-0.01)  # k* = the mean - 1: the lower branch
    def test_matches_mpmath(self, l, p, z):
        k_star = min(max(math.floor(l * p + z * (math.sqrt(l * p * (1 - p)) + 1)), 0), l - 1)
        got, want = BinomialWindow(l, p)._log_cdf(k_star), reference_log_cdf_at(l, p, k_star)
        assert abs(got - want) <= 1e-12 * abs(want), (l, p, k_star, got, want)

    def test_tail_within_2e_11_of_one(self):
        # log Pr[X <= 24] at l = 100, p = 0.05 is -1.8159668e-11: a sum of
        # the pmf from 0 up misses its last digits by 1.5e-6 relative
        got = BinomialWindow(100, 0.05).exact_tail(25.0).log_value
        want = reference_log_cdf_at(100, 0.05, 24)
        assert want == pytest.approx(-1.8159668e-11, rel=1e-7)
        assert abs(got - want) <= 1e-12 * abs(want)


class TestScaledTail:
    """A Y row is checked in count units: Pr[Y < c] with Y = scale * X is
    Pr[X < c / scale] (scale = Khat * t**mhat at the row's t)."""

    @given(
        l=st.integers(1, 30),
        p=st.floats(0.01, 0.99),
        scale=st.floats(0.1, 10.0),
        k=st.integers(0, 31),
    )
    def test_identity_with_unscaled_event(self, l, p, scale, k):
        # Pr[s*X < s*c] must equal Pr[X < c]; pick c just off the lattice
        # so float division cannot flip the strictness
        c = k + 0.5
        window = BinomialWindow(l, p)
        assert window.exact_tail(scale * c / scale).value == pytest.approx(window.exact_tail(c).value, rel=1e-12)

    def test_frozen_example(self):
        # Y = 6*X at the probe time; Pr[Y < 18] = Pr[X < 3]
        est = BinomialWindow(10, 0.5).exact_tail(18.0 / 6.0)
        assert est.value == pytest.approx(56.0 / 1024.0, rel=1e-14)


class TestReliabilityTail:
    @given(
        l=st.integers(1, 30),
        p=st.floats(0.01, 0.99),
        t=st.floats(0.1, 5.0),
        k=st.integers(0, 31),
    )
    def test_identity_with_count_event(self, l, p, t, k):
        # exp(-X*t) > r iff X < -ln(r)/t; with r = exp(-c*t), c off the
        # lattice, that is X < c
        c = k + 0.5
        window = BinomialWindow(l, p)
        est = window.exact_tail(-math.log(math.exp(-c * t)) / t)
        assert est.value == pytest.approx(window.exact_tail(c).value, rel=1e-12)


class TestMonteCarlo:
    def test_bit_identical_reruns(self):
        window = BinomialWindow(100, 0.05)
        assert window.mc_tails([4.0], trials=50_000, seed=42) == window.mc_tails([4.0], trials=50_000, seed=42)

    def test_seed_changes_estimate(self):
        window = BinomialWindow(100, 0.05)
        assert window.mc_tails([4.0], trials=50_000, seed=1) != window.mc_tails([4.0], trials=50_000, seed=2)

    def test_metadata(self):
        [est] = BinomialWindow(10, 0.3).mc_tails([2.0], trials=1000, seed=9)
        assert est.method is TailMethod.MONTE_CARLO
        assert est.trials == 1000
        assert est.seed == 9
        # a hit count over the trials
        assert (est.value * 1000).is_integer()

    @pytest.mark.parametrize(
        "l,p,threshold",
        [(10, 0.3, 2.0), (100, 0.05, 4.0), (50, 0.5, 20.0), (7, 0.9, 6.5)],
    )
    def test_agrees_with_exact_within_three_sigma(self, l, p, threshold):
        window = BinomialWindow(l, p)
        exact = window.exact_tail(threshold)
        [est] = window.mc_tails([threshold], trials=100_000, seed=1234)
        band = 3.0 * max(math.sqrt(est.value * (1.0 - est.value) / est.trials), 1e-4)
        assert abs(est.value - exact.value) <= band

    def test_sampler_matches_exact_at_large_l(self):
        """At l = 2e5 the sampler's tail frequency must match the exact
        tail within four standard errors."""
        l, p, threshold, trials = 200_000, 0.01, 1990.0, 100_000
        draws = sample_binomial(np.random.Generator(np.random.Philox(key=5)), l, p, trials)
        freq = (draws < threshold).mean()
        exact = BinomialWindow(l, p).exact_tail(threshold).value
        assert 0.1 < exact < 0.9
        assert abs(freq - exact) <= 4.0 * math.sqrt(exact * (1 - exact) / trials)

    def test_trials_validated(self):
        with pytest.raises(InvalidInputError):
            BinomialWindow(10, 0.5).mc_tails([2.0], trials=0, seed=1)


class TestSharedDraw:
    L, P, TRIALS, SEED = 50, 0.3, 5000, 3
    #: at or below 0, beyond l, on and off the lattice, and Y-scaled
    THRESHOLDS = [-2.0, 0.0, 0.5, 1.0, 7.0, 14.0, 14.5, 15.0, 49.0, 50.0, 50.5, 1e9,
                  15.0 / 0.37, 9.0 / 1.7, 12.0 / 0.5]

    def window(self):
        return BinomialWindow(self.L, self.P)

    def test_equals_one_draw_per_query(self):
        window = self.window()
        shared = window.mc_tails(self.THRESHOLDS, self.TRIALS, self.SEED)
        assert shared == [window.mc_tails([t], self.TRIALS, self.SEED)[0] for t in self.THRESHOLDS]
        # the hit count of one unsorted draw, compared with '<' per query
        rng = np.random.Generator(np.random.Philox(key=self.SEED))
        samples = sample_binomial(rng, self.L, self.P, self.TRIALS)
        for estimate, threshold in zip(shared, self.THRESHOLDS):
            value = int((samples < threshold).sum()) / self.TRIALS
            assert estimate == TailEstimate(
                value=value,
                method=TailMethod.MONTE_CARLO,
                trials=self.TRIALS,
                seed=self.SEED,
            )

    def test_empty_and_certain_events(self):
        estimates = self.window().mc_tails(self.THRESHOLDS, self.TRIALS, self.SEED)
        by_threshold = dict(zip(self.THRESHOLDS, estimates))
        assert by_threshold[-2.0].value == by_threshold[0.0].value == 0.0
        assert by_threshold[50.5].value == by_threshold[1e9].value == 1.0

    @pytest.mark.parametrize("trials", [0, -5, 2.0, MAX_TRIALS + 1])
    def test_trials_validated(self, trials):
        with pytest.raises(InvalidInputError):
            self.window().mc_tails(self.THRESHOLDS, trials, self.SEED)

    def test_no_queries_no_draw(self):
        assert self.window().mc_tails([], self.TRIALS, self.SEED) == []

    @pytest.mark.parametrize("block, trials", [(MC_BLOCK, MC_BLOCK + 3), (7, 3 * 7 + 4)])
    def test_blocks_count_as_one_draw(self, monkeypatch, block, trials):
        # full blocks and a partial last one give the counts of one draw of
        # all trials, sorted at once
        monkeypatch.setattr(oracle_module, "MC_BLOCK", block)
        window = self.window()
        uniforms = np.sort(np.random.Generator(np.random.Philox(key=self.SEED)).random(trials))
        cuts = [window.exact_tail(threshold).value for threshold in self.THRESHOLDS]
        hits = np.searchsorted(uniforms, cuts, side="left").tolist()
        assert window.mc_tails(self.THRESHOLDS, trials, self.SEED) == [
            TailEstimate(count / trials, TailMethod.MONTE_CARLO, trials, self.SEED) for count in hits
        ]

    def test_draw_holds_one_block(self):
        # one draw of 2**22 uniforms would hold 32 MiB; a block holds 8 MiB
        window = self.window()
        tracemalloc.start()
        try:
            window.mc_tails(self.THRESHOLDS, 4 * MC_BLOCK, self.SEED)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 8 * MC_BLOCK


class TestWindowCaps:
    """A binomial the oracle cannot compute is refused before any term is
    summed; each case is the value just past its cap."""

    def test_counts_past_2_53_refused(self):
        # p = 1 - 2**-53 puts hi at l = 2**53 + 1, with sigma about 1
        with pytest.raises(InvalidInputError, match=rf"up to {MAX_COUNT + 1}, past 2\*\*53"):
            BinomialWindow(MAX_COUNT + 1, 1.0 - 2.0**-53)

    def test_huge_l_refused_not_allocated(self):
        # mean 5e29: counts past 2**53, and sigma past the term cap
        with pytest.raises(InvalidInputError, match=r"past 2\*\*53"):
            BinomialWindow(10**30, 0.5)

    def test_window_past_the_cap_refused(self):
        # sigma = 124998.99: a tail may sum up to 40 sigma + 40 = 5e6 terms
        with pytest.raises(InvalidInputError, match=f"may sum up to 5000000 terms in one tail, over {MAX_TERMS}"):
            BinomialWindow(62_498_987_500, 0.5)

    def test_non_finite_log_pmf_refused(self):
        # mean 1e5 and sigma 316, within both caps, but 2*pi*k*(l - k)
        # overflows: the term at the mode would be infinite, and no warning
        # may come first
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInputError, match=r"Binomial\(l=10{305}, p=1e-300\) has a log-pmf that overflows"):
                BinomialWindow(10**305, 1e-300)
            # the term at the mode 250 is finite, but it overflows from k =
            # 287 on, within the 40 sigma + 40 above the mean that tails need
            with pytest.raises(InvalidInputError, match=r"overflows a float at count 923"):
                BinomialWindow(10**305, 2.5e-303)
            # a subnormal mean l*p: k / (l*p) overflows from k = 1 on
            with pytest.raises(InvalidInputError, match=r"overflows a float at count 40"):
                BinomialWindow(1000, 1e-315)

    def test_l_1e20_matches_the_poisson_limit(self):
        lo, hi = span(10**20, 1e-17)
        for k in range(lo, hi + 1):
            poisson = k * math.log(1000.0) - 1000.0 - math.lgamma(k + 1)
            assert close_in_log(_log_pmf(10**20, 1e-17, k), poisson), k

    def test_l_past_the_square_range_warns_of_nothing(self):
        # l * l overflows in stirlerr at l = 1e200, where its series term
        # vanishes anyway: the tail matches Poisson(1e5), and nothing warns
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tail = BinomialWindow(10**200, 1e-195).exact_tail(99_000.0)
        assert tail.value == pytest.approx(7.6579955751080204627e-4, rel=1e-14)


class TestEntryPointArguments:
    """``BinomialWindow`` and ``mc_tails``
    refuse what float arithmetic would fail on, under the rules of
    ``SdpOutcome`` and ``ScenarioConfig``; each case is the value just past
    its rule."""

    @pytest.mark.parametrize("l", [int(sys.float_info.max) + 1, 10**400])
    @pytest.mark.parametrize("p", [0.5, 1e-300])
    def test_l_past_the_float_range(self, l, p):
        with pytest.raises(InvalidInputError, match="l must be an integer in"):
            BinomialWindow(l, p)

    def test_fraction_p_refused(self):
        # a Fraction would carry every ratio of the tail's sum as a rational
        with pytest.raises(InvalidInputError, match=r"p must be a number, got Fraction\(3, 20\)"):
            BinomialWindow(100, Fraction(3, 20))
        assert BinomialWindow(100, float(Fraction(3, 20))).p == 0.15

    @pytest.mark.parametrize(
        "threshold, message",
        [
            ("3", "threshold must be a number, got '3'"),
            (True, "threshold must be a number, got True"),
            (None, "threshold must be a number, got None"),
            (2**1024, f"threshold must be a finite number, got {2**1024}"),
        ],
        ids=["string", "bool", "None", "2**1024"],
    )
    def test_threshold_that_is_not_a_finite_number_is_a_parse_error(self, threshold, message):
        window = BinomialWindow(10, 0.5)
        for query in (window.exact_tail, lambda threshold: window.mc_tails([threshold], 100, 1)):
            with pytest.raises(ParseError) as info:
                query(threshold)
            assert str(info.value) == message

    def test_integer_threshold_is_a_threshold(self):
        window = BinomialWindow(10, 0.5)
        assert window.exact_tail(3) == window.exact_tail(3.0)
        assert window.mc_tails([3], 100, 1) == window.mc_tails([3.0], 100, 1)

    def test_bool_trials_refused(self):
        with pytest.raises(InvalidInputError, match="trials must be an integer, got True"):
            BinomialWindow(10, 0.5).mc_tails([2.0], True, 1)

    @pytest.mark.parametrize("seed", [-1, 2**128, 1.5, True])
    def test_seed_outside_the_philox_key_range(self, seed):
        with pytest.raises(InvalidInputError, match="seed must"):
            BinomialWindow(10, 0.5).mc_tails([2.0], 10, seed)

    @pytest.mark.parametrize("seed", [0, 2**128 - 1])
    def test_seed_at_the_key_range_edges(self, seed):
        [estimate] = BinomialWindow(10, 0.5).mc_tails([2.0], 10, seed)
        assert estimate.seed == seed


class TestWindowEdges:
    """A binomial whose span mean +- (40 sigma + 40) starts above 0: hit
    counts at the span's edges and beyond them, and exact tails summed once
    per k*."""

    L, P, TRIALS, SEED = 200_000, 0.01, 20_000, 8

    def window(self):
        return BinomialWindow(self.L, self.P)

    def thresholds(self):
        """The mean, and k* = lo-1, lo, lo+1, hi-1, hi, hi+1, l-1, >= l and
        < 0, each on (k* + 1) and off (k* + 0.5) the lattice."""
        lo, hi = span(self.L, self.P)
        k_stars = [lo - 1, lo, lo + 1, hi - 1, hi, hi + 1, self.L - 1, self.L, self.L + 5, -1]
        return [-3.0, 0.0, self.L * self.P] + [k + offset for k in k_stars for offset in (1.0, 0.5)]

    def test_window_starts_above_zero(self):
        lo, hi = span(self.L, self.P)
        assert 0 < lo and hi < self.L
        # the span holds all but exp(-55) of the mass
        window = self.window()
        assert window.exact_tail(lo).log_value < -55.0
        # log Pr[X <= hi] = log1p(-Pr[X > hi]), which is about -Pr[X > hi]
        assert -math.exp(-55.0) < window.exact_tail(hi + 1.0).log_value < 0.0

    def test_hit_counts_match_the_reference_sampler(self):
        window = self.window()
        thresholds = self.thresholds()
        rng = np.random.Generator(np.random.Philox(key=self.SEED))
        samples = sample_binomial(rng, self.L, self.P, self.TRIALS)
        estimates = window.mc_tails(thresholds, self.TRIALS, self.SEED)
        for estimate, threshold in zip(estimates, thresholds):
            assert estimate.value == int((samples < threshold).sum()) / self.TRIALS, threshold
        by_threshold = dict(zip(thresholds, estimates))
        lo, hi = span(self.L, self.P)
        assert by_threshold[lo + 0.5].value == 0.0  # k* = lo - 1
        assert by_threshold[hi + 1.0].value == 1.0  # k* = hi
        assert 0.0 < by_threshold[self.L * self.P].value < 1.0

    def test_same_k_star_sums_once(self, monkeypatch):
        calls = []
        log_cdf = BinomialWindow._log_cdf

        def counting_log_cdf(window, k_star):
            calls.append(k_star)
            return log_cdf(window, k_star)

        monkeypatch.setattr(BinomialWindow, "_log_cdf", counting_log_cdf)
        window = self.window()
        # both are Pr[X <= 1990]
        first, second = window.exact_tail(1990.5), window.exact_tail(1991.0)
        assert calls == [1990]
        assert first == second and first is not second
        assert BinomialWindow(self.L, self.P).exact_tail(1990.25) == first
        assert calls == [1990, 1990]
        # the MC cut of a k* is the same remembered tail
        [estimate] = window.mc_tails([1990.75], self.TRIALS, self.SEED)
        assert calls == [1990, 1990]
        uniforms = np.random.Generator(np.random.Philox(key=self.SEED)).random(self.TRIALS)
        assert estimate.value == int((uniforms < first.value).sum()) / self.TRIALS


class TestVerifyBound:
    @pytest.mark.parametrize("oracle", [0.1, None, {"value": 0.1, "method": "exact"}])
    def test_oracle_that_is_not_a_tail_estimate_rejected(self, oracle):
        with pytest.raises(InvalidInputError, match="verification needs a TailEstimate oracle, got"):
            verify_bound(chernoff_lower_tail(5.0, 2.0), oracle)

    def test_exact_pass(self):
        bound = chernoff_lower_tail(5.0, 2.0)
        oracle = BinomialWindow(100, 0.05).exact_tail(2.0)
        record = verify_bound(bound, oracle, event="desk")
        assert record.holds
        assert record.slack == pytest.approx(0.3694884504132441, rel=1e-10)
        assert record.method is TailMethod.EXACT
        assert record.event == "desk"

    def test_exact_fail(self):
        bound = chernoff_lower_tail(5.0, 2.0)
        fake = TailEstimate(value=0.99, method=TailMethod.EXACT)
        record = verify_bound(bound, fake)
        assert not record.holds
        assert record.slack < 0
        assert record.ratio > 1.0

    def test_mc_pass_with_seed_echo(self):
        bound = chernoff_lower_tail(5.0, 2.0)
        [oracle] = BinomialWindow(100, 0.05).mc_tails([2.0], trials=100_000, seed=77)
        record = verify_bound(bound, oracle)
        assert record.holds
        assert record.seed == 77
        assert not record.advisory

    def test_mc_advisory_band(self):
        # point estimate above the bound but Wilson's lower limit below it:
        # passes with the advisory flag raised
        bound = chernoff_lower_tail(5.0, 2.0)
        oracle = TailEstimate(value=bound.bound + 1e-4, method=TailMethod.MONTE_CARLO, trials=100, seed=1)
        record = verify_bound(bound, oracle)
        assert record.holds
        assert record.advisory

    def test_mc_hard_fail(self):
        bound = chernoff_lower_tail(5.0, 2.0)
        oracle = TailEstimate(value=0.99, method=TailMethod.MONTE_CARLO, trials=100, seed=1)
        record = verify_bound(bound, oracle)
        assert not record.holds

    def test_underflowed_bound_decided_in_log_space(self):
        # mu = 2000, threshold = 100: log bound -902.5, log tail about -1615.7;
        # both print as 0.0, the verdict still holds
        bound = chernoff_lower_tail(2000.0, 100.0)
        window = BinomialWindow(200_000, 0.01)
        assert bound.bound == 0.0
        exact = verify_bound(bound, window.exact_tail(100.0))
        assert exact.holds
        assert exact.ratio == pytest.approx(math.exp(window.exact_tail(100.0).log_value + 902.5), rel=1e-9)
        assert 0.0 < exact.ratio < 1e-300
        mc = verify_bound(bound, window.mc_tails([100.0], trials=20, seed=1)[0])
        assert mc.holds and not mc.advisory and mc.ratio == 0.0

    def test_underflowed_bound_still_fails_a_larger_oracle(self):
        bound = chernoff_lower_tail(2000.0, 100.0)
        record = verify_bound(bound, TailEstimate(value=1e-300, method=TailMethod.EXACT))
        assert not record.holds
        assert record.ratio == pytest.approx(math.exp(math.log(1e-300) + 902.5), rel=1e-9)
        # a ratio past the float range reads inf
        assert verify_bound(bound, TailEstimate(value=0.5, method=TailMethod.EXACT)).ratio == math.inf

    def test_underflowed_oracle_takes_ratio_from_logs(self):
        # l = 1e5, p = 0.05, constant lambda = 2500 at t = 1: the bound is
        # 3.68e-272 (log -625), the exact tail underflows to 0.0
        bound = chernoff_lower_tail(5000.0, 2500.0)
        exact = BinomialWindow(100_000, 0.05).exact_tail(2500.0)
        assert bound.bound > 0.0 and exact.value == 0.0 and math.isfinite(exact.log_value)
        record = verify_bound(bound, exact)
        assert record.holds
        assert record.ratio == pytest.approx(math.exp(exact.log_value - bound.log_bound), rel=1e-9)
        assert 0.0 < record.ratio < 1e-70

    def test_report_writes_an_overflowed_ratio_as_null(self):
        bound = chernoff_lower_tail(2000.0, 100.0)
        record = verify_bound(bound, TailEstimate(value=0.5, method=TailMethod.EXACT))
        assert record.ratio == math.inf
        report = FeasibilityReport(scenario={}, rows=[], verification=[record], epsilon=0.05, timestamp="")

        def reject(constant):
            raise ValueError(f"not valid JSON: {constant}")

        payload = json.loads(report.to_json(), parse_constant=reject)
        assert payload["verification"][0]["ratio"] is None

    def test_rejects_non_bound(self):
        oracle = BinomialWindow(10, 0.3).exact_tail(2.0)
        with pytest.raises(InvalidInputError):
            verify_bound("not-a-bound", oracle)

    def test_record_serialises(self):
        bound = chernoff_lower_tail(5.0, 2.0)
        oracle = BinomialWindow(100, 0.05).exact_tail(2.0)
        payload = verify_bound(bound, oracle, event="desk").to_dict()
        assert payload["holds"] is True
        assert payload["method"] == "exact"
        assert "seed" not in payload
