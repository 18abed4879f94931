import math
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_formulas as ref
from conftest import bound_at
from sdpfeas import (
    BoundKind,
    HazardFamily,
    HazardModel,
    InvalidInputError,
    ParseError,
    SdpOutcome,
    bound_sweep,
    outcome_from_descriptor,
)
from sdpfeas.hazards import FAMILIES


def injected(l, p, K_hat, m_hat):
    return SdpOutcome(l=l, p=p, injection=HazardModel(HazardFamily.WEIBULL, K=K_hat, m=m_hat))


#: the manual-testing model of every row below; a row's mean does not depend on it
UNIT = HazardModel(HazardFamily.WEIBULL, K=1.0, m=0.0)


def hazard_mu(outcome, t):
    """The mean of the outcome's hazard form at t, the mu of its sweep row."""
    return bound_sweep(outcome, UNIT, [t], BoundKind.HAZARD)[0].mu


def reliability_mu(outcome, t, corrected=True):
    """The mean of the outcome's reliability form at t, the mu of its sweep row."""
    return bound_sweep(outcome, UNIT, [t], BoundKind.RELIABILITY, corrected)[0].mu


class TestExpectedHazard:
    def test_x_is_lp(self):
        assert hazard_mu(SdpOutcome(l=100, p=0.05), 1.0) == pytest.approx(5.0)
        assert hazard_mu(SdpOutcome(l=1, p=0.5), 7.0) == 0.5
        assert hazard_mu(SdpOutcome(l=20, p=0.15), 0.1) == pytest.approx(3.0)

    def test_y_unit_injection_reduces_to_lp(self):
        assert hazard_mu(injected(100, 0.05, 1.0, 0.0), 9.0) == pytest.approx(5.0)

    def test_y_scales_by_power_law(self):
        assert hazard_mu(injected(10, 0.5, 2.0, 1.0), 3.0) == pytest.approx(30.0)

    def test_y_negative_exponent(self):
        # 10 * 0.5 * 2 * 4**-0.5 = 5, by direct power evaluation
        assert hazard_mu(injected(10, 0.5, 2.0, -0.5), 4.0) == pytest.approx(5.0, rel=1e-12)

    def test_y_singular_time(self):
        # the injected hazard is singular at 0, and a bound's time grid is > 0
        outcome = injected(10, 0.5, 2.0, -0.5)
        with pytest.raises(InvalidInputError, match="^time grid values must be > 0$"):
            bound_at(outcome, UNIT, 0.0)

    @given(
        l=st.integers(1, 5000),
        p=st.floats(0.001, 0.999),
        t=st.floats(0.01, 100.0),
    )
    def test_reduction_identity(self, l, p, t):
        plain = hazard_mu(SdpOutcome(l=l, p=p), t)
        unit = hazard_mu(injected(l, p, 1.0, 0.0), t)
        assert unit == pytest.approx(plain, rel=1e-12)


class TestExpectedReliabilityBound:
    def test_frozen_value(self):
        # exponent 5*(e^-1 - 1) = -3.1606027941427883, checked independently
        value = reliability_mu(SdpOutcome(l=100, p=0.05), 1.0)
        assert value == pytest.approx(math.exp(-3.1606027941427883), rel=1e-12)
        assert value == pytest.approx(0.042400174798661226, rel=1e-12)

    def test_small_time_limit(self):
        value = reliability_mu(SdpOutcome(l=100, p=0.05), 1e-12)
        assert value == pytest.approx(1.0, abs=1e-9)

    def test_large_time_limit(self):
        value = reliability_mu(SdpOutcome(l=100, p=0.05), 1e6)
        assert value == pytest.approx(math.exp(-5.0), rel=1e-9)

    def test_nonpositive_time_rejected(self):
        with pytest.raises(InvalidInputError, match="^time grid values must be > 0$"):
            bound_at(SdpOutcome(l=100, p=0.05), UNIT, 0.0, BoundKind.RELIABILITY)

    @given(
        l=st.integers(1, 2000),
        p=st.floats(0.001, 0.999),
        t1=st.floats(0.01, 20.0),
        t2=st.floats(0.01, 20.0),
    )
    def test_decreasing_in_time(self, l, p, t1, t2):
        lo, hi = sorted((t1, t2))
        o = SdpOutcome(l=l, p=p)
        assert reliability_mu(o, hi) <= reliability_mu(o, lo)

    def test_strictly_decreasing_at_resolvable_separation(self):
        o = SdpOutcome(l=100, p=0.05)
        values = [reliability_mu(o, t) for t in (0.5, 1.0, 2.0, 4.0)]
        assert all(b < a for a, b in zip(values, values[1:]))

    @given(l=st.integers(1, 2000), p=st.floats(0.001, 0.999), t=st.floats(0.01, 20.0))
    def test_exact_product_sits_below_bound(self, l, p, t):
        # compare logs so the deep tail, where both values underflow to
        # 0.0, still discriminates
        log_exact = l * math.log1p(p * math.expm1(-t))
        log_bound = l * p * math.expm1(-t)
        assert log_exact <= log_bound

    def test_exact_product_strictly_below_bound_at_desk_point(self):
        o = SdpOutcome(l=100, p=0.05)
        assert ref.exact_expected_reliability_x(o.l, o.p, 1.0) < reliability_mu(o, 1.0)

    def test_y_unit_injection_matches_x(self):
        o_y = injected(10, 0.5, 1.0, 0.0)
        o_x = SdpOutcome(l=10, p=0.5)
        for t in (0.1, 1.0, 3.0):
            assert reliability_mu(o_y, t, corrected=True) == pytest.approx(
                reliability_mu(o_x, t), rel=1e-12
            )

    def test_published_sign_mode_exceeds_one(self):
        # the as-published inner exponent is positive, so the "expected
        # reliability" blows past 1: exp(5*(e - 1)) ~ 5385.2
        value = reliability_mu(injected(10, 0.5, 1.0, 0.0), 1.0, corrected=False)
        assert value == pytest.approx(math.exp(5.0 * (math.e - 1.0)), rel=1e-12)
        assert value > 1.0

    def test_corrected_sign_mode_is_probability(self):
        value = reliability_mu(injected(10, 0.5, 1.0, 0.0), 1.0, corrected=True)
        assert value == pytest.approx(math.exp(5.0 * (math.exp(-1.0) - 1.0)), rel=1e-12)
        assert 0.0 < value < 1.0


class TestEmpirical:
    def test_sample_mean_near_lp(self):
        l, p, trials = 100, 0.05, 200_000
        rng = np.random.Generator(np.random.Philox(key=7))
        samples = ref.sample_binomial(rng, l, p, trials)
        tolerance = 4.0 * math.sqrt(l * p * (1 - p) / trials)
        assert abs(samples.mean() - l * p) <= tolerance

    def test_empirical_reliability_below_bound(self):
        l, p, t, trials = 100, 0.05, 1.0, 200_000
        o = SdpOutcome(l=l, p=p)
        rng = np.random.Generator(np.random.Philox(key=11))
        samples = ref.sample_binomial(rng, l, p, trials)
        values = np.exp(-samples * t)
        stderr = values.std(ddof=1) / math.sqrt(trials)
        assert values.mean() <= reliability_mu(o, t) + 3.0 * stderr


class TestDescriptor:
    def test_inline_p(self):
        o = outcome_from_descriptor({"l": 100, "p": 0.05})
        assert (o.l, o.p) == (100, 0.05)

    def test_p_from_confusion(self):
        o = outcome_from_descriptor({"l": 20, "confusion": {"tp": 5, "fn": 3, "fp": 2, "tn": 17}})
        assert o.p == pytest.approx(0.15)

    def test_injection_block(self):
        o = outcome_from_descriptor(
            {"l": 10, "p": 0.5, "injection": {"K_hat": 2.0, "m_hat": 1.0}, "n": 25}
        )
        # n is checked, then dropped: the math uses just l and p
        assert o == SdpOutcome(l=10, p=0.5, injection=HazardModel(HazardFamily.WEIBULL, K=2.0, m=1.0))

    def test_p_and_confusion_together_rejected(self):
        with pytest.raises(ParseError):
            outcome_from_descriptor({"l": 10, "p": 0.5, "confusion": {"tp": 0, "fn": 1, "fp": 0, "tn": 1}})

    def test_unknown_field_rejected(self):
        with pytest.raises(ParseError):
            outcome_from_descriptor({"l": 10, "p": 0.5, "extra": 1})

    def test_l_below_one_rejected(self):
        with pytest.raises(InvalidInputError):
            outcome_from_descriptor({"l": 0, "p": 0.5})

    def test_boundary_p_rejected(self):
        with pytest.raises(InvalidInputError):
            outcome_from_descriptor({"l": 10, "p": 1.0})

    @pytest.mark.parametrize(
        "injection, message",
        [
            ({"K_hat": -1.0, "m_hat": 0.0}, "injection (K_hat, m_hat): weibull hazard requires K > 0, got -1.0"),
            ({"K_hat": 0.0, "m_hat": 0.0}, "injection (K_hat, m_hat): weibull hazard requires K > 0, got 0.0"),
            ({"K_hat": 1.0, "m_hat": -1.0}, "injection (K_hat, m_hat): weibull hazard requires m > -1, got -1.0"),
        ],
    )
    def test_injection_out_of_range_names_the_injection(self, injection, message):
        with pytest.raises(InvalidInputError) as info:
            outcome_from_descriptor({"l": 10, "p": 0.5, "injection": injection})
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "payload, error, message",
        [
            ({"l": 10, "p": "x"}, ParseError, "failure probability must be a number, got 'x'"),
            (
                {"l": 10, "p": 0.5, "injection": {"K_hat": "x", "m_hat": 1.0}},
                ParseError,
                "injection (K_hat, m_hat): weibull K must be a number, got 'x'",
            ),
            (
                {"l": 10, "p": 0.5, "injection": {"K_hat": 1.0, "m_hat": math.inf}},
                ParseError,
                "injection (K_hat, m_hat): weibull m must be a finite number, got inf",
            ),
            (
                {"l": 10, "p": 0.5, "injection": {"K_hat": 0.0, "m_hat": 1.0}},
                InvalidInputError,
                "injection (K_hat, m_hat): weibull hazard requires K > 0, got 0.0",
            ),
        ],
    )
    def test_each_value_is_read_by_the_object_that_stores_it(self, payload, error, message):
        # the injection's prefix keeps the class of the error it names
        with pytest.raises(InvalidInputError) as info:
            outcome_from_descriptor(payload)
        assert (type(info.value), str(info.value)) == (error, message)


class TestOutcomeFields:
    def test_p_is_the_float_given(self):
        outcome = SdpOutcome(l=20, p=0.15)
        assert type(outcome.p) is float and outcome.p == 0.15

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.5])
    def test_p_outside_the_open_unit_interval_rejected(self, p):
        with pytest.raises(InvalidInputError, match="failure probability must lie strictly in"):
            SdpOutcome(l=10, p=p)

    def test_non_weibull_injection_rejected(self):
        with pytest.raises(InvalidInputError, match="injection must be a weibull HazardModel"):
            SdpOutcome(l=10, p=0.5, injection=HazardModel(HazardFamily.LINEAR_INCREASING, K=1.0))

    def test_injection_that_is_not_a_model_rejected(self):
        # a look-alike with a weibull family is not a HazardModel
        look_alike = types.SimpleNamespace(family=HazardFamily.WEIBULL, K=1.0, m=0.5)
        with pytest.raises(InvalidInputError, match="injection must be a weibull HazardModel"):
            SdpOutcome(l=10, p=0.5, injection=look_alike)

    def test_injection_reads_the_weibull_hazard(self):
        injection = HazardModel(HazardFamily.WEIBULL, K=2.0, m=1.5)
        outcome = SdpOutcome(l=10, p=0.5, injection=injection)
        for t in (0.3, 1.0, 4.0):
            assert hazard_mu(outcome, t) == 5.0 * FAMILIES[HazardFamily.WEIBULL].z(injection, t)
