import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdpfeas import (
    DomainError,
    HazardFamily,
    HazardModel,
    InvalidInputError,
    ParseError,
    cumulative_hazard,
    hazard_at,
    model_from_descriptor,
    reliability_at,
    reliability_tail_threshold,
)
from conftest import quadrature_cumulative_hazard

WEIBULL = HazardFamily.WEIBULL
NLD = HazardFamily.NONLINEAR_DECREASING
LD = HazardFamily.LINEAR_DECREASING
NLI = HazardFamily.NONLINEAR_INCREASING
LI = HazardFamily.LINEAR_INCREASING
CONST = HazardFamily.CONSTANT


def all_family_models():
    return [
        HazardModel(WEIBULL, K=2.0, m=0.5),
        HazardModel(WEIBULL, K=1.5, m=-0.5),
        HazardModel(NLD, K=1.2),
        HazardModel(LD, K=3.0, m=0.5),
        HazardModel(NLI, K=0.7),
        HazardModel(LI, K=1.1),
        HazardModel(CONST, lam=0.8),
    ]


class TestConstruction:
    def test_weibull_requires_m_above_minus_one(self):
        with pytest.raises(InvalidInputError):
            HazardModel(WEIBULL, K=1.0, m=-1.0)

    def test_positive_scale_required(self):
        with pytest.raises(InvalidInputError):
            HazardModel(LI, K=0.0)

    def test_constant_requires_positive_rate(self):
        with pytest.raises(InvalidInputError):
            HazardModel(CONST, lam=0.0)

    def test_ld_requires_positive_slope(self):
        with pytest.raises(InvalidInputError):
            HazardModel(LD, K=1.0, m=0.0)

    def test_fields_are_stored_as_read(self):
        # the family given by its value becomes the member, an integer
        # parameter a float, so a bound on the model prints as on a descriptor's
        model = HazardModel("li", K=1)
        assert model.family is LI and type(model.K) is float
        assert model == model_from_descriptor({"family": "li", "K": 1})

    @pytest.mark.parametrize(
        "kwargs, unused",
        [
            ({"family": WEIBULL, "K": 1.0, "m": 1.0, "lam": "junk"}, "weibull hazard does not take lambda='junk'"),
            ({"family": "li", "K": 1.0, "m": 2.0}, "li hazard does not take m=2.0"),
            ({"family": CONST, "K": 1.0, "m": 2.0, "lam": 0.5}, "constant hazard does not take K=1.0, m=2.0"),
        ],
    )
    def test_parameter_the_family_does_not_take_rejected(self, kwargs, unused):
        # the descriptor path refuses such a field as extraneous
        with pytest.raises(InvalidInputError) as info:
            HazardModel(**kwargs)
        assert str(info.value) == unused


class TestHazardAt:
    def test_weibull_m_zero_is_constant(self):
        assert hazard_at(HazardModel(WEIBULL, K=2.0, m=0.0), 7.0) == 2.0

    def test_linear_increasing(self):
        assert hazard_at(HazardModel(LI, K=3.0), 2.0) == 6.0

    def test_ld_beyond_domain(self):
        with pytest.raises(DomainError):
            hazard_at(HazardModel(LD, K=1.0, m=2.0), 0.75)

    def test_nld_singular_at_zero(self):
        with pytest.raises(DomainError):
            hazard_at(HazardModel(NLD, K=1.0), 0.0)

    def test_weibull_negative_m_singular_at_zero(self):
        with pytest.raises(DomainError):
            hazard_at(HazardModel(WEIBULL, K=1.0, m=-0.5), 0.0)

    def test_negative_time_rejected(self):
        with pytest.raises(DomainError):
            hazard_at(HazardModel(CONST, lam=1.0), -1.0)

    @pytest.mark.parametrize(
        "t, message",
        [
            ("1", "time must be a number, got '1'"),
            (True, "time must be a number, got True"),
            (None, "time must be a number, got None"),
            (2**1024, f"time must be a finite number, got {2**1024}"),
        ],
        ids=["string", "bool", "None", "2**1024"],
    )
    def test_time_that_is_not_a_finite_number_is_a_parse_error(self, t, message):
        model = HazardModel(LI, K=3.0)
        for evaluate in (hazard_at, cumulative_hazard, reliability_at, reliability_tail_threshold):
            with pytest.raises(ParseError) as info:
                evaluate(model, t)
            assert str(info.value) == message

    def test_integer_time_is_a_time(self):
        model = HazardModel(LI, K=3.0)
        assert hazard_at(model, 2) == hazard_at(model, 2.0) == 6.0


class TestCumulativeHazard:
    def test_weibull_linear(self):
        assert cumulative_hazard(HazardModel(WEIBULL, K=1.0, m=1.0), 2.0) == pytest.approx(2.0)

    def test_nld(self):
        assert cumulative_hazard(HazardModel(NLD, K=1.0), 4.0) == pytest.approx(4.0)

    @pytest.mark.parametrize("model", all_family_models())
    def test_zero_at_origin(self, model):
        assert cumulative_hazard(model, 0.0) == 0.0

    def test_singular_hazard_still_integrates_from_zero(self):
        # hazard blows up at 0 but the integral converges
        model = HazardModel(WEIBULL, K=1.0, m=-0.5)
        assert cumulative_hazard(model, 1.0) == pytest.approx(2.0)


class TestReliability:
    @pytest.mark.parametrize("model", all_family_models())
    def test_one_at_origin(self, model):
        assert reliability_at(model, 0.0) == 1.0

    def test_constant_exponential_survival(self):
        assert reliability_at(HazardModel(CONST, lam=1.0), 2.0) == pytest.approx(math.exp(-2.0))

    def test_weibull_quadratic_frozen_value(self):
        # oracle: quadrature of 3*x^2 over [0,1] is exactly 1
        model = HazardModel(WEIBULL, K=3.0, m=2.0)
        assert quadrature_cumulative_hazard(model, 1.0) == pytest.approx(1.0, abs=1e-10)
        assert reliability_at(model, 1.0) == pytest.approx(math.exp(-1.0), rel=1e-12)

    @pytest.mark.parametrize("model", all_family_models())
    def test_against_quadrature_oracle(self, model):
        top = min(model.max_time, 8.0)
        for i in range(1, 21):
            t = top * i / 20.0
            expected = math.exp(-quadrature_cumulative_hazard(model, t))
            assert abs(reliability_at(model, t) - expected) <= 1e-8

    @pytest.mark.parametrize("model", all_family_models())
    @settings(max_examples=50)
    @given(data=st.data())
    def test_non_increasing_in_time(self, model, data):
        top = min(model.max_time, 50.0)
        t1 = data.draw(st.floats(0.0, top, allow_nan=False))
        t2 = data.draw(st.floats(t1, top, allow_nan=False))
        assert reliability_at(model, t2) <= reliability_at(model, t1) + 1e-15


class TestTailThreshold:
    def test_constant(self):
        assert reliability_tail_threshold(HazardModel(CONST, lam=0.7), 5.0) == 0.7

    def test_weibull(self):
        assert reliability_tail_threshold(HazardModel(WEIBULL, K=2.0, m=1.0), 3.0) == pytest.approx(3.0)

    def test_nli_cross_checked_against_quadrature(self):
        model = HazardModel(NLI, K=3.0)
        assert quadrature_cumulative_hazard(model, 2.0) == pytest.approx(8.0, abs=1e-9)
        assert reliability_tail_threshold(model, 2.0) == pytest.approx(4.0, rel=1e-12)

    def test_zero_time_rejected(self):
        with pytest.raises(DomainError):
            reliability_tail_threshold(HazardModel(CONST, lam=1.0), 0.0)

    @pytest.mark.parametrize("model", all_family_models())
    def test_identity_with_cumulative_hazard(self, model):
        top = min(model.max_time, 9.0)
        for i in range(1, 16):
            t = top * i / 16.0
            lhs = reliability_tail_threshold(model, t) * t
            rhs = cumulative_hazard(model, t)
            assert lhs == pytest.approx(rhs, rel=1e-12)


class TestPowerLawCorrespondence:
    """nli(K) and li(K) are the m=2 and m=1 power laws; they must agree with
    the general family to 1e-12 relative on every observable."""

    @pytest.mark.parametrize(
        "special,general",
        [
            (HazardModel(NLI, K=1.7), HazardModel(WEIBULL, K=1.7, m=2.0)),
            (HazardModel(LI, K=0.9), HazardModel(WEIBULL, K=0.9, m=1.0)),
            (HazardModel(NLD, K=1.3), HazardModel(WEIBULL, K=1.3, m=-0.5)),
        ],
    )
    def test_pointwise_agreement(self, special, general):
        for i in range(1, 30):
            t = 0.25 * i
            assert hazard_at(special, t) == pytest.approx(hazard_at(general, t), rel=1e-12)
            assert cumulative_hazard(special, t) == pytest.approx(cumulative_hazard(general, t), rel=1e-12)
            assert reliability_at(special, t) == pytest.approx(reliability_at(general, t), rel=1e-12)


class TestDescriptor:
    def test_round_trip(self):
        model = model_from_descriptor({"family": "weibull", "K": 2.0, "m": 0.5})
        assert model == HazardModel(WEIBULL, K=2.0, m=0.5)

    def test_constant_uses_lambda_key(self):
        model = model_from_descriptor({"family": "constant", "lambda": 0.3})
        assert model.lam == 0.3

    def test_extra_field_rejected(self):
        with pytest.raises(ParseError):
            model_from_descriptor({"family": "li", "K": 1.0, "m": 2.0})

    def test_missing_field_rejected(self):
        with pytest.raises(ParseError):
            model_from_descriptor({"family": "weibull", "K": 1.0})

    def test_unknown_family_rejected(self):
        with pytest.raises(ParseError):
            model_from_descriptor({"family": "bathtub", "K": 1.0})
