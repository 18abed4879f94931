import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdpfeas import (
    HazardFamily,
    HazardModel,
    InvalidInputError,
    ParseError,
    SdpOutcome,
    model_from_descriptor,
)
from sdpfeas.hazards import FAMILIES
from conftest import bound_at, quadrature_cumulative_hazard

WEIBULL = HazardFamily.WEIBULL
NLD = HazardFamily.NONLINEAR_DECREASING
LD = HazardFamily.LINEAR_DECREASING
NLI = HazardFamily.NONLINEAR_INCREASING
LI = HazardFamily.LINEAR_INCREASING
CONST = HazardFamily.CONSTANT
OUTCOME = SdpOutcome(l=100, p=0.05)


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


def z(model, t):
    """The model's ``FAMILIES`` hazard column at t."""
    return FAMILIES[model.family].z(model, t)


def H_over_t(model, t):
    """The model's ``FAMILIES`` threshold column H(t)/t at t."""
    return FAMILIES[model.family].H_over_t(model, t)


def reliability(model, t):
    """R(t) = exp(-H(t)), with H(t) read from the H/t column."""
    return math.exp(-t * H_over_t(model, t))


class TestHazard:
    def test_weibull_m_zero_is_constant(self):
        assert z(HazardModel(WEIBULL, K=2.0, m=0.0), 7.0) == 2.0

    def test_linear_increasing(self):
        assert z(HazardModel(LI, K=3.0), 2.0) == 6.0

    def test_ld_beyond_domain(self):
        # the one evaluator of the table refuses a time past ld's K/m
        with pytest.raises(InvalidInputError, match=r"^ld hazard is negative beyond t = K/m = 0.5; got t = 0.75$"):
            bound_at(OUTCOME, HazardModel(LD, K=1.0, m=2.0), 0.75)

    @pytest.mark.parametrize("model", all_family_models())
    def test_zero_time_rejected(self, model):
        # the columns check no domain (nld's z divides by sqrt(t)), so the
        # sweep refuses t = 0 before any column is read
        with pytest.raises(InvalidInputError, match=r"^time grid values must be > 0$"):
            bound_at(OUTCOME, model, 0.0)

    def test_negative_time_rejected(self):
        with pytest.raises(InvalidInputError, match=r"^time grid values must be > 0$"):
            bound_at(OUTCOME, HazardModel(CONST, lam=1.0), -1.0)

    @pytest.mark.parametrize(
        "t, message",
        [
            ("1", "time grid value must be a number, got '1'"),
            (True, "time grid value must be a number, got True"),
            (None, "time grid value must be a number, got None"),
            (2**1024, f"time grid value must be a finite number, got {2**1024}"),
        ],
        ids=["string", "bool", "None", "2**1024"],
    )
    def test_time_that_is_not_a_finite_number_is_a_parse_error(self, t, message):
        model = HazardModel(LI, K=3.0)
        for kind in ("hazard", "reliability"):
            with pytest.raises(ParseError) as info:
                bound_at(OUTCOME, model, t, kind)
            assert str(info.value) == message

    def test_integer_time_is_a_time(self):
        model = HazardModel(LI, K=3.0)
        assert bound_at(OUTCOME, model, 2) == bound_at(OUTCOME, model, 2.0)
        assert bound_at(OUTCOME, model, 2).threshold == z(model, 2.0) == 6.0


class TestCumulativeHazard:
    def test_weibull_linear(self):
        assert 2.0 * H_over_t(HazardModel(WEIBULL, K=1.0, m=1.0), 2.0) == pytest.approx(2.0)

    def test_nld(self):
        assert 4.0 * H_over_t(HazardModel(NLD, K=1.0), 4.0) == pytest.approx(4.0)

    def test_singular_hazard_still_integrates_from_zero(self):
        # hazard blows up at 0 but the integral converges
        model = HazardModel(WEIBULL, K=1.0, m=-0.5)
        assert quadrature_cumulative_hazard(model, 1.0) == pytest.approx(2.0, rel=1e-9)
        assert H_over_t(model, 1.0) == pytest.approx(2.0)

    @pytest.mark.parametrize("model", all_family_models())
    def test_zero_at_origin(self, model):
        # H(t) = t * H(t)/t vanishes as t -> 0+, for the singular families too
        assert 1e-300 * H_over_t(model, 1e-300) == pytest.approx(0.0, abs=1e-100)


class TestReliability:
    @pytest.mark.parametrize("model", all_family_models())
    def test_one_at_origin(self, model):
        assert reliability(model, 1e-300) == 1.0

    def test_constant_exponential_survival(self):
        assert reliability(HazardModel(CONST, lam=1.0), 2.0) == pytest.approx(math.exp(-2.0))

    def test_weibull_quadratic_frozen_value(self):
        # oracle: quadrature of 3*x^2 over [0,1] is exactly 1
        model = HazardModel(WEIBULL, K=3.0, m=2.0)
        assert quadrature_cumulative_hazard(model, 1.0) == pytest.approx(1.0, abs=1e-10)
        assert reliability(model, 1.0) == pytest.approx(math.exp(-1.0), rel=1e-12)

    @pytest.mark.parametrize("model", all_family_models())
    def test_against_quadrature_oracle(self, model):
        # the H/t column against the integral of the z column
        top = min(model.max_time, 8.0)
        for i in range(1, 21):
            t = top * i / 20.0
            expected = math.exp(-quadrature_cumulative_hazard(model, t))
            assert abs(reliability(model, t) - expected) <= 1e-8

    @pytest.mark.parametrize("model", all_family_models())
    @settings(max_examples=50)
    @given(data=st.data())
    def test_non_increasing_in_time(self, model, data):
        top = min(model.max_time, 50.0)
        t1 = data.draw(st.floats(0.0, top, exclude_min=True))
        t2 = data.draw(st.floats(t1, top))
        assert reliability(model, t2) <= reliability(model, t1) + 1e-15


class TestTailThreshold:
    def test_constant(self):
        assert H_over_t(HazardModel(CONST, lam=0.7), 5.0) == 0.7

    def test_weibull(self):
        assert H_over_t(HazardModel(WEIBULL, K=2.0, m=1.0), 3.0) == pytest.approx(3.0)

    def test_nli_cross_checked_against_quadrature(self):
        model = HazardModel(NLI, K=3.0)
        assert quadrature_cumulative_hazard(model, 2.0) == pytest.approx(8.0, abs=1e-9)
        assert H_over_t(model, 2.0) == pytest.approx(4.0, rel=1e-12)

    @pytest.mark.parametrize("model", all_family_models())
    def test_zero_time_rejected(self, model):
        with pytest.raises(InvalidInputError, match=r"^time grid values must be > 0$"):
            bound_at(OUTCOME, model, 0.0, "reliability")

    @pytest.mark.parametrize("kind, column", [("hazard", "z"), ("reliability", "H_over_t")])
    @pytest.mark.parametrize("model", all_family_models())
    def test_identity_with_one_point_sweep(self, model, kind, column):
        # a closed form at one t is the threshold of a one-point sweep
        top = min(model.max_time, 9.0)
        for i in range(1, 16):
            t = top * i / 16.0
            assert bound_at(OUTCOME, model, t, kind).threshold == getattr(FAMILIES[model.family], column)(model, t)


class TestPowerLawCorrespondence:
    """nli(K), li(K) and nld(K) are the m=2, m=1 and m=-1/2 power laws;
    their columns must agree with the general family's to 1e-12 relative."""

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
            assert z(special, t) == pytest.approx(z(general, t), rel=1e-12)
            assert H_over_t(special, t) == pytest.approx(H_over_t(general, t), rel=1e-12)
            assert reliability(special, t) == pytest.approx(reliability(general, t), rel=1e-12)


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
