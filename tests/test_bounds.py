import dataclasses
import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_formulas as ref
from conftest import bound_at
from sdpfeas import (
    BoundKind,
    BoundResult,
    HazardFamily,
    HazardModel,
    InvalidInputError,
    NumericOverflowError,
    ParseError,
    Regime,
    SdpFeasError,
    SdpOutcome,
    bound_sweep,
    chernoff_lower_tail,
    sweep_to_csv,
)
from sdpfeas.bounds import _form
from sdpfeas.hazards import FAMILIES
from sdpfeas.report import ScenarioConfig


def injected(l, p, K_hat, m_hat):
    return SdpOutcome(l=l, p=p, injection=HazardModel(HazardFamily.WEIBULL, K=K_hat, m=m_hat))


class TestKernel:
    def test_full_band(self):
        r = chernoff_lower_tail(10.0, 0.0)
        assert r.bound == pytest.approx(math.exp(-5.0), rel=1e-12)
        assert r.delta == 1.0
        assert r.regime is Regime.TRIVIAL

    def test_desk_values(self):
        r = chernoff_lower_tail(5.0, 2.0)
        assert r.bound == pytest.approx(math.exp(-0.9), rel=1e-12)
        assert r.delta == pytest.approx(0.6)
        assert r.regime is Regime.VALID

    def test_threshold_at_mu_rejected(self):
        # rejected as out of regime: a row with no bound
        r = chernoff_lower_tail(5.0, 5.0)
        assert r.regime is Regime.OUT_OF_REGIME and r.bound is None and r.log_bound is None

    def test_negative_threshold_rejected(self):
        r = chernoff_lower_tail(5.0, -1.0)
        assert r.regime is Regime.OUT_OF_REGIME and r.delta > 1.0

    @pytest.mark.parametrize("mu, threshold", [(5.0, 5.0), (5.0, 6.0), (5.0, -1.0), (3, 7)])
    def test_out_of_regime_row_keeps_the_diagnostics(self, mu, threshold):
        # the row carries what an out-of-regime point reports: mu, the
        # threshold and delta = 1 - threshold/mu, with no bound
        out = Regime.OUT_OF_REGIME
        expected = BoundResult("Chernoff", mu, threshold, 1.0 - threshold / mu, None, None, out, None, None)
        assert chernoff_lower_tail(mu, threshold) == expected

    def test_nonpositive_mu_rejected(self):
        with pytest.raises(InvalidInputError, match="expectation mu must be positive and finite"):
            chernoff_lower_tail(0.0, 0.0)

    @pytest.mark.parametrize("threshold", [math.inf, -math.inf, math.nan])
    def test_non_finite_threshold_rejected(self, threshold):
        with pytest.raises(InvalidInputError, match="threshold must be finite"):
            chernoff_lower_tail(5.0, threshold)

    @pytest.mark.parametrize(
        "mu, threshold, message",
        [
            (True, 0.0, "expectation mu must be a number, got True"),
            ("5", "2", "expectation mu must be a number, got '5'"),
            (5.0, False, "threshold must be a number, got False"),
        ],
    )
    def test_argument_that_is_not_a_number_is_a_parse_error(self, mu, threshold, message):
        with pytest.raises(ParseError) as info:
            chernoff_lower_tail(mu, threshold)
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "mu, threshold, message",
        [(2**1024, 1.0, "expectation mu must be positive and finite"), (5.0, -(2**1024), "threshold must be finite")],
        ids=["mu", "threshold"],
    )
    def test_integer_past_the_float_range_rejected(self, mu, threshold, message):
        with pytest.raises(InvalidInputError, match=message):
            chernoff_lower_tail(mu, threshold)

    def test_row_is_tagged_chernoff_without_time(self):
        r = chernoff_lower_tail(10.0, 2.0)
        assert (r.theorem_tag, r.t, r.sign_mode) == ("Chernoff", None, None)
        # the kernel takes (mu, threshold) alone: a row label is not an argument
        with pytest.raises(TypeError):
            chernoff_lower_tail(10.0, 2.0, "Thm1")

    def test_log_space_survives_huge_mu(self):
        r = chernoff_lower_tail(1e6, 1.0)
        assert r.bound == 0.0  # underflows only at the final exp
        assert r.log_bound == pytest.approx(-((1e6 - 1.0) ** 2) / 2e6, rel=1e-12)

    @given(mu=st.floats(0.1, 1e4), frac1=st.floats(0.01, 0.98), frac2=st.floats(0.01, 0.98))
    def test_monotone_in_threshold(self, mu, frac1, frac2):
        lo, hi = sorted((frac1, frac2))
        if hi - lo < 1e-6:
            return
        # log scale: the bounds themselves underflow to 0.0 at large mu
        assert chernoff_lower_tail(mu, lo * mu).log_bound < chernoff_lower_tail(mu, hi * mu).log_bound

    def test_limit_threshold_to_mu(self):
        r = chernoff_lower_tail(5.0, 5.0 * (1 - 1e-9))
        assert r.bound == pytest.approx(1.0, abs=1e-8)

    def test_shrinks_in_l_at_fixed_threshold(self):
        p, c = 0.05, 2.0
        bounds = [chernoff_lower_tail(l * p, c).log_bound for l in (100, 200, 400, 800)]
        assert all(b < a for a, b in zip(bounds, bounds[1:]))


# moderate parameter pools keep the printed-formula comparisons within
# float headroom while still exercising > 100 tuples per named result
LS = [5, 17, 60, 210, 800]
PS = [0.02, 0.11, 0.23, 0.37, 0.49]
TS = [0.3, 0.9, 2.1, 4.7]


def _tuples():
    for l in LS:
        for p in PS:
            for t in TS:
                yield l, p, t


class TestHazardWrappersMatchPrintedForms:
    def _assert_match(self, model, printed, l, p, t):
        engine = bound_at(SdpOutcome(l=l, p=p), model, t)
        if engine.regime is Regime.OUT_OF_REGIME:
            return False
        assert engine.bound == pytest.approx(printed, rel=1e-12)
        return True

    def test_weibull(self):
        hits = 0
        for l, p, t in _tuples():
            for K, m in ((0.4, 0.5), (1.1, -0.3), (0.05, 1.5)):
                model = HazardModel(HazardFamily.WEIBULL, K=K, m=m)
                hits += self._assert_match(model, ref.thm1_weibull_hazard(l, p, K, m, t), l, p, t)
        assert hits > 100

    def test_nld(self):
        hits = 0
        for l, p, t in _tuples():
            for K in (0.2, 0.9, 2.5):
                model = HazardModel(HazardFamily.NONLINEAR_DECREASING, K=K)
                hits += self._assert_match(model, ref.cor1_nld_hazard(l, p, K, t), l, p, t)
        assert hits > 100

    def test_ld(self):
        hits = 0
        for l, p, t in _tuples():
            for K, m in ((3.0, 0.5), (1.0, 0.2), (6.0, 1.2)):
                model = HazardModel(HazardFamily.LINEAR_DECREASING, K=K, m=m)
                if t > model.max_time:
                    continue
                hits += self._assert_match(model, ref.cor3_ld_hazard(l, p, K, m, t), l, p, t)
        assert hits > 100

    def test_nli(self):
        hits = 0
        for l, p, t in _tuples():
            for K in (0.05, 0.4, 1.5):
                model = HazardModel(HazardFamily.NONLINEAR_INCREASING, K=K)
                hits += self._assert_match(model, ref.cor5_nli_hazard(l, p, K, t), l, p, t)
        assert hits > 100

    def test_li(self):
        hits = 0
        for l, p, t in _tuples():
            for K in (0.1, 0.7, 2.0):
                model = HazardModel(HazardFamily.LINEAR_INCREASING, K=K)
                hits += self._assert_match(model, ref.cor7_li_hazard(l, p, K, t), l, p, t)
        assert hits > 100

    def test_constant(self):
        hits = 0
        for l, p, t in _tuples():
            for lam in (0.05, 0.6, 3.0):
                model = HazardModel(HazardFamily.CONSTANT, lam=lam)
                hits += self._assert_match(model, ref.cor9_constant_hazard(l, p, lam), l, p, t)
        assert hits > 100


class TestReliabilityWrappersMatchPrintedForms:
    def _assert_match(self, model, printed, l, p, t):
        engine = bound_at(SdpOutcome(l=l, p=p), model, t, BoundKind.RELIABILITY)
        if engine.regime is Regime.OUT_OF_REGIME:
            return False
        assert engine.bound == pytest.approx(printed, rel=1e-12)
        return True

    def test_weibull(self):
        hits = 0
        for l, p, t in _tuples():
            for K, m in ((0.02, 0.5), (0.1, -0.3), (0.005, 1.5)):
                model = HazardModel(HazardFamily.WEIBULL, K=K, m=m)
                hits += self._assert_match(model, ref.thm2_weibull_reliability(l, p, K, m, t), l, p, t)
        assert hits > 100

    def test_nld(self):
        hits = 0
        for l, p, t in _tuples():
            for K in (0.002, 0.02, 0.1):
                model = HazardModel(HazardFamily.NONLINEAR_DECREASING, K=K)
                hits += self._assert_match(model, ref.cor2_nld_reliability(l, p, K, t), l, p, t)
        assert hits > 100

    def test_ld(self):
        hits = 0
        for l, p, t in _tuples():
            for K, m in ((0.2, 0.04), (0.05, 0.01), (0.02, 0.004), (0.005, 0.001)):
                model = HazardModel(HazardFamily.LINEAR_DECREASING, K=K, m=m)
                if t > model.max_time:
                    continue
                hits += self._assert_match(model, ref.cor4_ld_reliability(l, p, K, m, t), l, p, t)
        assert hits > 100

    def test_nli(self):
        hits = 0
        for l, p, t in _tuples():
            for K in (0.002, 0.02, 0.08):
                model = HazardModel(HazardFamily.NONLINEAR_INCREASING, K=K)
                hits += self._assert_match(model, ref.cor6_nli_reliability(l, p, K, t), l, p, t)
        assert hits > 100

    def test_li(self):
        hits = 0
        for l, p, t in _tuples():
            for K in (0.005, 0.05, 0.2):
                model = HazardModel(HazardFamily.LINEAR_INCREASING, K=K)
                hits += self._assert_match(model, ref.cor8_li_reliability(l, p, K, t), l, p, t)
        assert hits > 100

    def test_constant(self):
        hits = 0
        for l, p, t in _tuples():
            for lam in (0.005, 0.05, 0.3):
                model = HazardModel(HazardFamily.CONSTANT, lam=lam)
                hits += self._assert_match(model, ref.cor10_constant_reliability(l, p, lam, t), l, p, t)
        assert hits > 100


class TestInjectedVariant:
    @pytest.mark.parametrize("t", [3.0, 8.0])
    def test_as_published_overflow_is_labelled(self, t):
        # the mean itself passes the float range
        o = injected(50, 0.1, 1.0, 0.5)
        model = HazardModel(HazardFamily.WEIBULL, K=2.0, m=0.5)
        with pytest.raises(NumericOverflowError, match=rf"Thm4 \(as-published\) .* t = {t!r}") as info:
            bound_at(o, model, t, BoundKind.RELIABILITY, corrected=False)
        assert isinstance(info.value, OverflowError) and isinstance(info.value, SdpFeasError)

    @pytest.mark.parametrize("t", [2.64, 2.65])
    def test_finite_mean_past_the_square_range_is_a_row(self, t):
        # the mean is finite (1.6e156 at 2.64) but (mu - threshold)**2 is not;
        # the log bound, about -mu/2, is
        o = injected(50, 0.1, 1.0, 0.5)
        model = HazardModel(HazardFamily.WEIBULL, K=2.0, m=0.5)
        r = bound_at(o, model, t, BoundKind.RELIABILITY, corrected=False)
        assert r.mu > 1e156 and r.bound == 0.0 and r.regime is Regime.VALID
        d = r.mu - r.threshold
        assert r.log_bound == pytest.approx(-0.5 * d * (d / r.mu), rel=1e-15)
        assert math.isfinite(r.log_bound)

    def test_as_published_overflow_names_first_grid_point(self):
        # up to 2.65 every mean is finite and makes a row; from 3.0 on the
        # mean overflows, and the first such point is the one named
        o = injected(50, 0.1, 1.0, 0.5)
        model = HazardModel(HazardFamily.WEIBULL, K=2.0, m=0.5)
        grid = [2.0, 2.62, 2.63, 2.64, 2.65, 3.0, 8.0]
        with pytest.raises(NumericOverflowError, match=r"^Thm4 \(as-published\) .* at t = 3\.0$"):
            bound_sweep(o, model, grid, kind=BoundKind.RELIABILITY, corrected=False)
        rows = bound_sweep(o, model, grid[:5], kind=BoundKind.RELIABILITY, corrected=False)
        assert [r.t for r in rows] == grid[:5]

    def test_frozen_example(self):
        o = injected(10, 0.5, 2.0, 1.0)
        model = HazardModel(HazardFamily.WEIBULL, K=6.0, m=1.0)
        r = bound_at(o, model, 3.0)
        assert r.mu == pytest.approx(30.0)
        assert r.threshold == pytest.approx(18.0)
        assert r.bound == pytest.approx(math.exp(-2.4), rel=1e-12)

    def test_matches_printed_form(self):
        hits = 0
        for l, p, t in _tuples():
            for K_hat, m_hat in ((0.5, 0.0), (1.0, 0.5), (2.0, -0.5)):
                for K, m in ((0.2, 0.5), (0.9, 0.0)):
                    o = injected(l, p, K_hat, m_hat)
                    model = HazardModel(HazardFamily.WEIBULL, K=K, m=m)
                    engine = bound_at(o, model, t)
                    if engine.regime is Regime.OUT_OF_REGIME:
                        continue
                    printed = ref.thm3_injected_hazard(l, p, K_hat, m_hat, K, m, t)
                    assert engine.bound == pytest.approx(printed, rel=1e-12)
                    hits += 1
        assert hits > 100

    def test_unit_injection_reduces_to_plain_hazard_bound(self):
        model = HazardModel(HazardFamily.WEIBULL, K=0.4, m=0.5)
        for l, p, t in _tuples():
            plain = bound_at(SdpOutcome(l=l, p=p), model, t)
            unit = bound_at(injected(l, p, 1.0, 0.0), model, t)
            if Regime.OUT_OF_REGIME in (plain.regime, unit.regime):
                continue
            assert unit.bound == pytest.approx(plain.bound, rel=1e-12)

    def test_non_weibull_model_rejected(self):
        with pytest.raises(InvalidInputError):
            bound_at(injected(10, 0.5, 1.0, 0.0), HazardModel(HazardFamily.CONSTANT, lam=1.0), 1.0)

    def test_reliability_corrected_matches_printed_form(self):
        hits = 0
        for l, p, t in _tuples():
            for corrected in (True, False):
                o = injected(l, p, 0.5, 0.0)
                model = HazardModel(HazardFamily.WEIBULL, K=0.02, m=0.0)
                try:
                    engine = bound_at(o, model, t, BoundKind.RELIABILITY, corrected)
                except OverflowError:
                    continue
                if engine.regime is Regime.OUT_OF_REGIME:
                    continue
                printed = ref.thm4_injected_reliability(l, p, 0.5, 0.0, 0.02, 0.0, t, corrected)
                assert engine.bound == pytest.approx(printed, rel=1e-12)
                hits += 1
        assert hits > 100

    def test_sign_mode_recorded(self):
        o = injected(10, 0.5, 1.0, 0.0)
        model = HazardModel(HazardFamily.WEIBULL, K=0.02, m=0.0)
        assert bound_at(o, model, 1.0, BoundKind.RELIABILITY, corrected=True).sign_mode == "corrected"
        assert bound_at(o, model, 1.0, BoundKind.RELIABILITY, corrected=False).sign_mode == "as-published"

    def test_corrected_frozen_value(self):
        # mu = exp(5(e^-1 - 1)) = 0.0424002..., threshold 0.02: same
        # arithmetic as the plain constant-rate reliability example
        o = injected(10, 0.5, 1.0, 0.0)
        model = HazardModel(HazardFamily.WEIBULL, K=0.02, m=0.0)
        r = bound_at(o, model, 1.0, BoundKind.RELIABILITY, corrected=True)
        assert r.mu == pytest.approx(0.042400174798661226, rel=1e-12)
        assert r.bound == pytest.approx(0.9941004221733092, rel=1e-12)

    def test_as_published_astronomically_small(self):
        o = injected(10, 0.5, 1.0, 0.0)
        model = HazardModel(HazardFamily.WEIBULL, K=0.02, m=0.0)
        r = bound_at(o, model, 1.0, BoundKind.RELIABILITY, corrected=False)
        assert r.mu == pytest.approx(math.exp(5.0 * (math.e - 1.0)), rel=1e-12)
        assert r.log_bound == pytest.approx(-((r.mu - 0.02) ** 2) / (2 * r.mu), rel=1e-12)
        assert r.bound < 1e-300  # ~exp(-mu/2) at mu ~ 5385


def scalar_entry(outcome, model, t, kind, corrected):
    """One sweep entry composed per point: the mean of the outcome's
    ``FORMS`` row, the family's ``FAMILIES`` column inside its domain and
    the kernel at t alone."""
    hazard, injected = kind is BoundKind.HAZARD, outcome.injection is not None
    if injected and model.family is not HazardFamily.WEIBULL:
        raise InvalidInputError(
            f"injection-variant bounds compare against a weibull manual-testing model only, got {model.family.value!r}"
        )
    spec = FAMILIES[model.family]
    tag = ("Thm3" if hazard else "Thm4") if injected else (spec.hazard_tag if hazard else spec.reliability_tag)
    sign_mode = ("corrected" if corrected else "as-published") if injected and not hazard else None
    try:
        mu = _form(outcome, kind, corrected)[1].mean(outcome.mean_failures, outcome.injection, t)
        if t > model.max_time:
            raise InvalidInputError(f"ld hazard is negative beyond t = K/m = {model.max_time!r}; got t = {t!r}")
        threshold = (spec.z if hazard else spec.H_over_t)(model, t)
        # a product such as l*p*expm1(...) overflows to inf without raising
        if not (math.isfinite(mu) and math.isfinite(threshold)):
            raise OverflowError
        row = chernoff_lower_tail(mu, threshold)
        return dataclasses.replace(row, theorem_tag=tag, t=t, sign_mode=sign_mode)
    except OverflowError as exc:
        form = tag if sign_mode is None else f"{tag} ({sign_mode})"
        raise NumericOverflowError(f"{form} overflows a 64-bit float at t = {t!r}") from exc


@st.composite
def sweep_cases(draw):
    """(outcome, model, grid, kind, corrected). One injected (Y) outcome in
    ten draws its model from every family, so a Y bound meets non-weibull
    models; one grid in ten ends at inf, which no grid may hold."""
    kind, injected = draw(st.sampled_from(list(BoundKind))), draw(st.booleans())
    if injected and draw(st.sampled_from([True] * 9 + [False])):
        family = HazardFamily.WEIBULL
    else:
        family = draw(st.sampled_from(list(HazardFamily)))
    K = draw(st.floats(0.01, 10.0))
    if family is HazardFamily.WEIBULL:
        model = HazardModel(family, K=K, m=draw(st.floats(-0.9, 3.0)))
    elif family is HazardFamily.LINEAR_DECREASING:
        model = HazardModel(family, K=K, m=draw(st.floats(0.01, 5.0)))
    elif family is HazardFamily.CONSTANT:
        model = HazardModel(family, lam=draw(st.floats(0.01, 10.0)))
    else:
        model = HazardModel(family, K=K)
    injection = None
    if injected:
        injection = HazardModel(HazardFamily.WEIBULL, K=draw(st.floats(0.05, 3.0)), m=draw(st.floats(-0.9, 2.0)))
    outcome = SdpOutcome(l=draw(st.integers(1, 500)), p=draw(st.floats(0.001, 0.999)), injection=injection)
    grid = sorted(draw(st.lists(st.floats(1e-3, 50.0), min_size=1, max_size=8, unique=True)))
    if draw(st.sampled_from([False] * 9 + [True])):
        grid.append(math.inf)
    return outcome, model, grid, kind, draw(st.booleans())


class TestSweep:
    @settings(max_examples=300, deadline=None)
    @given(case=sweep_cases())
    # the as-published Thm4 mean l*p*expm1(K_hat*t**(m_hat+1)) = 3.5 * 5.8e307 is inf
    @example(
        case=(
            SdpOutcome(l=7, p=0.5, injection=HazardModel(HazardFamily.WEIBULL, K=2.90625, m=0.41418168954196755)),
            HazardModel(HazardFamily.WEIBULL, K=1.0, m=0.0),
            [48.75],
            BoundKind.RELIABILITY,
            False,
        )
    )
    def test_matches_scalar_composition(self, case):
        outcome, model, grid, kind, corrected = case
        if math.inf in grid:
            # a grid value that is not finite is refused as an unread one is,
            # ahead of every point's own checks
            with pytest.raises(ParseError, match=r"^time grid value must be a finite number, got inf$"):
                bound_sweep(outcome, model, grid, kind=kind, corrected=corrected)
            return
        try:
            expected = [scalar_entry(outcome, model, t, kind, corrected) for t in grid]
        except SdpFeasError as exc:
            # the sweep fails as its first failing point does alone
            with pytest.raises(SdpFeasError) as info:
                bound_sweep(outcome, model, grid, kind=kind, corrected=corrected)
            assert (type(info.value), str(info.value)) == (type(exc), str(exc))
        else:
            rows = bound_sweep(outcome, model, grid, kind=kind, corrected=corrected)
            assert rows == expected
            # each row's CSV line, from its regime's template, and its JSON
            # payload carry the same regime and the row's own numbers
            text = sweep_to_csv(ScenarioConfig(outcome, model, grid, [kind], corrected=corrected))
            for row, line in zip(rows, text.splitlines()[1:], strict=True):
                payload = row.to_dict()
                t, theorem, mu, threshold, delta, bound, regime = line.split(",")
                assert regime == payload["regime"] == row.regime.value and theorem == payload["theorem"]
                assert [float(t), float(mu), float(threshold), float(delta)] == [row.t, row.mu, row.threshold, row.delta]
                assert [payload["t"], payload["mu"], payload["threshold"]] == [row.t, row.mu, row.threshold]
                assert payload["delta"] == (row.delta if math.isfinite(row.delta) else None)
                out = regime == "out-of-regime"
                assert (bound == "") == out == ("bound" not in payload) == (row.bound is None)
                if not out:
                    assert float(bound) == row.bound == payload["bound"]

    def test_constant_hazard_flat_across_grid(self):
        o = SdpOutcome(l=100, p=0.05)
        model = HazardModel(HazardFamily.CONSTANT, lam=2.0)
        entries = bound_sweep(o, model, [1.0, 2.0, 4.0, 8.0], kind=BoundKind.HAZARD)
        assert len({e.bound for e in entries}) == 1

    def test_regime_crossing(self):
        # z(t) = t crosses lp = 5 at t = 5
        o = SdpOutcome(l=100, p=0.05)
        model = HazardModel(HazardFamily.LINEAR_INCREASING, K=1.0)
        entries = bound_sweep(o, model, [1.0, 3.0, 4.9, 5.0, 6.0], kind=BoundKind.HAZARD)
        regimes = [e.regime for e in entries]
        assert regimes == [Regime.VALID] * 3 + [Regime.OUT_OF_REGIME] * 2
        assert all(e.bound is None and e.log_bound is None for e in entries[3:])

    def test_out_of_regime_entries_keep_diagnostics(self):
        o = SdpOutcome(l=100, p=0.05)
        model = HazardModel(HazardFamily.LINEAR_INCREASING, K=1.0)
        entries = bound_sweep(o, model, [6.0], kind=BoundKind.HAZARD)
        assert entries[0].mu == pytest.approx(5.0)
        assert entries[0].threshold == pytest.approx(6.0)

    def test_empty_grid_rejected(self):
        with pytest.raises(InvalidInputError):
            bound_sweep(SdpOutcome(l=10, p=0.5), HazardModel(HazardFamily.CONSTANT, lam=1.0), [])

    @pytest.mark.parametrize("point", [0.0, -1.0])
    def test_non_positive_grid_point_rejected(self, point):
        with pytest.raises(InvalidInputError, match="must be > 0"):
            bound_sweep(SdpOutcome(l=10, p=0.5), HazardModel(HazardFamily.CONSTANT, lam=1.0), [point, 1.0])

    def test_non_increasing_grid_rejected(self):
        with pytest.raises(InvalidInputError):
            bound_sweep(
                SdpOutcome(l=10, p=0.5),
                HazardModel(HazardFamily.CONSTANT, lam=1.0),
                [1.0, 1.0],
            )

    @pytest.mark.parametrize("kind", list(BoundKind))
    def test_time_past_ld_domain_is_invalid_input(self, kind):
        # the points up to K/m = 0.5 are evaluated; the first one past it
        # raises the one out-of-range type README names
        model = HazardModel(HazardFamily.LINEAR_DECREASING, K=1.0, m=2.0)
        assert len(bound_sweep(SdpOutcome(l=100, p=0.05), model, [0.25, 0.5], kind=kind)) == 2
        with pytest.raises(InvalidInputError, match=r"^ld hazard is negative beyond t = K/m = 0\.5; got t = 0\.75$"):
            bound_sweep(SdpOutcome(l=100, p=0.05), model, [0.25, 0.5, 0.75, 1.0], kind=kind)

    def test_y_variant_dispatch(self):
        o = injected(10, 0.5, 2.0, 1.0)
        model = HazardModel(HazardFamily.WEIBULL, K=6.0, m=1.0)
        [entry] = bound_sweep(o, model, [3.0], kind=BoundKind.HAZARD)
        assert entry.theorem_tag == "Thm3"
        assert entry.bound == pytest.approx(math.exp(-2.4), rel=1e-12)


class TestNumbersAndFlagsFromPython:
    """The sweep, one point or many, reads a time, a grid value and
    ``corrected`` as a scenario file's are read: never coerced."""

    OUTCOME = injected(50, 0.1, 1.0, 0.5)
    MODEL = HazardModel(HazardFamily.WEIBULL, K=2.0, m=0.5)

    def test_integer_grid_values_become_floats(self):
        entries = bound_sweep(self.OUTCOME, self.MODEL, [1, 2])
        assert [type(entry.t) for entry in entries] == [float, float]
        assert entries == bound_sweep(self.OUTCOME, self.MODEL, [1.0, 2.0])

    def test_numpy_grid_is_read_as_floats(self):
        assert bound_sweep(self.OUTCOME, self.MODEL, np.array([1.0, 2.0])) == bound_sweep(
            self.OUTCOME, self.MODEL, [1.0, 2.0]
        )

    @pytest.mark.parametrize(
        "value", ["2", True, None, Decimal("2"), Fraction(1, 2), 2**1024, math.inf, -math.inf, math.nan],
        ids=["string", "bool", "None", "Decimal", "Fraction", "2**1024", "inf", "-inf", "nan"],
    )
    def test_grid_value_that_is_not_a_finite_number_is_a_parse_error(self, value):
        with pytest.raises(ParseError, match="^time grid value must be a"):
            bound_sweep(self.OUTCOME, self.MODEL, [value])

    @pytest.mark.parametrize(
        "grid", [[1.0, math.nan, math.nan], [-1.0, math.inf], [0.0, 1.0, math.nan], np.array([1.0, np.inf])]
    )
    def test_grid_value_not_finite_is_refused_ahead_of_order_and_sign(self, grid):
        with pytest.raises(ParseError, match="^time grid value must be a finite number, got "):
            bound_sweep(self.OUTCOME, self.MODEL, grid)

    @pytest.mark.parametrize("t", ["1", True, None])
    def test_time_that_is_not_a_number_is_a_parse_error(self, t):
        for evaluate in (
            lambda: bound_at(self.OUTCOME, self.MODEL, t),
            lambda: bound_at(self.OUTCOME, self.MODEL, t, BoundKind.RELIABILITY),
            lambda: bound_at(SdpOutcome(l=10, p=0.5), self.MODEL, t),
        ):
            with pytest.raises(ParseError, match=f"^time grid value must be a number, got {t!r}$"):
                evaluate()

    def test_integer_time_is_a_time(self):
        assert bound_at(self.OUTCOME, self.MODEL, 1) == bound_at(self.OUTCOME, self.MODEL, 1.0)

    @pytest.mark.parametrize("corrected", ["no", None, 0, 1])
    def test_corrected_that_is_not_a_boolean_is_a_parse_error(self, corrected):
        for evaluate in (
            lambda: bound_at(self.OUTCOME, self.MODEL, 1.0, BoundKind.RELIABILITY, corrected),
            lambda: bound_sweep(self.OUTCOME, self.MODEL, [1.0, 2.0], BoundKind.RELIABILITY, corrected),
            lambda: bound_sweep(SdpOutcome(l=10, p=0.5), self.MODEL, [1.0], BoundKind.HAZARD, corrected),
        ):
            with pytest.raises(ParseError, match=f"^corrected must be true or false, got {corrected!r}$"):
                evaluate()
