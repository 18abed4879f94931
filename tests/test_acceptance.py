"""Acceptance gate: ten numbered criteria, one pass/fail line each.

Criteria whose stated targets are mathematically unattainable are marked
strict-xfail rather than weakened; the assertion is kept exactly as
stated and the printed FAIL line carries a concrete counterexample. The
reliability-side results (Thm2, Cor2/4/6/8/10, Thm4) place the
expected-reliability factor in the mean slot of the Chernoff kernel, so
for small l*p the exact tail exceeds the bound; Thm3 overstates the
concentration of a scaled count whenever the scale exceeds 1. The
companion green tests pin down the subdomains where those bounds do
hold.
"""

import json
import math
import time

import numpy as np
import pytest

import reference_formulas as ref
from conftest import bound_at, quadrature_cumulative_hazard
from sdpfeas import (
    BinomialWindow,
    BoundKind,
    HazardFamily,
    HazardModel,
    Regime,
    SdpOutcome,
    chernoff_lower_tail,
)
from sdpfeas.cli import EXIT_OK, EXIT_OUT_OF_REGIME, main
from sdpfeas.hazards import FAMILIES

WEIBULL = HazardFamily.WEIBULL
NLD = HazardFamily.NONLINEAR_DECREASING
LD = HazardFamily.LINEAR_DECREASING
NLI = HazardFamily.NONLINEAR_INCREASING
LI = HazardFamily.LINEAR_INCREASING
CONST = HazardFamily.CONSTANT
HAZARD = BoundKind.HAZARD
RELIABILITY = BoundKind.RELIABILITY
OUT = Regime.OUT_OF_REGIME


def _line(criterion, ok, detail):
    print(f"[acceptance] criterion {criterion:>2}: {'PASS' if ok else 'FAIL'} - {detail}")


LS = [5, 20, 100, 500, 2000]
PS = [0.02, 0.05, 0.15, 0.3, 0.49]
T_GRID = [float(t) for t in np.geomspace(0.05, 20.0, 8)]

# hazard-side campaign models: thresholds z(t) spanning both sides of lp
HAZARD_MODELS = [
    HazardModel(WEIBULL, K=0.5, m=0.5),
    HazardModel(WEIBULL, K=2.0, m=-0.4),
    HazardModel(NLD, K=0.5),
    HazardModel(NLD, K=2.0),
    HazardModel(LD, K=1.0, m=0.1),
    HazardModel(LD, K=5.0, m=0.5),
    HazardModel(NLI, K=0.1),
    HazardModel(NLI, K=1.0),
    HazardModel(LI, K=0.2),
    HazardModel(LI, K=1.5),
    HazardModel(CONST, lam=0.3),
    HazardModel(CONST, lam=2.0),
]

# reliability-side campaign models: small hazards, so the tail threshold
# H(t)/t can sit below the sub-unit expected-reliability factor
RELIABILITY_MODELS = [
    HazardModel(WEIBULL, K=0.02, m=0.5),
    HazardModel(WEIBULL, K=0.05, m=-0.4),
    HazardModel(NLD, K=0.005),
    HazardModel(NLD, K=0.02),
    HazardModel(LD, K=0.02, m=0.004),
    HazardModel(LD, K=0.05, m=0.01),
    HazardModel(NLI, K=0.005),
    HazardModel(NLI, K=0.02),
    HazardModel(LI, K=0.01),
    HazardModel(LI, K=0.05),
    HazardModel(CONST, lam=0.005),
    HazardModel(CONST, lam=0.05),
]


def _campaign(models, kind, oracle_fn):
    """Run every (l, p, model, t) tuple; return (generated, valid,
    violations) where a violation is a valid-regime bound at or below its
    exact oracle value."""
    generated = 0
    valid = 0
    violations = []
    for model in models:
        for l in LS:
            for p in PS:
                outcome = SdpOutcome(l=l, p=p)
                for t in T_GRID:
                    if t > model.max_time:
                        continue
                    generated += 1
                    result = bound_at(outcome, model, t, kind)
                    if result.regime is OUT:
                        continue
                    valid += 1
                    oracle = oracle_fn(outcome, result)
                    if not oracle.value < result.bound:
                        violations.append((l, p, model.family.value, t, oracle.value, result.bound))
    return generated, valid, violations


def _count_oracle(outcome, result):
    return BinomialWindow(outcome.l, outcome.p).exact_tail(result.threshold)


class TestCriterion1:
    def test_hazard_soundness_campaign(self):
        start = time.monotonic()
        generated, valid, violations = _campaign(HAZARD_MODELS, HAZARD, _count_oracle)
        elapsed = time.monotonic() - start
        ok = generated >= 1000 and valid >= 1000 and not violations and elapsed < 60.0
        _line(1, ok, f"hazard side: {valid} valid of {generated} tuples, "
                     f"{len(violations)} violations, {elapsed:.1f}s")
        assert generated >= 1000
        assert valid >= 1000
        assert elapsed < 60.0
        assert violations == []

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="reliability-side bounds use the expected-reliability factor as "
        "the kernel mean; at small l*p the exact tail Pr[X=0] = (1-p)^l "
        "exceeds the bound (e.g. l=5, p=0.02, t=5, lambda=0.01: exact "
        "0.904 vs bound 0.642)",
    )
    def test_reliability_soundness_campaign(self):
        generated, valid, violations = _campaign(
            RELIABILITY_MODELS, RELIABILITY, _count_oracle
        )
        if violations:
            worst = max(violations, key=lambda v: v[4] - v[5])
            _line(1, False, f"reliability side: {len(violations)} of {valid} valid tuples "
                            f"violated; worst l={worst[0]} p={worst[1]} {worst[2]} t={worst[3]:.3g} "
                            f"exact {worst[4]:.4g} >= bound {worst[5]:.4g}")
        assert generated >= 1000
        assert valid >= 300
        assert violations == []


INJECTIONS = [
    HazardModel(WEIBULL, K=0.5, m=0.0),
    HazardModel(WEIBULL, K=1.0, m=0.5),
    HazardModel(WEIBULL, K=2.0, m=1.0),
    HazardModel(WEIBULL, K=0.25, m=-0.5),
]

Y_HAZARD_MODELS = [
    HazardModel(WEIBULL, K=0.1, m=0.5),
    HazardModel(WEIBULL, K=0.5, m=0.0),
]

Y_RELIABILITY_MODELS = [
    HazardModel(WEIBULL, K=0.02, m=0.5),
    HazardModel(WEIBULL, K=0.05, m=0.0),
]


def _y_campaign(models, kind, threshold_to_query):
    generated = 0
    valid = 0
    violations = []
    for injection in INJECTIONS:
        for model in models:
            for l in LS:
                for p in PS:
                    outcome = SdpOutcome(l=l, p=p, injection=injection)
                    for t in T_GRID:
                        generated += 1
                        try:
                            result = bound_at(outcome, model, t, kind)
                        except OverflowError:
                            continue
                        if result.regime is OUT:
                            continue
                        valid += 1
                        scale = FAMILIES[WEIBULL].z(injection, t)
                        oracle = BinomialWindow(l, p).exact_tail(result.threshold / scale)
                        if not oracle.value < result.bound:
                            violations.append(
                                (l, p, injection, t, scale, oracle.value, result.bound)
                            )
    return generated, valid, violations


class TestCriterion2:
    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="the scaled-count hazard bound keeps the unscaled kernel "
        "variance, so any common scale above 1 overstates concentration "
        "(e.g. l=10, p=0.5, scale 10, threshold 25: exact 0.0547 vs "
        "bound 0.0019)",
    )
    def test_injected_hazard_soundness_campaign(self):
        generated, valid, violations = _y_campaign(
            Y_HAZARD_MODELS, HAZARD, None
        )
        if violations:
            worst = max(violations, key=lambda v: v[5] - v[6])
            _line(2, False, f"injected hazard: {len(violations)} of {valid} valid tuples "
                            f"violated; worst l={worst[0]} p={worst[1]} scale={worst[4]:.3g} "
                            f"exact {worst[5]:.4g} >= bound {worst[6]:.4g}")
        assert generated >= 1000
        assert valid >= 300
        assert violations == []

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="the corrected-sign injected reliability bound inherits the "
        "mean-slot defect of the reliability side; exact tails exceed it "
        "at small l*p",
    )
    def test_injected_reliability_soundness_campaign(self):
        generated, valid, violations = _y_campaign(
            Y_RELIABILITY_MODELS,
            RELIABILITY,
            None,
        )
        if violations:
            worst = max(violations, key=lambda v: v[5] - v[6])
            _line(2, False, f"injected reliability (corrected): {len(violations)} of {valid} "
                            f"valid tuples violated; worst l={worst[0]} p={worst[1]} "
                            f"exact {worst[5]:.4g} >= bound {worst[6]:.4g}")
        assert generated >= 1000
        assert valid >= 100
        assert violations == []

    def test_as_published_sign_mode_exercised(self):
        # exempt from the soundness assertion: the positive inner sign
        # makes the mean slot exceed 1 and the bound collapse toward 0
        outcome = SdpOutcome(l=10, p=0.5, injection=HazardModel(WEIBULL, K=1.0, m=0.0))
        model = HazardModel(WEIBULL, K=0.02, m=0.0)
        result = bound_at(outcome, model, 1.0, RELIABILITY, corrected=False)
        ok = result.sign_mode == "as-published" and result.mu > 1.0
        _line(2, ok, "as-published sign mode runs and is tagged (soundness exempt; "
                     f"mu = {result.mu:.4g} exceeds 1)")
        assert ok


class TestCriterion3:
    """Generic kernel vs independently transcribed printed formulas,
    relative 1e-12, over at least 100 tuples per named result."""

    TUPLES = [(l, p, t) for l in LS for p in PS for t in (0.1, 0.3, 0.9, 2.1, 4.7, 9.0)]
    # reliability-side validity needs the expectation slot above the tail
    # threshold, which pushes the usable region toward small l*p*t
    R_TUPLES = [
        (l, p, t)
        for l in LS
        for p in PS
        for t in (0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.4, 0.9, 2.1, 4.7)
    ]

    def _check(self, pairs):
        hits = 0
        for engine, printed in pairs:
            assert engine == pytest.approx(printed, rel=1e-12)
            hits += 1
        assert hits >= 100
        return hits

    def _hazard_pairs(self, model, printed_fn):
        for l, p, t in self.TUPLES:
            if t > model.max_time:
                continue
            result = bound_at(SdpOutcome(l=l, p=p), model, t)
            if result.regime is OUT:
                continue
            yield result.bound, printed_fn(l, p, t)

    def _reliability_pairs(self, model, printed_fn):
        for l, p, t in self.R_TUPLES:
            if t > model.max_time:
                continue
            result = bound_at(SdpOutcome(l=l, p=p), model, t, RELIABILITY)
            if result.regime is OUT:
                continue
            yield result.bound, printed_fn(l, p, t)

    def test_all_sixteen_printed_forms(self):
        cases = [
            ("Thm1", self._hazard_pairs(
                HazardModel(WEIBULL, K=0.4, m=0.5),
                lambda l, p, t: ref.thm1_weibull_hazard(l, p, 0.4, 0.5, t))),
            ("Cor1", self._hazard_pairs(
                HazardModel(NLD, K=0.9),
                lambda l, p, t: ref.cor1_nld_hazard(l, p, 0.9, t))),
            ("Cor3", self._hazard_pairs(
                HazardModel(LD, K=3.0, m=0.3),
                lambda l, p, t: ref.cor3_ld_hazard(l, p, 3.0, 0.3, t))),
            ("Cor5", self._hazard_pairs(
                HazardModel(NLI, K=0.2),
                lambda l, p, t: ref.cor5_nli_hazard(l, p, 0.2, t))),
            ("Cor7", self._hazard_pairs(
                HazardModel(LI, K=0.5),
                lambda l, p, t: ref.cor7_li_hazard(l, p, 0.5, t))),
            ("Cor9", self._hazard_pairs(
                HazardModel(CONST, lam=0.6),
                lambda l, p, t: ref.cor9_constant_hazard(l, p, 0.6))),
            ("Thm2", self._reliability_pairs(
                HazardModel(WEIBULL, K=0.02, m=0.5),
                lambda l, p, t: ref.thm2_weibull_reliability(l, p, 0.02, 0.5, t))),
            ("Cor2", self._reliability_pairs(
                HazardModel(NLD, K=0.01),
                lambda l, p, t: ref.cor2_nld_reliability(l, p, 0.01, t))),
            ("Cor4", self._reliability_pairs(
                HazardModel(LD, K=0.02, m=0.004),
                lambda l, p, t: ref.cor4_ld_reliability(l, p, 0.02, 0.004, t))),
            ("Cor6", self._reliability_pairs(
                HazardModel(NLI, K=0.01),
                lambda l, p, t: ref.cor6_nli_reliability(l, p, 0.01, t))),
            ("Cor8", self._reliability_pairs(
                HazardModel(LI, K=0.02),
                lambda l, p, t: ref.cor8_li_reliability(l, p, 0.02, t))),
            ("Cor10", self._reliability_pairs(
                HazardModel(CONST, lam=0.02),
                lambda l, p, t: ref.cor10_constant_reliability(l, p, 0.02, t))),
        ]
        totals = {}
        for tag, pairs in cases:
            totals[tag] = self._check(pairs)
        totals["Thm3"] = self._check(self._thm3_pairs())
        totals["Thm4"] = self._check(self._thm4_pairs())
        _line(3, True, f"14 printed forms match the kernel at rel 1e-12 "
                       f"({min(totals.values())}..{max(totals.values())} tuples each)")

    def _thm3_pairs(self):
        model = HazardModel(WEIBULL, K=0.2, m=0.5)
        for l, p, t in self.TUPLES:
            for K_hat, m_hat in ((0.5, 0.0), (1.0, 0.5), (2.0, -0.5)):
                outcome = SdpOutcome(l=l, p=p, injection=HazardModel(WEIBULL, K=K_hat, m=m_hat))
                result = bound_at(outcome, model, t)
                if result.regime is OUT:
                    continue
                yield result.bound, ref.thm3_injected_hazard(l, p, K_hat, m_hat, 0.2, 0.5, t)

    def _thm4_pairs(self):
        model = HazardModel(WEIBULL, K=0.02, m=0.0)
        for l, p, t in self.R_TUPLES:
            for corrected in (True, False):
                outcome = SdpOutcome(l=l, p=p, injection=HazardModel(WEIBULL, K=0.5, m=0.0))
                try:
                    result = bound_at(outcome, model, t, RELIABILITY, corrected)
                except OverflowError:
                    continue
                if result.regime is OUT:
                    continue
                yield result.bound, ref.thm4_injected_reliability(
                    l, p, 0.5, 0.0, 0.02, 0.0, t, corrected
                )


class TestCriterion4:
    MODELS = [
        HazardModel(WEIBULL, K=2.0, m=0.5),
        HazardModel(WEIBULL, K=1.5, m=-0.5),
        HazardModel(NLD, K=1.2),
        HazardModel(LD, K=3.0, m=0.5),
        HazardModel(NLI, K=0.7),
        HazardModel(LI, K=1.1),
        HazardModel(CONST, lam=0.8),
    ]

    def test_reliability_against_quadrature(self):
        worst = 0.0
        for model in self.MODELS:
            top = min(model.max_time, 8.0)
            for i in range(1, 101):
                t = top * i / 100.0
                expected = math.exp(-quadrature_cumulative_hazard(model, t))
                err = abs(math.exp(-t * FAMILIES[model.family].H_over_t(model, t)) - expected)
                worst = max(worst, err)
                assert err <= 1e-8
        _line(4, True, f"6 families (7 models) x 100-point grids: exp(-t * H/t) vs numeric "
                       f"integration of z, worst |error| = {worst:.2e} <= 1e-8")


class TestCriterion5:
    def test_log_space_cdf_vs_naive_summation(self):
        checked = 0
        for l in range(1, 31):
            for p in (0.1, 0.3, 0.5, 0.7, 0.9):
                for k in range(0, l + 2):
                    exact = BinomialWindow(l, p).exact_tail(float(k)).value
                    naive = sum(
                        math.comb(l, j) * p**j * (1 - p) ** (l - j) for j in range(min(k, l + 1))
                    )
                    if naive == 0.0:
                        assert exact == 0.0
                    else:
                        assert exact == pytest.approx(naive, rel=1e-12)
                    checked += 1
        _line(5, True, f"log-space CDF matches naive summation at rel 1e-12 "
                       f"({checked} (l, p, threshold) cells)")


class TestCriterion6:
    #: (l, p, threshold)
    QUERIES = [
        (10, 0.3, 2.0),
        (10, 0.5, 5.0),
        (50, 0.1, 4.0),
        (50, 0.5, 24.0),
        (100, 0.05, 4.0),
        (100, 0.3, 28.0),
        (200, 0.2, 38.0),
        (500, 0.05, 24.0),
        (1000, 0.01, 9.0),
        (2000, 0.1, 195.0),
    ]

    def test_mc_consistency(self):
        trials = 100_000
        within = 0
        total = 0
        for l, p, threshold in self.QUERIES:
            window = BinomialWindow(l, p)
            exact = window.exact_tail(threshold).value
            for seed in range(100):
                [est] = window.mc_tails([threshold], trials=trials, seed=seed)
                total += 1
                stderr = math.sqrt(est.value * (1.0 - est.value) / est.trials)
                if abs(est.value - exact) <= 3.0 * max(stderr, 1e-12):
                    within += 1
        rate = within / total
        ok = rate >= 0.99
        _line(6, ok, f"{within}/{total} runs within 3 stderr of exact "
                     f"({100 * rate:.2f}% >= 99%)")
        assert ok

    def test_bit_identical_reruns(self):
        for l, p, threshold in self.QUERIES:
            for seed in (0, 57, 99):
                rerun = [BinomialWindow(l, p).mc_tails([threshold], 20_000, seed) for _ in range(2)]
                assert rerun[0] == rerun[1]
        _line(6, True, "reruns at fixed (seed, trials, threshold) are bit-identical")


class TestCriterion7:
    LGRID = (100, 200, 400, 800)

    def _bounds(self):
        return [chernoff_lower_tail(l * 0.05, 2.0) for l in self.LGRID]

    def test_strictly_decreasing_in_l(self):
        logs = [b.log_bound for b in self._bounds()]
        ok = all(b < a for a, b in zip(logs, logs[1:]))
        _line(7, ok, "bound at p=0.05, threshold 2 strictly decreasing over "
                     f"l in {self.LGRID} (log-bounds {[f'{x:.3g}' for x in logs]})")
        assert ok

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="exp(-(40 - 2)^2 / 80) = exp(-18.05) = 1.44e-8: exponentially "
        "small in l, but the stated 1e-10 cutoff is out of reach at l=800",
    )
    def test_magnitude_at_l_800(self):
        bound = self._bounds()[-1]
        _line(7, bound.bound < 1e-10,
              f"bound(l=800) = {bound.bound:.4g}, required < 1e-10")
        assert bound.log_bound < math.log(1e-10)


class TestCriterion8:
    def test_fuzz_never_yields_numeric_bound(self):
        rng = np.random.Generator(np.random.Philox(key=2024))
        for _ in range(10_000):
            mu = float(rng.uniform(1e-6, 1e4))
            if rng.random() < 0.5:
                threshold = mu * float(1.0 + rng.uniform(0.0, 10.0))
            else:
                threshold = -float(rng.uniform(0.0, 10.0))
            result = chernoff_lower_tail(mu, threshold)
            assert result.regime is OUT and result.bound is None and result.log_bound is None
        _line(8, True, "10,000 fuzzed tuples with threshold >= mu or < 0 all "
                       "came back out-of-regime, none produced a numeric bound")

    def test_cli_reports_exit_3(self, tmp_path, capsys):
        scenario = {
            "outcome": {"l": 100, "p": 0.05},
            "model": {"family": "constant", "lambda": 7.0},
            "time_grid": {"t": 1.0},
            "kinds": ["hazard"],
        }
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(scenario))
        code = main(["bound", "--config", str(path)])
        capsys.readouterr()
        ok = code == EXIT_OUT_OF_REGIME
        _line(8, ok, f"CLI 'bound' on an inapplicable point exits {code} (want 3)")
        assert ok


class TestCriterion9:
    POINTS = [(l, p, t) for l in (5, 50, 500) for p in (0.05, 0.3) for t in (0.2, 1.0, 3.7)]

    def test_unit_injection_reduces_to_plain_theorem(self):
        model = HazardModel(WEIBULL, K=0.3, m=0.7)
        checked = 0
        for l, p, t in self.POINTS:
            plain = bound_at(SdpOutcome(l=l, p=p), model, t)
            unit = bound_at(SdpOutcome(l=l, p=p, injection=HazardModel(WEIBULL, K=1.0, m=0.0)), model, t)
            if OUT in (plain.regime, unit.regime):
                continue
            assert unit.bound == pytest.approx(plain.bound, rel=1e-12)
            checked += 1
        assert checked >= 10
        _line(9, True, f"unit injection equals the plain hazard bound at rel 1e-12 "
                       f"({checked} points)")

    def test_power_law_families_reduce_to_weibull(self):
        pairs = [
            (HazardModel(LI, K=0.9), HazardModel(WEIBULL, K=0.9, m=1.0)),
            (HazardModel(NLI, K=0.4), HazardModel(WEIBULL, K=0.4, m=2.0)),
            (HazardModel(NLD, K=1.3), HazardModel(WEIBULL, K=1.3, m=-0.5)),
            (HazardModel(CONST, lam=0.7), HazardModel(WEIBULL, K=0.7, m=0.0)),
        ]
        for special, general in pairs:
            columns, powers = FAMILIES[special.family], FAMILIES[WEIBULL]
            for t in np.linspace(0.1, 6.0, 25):
                t = float(t)
                assert columns.z(special, t) == pytest.approx(powers.z(general, t), rel=1e-12)
                assert columns.H_over_t(special, t) == pytest.approx(powers.H_over_t(general, t), rel=1e-12)
        _line(9, True, "li, nli, nld and constant agree with the m=1, 2, -1/2 and 0 "
                       "power laws at rel 1e-12")


class TestCriterion10:
    def test_desk_scenario_end_to_end(self, tmp_path, capsys):
        scenario = {
            "outcome": {"l": 100, "p": 0.05},
            "model": {"family": "constant", "lambda": 2.0},
            "time_grid": {"t": 5.0},
            "kinds": ["hazard"],
            "verify": {"exact": True, "mc_trials": 100000, "seed": 42},
        }
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(scenario))
        out = tmp_path / "report.json"
        code = main(["verify", "--config", str(path), "--out", str(out)])
        capsys.readouterr()
        report = json.loads(out.read_text())
        row = report["rows"][0]
        exact = next(r for r in report["verification"] if r["method"] == "exact")
        ok = (
            code == EXIT_OK
            and row["bound"] == pytest.approx(math.exp(-0.9), rel=1e-12)
            and exact["oracle"] == pytest.approx(0.037081209327355036, rel=1e-10)
            and exact["slack"] == pytest.approx(0.3694884504132441, rel=1e-10)
            and report["summary"]["all_hold"] is True
        )
        _line(10, ok, f"desk scenario exits {code}: bound {row['bound']:.6f}, "
                      f"exact {exact['oracle']:.6f}, slack {exact['slack']:.4f}")
        assert code == EXIT_OK
        assert row["bound"] == pytest.approx(math.exp(-0.9), rel=1e-12)
        assert exact["oracle"] == pytest.approx(0.037081209327355036, rel=1e-10)
        assert exact["slack"] == pytest.approx(0.3694884504132441, rel=1e-10)
        assert report["summary"]["all_hold"] is True


class TestSoundSubdomains:
    """Where the reliability-side and scaled-count bounds do hold, they
    must hold cleanly; these fence off the defects flagged above."""

    def test_reliability_bounds_hold_when_mean_failures_at_least_half(self):
        checked = 0
        for model in RELIABILITY_MODELS:
            for l in LS:
                for p in PS:
                    if l * p < 0.5:
                        continue
                    outcome = SdpOutcome(l=l, p=p)
                    for t in T_GRID:
                        if t > model.max_time:
                            continue
                        result = bound_at(outcome, model, t, RELIABILITY)
                        if result.regime is OUT:
                            continue
                        oracle = _count_oracle(outcome, result)
                        assert oracle.value < result.bound
                        checked += 1
        assert checked >= 200

    def test_injected_hazard_bound_holds_when_scale_at_most_one(self):
        checked = 0
        for injection in INJECTIONS:
            for model in Y_HAZARD_MODELS:
                for l in LS:
                    for p in PS:
                        outcome = SdpOutcome(l=l, p=p, injection=injection)
                        for t in T_GRID:
                            scale = FAMILIES[WEIBULL].z(injection, t)
                            if scale > 1.0:
                                continue
                            result = bound_at(outcome, model, t)
                            if result.regime is OUT:
                                continue
                            oracle = BinomialWindow(l, p).exact_tail(result.threshold / scale)
                            assert oracle.value < result.bound
                            checked += 1
        assert checked >= 200
