import argparse
import contextlib
import copy
import csv
import dataclasses
import io
import json
import math
import os
import random
import subprocess
import sys
from array import array
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from scipy.stats import binom

from conftest import bound_at, strict_json
from sdpfeas import BoundResult, HazardFamily, HazardModel, InvalidInputError, Regime
from sdpfeas import oracle as oracle_module
from sdpfeas import report as report_module
from sdpfeas.cli import (
    EXIT_ASSUMPTION,
    EXIT_OK,
    EXIT_OUT_OF_REGIME,
    EXIT_USAGE,
    EXIT_VERIFICATION,
    SEED_ENV_VAR,
    build_parser,
    main,
)
from sdpfeas.oracle import MAX_TRIALS
from test_exports import STARTUP_MODULES
from test_golden import VERIFY as GOLDEN_VERIFY
from test_golden import VERIFY_Y as GOLDEN_VERIFY_Y

DESK_COUNTS = '{"tp": 5, "fn": 3, "fp": 2, "tn": 17}'

DESK_SCENARIO = {
    "outcome": {"l": 100, "p": 0.05},
    "model": {"family": "constant", "lambda": 2.0},
    "time_grid": {"t": 5.0},
    "kinds": ["hazard"],
    "verify": {"exact": True, "mc_trials": 100000, "seed": 42},
}


@pytest.fixture
def run(capsys):
    def _run(argv, expect=None):
        code = main(argv)
        captured = capsys.readouterr()
        if expect is not None:
            assert code == expect, captured.err
        return code, captured.out, captured.err

    return _run


def write_scenario(tmp_path, payload, name="scenario.json"):
    """Write ``payload`` as JSON, or as it is where it is already text."""
    path = tmp_path / name
    path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
    return str(path)


#: JSON text that json.loads refuses with other than a JSONDecodeError
#: (an integer past the digit limit, nesting past the recursion limit)
JSON_PAST_LIMITS = {
    "integer of 5001 digits": '{"tp": 5, "fn": ' + "1" * 5001 + ', "fp": 2, "tn": 17}',
    "100000 nested lists": "[" * 100000,
}


class TestMetrics:
    def test_counts_happy_path(self, run, tmp_path):
        path = tmp_path / "counts.json"
        path.write_text(DESK_COUNTS)
        _, out, _ = run(["metrics", "--counts", str(path)], expect=EXIT_OK)
        payload = json.loads(out)
        assert payload["p"] == pytest.approx(0.15)
        assert payload["fraction"] == "3/20"
        assert payload["confusion"]["tn"] == 17

    def test_records_happy_path(self, run, tmp_path):
        path = tmp_path / "records.csv"
        path.write_text("actual,predicted\ndefective,clean\nclean,clean\n")
        _, out, _ = run(["metrics", "--records", str(path)], expect=EXIT_OK)
        assert json.loads(out)["p"] == pytest.approx(0.5)

    @pytest.mark.parametrize(
        "zero_side, counts",
        [("fn", '{"tp": 5, "fn": 0, "fp": 2, "tn": 17}'), ("tn", '{"tp": 5, "fn": 3, "fp": 2, "tn": 0}')],
        ids=["fn", "tn"],
    )
    def test_assumption_violation_exits_2(self, run, tmp_path, zero_side, counts):
        # the error line says which assumption failed once, in the exception's own words
        path = tmp_path / "counts.json"
        path.write_text(counts)
        _, out, err = run(["metrics", "--counts", str(path)], expect=EXIT_ASSUMPTION)
        assert out == ""
        assert err == (
            "error: assumption 5 violated: false omission rate needs at least one false negative "
            f"and one true negative; {zero_side} is zero\n"
        )

    def test_missing_source_is_usage_error(self, run):
        run(["metrics"], expect=EXIT_USAGE)

    def test_both_sources_is_usage_error(self, run, tmp_path):
        path = tmp_path / "counts.json"
        path.write_text(DESK_COUNTS)
        run(["metrics", "--counts", str(path), "--records", str(path)], expect=EXIT_USAGE)

    def test_unreadable_path_is_usage_error(self, run, tmp_path):
        run(["metrics", "--counts", str(tmp_path / "missing.json")], expect=EXIT_USAGE)

    def test_malformed_counts_is_usage_error(self, run, tmp_path):
        path = tmp_path / "counts.json"
        path.write_text('{"tp": 5}')
        run(["metrics", "--counts", str(path)], expect=EXIT_USAGE)

    def test_out_file(self, run, tmp_path):
        src = tmp_path / "counts.json"
        src.write_text(DESK_COUNTS)
        dst = tmp_path / "metrics.json"
        run(["metrics", "--counts", str(src), "--out", str(dst)], expect=EXIT_OK)
        assert json.loads(dst.read_text())["fraction"] == "3/20"

    @pytest.mark.parametrize("case", sorted(JSON_PAST_LIMITS))
    def test_counts_past_the_json_limits_is_an_error_line(self, run, tmp_path, case):
        path = tmp_path / "counts.json"
        path.write_text(JSON_PAST_LIMITS[case])
        _, out, err = run(["metrics", "--counts", str(path)], expect=EXIT_USAGE)
        assert out == ""
        assert err.startswith("error: invalid JSON: ") and err.count("\n") == 1

    def test_records_field_past_the_csv_limit_is_an_error_line(self, run, tmp_path):
        path = tmp_path / "records.csv"
        path.write_text("actual,predicted\ndefective,clean\nclean," + "x" * 200000 + "\n")
        _, out, err = run(["metrics", "--records", str(path)], expect=EXIT_USAGE)
        assert out == ""
        assert err == "error: records CSV line 3: field larger than field limit (131072)\n"

    def test_one_field_record_before_an_oversize_field_is_the_error_line(self, run, tmp_path):
        path = tmp_path / "records.csv"
        path.write_text("actual,predicted\nclean\nclean," + "x" * 200000 + "\n")
        _, out, err = run(["metrics", "--records", str(path)], expect=EXIT_USAGE)
        assert out == ""
        assert err == "error: record 0: expected an (actual, predicted) pair, got ['clean']\n"

    def test_quoted_label_spanning_a_line_break_is_counted(self, run, tmp_path):
        path = tmp_path / "records.csv"
        path.write_text('actual,predicted\n"clean\n",defective\ndefective,clean\nclean,clean\n')
        _, out, _ = run(["metrics", "--records", str(path)], expect=EXIT_OK)
        assert json.loads(out)["confusion"] == {"tp": 0, "fn": 1, "fp": 1, "tn": 1}

    @pytest.mark.parametrize(
        "index, line, message",
        [
            (4999, "defective,bogus", "unknown label 'bogus' (expected 'defective' or 'clean')"),
            (2500, "defective,clean,clean", "expected an (actual, predicted) pair, got ['defective', 'clean', 'clean']"),
            (4000, "   ", "expected an (actual, predicted) pair, got ['   ']"),
        ],
        ids=["unknown-label", "three-fields", "whitespace-only"],
    )
    def test_fault_deep_in_a_records_csv_is_an_error_line(self, run, tmp_path, index, line, message):
        # 5000 records, one of them faulty: the error names its zero-based record
        lines = ["defective,clean" if i % 2 else "clean,clean" for i in range(5000)]
        lines[index] = line
        path = tmp_path / "records.csv"
        path.write_text("actual,predicted\n" + "\n".join(lines) + "\n")
        _, out, err = run(["metrics", "--records", str(path)], expect=EXIT_USAGE)
        assert out == ""
        assert err == f"error: record {index}: {message}\n"

    def test_empty_records_csv_is_an_error_line(self, run, tmp_path):
        path = tmp_path / "records.csv"
        path.write_text("")
        _, out, err = run(["metrics", "--records", str(path)], expect=EXIT_USAGE)
        assert out == ""
        assert err == "error: empty CSV input; expected an 'actual,predicted' header\n"

    def test_out_into_a_missing_directory_is_an_error_line(self, run, tmp_path):
        src = tmp_path / "counts.json"
        src.write_text(DESK_COUNTS)
        dst = tmp_path / "missing" / "metrics.json"
        _, out, err = run(["metrics", "--counts", str(src), "--out", str(dst)], expect=EXIT_USAGE)
        assert out == "" and not dst.parent.exists()
        assert err.startswith(f"error: cannot write {dst}: ") and err.count("\n") == 1

    @pytest.mark.parametrize("fn, tn, rounded", [(10**17, 1, "1.0"), (1, 10**400, "0.0")], ids=["one", "zero"])
    def test_p_rounding_onto_an_end_is_an_error_line(self, run, tmp_path, fn, tn, rounded):
        # fn/(fn + tn) lies inside (0, 1), but its float does not
        path = tmp_path / "counts.json"
        path.write_text(json.dumps({"tp": 0, "fn": fn, "fp": 0, "tn": tn}))
        _, out, err = run(["metrics", "--counts", str(path)], expect=EXIT_USAGE)
        assert out == ""
        assert err == f"error: failure probability must lie strictly in (0, 1), got {rounded}\n"


class TestBound:
    def test_desk_value(self, run, tmp_path):
        config = write_scenario(tmp_path, DESK_SCENARIO)
        _, out, _ = run(["bound", "--config", config], expect=EXIT_OK)
        payload = json.loads(out)
        assert payload["theorem"] == "Cor9"
        assert payload["mu"] == pytest.approx(5.0)
        assert payload["threshold"] == pytest.approx(2.0)
        assert payload["bound"] == pytest.approx(math.exp(-0.9), rel=1e-12)
        assert payload["regime"] == "valid"

    def test_out_of_regime_exits_3_with_diagnostics(self, run, tmp_path):
        scenario = dict(DESK_SCENARIO, model={"family": "constant", "lambda": 7.0}, verify={})
        config = write_scenario(tmp_path, scenario)
        _, out, err = run(["bound", "--config", config], expect=EXIT_OUT_OF_REGIME)
        # a finding, not an error: the row goes to stdout, nothing to stderr
        assert err == ""
        payload = json.loads(out)
        assert payload["regime"] == "out-of-regime"
        assert payload["mu"] == pytest.approx(5.0)
        assert payload["threshold"] == pytest.approx(7.0)
        assert "bound" not in payload

    def test_multi_point_grid_rejected(self, run, tmp_path):
        scenario = dict(DESK_SCENARIO, time_grid={"start": 1.0, "stop": 2.0, "steps": 5})
        config = write_scenario(tmp_path, scenario)
        _, out, err = run(["bound", "--config", config], expect=EXIT_USAGE)
        assert out == ""
        assert err == "error: 'bound' needs a single-point time grid and exactly one kind\n"

    def test_unknown_scenario_field_rejected(self, run, tmp_path):
        scenario = dict(DESK_SCENARIO, junk=1)
        config = write_scenario(tmp_path, scenario)
        run(["bound", "--config", config], expect=EXIT_USAGE)

    def test_invalid_json_rejected(self, run, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text("{not json")
        run(["bound", "--config", str(path)], expect=EXIT_USAGE)

    def test_sign_mode_flag_round_trip(self, run, tmp_path):
        scenario = {
            "outcome": {"l": 10, "p": 0.5, "injection": {"K_hat": 1.0, "m_hat": 0.0}},
            "model": {"family": "weibull", "K": 0.02, "m": 0.0},
            "time_grid": {"t": 1.0},
            "kinds": ["reliability"],
            "variant": "Y",
        }
        config = write_scenario(tmp_path, scenario)
        _, out, _ = run(["bound", "--config", config, "--as-published"], expect=EXIT_OK)
        assert json.loads(out)["sign_mode"] == "as-published"
        _, out, _ = run(["bound", "--config", config, "--corrected"], expect=EXIT_OK)
        assert json.loads(out)["sign_mode"] == "corrected"

    def test_confusion_p_rounding_to_one_is_an_error_line(self, run, tmp_path):
        outcome = {"l": 100, "confusion": {"tp": 0, "fn": 10**17, "fp": 0, "tn": 1}}
        config = write_scenario(tmp_path, dict(DESK_SCENARIO, outcome=outcome))
        _, out, err = run(["bound", "--config", config], expect=EXIT_USAGE)
        assert out == ""
        assert err == "error: failure probability must lie strictly in (0, 1), got 1.0\n"

    @pytest.mark.parametrize(
        "override", [{"corrected": "false"}, {"corrected": 0}, {"verify": {"exact": "no"}}]
    )
    def test_non_boolean_flags_rejected(self, run, tmp_path, override):
        config = write_scenario(tmp_path, dict(DESK_SCENARIO, **override))
        _, out, err = run(["bound", "--config", config], expect=EXIT_USAGE)
        assert out == ""
        assert err.startswith("error:") and "true or false" in err


class TestSweep:
    def li_scenario(self):
        # z(t) = t crosses mu = 5 at t = 5: the upper half of the grid is
        # out of regime by construction
        return {
            "outcome": {"l": 100, "p": 0.05},
            "model": {"family": "li", "K": 1.0},
            "time_grid": {"start": 1.0, "stop": 9.0, "steps": 9},
            "kinds": ["hazard"],
        }

    def test_csv_contract_and_regime_flip(self, run, tmp_path):
        config = write_scenario(tmp_path, self.li_scenario())
        _, out, _ = run(["sweep", "--config", config], expect=EXIT_OK)
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [r["regime"] for r in rows] == ["valid"] * 4 + ["out-of-regime"] * 5
        assert rows[0]["theorem"] == "Cor7"
        assert rows[4]["bound"] == ""

    def test_csv_floats_round_trip_exactly(self, run, tmp_path):
        config = write_scenario(tmp_path, self.li_scenario())
        _, out, _ = run(["sweep", "--config", config], expect=EXIT_OK)
        from sdpfeas import HazardFamily, HazardModel, SdpOutcome

        model = HazardModel(HazardFamily.LINEAR_INCREASING, K=1.0)
        outcome = SdpOutcome(l=100, p=0.05)
        for row in csv.DictReader(io.StringIO(out)):
            t = float(row["t"])
            if row["regime"] != "valid":
                continue
            expected = bound_at(outcome, model, t)
            assert float(row["bound"]) == expected.bound  # bit-exact, not approx
            assert float(row["mu"]) == expected.mu
            assert float(row["delta"]) == expected.delta

    def test_json_format(self, run, tmp_path):
        config = write_scenario(tmp_path, self.li_scenario())
        _, out, _ = run(["sweep", "--config", config, "--format", "json"], expect=EXIT_OK)
        rows = json.loads(out)
        assert len(rows) == 9
        assert rows[0]["theorem"] == "Cor7"

    def test_one_step_grid_is_its_start(self, run, tmp_path):
        # with one step the grid is [start]; stop is never read as a bound
        one_step = dict(self.li_scenario(), time_grid={"start": 2.0, "stop": 1.0, "steps": 1})
        point = dict(self.li_scenario(), time_grid={"t": 2.0})
        _, out, _ = run(["sweep", "--config", write_scenario(tmp_path, one_step, "steps.json")], expect=EXIT_OK)
        _, expected, _ = run(["sweep", "--config", write_scenario(tmp_path, point, "point.json")], expect=EXIT_OK)
        assert out == expected and len(out.splitlines()) == 2

    def test_kind_major_ordering(self, run, tmp_path):
        scenario = {
            "outcome": {"l": 100, "p": 0.05},
            "model": {"family": "constant", "lambda": 0.02},
            "time_grid": {"start": 1.0, "stop": 2.0, "steps": 3},
            "kinds": ["hazard", "reliability"],
        }
        config = write_scenario(tmp_path, scenario)
        _, out, _ = run(["sweep", "--config", config, "--format", "json"], expect=EXIT_OK)
        theorems = [r["theorem"] for r in json.loads(out)]
        assert theorems == ["Cor9"] * 3 + ["Cor10"] * 3

    def test_config_from_stdin(self, run, tmp_path, monkeypatch):
        scenario = self.li_scenario()
        _, expected, _ = run(["sweep", "--config", write_scenario(tmp_path, scenario)], expect=EXIT_OK)
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(scenario)))
        _, out, _ = run(["sweep", "--config", "-"], expect=EXIT_OK)
        assert out == expected


class TestVerify:
    def test_desk_scenario_passes(self, run, tmp_path):
        config = write_scenario(tmp_path, DESK_SCENARIO)
        _, out, _ = run(["verify", "--config", config], expect=EXIT_OK)
        report = json.loads(out)
        assert report["summary"]["all_hold"] is True
        methods = {r["method"] for r in report["verification"]}
        assert methods == {"exact", "monte-carlo"}
        exact = next(r for r in report["verification"] if r["method"] == "exact")
        assert exact["holds"] is True
        assert exact["slack"] == pytest.approx(0.3694884504132441, rel=1e-10)
        assert report["scenario"] == DESK_SCENARIO

    def test_mc_only_report(self, run, tmp_path):
        scenario = dict(DESK_SCENARIO, verify={"exact": False, "mc_trials": 5000, "seed": 42})
        _, out, _ = run(["verify", "--config", write_scenario(tmp_path, scenario)], expect=EXIT_OK)
        report = strict_json(out)
        assert [(r["method"], r["seed"], r["holds"]) for r in report["verification"]] == [("monte-carlo", 42, True)]
        assert report["summary"]["all_hold"] is True

    def test_no_oracle_no_records(self, run, tmp_path):
        scenario = dict(DESK_SCENARIO, verify={"exact": False, "mc_trials": 0})
        _, out, _ = run(["verify", "--config", write_scenario(tmp_path, scenario)], expect=EXIT_OK)
        report = strict_json(out)
        assert report["verification"] == []
        assert report["summary"]["all_hold"] is True
        assert "min_slack" not in report["summary"] and "max_slack" not in report["summary"]

    @pytest.mark.parametrize(
        "lam, verify, expect",
        [(1e300, {"exact": True, "mc_trials": 0}, EXIT_OK), (1.0, {"exact": False, "mc_trials": 0}, EXIT_OK),
         (1.0, {"exact": True, "mc_trials": 0}, EXIT_USAGE)],
        ids=["all out of regime", "no oracle asked", "oracle refuses"],
    )
    def test_nothing_to_check_builds_no_oracle(self, run, tmp_path, lam, verify, expect):
        # the oracle refuses Binomial(10**300, 0.5); a verify with no row in
        # regime, or no oracle asked for, reports no record and never builds it
        scenario = dict(DESK_SCENARIO, outcome={"l": 10**300, "p": 0.5},
                        model={"family": "constant", "lambda": lam}, verify=verify)
        _, out, err = run(["verify", "--config", write_scenario(tmp_path, scenario)], expect=expect)
        if expect == EXIT_OK:
            assert strict_json(out)["verification"] == []
        else:
            assert out == "" and err.startswith(f"error: Binomial(l={10**300}, p=0.5) needs counts up to ")
            assert err.endswith(", past 2**53, where floats skip integers\n")

    def test_corrupted_bound_exits_4(self, run, tmp_path, monkeypatch):
        verify_bound = report_module.verify_bound

        def verify_scaled(bound, oracle, event=""):
            scaled = dataclasses.replace(
                bound, bound=bound.bound * 1e-6, log_bound=bound.log_bound + math.log(1e-6)
            )
            return verify_bound(scaled, oracle, event=event)

        monkeypatch.setattr(report_module, "verify_bound", verify_scaled)
        config = write_scenario(tmp_path, DESK_SCENARIO)
        _, out, _ = run(["verify", "--config", config], expect=EXIT_VERIFICATION)
        report = json.loads(out)
        assert report["summary"]["all_hold"] is False
        assert any(not r["holds"] for r in report["verification"])

    def test_mc_estimate_of_one_passes_a_sound_bound(self, run, tmp_path):
        # Cor7 at t = 1: the exact tail Pr[X < 0.001] = 0.999**100 = 0.9048
        # lies below the bound 0.9522. All 10 trials hit under 39 of these
        # seeds, and an estimate of 1 has stderr 0, so the estimate less
        # 3 stderr fails there; Wilson's lower limit, 10/19, holds
        scenario = {
            "outcome": {"l": 100, "p": 0.001},
            "model": {"family": "li", "K": 0.001},
            "time_grid": {"t": 1.0},
            "kinds": ["hazard"],
            "verify": {"exact": True, "mc_trials": 10},
        }
        config = write_scenario(tmp_path, scenario)
        certain = 0
        for seed in range(100):
            _, out, _ = run(["verify", "--config", config, "--seed", str(seed)], expect=EXIT_OK)
            exact, mc = strict_json(out)["verification"]
            assert (exact["oracle"], exact["bound"]) == (pytest.approx(0.999**100), pytest.approx(0.95224, rel=1e-4))
            assert exact["holds"] and mc["holds"]
            certain += mc["oracle"] == 1.0
        assert certain == 39

    def test_deterministic_apart_from_timestamp(self, run, tmp_path):
        config = write_scenario(tmp_path, DESK_SCENARIO)
        _, out1, _ = run(["verify", "--config", config], expect=EXIT_OK)
        _, out2, _ = run(["verify", "--config", config], expect=EXIT_OK)
        a, b = json.loads(out1), json.loads(out2)
        a.pop("timestamp"), b.pop("timestamp")
        assert a == b

    def test_seed_flag_overrides_config(self, run, tmp_path):
        config = write_scenario(tmp_path, DESK_SCENARIO)
        _, out, _ = run(["verify", "--config", config, "--seed", "7"], expect=EXIT_OK)
        mc = next(
            r for r in json.loads(out)["verification"] if r["method"] == "monte-carlo"
        )
        assert mc["seed"] == 7

    def test_seed_env_fallback(self, run, tmp_path, monkeypatch):
        monkeypatch.setenv(SEED_ENV_VAR, "123")
        scenario = dict(DESK_SCENARIO, verify={"exact": True, "mc_trials": 1000})
        config = write_scenario(tmp_path, scenario)
        _, out, _ = run(["verify", "--config", config], expect=EXIT_OK)
        mc = next(
            r for r in json.loads(out)["verification"] if r["method"] == "monte-carlo"
        )
        assert mc["seed"] == 123

    def test_explicit_seed_beats_env(self, run, tmp_path, monkeypatch):
        monkeypatch.setenv(SEED_ENV_VAR, "123")
        config = write_scenario(tmp_path, DESK_SCENARIO)
        _, out, _ = run(["verify", "--config", config], expect=EXIT_OK)
        mc = next(
            r for r in json.loads(out)["verification"] if r["method"] == "monte-carlo"
        )
        assert mc["seed"] == 42

    def test_malformed_env_seed_is_read_under_a_seed_flag(self, run, tmp_path, monkeypatch):
        # the file gives no seed, so SDPFEAS_SEED is read, and refused, before
        # --seed replaces it
        monkeypatch.setenv(SEED_ENV_VAR, "x")
        config = write_scenario(tmp_path, dict(DESK_SCENARIO, verify={"exact": True, "mc_trials": 10}))
        _, out, err = run(["verify", "--config", config, "--seed", "5"], expect=EXIT_USAGE)
        assert out == "" and err == "error: SDPFEAS_SEED must be an integer, got 'x'\n"

    def test_scenario_from_json_ignores_the_env_seed(self, monkeypatch):
        monkeypatch.setenv(SEED_ENV_VAR, "123")
        text = json.dumps(dict(DESK_SCENARIO, verify={"exact": True, "mc_trials": 10}))
        assert report_module.ScenarioConfig.from_json(text).seed is None

    @pytest.mark.parametrize(
        "flags, env_seed, seeds",
        [
            # the file's config alone, built once
            ([], None, [None]),
            ([], "123", [None, 123]),
            (["--seed", "7"], None, [None, 7]),
            (["--trials", "10"], None, [None, None]),
            (["--seed", "7"], "123", [None, 123, 7]),
        ],
        ids=["flagless", "env", "seed-flag", "trials-flag", "env-and-flag"],
    )
    def test_config_is_built_again_only_where_a_field_changes(self, run, tmp_path, monkeypatch, flags, env_seed, seeds):
        built = []
        post_init = report_module.ScenarioConfig.__post_init__

        def counting_post_init(config):
            built.append(config.seed)
            post_init(config)

        monkeypatch.setattr(report_module.ScenarioConfig, "__post_init__", counting_post_init)
        monkeypatch.delenv(SEED_ENV_VAR, raising=False)
        if env_seed is not None:
            monkeypatch.setenv(SEED_ENV_VAR, env_seed)
        config = write_scenario(tmp_path, dict(DESK_SCENARIO, verify={"exact": True, "mc_trials": 100}))
        _, out, _ = run(["verify", "--config", config, *flags], expect=EXIT_OK)
        assert built == seeds
        # the file gives no seed: the last one set is used, else 0
        mc = [r for r in json.loads(out)["verification"] if r["method"] == "monte-carlo"]
        assert [r["seed"] for r in mc] == [seeds[-1] or 0]

    def test_one_mc_draw_per_verify(self, run, tmp_path, monkeypatch):
        summed, draws = [], []
        log_cdf = oracle_module.BinomialWindow._log_cdf

        def counting_log_cdf(window, k_star):
            summed.append(k_star)
            return log_cdf(window, k_star)

        class CountingGenerator(np.random.Generator):
            """Records the size of every uniform draw."""

            def random(self, size=None, *args, **kwargs):
                draws.append(size)
                return super().random(size, *args, **kwargs)

        monkeypatch.setattr(oracle_module.BinomialWindow, "_log_cdf", counting_log_cdf)
        monkeypatch.setattr(np.random, "Generator", CountingGenerator)
        config = write_scenario(tmp_path, GOLDEN_VERIFY)
        _, out, _ = run(["verify", "--config", config], expect=EXIT_OK)
        records = json.loads(out)["verification"]
        assert sum(r["method"] == "exact" for r in records) > 1
        assert sum(r["method"] == "monte-carlo" for r in records) > 1
        # one tail summed per distinct k* in [0, l), shared by both oracles
        l = GOLDEN_VERIFY["outcome"]["l"]
        thresholds = {float(r["event"].split("Pr[X < ")[1].split("]")[0]) for r in records}
        k_stars = {oracle_module._strict_upper_index(threshold, l) for threshold in thresholds}
        assert len(k_stars) > 1
        assert sorted(summed) == sorted(k for k in k_stars if 0 <= k < l)
        assert draws == [4000]

    def test_y_count_threshold_on_the_lattice(self, run, tmp_path):
        # the Thm3 count threshold is 6 in exact arithmetic at every t; the
        # quotient of the two rounded hazards K*t**m / (K_hat*t**m_hat)
        # would round to 6 +- 1 ulp at some 280 of these points
        scenario = {
            "outcome": {"l": 200, "p": 0.05, "injection": {"K_hat": 1.0, "m_hat": 0.5}},
            "model": {"family": "weibull", "K": 6.0, "m": 0.5},
            "time_grid": {"start": 0.01, "stop": 10.0, "steps": 2000, "spacing": "log"},
            "kinds": ["hazard"],
            "variant": "Y",
            "verify": {"exact": True},
        }
        config = write_scenario(tmp_path, scenario)
        _, out, _ = run(["verify", "--config", config], expect=EXIT_OK)
        records = json.loads(out)["verification"]
        assert len(records) == 2000
        assert {r["event"].split(": ", 1)[1] for r in records} == {"Pr[X < 6.0], X ~ Binomial(l=200, p=0.05)"}
        assert len({r["oracle"] for r in records}) == 1

    def test_y_count_threshold_just_above_the_lattice(self, run, tmp_path):
        # K / K_hat = 6 / (1 - 2**-53) is 6 + 6.7e-16, so the event is
        # {X <= 6}: the count is that ratio correctly rounded, one ulp above 6
        scenario = {
            "outcome": {"l": 200, "p": 0.05, "injection": {"K_hat": 1 - 2**-53, "m_hat": 0.5}},
            "model": {"family": "weibull", "K": 6.0, "m": 0.5},
            "time_grid": {"t": 1.0},
            "variant": "Y",
            "verify": {"exact": True},
        }
        config = write_scenario(tmp_path, scenario)
        _, out, _ = run(["verify", "--config", config], expect=EXIT_OK)
        (record,) = json.loads(out)["verification"]
        assert record["event"].split(": ", 1)[1] == "Pr[X < 6.000000000000001], X ~ Binomial(l=200, p=0.05)"
        assert record["oracle"] == pytest.approx(binom.cdf(6, 200, 0.05), rel=1e-9)
        assert round(record["oracle"], 4) == 0.1237

    def test_y_count_threshold_from_logs_where_the_power_overflows(self, run, tmp_path):
        # the count (K/K_hat)*t**(m - m_hat) = 2.5e-310 * (1e155)**2 is 2.5,
        # but the power t**2 overflows, so it comes from the logs; the event
        # is {X <= 2}, and the bound, about exp(-8.9e222), fails against it
        scenario = {
            "outcome": {"l": 200, "p": 0.05, "injection": {"K_hat": 1e300, "m_hat": -0.5}},
            "model": {"family": "weibull", "K": 2.5e-10, "m": 1.5},
            "time_grid": {"t": 1e155},
            "variant": "Y",
            "verify": {"exact": True},
        }
        config = write_scenario(tmp_path, scenario)
        _, out, _ = run(["verify", "--config", config], expect=EXIT_VERIFICATION)
        (record,) = strict_json(out)["verification"]
        event = record["event"].split(": ", 1)[1]
        assert event.startswith("Pr[X < 2.49999999999") and event.endswith("], X ~ Binomial(l=200, p=0.05)")
        assert float(event[len("Pr[X < "):].split("]")[0]) == pytest.approx(2.5, rel=1e-12)
        assert record["oracle"] == pytest.approx(binom.cdf(2, 200, 0.05), rel=1e-9)
        assert round(record["oracle"], 6) == 0.002336

    @settings(max_examples=300, deadline=None)
    @given(
        K=st.floats(1e-100, 1e100),
        K_hat=st.floats(1e-100, 1e100),
        m=st.floats(-0.99, 10.0),
        t=st.floats(1e-3, 1e3),
    )
    def test_y_count_threshold_is_the_ratio_where_m_is_m_hat(self, K, K_hat, m, t):
        # the count is K/K_hat * t**0.0, and t**0.0 is exactly 1, so it is
        # the exact rational K/K_hat correctly rounded, whatever the two
        # rounded hazards K*t**m and K_hat*t**m give as a quotient
        model = HazardModel(HazardFamily.WEIBULL, K=K, m=m)
        injection = HazardModel(HazardFamily.WEIBULL, K=K_hat, m=m)
        mu, threshold = 10.0 * K_hat * t**m, K * t**m
        row = BoundResult("Thm3", mu, threshold, 1.0 - threshold / mu, None, None, Regime.OUT_OF_REGIME, t)
        assert report_module._count_threshold(row, model, injection) == float(Fraction(K) / Fraction(K_hat))

    def test_verdict_ranges(self, run, tmp_path):
        scenario = {
            "outcome": {"l": 100, "p": 0.05},
            "model": {"family": "li", "K": 1.0},
            "time_grid": {"start": 1.0, "stop": 9.0, "steps": 9},
            "kinds": ["hazard"],
            "verify": {"exact": True},
        }
        config = write_scenario(tmp_path, scenario)
        _, out, _ = run(["verify", "--config", config], expect=EXIT_OK)
        summary = json.loads(out)["summary"]
        assert summary["out_of_regime_at"] == [[5.0, 9.0]]
        # bound at t=1: exp(-(5-1)^2/10) = exp(-1.6) ~ 0.2, above the
        # default 0.05 cutoff; at t=4: exp(-0.1) ~ 0.9
        assert summary["feasible_at"] == [[1.0, 4.0]]
        assert summary["infeasible_at"] == []

    def test_verdict_ranges_are_disjoint_runs_covering_the_grid(self, run, tmp_path):
        # the Y-variant reliability bound dips below epsilon and recovers,
        # so the feasible points form two runs around an infeasible one
        scenario = {
            "outcome": {"l": 2000, "p": 0.0044, "injection": {"K_hat": 1.3, "m_hat": 0.375}},
            "model": {"family": "weibull", "K": 2.65, "m": 2.1},
            "time_grid": {"start": 1e-3, "stop": 100.0, "steps": 60, "spacing": "log"},
            "kinds": ["hazard", "reliability"],
            "variant": "Y",
            "epsilon": 0.6,
        }
        config = write_scenario(tmp_path, scenario)
        _, out, _ = run(["verify", "--config", config])
        report = json.loads(out)
        summary = report["summary"]
        ranges = summary["feasible_at"] + summary["infeasible_at"] + summary["out_of_regime_at"]
        grid = sorted({row["t"] for row in report["rows"]})
        assert len(grid) == 60
        for t in grid:
            assert sum(lo <= t <= hi for lo, hi in ranges) == 1, t
        assert len(summary["feasible_at"]) > 1

    @pytest.mark.parametrize("command", ["sweep", "verify"])
    def test_variant_is_derived_from_the_injection(self, run, tmp_path, command):
        # the same scenario with and without "variant": "Y" gives the same output
        derived = {key: value for key, value in GOLDEN_VERIFY_Y.items() if key != "variant"}
        _, stated, _ = run([command, "--config", write_scenario(tmp_path, GOLDEN_VERIFY_Y, "stated.json")], EXIT_OK)
        _, out, _ = run([command, "--config", write_scenario(tmp_path, derived, "derived.json")], EXIT_OK)
        if command == "sweep":
            assert out == stated
        else:
            a, b = json.loads(stated), json.loads(out)
            for report in (a, b):
                report.pop("timestamp")
            assert b.pop("scenario") == derived and a.pop("scenario") == GOLDEN_VERIFY_Y
            assert a == b and any(row["theorem"] == "Thm3" for row in a["rows"])


def _replace(path, value, base=DESK_SCENARIO):
    """A copy of ``base`` with the field at ``path`` (a tuple of keys) set to ``value``."""
    scenario = copy.deepcopy(base)
    target = scenario
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return scenario


#: a Y scenario that verifies as it stands; it states no variant
Y_DESK = {
    "outcome": {"l": 10, "p": 0.5, "injection": {"K_hat": 1.0, "m_hat": 0.0}},
    "model": {"family": "weibull", "K": 0.02, "m": 0.0},
    "time_grid": {"t": 1.0},
    "kinds": ["hazard", "reliability"],
}

#: an in-regime point checked by the exact oracle alone, for an outcome of
#: mean about 1e5 with l near the top of the float range
HUGE_L = {
    "model": {"family": "constant", "lambda": 99000},
    "time_grid": {"t": 1.0},
    "kinds": ["hazard"],
    "verify": {"exact": True, "mc_trials": 0},
}

#: id -> (scenario, extra argv, SDPFEAS_SEED): a value of the wrong JSON type,
#: out of range or contradicting the outcome, from the file, a flag or the
#: environment
MALFORMED = {
    "steps string": (_replace(("time_grid",), {"start": 1.0, "stop": 2.0, "steps": "x"}), [], None),
    "p string": (_replace(("outcome", "p"), "abc"), [], None),
    "time_grid list": (_replace(("time_grid",), [1, 2]), [], None),
    "n string": (_replace(("outcome", "n"), "x"), [], None),
    "kinds number": (_replace(("kinds",), 5), [], None),
    "seed string": (_replace(("verify", "seed"), "x"), [], None),
    "t string": (_replace(("time_grid",), {"t": "x"}), [], None),
    "l float": (_replace(("outcome", "l"), 100.7), [], None),
    "l bool": (_replace(("outcome", "l"), True), [], None),
    "K string": (_replace(("model",), {"family": "li", "K": "1"}), [], None),
    "mc_trials float": (_replace(("verify", "mc_trials"), 2.9), [], None),
    "epsilon string": (_replace(("epsilon",), "nan"), [], None),
    "env seed string": (_replace(("verify",), {"exact": True, "mc_trials": 10}), [], "x"),
    # int() reads these as 10, 3 and 7; the seed takes ASCII digits only
    "env seed underscore": (_replace(("verify",), {"exact": True, "mc_trials": 10}), [], "1_0"),
    "env seed arabic-indic digit": (_replace(("verify",), {"exact": True, "mc_trials": 10}), [], "\u0663"),
    "env seed leading space": (_replace(("verify",), {"exact": True, "mc_trials": 10}), [], " 7"),
    "flag seed negative": (DESK_SCENARIO, ["--seed", "-1"], None),
    "flag epsilon negative": (DESK_SCENARIO, ["--epsilon", "-3"], None),
    "flag trials negative": (DESK_SCENARIO, ["--trials", "-5"], None),
    "steps too many": (_replace(("time_grid",), {"start": 1.0, "stop": 2.0, "steps": 10**9}), [], None),
    "variant Y without injection": (_replace(("variant",), "Y"), [], None),
    "variant X with injection": (_replace(("variant",), "X", base=Y_DESK), [], None),
    "t zero": (_replace(("time_grid",), {"t": 0}), [], None),
    "t negative": (_replace(("time_grid",), {"t": -1}), [], None),
    "stop at start": (_replace(("time_grid",), {"start": 2.0, "stop": 2.0, "steps": 3}), [], None),
    "stop below start": (_replace(("time_grid",), {"start": 2.0, "stop": 1.0, "steps": 3}), [], None),
    "kinds empty": (_replace(("kinds",), []), [], None),
    "n below l": (_replace(("outcome", "n"), 99), [], None),
    "injection K_hat zero": (_replace(("outcome", "injection"), {"K_hat": 0.0, "m_hat": 0.0}, base=Y_DESK), [], None),
    "injection m_hat -1": (_replace(("outcome", "injection"), {"K_hat": 1.0, "m_hat": -1.0}, base=Y_DESK), [], None),
    # the oracle's domain, each just past its cap
    "l past 2**53": (_replace(("outcome", "l"), 10**40), [], None),
    "l past the float range": (_replace(("outcome", "l"), 10**400), [], None),
    "mc_trials past the cap": (_replace(("verify", "mc_trials"), MAX_TRIALS + 1), [], None),
    "flag trials past the cap": (DESK_SCENARIO, ["--trials", str(MAX_TRIALS + 1)], None),
    # mean 1e5 within both caps, but 2*pi*k*(l - k) overflows in the log-pmf
    "log-pmf past the float range": (dict(HUGE_L, outcome={"l": 10**305, "p": 1e-300}), [], None),
    # a log point within rounding of the float range lands past it
    "log grid past the float range": (
        _replace(("time_grid",), {"start": 1.7976931348623e308, "stop": 1.7976931348623157e308, "steps": 1000,
                                  "spacing": "log"}), [], None),
    # text that json.loads refuses with a ValueError or a RecursionError
    "l of 5001 digits": (json.dumps(DESK_SCENARIO).replace('"l": 100', '"l": ' + "1" * 5001), [], None),
    "100000 nested lists": ("[" * 100000, [], None),
}


class TestMalformedInput:
    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_exits_1_with_one_error_line(self, run, tmp_path, monkeypatch, case):
        scenario, flags, env_seed = MALFORMED[case]
        if env_seed is None:
            monkeypatch.delenv(SEED_ENV_VAR, raising=False)
        else:
            monkeypatch.setenv(SEED_ENV_VAR, env_seed)
        config = write_scenario(tmp_path, scenario)
        _, out, err = run(["verify", "--config", config, *flags], expect=EXIT_USAGE)
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_null_seed_means_default(self, run, tmp_path, monkeypatch):
        monkeypatch.delenv(SEED_ENV_VAR, raising=False)
        config = write_scenario(tmp_path, _replace(("verify",), {"exact": True, "mc_trials": 1000, "seed": None}))
        _, out, _ = run(["verify", "--config", config], expect=EXIT_OK)
        assert {r.get("seed") for r in json.loads(out)["verification"]} == {None, 0}

    def test_steps_limit_is_inclusive(self):
        grid = report_module._build_grid({"start": 1.0, "stop": 2.0, "steps": report_module.MAX_STEPS})
        assert len(grid) == report_module.MAX_STEPS == 10**6
        with pytest.raises(InvalidInputError, match="steps"):
            report_module._build_grid({"start": 1.0, "stop": 2.0, "steps": report_module.MAX_STEPS + 1})

    @pytest.mark.parametrize("spacing", ["linear", "log"])
    def test_grid_matches_numpy(self, spacing):
        # a linear grid is np.linspace bit for bit where its step is not 0
        # (see test_zero_step_grid_repeats_a_point); a log grid is
        # np.geomspace's algorithm on libm, so its inner points may differ
        # from numpy's log10 and power in the last bits (by hundreds of ulp
        # at ratios near 1, where the two log10 ends differ by an ulp), its
        # ends and whether it strictly increases never
        cases = [(0.25, 3.0, 2), (0.1, 7.3, report_module.MAX_STEPS)]
        rng = random.Random(20260)
        for _ in range(2000):
            start = 10.0 ** rng.uniform(-300, 300)
            stop = start * (1.0 + 10.0 ** rng.uniform(-15, 3))
            cases.append((start, stop, round(10.0 ** rng.uniform(math.log10(2), math.log10(20000)))))
        for start, stop, steps in cases:
            grid = report_module._build_grid({"start": start, "stop": stop, "steps": steps, "spacing": spacing})
            assert len(grid) == steps
            where = f"grid {start!r}..{stop!r} x {steps}"
            if spacing == "log":
                points, expected = np.array(grid), np.geomspace(start, stop, steps)
                assert (grid[0], grid[-1]) == (start, stop), where
                assert np.all(np.diff(points) > 0) == np.all(np.diff(expected) > 0), where
                assert np.all(np.abs(points - expected) <= 1e-12 * expected), where
                continue
            expected = np.linspace(start, stop, steps).tolist()
            # the 64-bit images, which float.hex spells out, compared at C speed
            if array("d", grid).tobytes() != array("d", expected).tobytes():
                i = next(i for i, (a, b) in enumerate(zip(grid, expected)) if a.hex() != b.hex())
                pytest.fail(f"{where}, point {i}: {grid[i].hex()} != {expected[i].hex()}")

    @pytest.mark.parametrize(
        "start, stop, steps", [(5e-324, 1e-323, 10), (5e-324, 1.5e-323, 1000), (1e-320, 2e-320, 10**6)]
    )
    def test_zero_step_grid_repeats_a_point(self, run, tmp_path, start, stop, steps):
        # a subnormal span of at most half an ulp per interval: its step
        # rounds to 0, and the grid repeats a point, which the sweep refuses
        scenario = {
            "outcome": {"l": 100, "p": 0.05},
            "model": {"family": "constant", "lambda": 2.0},
            "time_grid": {"start": start, "stop": stop, "steps": steps},
        }
        _, out, err = run(["sweep", "--config", write_scenario(tmp_path, scenario)], expect=EXIT_USAGE)
        assert (out, err) == ("", "error: time grid must be strictly increasing\n")

    def test_unreadable_config_is_an_error_line(self, run, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_bytes(b"\xff\xfe{")
        _, _, err = run(["verify", "--config", str(path)], expect=EXIT_USAGE)
        assert err.startswith("error: cannot read")


#: id -> (flag, text): text that int() or float() would read as a number
COERCED_FLAGS = {
    "seed underscore": ("--seed", "1_0"),
    "seed leading space": ("--seed", " 7"),
    "trials arabic-indic digit": ("--trials", "\u0663"),
    "trials underscore": ("--trials", "1_000"),
    "epsilon underscore": ("--epsilon", "0_0.5"),
    "epsilon trailing newline": ("--epsilon", "0.05\n"),
    "epsilon arabic-indic digits": ("--epsilon", "\u0660.\u0660\u0665"),
    "epsilon nan": ("--epsilon", "nan"),
    "epsilon inf": ("--epsilon", "inf"),
}


class TestFlagText:
    """``--seed`` and ``--trials`` take ASCII digits with an optional
    leading '-', as SDPFEAS_SEED does, and ``--epsilon`` an ASCII decimal;
    argparse refuses any other text, after the usage, in its own words."""

    @pytest.mark.parametrize("case", sorted(COERCED_FLAGS))
    def test_coerced_form_is_refused(self, run, tmp_path, case):
        flag, text = COERCED_FLAGS[case]
        config = write_scenario(tmp_path, DESK_SCENARIO)
        _, out, err = run(["verify", "--config", config, flag, text], expect=EXIT_USAGE)
        kind = "float" if flag == "--epsilon" else "int"
        assert out == ""
        assert err.startswith("usage: sdpfeas verify")
        assert err.splitlines()[-1] == f"error: argument {flag}: invalid {kind} value: {text!r}"

    @pytest.mark.parametrize("text", [".05", "5e-2"])
    def test_decimal_epsilon_runs(self, run, tmp_path, text):
        # --seed 7 runs in TestVerify::test_seed_flag_overrides_config
        config = write_scenario(tmp_path, DESK_SCENARIO)
        _, out, _ = run(["verify", "--config", config, "--epsilon", text], expect=EXIT_OK)
        assert json.loads(out)["summary"]["epsilon"] == 0.05


#: the as-published Y reliability mean overflows between t = 2.65 and 3
Y_PUBLISHED = {
    "outcome": {"l": 50, "p": 0.1, "injection": {"K_hat": 1.0, "m_hat": 0.5}},
    "model": {"family": "weibull", "K": 2.0, "m": 0.5},
    "kinds": ["hazard", "reliability"],
    "variant": "Y",
    "corrected": False,
}


#: an outcome of mean l*p = 50 at t = 1e10, where K*t**m overflows for K = 1e300, m = 1
HUGE_T = {"outcome": {"l": 100, "p": 0.5}, "time_grid": {"t": 1e10}, "kinds": ["hazard"]}


class TestNumericLimits:
    @pytest.mark.parametrize(
        "scenario, label",
        [
            (dict(Y_PUBLISHED, time_grid={"t": 3.0}), "Thm4 (as-published)"),
            (dict(Y_PUBLISHED, time_grid={"t": 8.0}), "Thm4 (as-published)"),
            (
                dict(
                    HUGE_T,
                    outcome={"l": 100, "p": 0.5, "injection": {"K_hat": 1e300, "m_hat": 1.0}},
                    model={"family": "weibull", "K": 1.0, "m": 0.5},
                ),
                "Thm3",
            ),
            (dict(HUGE_T, model={"family": "weibull", "K": 1e300, "m": 1.0}), "Thm1"),
        ],
        ids=["3.0", "8.0", "thm3-mean-overflows", "thm1-threshold-overflows"],
    )
    def test_as_published_overflow_is_an_error_line(self, run, tmp_path, scenario, label):
        # a pow that overflows raises; a product that overflows, the Y mean
        # l*p*K_hat*t**m_hat or the X threshold K*t**m, is inf: each is one line
        config = write_scenario(tmp_path, scenario)
        t = scenario["time_grid"]["t"]
        commands = ["sweep", "verify"] if len(scenario["kinds"]) > 1 else ["bound", "sweep", "verify"]
        for command in commands:
            _, out, err = run([command, "--config", config], expect=EXIT_USAGE)
            assert out == ""
            assert err == f"error: {label} overflows a 64-bit float at t = {t!r}\n"

    def test_underflowed_mean_is_out_of_regime(self, run, tmp_path):
        # the Cor10 mean exp(l*p*expm1(-t)) is 3e-275 at t = 1 and underflows
        # to 0.0 from t = 4 on: a positive mean below the threshold 2, so
        # those rows are out of regime with delta -inf, and the sweep goes on
        scenario = {
            "outcome": {"l": 2000, "p": 0.5},
            "model": {"family": "constant", "lambda": 2.0},
            "time_grid": {"start": 1.0, "stop": 10.0, "steps": 4},
            "kinds": ["reliability"],
        }
        _, out, _ = run(["sweep", "--config", write_scenario(tmp_path, scenario)], expect=EXIT_OK)
        rows = out.splitlines()[1:]
        assert len(rows) == 4 and rows[0].endswith(",,out-of-regime")
        assert [row.split(",", 1)[1] for row in rows[1:]] == ["Cor10,0,2,-inf,,out-of-regime"] * 3
        # a one-point sweep gives the same row, with its delta
        from sdpfeas import HazardFamily, HazardModel, Regime, SdpOutcome

        row = bound_at(SdpOutcome(l=2000, p=0.5), HazardModel(HazardFamily.CONSTANT, lam=2.0), 4.0, "reliability")
        assert (row.regime, row.mu, row.delta, row.bound) == (Regime.OUT_OF_REGIME, 0.0, -math.inf, None)

    def test_underflowed_injected_mean_is_out_of_regime(self, run, tmp_path):
        # the Thm3 mean l*p*K_hat*t**m_hat = 50 * 1e-330 underflows to 0.0
        scenario = {
            "outcome": {"l": 100, "p": 0.5, "injection": {"K_hat": 1e-300, "m_hat": 1.0}},
            "model": {"family": "weibull", "K": 1.0, "m": 0.5},
            "time_grid": {"t": 1e-30},
        }
        _, out, _ = run(["sweep", "--config", write_scenario(tmp_path, scenario)], expect=EXIT_OK)
        [row] = csv.DictReader(io.StringIO(out))
        assert (row["theorem"], row["mu"], row["delta"], row["regime"]) == ("Thm3", "0", "-inf", "out-of-regime")

    def test_delta_past_the_float_range_is_null_in_json(self, run, tmp_path):
        # threshold / mu = 1e10 / 5e-299 overflows, so delta is -inf: the CSV
        # writes it, and JSON, which has no infinity, writes null
        scenario = {
            "outcome": {"l": 100, "p": 0.5, "injection": {"K_hat": 1e-300, "m_hat": 0.0}},
            "model": {"family": "weibull", "K": 1e10, "m": 0.0},
            "time_grid": {"t": 1.0},
        }
        config = write_scenario(tmp_path, scenario)
        _, out, _ = run(["sweep", "--config", config], expect=EXIT_OK)
        assert out.splitlines()[1] == "1,Thm3,5.0000000000000006e-299,10000000000,-inf,,out-of-regime"
        _, bound, _ = run(["bound", "--config", config], expect=EXIT_OUT_OF_REGIME)
        _, sweep, _ = run(["sweep", "--config", config, "--format", "json"], expect=EXIT_OK)
        _, verify, _ = run(["verify", "--config", config], expect=EXIT_OK)
        rows = [strict_json(bound), *strict_json(sweep), *strict_json(verify)["rows"]]
        assert [(row["regime"], row["delta"]) for row in rows] == [("out-of-regime", None)] * 3

    def test_as_published_below_overflow_still_sweeps(self, run, tmp_path):
        config = write_scenario(tmp_path, dict(Y_PUBLISHED, time_grid={"t": 2.62}))
        _, out, _ = run(["sweep", "--config", config], expect=EXIT_OK)
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [(r["theorem"], r["regime"]) for r in rows] == [("Thm3", "valid"), ("Thm4", "valid")]

    @pytest.mark.parametrize("t", [2.64, 2.65])
    def test_finite_mean_past_the_square_range_sweeps(self, run, tmp_path, t):
        # the kernel's square would overflow here; the row's bound is 0.0
        config = write_scenario(tmp_path, dict(Y_PUBLISHED, time_grid={"t": t}))
        _, out, _ = run(["sweep", "--config", config], expect=EXIT_OK)
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [(r["theorem"], r["regime"]) for r in rows] == [("Thm3", "valid"), ("Thm4", "valid")]
        assert rows[1]["bound"] == "0"

    def test_underflowed_sound_bound_verifies(self, run, tmp_path):
        # li K = 200 at t = 0.5: mu = 2000, threshold 100, log bound -902.5;
        # the bound and the exact tail both print as 0.0
        scenario = {
            "outcome": {"l": 200_000, "p": 0.01},
            "model": {"family": "li", "K": 200},
            "time_grid": {"t": 0.5},
            "verify": {"exact": True, "mc_trials": 20, "seed": 3},
        }
        config = write_scenario(tmp_path, scenario)
        _, out, _ = run(["verify", "--config", config], expect=EXIT_OK)
        report = json.loads(out)
        assert report["rows"][0]["bound"] == 0.0
        assert [r["holds"] for r in report["verification"]] == [True, True]

    @pytest.mark.parametrize(
        "m, regime, exact, mc, code",
        [(0.5, "valid", 1.0, 1.0, EXIT_VERIFICATION), (2.0, "trivial", 0.95**100, 0.008, EXIT_OK)],
        ids=["certain", "empty"],
    )
    def test_underflowed_injection_scale(self, run, tmp_path, m, regime, exact, mc, code):
        # K_hat * t**m_hat = 1e-400 underflows to 0.0, so the count comes
        # from logs. Against the Thm4 threshold of m = 0.5 the count is
        # 6.7e299, beyond every count, so the bound exp(-1/2) fails; the
        # m = 2 threshold underflows too, its row states Pr[Y < 0], and its
        # count is 1/(m + 1) = 1/3, so the event is {X = 0}
        scenario = {
            "outcome": {"l": 100, "p": 0.05, "injection": {"K_hat": 1.0, "m_hat": 2.0}},
            "model": {"family": "weibull", "K": 1.0, "m": m},
            "time_grid": {"t": 1e-200},
            "kinds": ["reliability"],
            "verify": {"exact": True, "mc_trials": 1000, "seed": 1},
        }
        config = write_scenario(tmp_path, scenario)
        _, out, _ = run(["verify", "--config", config], expect=code)
        report = strict_json(out)
        [row] = report["rows"]
        assert (row["theorem"], row["regime"]) == ("Thm4", regime)
        assert row["bound"] == pytest.approx(math.exp(-0.5), rel=1e-12)
        assert [(r["method"], r["oracle"], r["holds"]) for r in report["verification"]] == [
            ("exact", pytest.approx(exact, rel=1e-12), code == EXIT_OK),
            ("monte-carlo", mc, code == EXIT_OK),
        ]

    @pytest.mark.parametrize(
        "l, p, injection, family, t, kind, count, code",
        [
            (10, 0.05, (1e30, 0.0), ("weibull", 1e-300, 0.0), 1.0, "hazard", "5e-324", EXIT_VERIFICATION),
            (10, 0.05, (1e200, 0.0), ("weibull", 1e-200, 0.0), 1.0, "reliability", "5e-324", EXIT_OK),
            (10, 0.05, (1.0, 0.0), ("weibull", 1.5e-323, 0.0), 1.0, "hazard", "1.5e-323", EXIT_OK),
            (10, 0.05, (1e30, 0.0), ("weibull", 1e-300, 2.0), 1e-20, "hazard", "5e-324", EXIT_VERIFICATION),
            (10, 0.05, (1e30, 0.0), ("weibull", 1e-300, 2.0), 1e-20, "reliability", "5e-324", EXIT_OK),
            (100, 0.5, (1.0, -0.99), ("weibull", 1.0, 0.5), 5e-324, "reliability", "5e-324", EXIT_OK),
            (1, 0.05, None, ("li", 1e-300), 1e-30, "reliability", "5e-324", EXIT_VERIFICATION),
            (1, 0.05, None, ("ld", 1.5, 8.0), 0.1875, "hazard", "0.0", EXIT_OK),
        ],
        ids=[
            "quotient-underflows",
            "thm4-quotient-underflows",
            "within-4-ulp-of-0",
            "threshold-underflows",
            "thm4-threshold-underflows",
            "thm4-scale-overflows",
            "x-threshold-underflows",
            "ld-true-zero-at-K-over-m",
        ],
    )
    def test_positive_count_threshold_stays_positive(self, run, tmp_path, l, p, injection, family, t, kind, count, code):
        # threshold / scale is positive in real arithmetic, so the event is
        # {X = 0}, Pr = (1 - p)**l, however close to 0 the quotient lands or
        # where the threshold K*t**m = 1e-340 itself underflows: the Thm3
        # bound exp(-l*p*K_hat/2) = 0.0 fails against it, and the Thm4
        # bound exp(-exp(-1/2)/2) = 0.738 holds. Where the scale
        # K_hat*t**m_hat = 5e-324**-0.99 overflows, the count comes from its
        # logs, and the Thm4 bound 0.615 holds. Without an injection the X
        # threshold H/t = K*t/2 underflows alike, so the Cor8 bound
        # exp(-1/2) fails; ld's z(K/m) = 0 is a true zero, Pr[X < 0] = 0
        outcome = {"l": l, "p": p}
        if injection is not None:
            outcome["injection"] = dict(zip(("K_hat", "m_hat"), injection))
        model = dict(zip(("family", "K", "m"), family))
        scenario = {"outcome": outcome, "model": model, "time_grid": {"t": t}, "kinds": [kind]}
        config = write_scenario(tmp_path, scenario)
        _, out, err = run(["verify", "--config", config], expect=code)
        assert err == ""
        (record,) = strict_json(out)["verification"]
        assert record["event"].split(": ", 1)[1] == f"Pr[X < {count}], X ~ Binomial(l={l}, p={p})"
        assert record["oracle"] == pytest.approx(0.0 if count == "0.0" else (1 - p) ** l, rel=1e-12)
        assert record["holds"] is (code == EXIT_OK)

    @pytest.mark.parametrize(
        "injection, t",
        [({"K_hat": 1e-300, "m_hat": 1.0}, 1e-30), ({"K_hat": 1e-300, "m_hat": 2.0}, 1e-5)],
        ids=["log-count-overflows", "quotient-overflows"],
    )
    def test_count_threshold_past_the_float_range_is_certain(self, run, tmp_path, injection, t):
        # the Thm4 threshold H/t = 0.5 over the injected hazard K_hat*t**m_hat:
        # at t = 1e-30 the hazard underflows and the log of the count, 759,
        # overflows exp; at t = 1e-5 the quotient 0.5 / 1e-310 overflows.
        # Either count lies beyond every count, so the event is certain and
        # the bound exp(-1/8) fails against it
        scenario = {
            "outcome": {"l": 100, "p": 0.05, "injection": injection},
            "model": {"family": "weibull", "K": 0.5, "m": 0.0},
            "time_grid": {"t": t},
            "kinds": ["reliability"],
        }
        config = write_scenario(tmp_path, scenario)
        _, out, _ = run(["verify", "--config", config], expect=EXIT_VERIFICATION)
        (record,) = strict_json(out)["verification"]
        assert record["event"].split(": ", 1)[1] == "Pr[X < 1.7976931348623157e+308], X ~ Binomial(l=100, p=0.05)"
        assert (record["oracle"], record["holds"]) == (1.0, False)

    def test_underflowed_oracle_ratio_from_logs(self, run, tmp_path):
        # constant lambda = 2500: the bound is 3.68e-272, the exact tail
        # prints as 0.0, and its ratio to the bound is about 1e-78
        scenario = {
            "outcome": {"l": 100_000, "p": 0.05},
            "model": {"family": "constant", "lambda": 2500},
            "time_grid": {"t": 1.0},
            "verify": {"exact": True},
        }
        config = write_scenario(tmp_path, scenario)
        _, out, _ = run(["verify", "--config", config], expect=EXIT_OK)
        (record,) = json.loads(out)["verification"]
        assert record["oracle"] == 0.0 and 0.0 < record["bound"]
        assert 0.0 < record["ratio"] < 1e-70

    def test_l_past_the_square_range_verifies_without_a_warning(self, tmp_path):
        # l * l overflows in the log-pmf's stirlerr, harmlessly: in a fresh
        # process, where any warning would reach stderr, the report is the
        # finite one (within 6e-15 of the Poisson(1e5) tail) and stderr
        # stays empty
        config = write_scenario(tmp_path, dict(HUGE_L, outcome={"l": 10**200, "p": 1e-195}))
        result = subprocess.run(
            [sys.executable, "-m", "sdpfeas.cli", "verify", "--config", config],
            env=_subprocess_env(),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert (result.returncode, result.stderr) == (EXIT_OK, "")
        (record,) = strict_json(result.stdout)["verification"]
        assert record == {
            "event": f"Cor9 @ t=1.0: Pr[X < 99000.0], X ~ Binomial(l={10**200}, p=1e-195)",
            "bound": 0.006737946999085467,
            "oracle": 0.000765799557510798,
            "method": "exact",
            "holds": True,
            "slack": 0.005972147441574669,
            "ratio": 0.11365473156953283,
        }


#: a valid scenario whose one-field mutations must stay inside the exit-code
#: contract; hazard-only X bounds are sound, so a verify never exits 4
FUZZ_BASE = {
    "outcome": {"l": 60, "p": 0.05, "n": 80},
    "model": {"family": "weibull", "K": 0.5, "m": 0.5},
    "time_grid": {"start": 0.5, "stop": 4.0, "steps": 3, "spacing": "log"},
    "kinds": ["hazard"],
    "variant": "X",
    "corrected": True,
    "epsilon": 0.05,
    "verify": {"exact": True, "mc_trials": 0, "seed": 1},
}


def _paths(node, prefix=()):
    for key, value in node.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from _paths(value, prefix + (key,))


FUZZ_PATHS = sorted(_paths(FUZZ_BASE))

FUZZ_VALUES = st.one_of(
    st.text(max_size=6),
    st.booleans(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.lists(st.integers(-2, 2), max_size=3),
    st.none(),
    st.just(math.nan),
    st.integers(max_value=-1),
    st.floats(max_value=-1e-300, allow_infinity=True),
)


class TestScenarioFuzz:
    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(path=st.sampled_from(FUZZ_PATHS), value=FUZZ_VALUES)
    def test_one_bad_field_stays_in_the_exit_code_contract(self, tmp_path, path, value):
        config = tmp_path / "fuzz.json"
        config.write_text(json.dumps(_replace(path, value, base=FUZZ_BASE)))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["verify", "--config", str(config)])
        assert code in (EXIT_OK, EXIT_USAGE, EXIT_ASSUMPTION, EXIT_OUT_OF_REGIME), err.getvalue()
        if code == EXIT_USAGE:
            assert err.getvalue().startswith("error:")


#: a positive float from the smallest subnormal to the largest float,
#: the ends and powers of ten drawn as often as any float between
EXTREME = st.one_of(
    st.sampled_from([5e-324, 1e-320, 2.2250738585072014e-308, 1e-300, 1.0, 1e300, 1.7976931348623157e308]),
    st.integers(-323, 308).map(lambda e: 10.0**e),
    st.floats(5e-324, 1.7976931348623157e308),
)
#: an exponent above -1, near -1 included
EXPONENT = st.one_of(
    st.sampled_from([-1 + 2**-52, -0.999999999, -0.99, -0.5, 0.0, 2.0]),
    st.floats(-1.0, 50.0, exclude_min=True),
)
SCALE = st.integers(-300, 300).map(lambda e: 10.0**e) | st.floats(1e-300, 1e300)


@st.composite
def extreme_scenarios(draw):
    """A well-formed scenario of any family, either variant, both kinds and
    both sign modes, at the float range's ends, verified by the exact
    oracle alone."""
    family = draw(st.sampled_from(["weibull", "nld", "ld", "nli", "li", "constant"]))
    if family == "constant":
        model = {"family": family, "lambda": draw(SCALE)}
    else:
        model = {"family": family, "K": draw(SCALE)}
    if family == "weibull":
        model["m"] = draw(EXPONENT)
    elif family == "ld":
        model["m"] = draw(SCALE)
    outcome = {"l": draw(st.integers(1, 30)), "p": draw(st.sampled_from([1e-300, 0.5]) | st.floats(1e-9, 1 - 1e-9))}
    if draw(st.booleans()):
        outcome["injection"] = {"K_hat": draw(SCALE), "m_hat": draw(EXPONENT)}
    if draw(st.booleans()):
        time_grid = {"t": draw(EXTREME)}
    else:
        start, stop = sorted((draw(EXTREME), draw(EXTREME)))
        time_grid = {"start": start, "stop": stop, "steps": 3, "spacing": draw(st.sampled_from(["linear", "log"]))}
    return {
        "outcome": outcome,
        "model": model,
        "time_grid": time_grid,
        "kinds": draw(st.sampled_from([["hazard"], ["reliability"], ["hazard", "reliability"]])),
        "corrected": draw(st.booleans()),
        "verify": {"exact": True, "mc_trials": 0},
    }


class TestExtremeScenarios:
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(scenario=extreme_scenarios())
    # a Y row whose injection scale 5e-324**-0.99 overflows
    @example(
        scenario={
            "outcome": {"l": 100, "p": 0.5, "injection": {"K_hat": 1.0, "m_hat": -0.99}},
            "model": {"family": "weibull", "K": 1.0, "m": 0.5},
            "time_grid": {"t": 5e-324},
            "kinds": ["reliability"],
        }
    )
    def test_sweep_and_verify_stay_in_the_exit_code_contract(self, tmp_path, scenario):
        config = write_scenario(tmp_path, scenario)
        for command in ("sweep", "verify"):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([command, "--config", config])
            assert code in (EXIT_OK, EXIT_USAGE, EXIT_OUT_OF_REGIME, EXIT_VERIFICATION), err.getvalue()
            assert all(line.startswith("error:") for line in err.getvalue().splitlines()), err.getvalue()


class TestJsonOutput:
    """Every JSON the CLI prints is the canonical ``indent=2`` form."""

    @pytest.fixture
    def argvs(self, tmp_path):
        counts = tmp_path / "counts.json"
        counts.write_text(DESK_COUNTS)
        records = tmp_path / "records.csv"
        records.write_text("actual,predicted\ndefective,clean\nclean,clean\n")
        point = write_scenario(tmp_path, DESK_SCENARIO, "point.json")
        grid = write_scenario(tmp_path, GOLDEN_VERIFY, "grid.json")
        return {
            "metrics counts": ["metrics", "--counts", str(counts)],
            "metrics records": ["metrics", "--records", str(records)],
            "bound": ["bound", "--config", point],
            "sweep": ["sweep", "--config", grid, "--format", "json"],
            "verify": ["verify", "--config", grid],
        }

    @pytest.mark.parametrize("name", ["metrics counts", "metrics records", "bound", "sweep", "verify"])
    def test_stdout_is_json_dumps_indent_2(self, run, argvs, name):
        _, out, _ = run(argvs[name], expect=EXIT_OK)
        assert out == json.dumps(strict_json(out), indent=2) + "\n"


#: name -> argv; tests/golden/cli-usage.txt holds the exit code, stdout and
#: stderr of each call at COLUMNS=80. Regenerate it (only when a change of
#: help or usage text is intended) with
#:
#:     PYTHONPATH=src python tests/test_cli.py
USAGE_CASES = {
    "no arguments": [],
    "-h": ["-h"],
    "--help": ["--help"],
    "unknown command": ["frobnicate"],
    **{f"{command} -h": [command, "-h"] for command in ("metrics", "bound", "sweep", "verify")},
    "unknown option": ["verify", "--bogus"],
    "extra positional": ["verify", "--config", "x", "extra"],
    "bad format": ["sweep", "--format", "xml"],
    "both sign modes": ["bound", "--config", "x", "--corrected", "--as-published"],
    "seed not an integer": ["verify", "--config", "x", "--seed", "abc"],
    "metrics without a source": ["metrics"],
    "metrics with both sources": ["metrics", "--counts", "a", "--records", "b"],
}

USAGE_GOLDEN = Path(__file__).parent / "golden" / "cli-usage.txt"


def _captured(name: str, text: str) -> str:
    end = "" if not text or text.endswith("\n") else "\n\\ no newline at end\n"
    return f"--- {name}\n{text}{end}"


def usage_text() -> str:
    """Each USAGE_CASES call through cli.main, as the golden file records it."""
    blocks = []
    for name, argv in USAGE_CASES.items():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        blocks.append(
            f"=== {name}: {json.dumps(argv)}\nexit {code}\n"
            + _captured("stdout", out.getvalue())
            + _captured("stderr", err.getvalue())
        )
    return "".join(blocks)


def _subprocess_env(**extra) -> dict:
    src = str(Path(__file__).resolve().parent.parent / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])), **extra)


class TestTopLevel:
    def test_no_command_is_usage_error(self, run):
        run([], expect=EXIT_USAGE)

    def test_unknown_command_is_usage_error(self, run):
        run(["frobnicate"], expect=EXIT_USAGE)

    def test_exit_codes_are_the_documented_set(self):
        assert (EXIT_OK, EXIT_USAGE, EXIT_ASSUMPTION, EXIT_OUT_OF_REGIME, EXIT_VERIFICATION) == (
            0,
            1,
            2,
            3,
            4,
        )

    def test_help_and_usage_bytes_match_golden(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        assert usage_text().encode() == USAGE_GOLDEN.read_bytes()

    def test_console_script_reads_sys_argv(self, run, monkeypatch):
        # the sdpfeas console script calls main() with no argv
        monkeypatch.setenv("COLUMNS", "80")
        _, expected, _ = run(["verify", "-h"], expect=EXIT_OK)
        result = subprocess.run(
            [sys.executable, "-c", "import sys; from sdpfeas.cli import main; sys.exit(main())", "verify", "-h"],
            env=_subprocess_env(COLUMNS="80"),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert (result.returncode, result.stdout, result.stderr) == (EXIT_OK, expected, "")


class TestParserBuild:
    """The parser is built once, when sdpfeas.cli is imported, and carries
    nothing from one call to the next."""

    @pytest.fixture
    def added(self, monkeypatch):
        names = []
        add_parser = argparse._SubParsersAction.add_parser

        def recording_add_parser(self, name, **kwargs):
            names.append(name)
            return add_parser(self, name, **kwargs)

        monkeypatch.setattr(argparse._SubParsersAction, "add_parser", recording_add_parser)
        return names

    def test_no_call_builds_a_subparser(self, run, added, tmp_path):
        run(["verify", "--config", write_scenario(tmp_path, DESK_SCENARIO)], expect=EXIT_OK)
        run(["-h"], expect=EXIT_OK)
        run(["frobnicate"], expect=EXIT_USAGE)
        assert added == []

    @pytest.mark.parametrize("argv", [[], ["-h"], ["frobnicate"]])
    def test_no_command_builds_all_four_in_order(self, run, added, argv):
        # a call without a command is answered by the shared parser, which
        # build_parser filled with all four subparsers in order; the call
        # itself builds none
        build_parser()
        assert added == ["metrics", "bound", "sweep", "verify"]
        added.clear()
        _, out, err = run(argv)
        assert added == []
        assert "{metrics,bound,sweep,verify}" in out + err

    def test_no_state_carries_between_calls(self, run, tmp_path):
        reliability_y = {
            "outcome": {"l": 10, "p": 0.5, "injection": {"K_hat": 1.0, "m_hat": 0.0}},
            "model": {"family": "weibull", "K": 0.02, "m": 0.0},
            "time_grid": {"t": 1.0},
            "kinds": ["reliability"],
        }
        bound = ["bound", "--config", write_scenario(tmp_path, reliability_y, "bound.json")]
        sweep = ["sweep", "--config", write_scenario(tmp_path, DESK_SCENARIO, "sweep.json")]
        _, bound_out, _ = run(bound, expect=EXIT_OK)
        _, sweep_out, _ = run(sweep, expect=EXIT_OK)
        assert json.loads(bound_out)["sign_mode"] == "corrected"
        assert sweep_out.startswith("t,theorem,")

        _, out, _ = run(bound + ["--as-published"], expect=EXIT_OK)
        assert json.loads(out)["sign_mode"] == "as-published"
        run(["verify", "--bogus"], expect=EXIT_USAGE)
        assert run(bound, expect=EXIT_OK)[1] == bound_out

        _, out, _ = run(sweep + ["--format", "json"], expect=EXIT_OK)
        assert json.loads(out)[0]["theorem"] == "Cor9"
        run(["verify", "--bogus"], expect=EXIT_USAGE)
        assert run(sweep, expect=EXIT_OK)[1] == sweep_out


#: the sdpfeas modules loaded by now, sorted
LOADED = "sorted(name for name in sys.modules if name.split('.')[0] == 'sdpfeas')"

#: runs each argv list through cli.main in one fresh interpreter and prints,
#: after each, its exit code, whether scipy and numpy are loaded by then,
#: and which sdpfeas modules are
IMPORT_PROBE = f"""
import contextlib, io, json, sys
from sdpfeas.cli import main
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    print(json.dumps([code, "scipy" in sys.modules, "numpy" in sys.modules, {LOADED}]))
"""


def _run_probe(probe: str, *args: str, flags=()) -> list:
    """The JSON lines a fresh interpreter, started with ``flags``, prints
    running ``probe``."""
    result = subprocess.run(
        [sys.executable, *flags, "-c", probe, *args],
        env=_subprocess_env(),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return [json.loads(line) for line in result.stdout.splitlines()]


def _probe(*calls) -> list:
    return _run_probe(IMPORT_PROBE, json.dumps(calls))


#: prints which of STARTUP_MODULES are loaded after ``import sdpfeas.cli``
#: and after each argv list, run through cli.main, succeeds
STARTUP_PROBE = f"""
import contextlib, io, json, sys
def loaded():
    print(json.dumps([name for name in {STARTUP_MODULES!r} if name in sys.modules]))
import sdpfeas.cli
loaded()
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert sdpfeas.cli.main(argv) == 0
    loaded()
"""


#: command -> [exit code, scipy loaded, numpy loaded, sdpfeas modules loaded]
#: after it ran
@pytest.fixture(scope="module")
def probed(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("probe")
    counts = tmp_path / "counts.json"
    counts.write_text(DESK_COUNTS)
    point = write_scenario(tmp_path, DESK_SCENARIO, "point.json")
    grid = {"start": 0.5, "stop": 9.5, "steps": 40}
    linear = write_scenario(tmp_path, dict(DESK_SCENARIO, time_grid=dict(grid, spacing="linear")), "linear.json")
    log = write_scenario(tmp_path, dict(DESK_SCENARIO, time_grid=dict(grid, spacing="log")), "log.json")
    # verify, whose MC trials load numpy, goes last
    calls = _probe(["metrics", "--counts", str(counts)], ["bound", "--config", point], ["sweep", "--config", linear],
                   ["sweep", "--config", log], ["verify", "--config", point])
    return dict(zip(["metrics", "bound", "linear sweep", "log sweep", "verify"], calls))


#: the modules ``import sdpfeas.cli`` loads, and a metrics call no more
CLI_MODULES = ["sdpfeas", "sdpfeas.cli", "sdpfeas.confusion", "sdpfeas.errors"]
#: the modules bench/tracer.py looks up in sys.modules
TRACED_MODULES = ("cli", "confusion", "hazards", "outcome", "bounds", "oracle", "report")


class TestImports:
    def test_sweep_and_metrics_never_import_scipy(self, probed):
        # verify reaches both oracles, whose log-pmf needs no scipy
        assert {command: state[:2] for command, state in probed.items()} == dict.fromkeys(probed, [0, False])

    def test_only_mc_verify_loads_numpy(self, probed):
        assert [command for command, state in probed.items() if state[2]] == ["verify"]

    @pytest.mark.parametrize("spacing", ["linear", "log"])
    def test_exact_only_verify_loads_no_numpy(self, tmp_path, spacing):
        # the exact oracle and both grids are plain math; only the MC draw needs numpy
        scenario = dict(DESK_SCENARIO, time_grid={"start": 0.5, "stop": 9.5, "steps": 40, "spacing": spacing},
                        verify={"exact": True, "mc_trials": 0})
        [[code, scipy, numpy, _]] = _probe(["verify", "--config", write_scenario(tmp_path, scenario)])
        assert (code, scipy, numpy) == (EXIT_OK, False, False)

    def test_import_loads_only_what_metrics_needs(self):
        probe = f"import json, sys, sdpfeas.cli\nprint(json.dumps([{LOADED}, 'numpy' in sys.modules]))"
        assert _run_probe(probe) == [[CLI_MODULES, False]]

    def test_metrics_records_loads_no_further_module(self, tmp_path):
        records = tmp_path / "records.csv"
        records.write_text("actual,predicted\ndefective,clean\nclean,clean\n")
        assert _probe(["metrics", "--records", str(records)]) == [[EXIT_OK, False, False, CLI_MODULES]]

    def test_metrics_loads_no_dataclasses_typing_pathlib_or_inspect(self, tmp_path):
        # -S: without site, which may load typing and pathlib itself
        records = tmp_path / "records.csv"
        records.write_text("actual,predicted\ndefective,clean\nclean,clean\n")
        counts = tmp_path / "counts.json"
        counts.write_text('{"tp": 0, "fn": 1, "fp": 0, "tn": 1}')
        calls = [["metrics", "--records", str(records)], ["metrics", "--counts", str(counts)]]
        assert _run_probe(STARTUP_PROBE, json.dumps(calls), flags=["-S"]) == [[], [], []]

    def test_a_sweep_loads_every_module_the_benchmark_tracer_looks_up(self, tmp_path):
        # bench/tracer.py indexes sys.modules by these names once the
        # benchmark's first round has run
        grid = {"start": 0.5, "stop": 9.5, "steps": 40, "spacing": "linear"}
        linear = write_scenario(tmp_path, dict(DESK_SCENARIO, time_grid=grid))
        [[code, _, _, loaded]] = _probe(["sweep", "--config", linear])
        assert code == EXIT_OK
        assert {f"sdpfeas.{name}" for name in TRACED_MODULES} <= set(loaded)


if __name__ == "__main__":
    os.environ["COLUMNS"] = "80"
    USAGE_GOLDEN.write_text(usage_text())
