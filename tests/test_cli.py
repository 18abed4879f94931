import argparse
import contextlib
import copy
import csv
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sdpfeas import InvalidInputError
from sdpfeas import oracle as oracle_module
from sdpfeas import report as report_module
from sdpfeas.cli import (
    EXIT_ASSUMPTION,
    EXIT_OK,
    EXIT_OUT_OF_REGIME,
    EXIT_USAGE,
    EXIT_VERIFICATION,
    main,
)
from sdpfeas.report import SEED_ENV_VAR
from test_golden import VERIFY as GOLDEN_VERIFY

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
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


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

    def test_assumption_violation_exits_2(self, run, tmp_path):
        path = tmp_path / "counts.json"
        path.write_text('{"tp": 5, "fn": 0, "fp": 2, "tn": 17}')
        _, _, err = run(["metrics", "--counts", str(path)], expect=EXIT_ASSUMPTION)
        assert "at least one false negative and one true negative" in err

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
        run(["bound", "--config", config], expect=EXIT_USAGE)

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
        from sdpfeas import HazardFamily, HazardModel, SdpOutcome, hazard_bound

        model = HazardModel(HazardFamily.LINEAR_INCREASING, K=1.0)
        outcome = SdpOutcome(l=100, p=0.05)
        for row in csv.DictReader(io.StringIO(out)):
            t = float(row["t"])
            if row["regime"] != "valid":
                continue
            expected = hazard_bound(outcome, model, t)
            assert float(row["bound"]) == expected.bound  # bit-exact, not approx
            assert float(row["mu"]) == expected.mu
            assert float(row["delta"]) == expected.delta

    def test_json_format(self, run, tmp_path):
        config = write_scenario(tmp_path, self.li_scenario())
        _, out, _ = run(["sweep", "--config", config, "--format", "json"], expect=EXIT_OK)
        rows = json.loads(out)
        assert len(rows) == 9
        assert rows[0]["theorem"] == "Cor7"

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

    def test_one_mc_draw_per_verify(self, run, tmp_path, monkeypatch):
        evaluations, draws = [], []
        log_pmf = oracle_module._log_pmf

        def counting_log_pmf(l, p, ks):
            evaluations.append((l, p, len(ks)))
            return log_pmf(l, p, ks)

        class CountingGenerator(np.random.Generator):
            """Records the size of every uniform draw."""

            def random(self, size=None, *args, **kwargs):
                draws.append(size)
                return super().random(size, *args, **kwargs)

        monkeypatch.setattr(oracle_module, "_log_pmf", counting_log_pmf)
        monkeypatch.setattr(np.random, "Generator", CountingGenerator)
        config = write_scenario(tmp_path, GOLDEN_VERIFY)
        _, out, _ = run(["verify", "--config", config], expect=EXIT_OK)
        records = json.loads(out)["verification"]
        assert sum(r["method"] == "exact" for r in records) > 1
        assert sum(r["method"] == "monte-carlo" for r in records) > 1
        # l = 2000, p = 0.004: mean 8, sigma 2.8, so the window is [0, 161]
        assert evaluations == [(2000, 0.004, 162)]
        assert draws == [4000]

    def test_y_count_threshold_on_the_lattice(self, run, tmp_path):
        # the Thm3 count threshold is 6 in exact arithmetic at every t, but
        # threshold / scale rounds to 6 +- 1 ulp at some 280 of these points
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


def _replace(path, value, base=DESK_SCENARIO):
    """A copy of ``base`` with the field at ``path`` (a tuple of keys) set to ``value``."""
    scenario = copy.deepcopy(base)
    target = scenario
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return scenario


#: id -> (scenario, extra argv, SDPFEAS_SEED): a value of the wrong JSON type
#: or out of range, from the file, a flag or the environment
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
    "flag seed negative": (DESK_SCENARIO, ["--seed", "-1"], None),
    "flag epsilon negative": (DESK_SCENARIO, ["--epsilon", "-3"], None),
    "flag trials negative": (DESK_SCENARIO, ["--trials", "-5"], None),
    "steps too many": (_replace(("time_grid",), {"start": 1.0, "stop": 2.0, "steps": 10**9}), [], None),
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

    def test_unreadable_config_is_an_error_line(self, run, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_bytes(b"\xff\xfe{")
        _, _, err = run(["verify", "--config", str(path)], expect=EXIT_USAGE)
        assert err.startswith("error: cannot read")


#: the as-published Y reliability mean overflows between t = 2.65 and 3
Y_PUBLISHED = {
    "outcome": {"l": 50, "p": 0.1, "injection": {"K_hat": 1.0, "m_hat": 0.5}},
    "model": {"family": "weibull", "K": 2.0, "m": 0.5},
    "kinds": ["hazard", "reliability"],
    "variant": "Y",
    "corrected": False,
}


class TestNumericLimits:
    @pytest.mark.parametrize("t", [3.0, 8.0])
    def test_as_published_overflow_is_an_error_line(self, run, tmp_path, t):
        config = write_scenario(tmp_path, dict(Y_PUBLISHED, time_grid={"t": t}))
        _, out, err = run(["sweep", "--config", config], expect=EXIT_USAGE)
        assert out == ""
        assert err == f"error: Thm4 (as-published) overflows a 64-bit float at t = {t!r}\n"

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
        assert out == json.dumps(json.loads(out), indent=2) + "\n"


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
    """A call builds the subparser of its own command only."""

    @pytest.fixture
    def added(self, monkeypatch, capsys):
        names = []
        add_parser = argparse._SubParsersAction.add_parser

        def recording_add_parser(self, name, **kwargs):
            names.append(name)
            return add_parser(self, name, **kwargs)

        monkeypatch.setattr(argparse._SubParsersAction, "add_parser", recording_add_parser)

        def _added(argv):
            names.clear()
            main(argv)
            capsys.readouterr()
            return list(names)

        return _added

    def test_a_command_builds_only_its_own_subparser(self, added, tmp_path):
        config = write_scenario(tmp_path, DESK_SCENARIO)
        assert added(["verify", "--config", config]) == ["verify"]
        assert added(["sweep", "--config", config, "--format", "xml"]) == ["sweep"]

    @pytest.mark.parametrize("argv", [[], ["-h"], ["frobnicate"]])
    def test_no_command_builds_all_four_in_order(self, added, argv):
        assert added(argv) == ["metrics", "bound", "sweep", "verify"]


#: runs each argv list through cli.main in one fresh interpreter and prints,
#: after each, its exit code and whether scipy has been imported by then
SCIPY_PROBE = """
import contextlib, io, json, sys
from sdpfeas.cli import main
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    print(json.dumps([code, "scipy" in sys.modules]))
"""


class TestImports:
    def test_sweep_and_metrics_never_import_scipy(self, tmp_path):
        counts = tmp_path / "counts.json"
        counts.write_text(DESK_COUNTS)
        config = write_scenario(tmp_path, DESK_SCENARIO)
        calls = [["metrics", "--counts", str(counts)], ["sweep", "--config", config], ["verify", "--config", config]]
        result = subprocess.run(
            [sys.executable, "-c", SCIPY_PROBE, json.dumps(calls)],
            env=_subprocess_env(),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        # verify reaches both oracles, whose log-pmf needs no scipy
        assert [json.loads(line) for line in result.stdout.splitlines()] == [[0, False], [0, False], [0, False]]


if __name__ == "__main__":
    os.environ["COLUMNS"] = "80"
    USAGE_GOLDEN.write_text(usage_text())
