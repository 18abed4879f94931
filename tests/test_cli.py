import csv
import dataclasses
import io
import json
import math

import pytest

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
        _, out, _ = run(["bound", "--config", config], expect=EXIT_OUT_OF_REGIME)
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
