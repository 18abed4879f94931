"""The benchmark's checks accept sdpfeas's real outputs and reject each
deliberately corrupted one.

    PYTHONPATH=src python -m pytest -q bench/test_checks.py
"""

import io
import json
import math
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from checks import CheckError  # noqa: E402
from sdpfeas.cli import main  # noqa: E402


@pytest.fixture(autouse=True)
def small_workloads(monkeypatch):
    monkeypatch.setattr(workloads, "SWEEP_STEPS", 60)
    monkeypatch.setattr(workloads, "CAMPAIGN_TRIALS", 4000)
    monkeypatch.setattr(workloads, "LARGE_TRIALS", 20)


def run(call):
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(call.argv)
    return code, out.getvalue()


@pytest.fixture
def records(tmp_path):
    call = workloads.records_call(3, tmp_path)
    return (call, *run(call))


@pytest.fixture
def sweeps(tmp_path, records):
    p = json.loads(records[2])["p"]
    return [(call, *run(call)) for call in workloads.sweep_grid(3, tmp_path, p)]


@pytest.fixture
def campaign(tmp_path):
    call = workloads.verify_campaign(3, tmp_path)[0]
    return (call, *run(call))


@pytest.fixture
def large(tmp_path):
    call = workloads.verify_large_l(3, tmp_path)[0]
    return (call, *run(call))


def test_real_outputs_pass(records, sweeps, campaign, large):
    assert checks.check_call(records[0], records[2], records[1]) == checks.Tally()
    for call, code, out in sweeps:
        assert checks.check_call(call, out, code).rows == 2 * workloads.SWEEP_STEPS
    tally = checks.check_call(campaign[0], campaign[2], campaign[1])
    assert tally.records > 0 and tally.failed == 0
    # the deep-tail point's exact and MC records underflow; verify exits 4
    assert large[1] == 4
    steps = workloads.LARGE_STEPS
    assert checks.check_call(large[0], large[2], large[1]) == checks.Tally(rows=steps, records=2 * steps, failed=2)


def test_every_family_and_kind_has_both_regimes(sweeps):
    seen = set()
    for call, _, out in sweeps:
        for row in checks.parse_sweep_csv(out):
            seen.add((call.scenario.family, row["theorem"], row["regime"] == "out-of-regime"))
    for family, _, _ in seen:
        for tag in (checks.HAZARD_TAG[family], checks.RELIABILITY_TAG[family]):
            assert {(family, tag, True), (family, tag, False)} <= seen
    assert any(row["regime"] == "trivial" for _, _, out in sweeps for row in checks.parse_sweep_csv(out))


# -- corrupted metrics ---------------------------------------------------------


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda d: d.update(p=math.nextafter(d["p"], 1.0)),
        lambda d: d["confusion"].update(tn=d["confusion"]["tn"] + 1),
    ],
    ids=["p-one-ulp", "tn-plus-one"],
)
def test_metrics_corruption_rejected(records, corrupt):
    call, code, out = records
    payload = json.loads(out)
    corrupt(payload)
    with pytest.raises(CheckError):
        checks.check_call(call, json.dumps(payload), code)


# -- corrupted sweep CSV ---------------------------------------------------------


def _edit_csv(out, pick, edit):
    lines = out.splitlines()
    index = next(i for i, line in enumerate(lines) if i > 0 and pick(line.split(",")))
    cells = lines[index].split(",")
    replacement = edit(cells)
    lines[index : index + 1] = [] if replacement is None else [",".join(replacement)]
    return "\n".join(lines) + "\n"


def _fifteen_digit_mu(cells):
    return format(float(cells[2]), ".15g")


def _scale_bound(cells):
    return cells[:5] + [format(float(cells[5]) * (1 + 1e-9), ".17g")] + cells[6:]


SWEEP_CORRUPTIONS = {
    "bound-times-1+1e-9": (lambda c: c[6] == "valid", _scale_bound, "bound"),
    "dropped-out-of-regime-row": (lambda c: c[6] == "out-of-regime", lambda c: None, "rows"),
    "trivial-labelled-valid": (lambda c: c[6] == "trivial", lambda c: c[:6] + ["valid"], "regime"),
    "valid-labelled-out-of-regime": (lambda c: c[6] == "valid", lambda c: c[:5] + ["", "out-of-regime"], "regime"),
    # a mu such as 2.96993987975952 is itself a 17-digit float; cut one that is not
    "fifteen-digit-float": (
        lambda c: c[6] == "valid" and format(float(_fifteen_digit_mu(c)), ".17g") != _fifteen_digit_mu(c),
        lambda c: c[:2] + [_fifteen_digit_mu(c)] + c[3:],
        "round-trip",
    ),
    "threshold-shifted": (
        lambda c: c[6] == "valid",
        lambda c: c[:3] + [format(float(c[3]) * (1 + 1e-9), ".17g")] + c[4:],
        "threshold",
    ),
}


@pytest.mark.parametrize("name", sorted(SWEEP_CORRUPTIONS))
def test_sweep_corruption_rejected(sweeps, name):
    pick, edit, message = SWEEP_CORRUPTIONS[name]
    for call, code, out in sweeps:
        if any(pick(line.split(",")) for line in out.splitlines()[1:]):
            with pytest.raises(CheckError, match=message):
                checks.check_call(call, _edit_csv(out, pick, edit), code)
            return
    pytest.fail(f"no row to corrupt for {name}")


# -- corrupted verify report ---------------------------------------------------------


def _records(report, method, low=0.0, high=1.0):
    return [r for r in report["verification"] if r["method"] == method and low < r["oracle"] < high]


def _shift_hits(report):
    record = _records(report, "monte-carlo", 0.05, 0.95)[0]
    trials = workloads.CAMPAIGN_TRIALS
    q = record["oracle"]
    hits = round(q * trials) + math.ceil(10 * math.sqrt(trials * q * (1 - q)))
    record["oracle"] = hits / trials
    record["slack"] = record["bound"] - record["oracle"]


def _scale_exact(report):
    record = _records(report, "exact", 1e-12)[0]
    record["oracle"] *= 1 + 1e-6
    record["slack"] = record["bound"] - record["oracle"]


def _fractional_hits(report):
    record = _records(report, "monte-carlo", 0.05, 0.95)[0]
    record["oracle"] += 0.5 / workloads.CAMPAIGN_TRIALS
    record["slack"] = record["bound"] - record["oracle"]


def _drop_out_of_regime_row(report):
    index = next(i for i, r in enumerate(report["rows"]) if r["regime"] == "out-of-regime")
    del report["rows"][index]


def _flip_holds(report):
    report["verification"][0]["holds"] = False


def _move_range(report):
    ranges = report["summary"]["feasible_at"]
    ranges[0][1] = ranges[0][0]


def _change_seed(report):
    _records(report, "monte-carlo")[0]["seed"] += 1


REPORT_CORRUPTIONS = {
    "mc-hits-shifted": (_shift_hits, "binomial test"),
    "exact-tail-times-1+1e-6": (_scale_exact, "exact tail"),
    "mc-not-a-hit-count": (_fractional_hits, "hit count"),
    "dropped-out-of-regime-row": (_drop_out_of_regime_row, "rows"),
    "holds-flipped": (_flip_holds, "holds is false"),
    "feasible-range-moved": (_move_range, "feasible_at"),
    "mc-seed-changed": (_change_seed, "seed"),
}


@pytest.mark.parametrize("name", sorted(REPORT_CORRUPTIONS))
def test_report_corruption_rejected(campaign, name):
    call, code, out = campaign
    corrupt, message = REPORT_CORRUPTIONS[name]
    report = json.loads(out)
    corrupt(report)
    with pytest.raises(CheckError, match=message):
        checks.check_call(call, json.dumps(report), code)


def test_wrong_exit_code_rejected(large):
    call, code, out = large
    with pytest.raises(CheckError, match="exited"):
        checks.check_call(call, out, 0)


def test_underflow_verdict_fixed_in_log_space_is_accepted(large):
    """Once verification compares logs, the deep-tail records hold and
    verify exits 0; the check then counts no failures."""
    call, _, out = large
    report = json.loads(out)
    for record in report["verification"]:
        record["holds"] = True
    report["summary"]["all_hold"] = True
    assert checks.check_call(call, json.dumps(report), 0).failed == 0
