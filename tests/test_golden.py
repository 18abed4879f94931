"""Golden outputs: sweep CSVs for every family and both kinds, an X and a
Y verify report with exact and Monte-Carlo records, and the exception type and
message of each invalid input below. Refactors of the family table, the
bound resolver or the sampler must leave every byte unchanged. The same
command also writes each demo's stdout, which ``tests/test_demos.py``
compares.

Regenerate the files under ``tests/golden/`` (only when a change of output
is intended, and say so in CHANGES.md) with

    PYTHONPATH=src python tests/test_golden.py

which rewrites only the files whose bytes differ and prints
``changed <name>`` for each.
"""

import decimal
import itertools
import json
import math
from pathlib import Path

import pytest

from conftest import bound_at, strict_json
from sdpfeas import (
    BinomialWindow,
    BoundKind,
    BoundResult,
    HazardFamily,
    HazardModel,
    SdpFeasError,
    Regime,
    SdpOutcome,
    TailEstimate,
    TailMethod,
    bound_sweep,
    chernoff_lower_tail,
    false_omission_rate,
    model_from_descriptor,
    verify_bound,
)
from sdpfeas.bounds import FORMS, _form
from sdpfeas.confusion import records_from_csv
from sdpfeas.errors import indented_json
from sdpfeas.hazards import FAMILIES
from sdpfeas.report import FeasibilityReport, ScenarioConfig, build_report, sweep_to_csv

GOLDEN = Path(__file__).parent / "golden"

BOTH = ["hazard", "reliability"]

#: each X scenario crosses regimes in at least one kind; ld ends exactly
#: at t = K/m, where its hazard threshold is 0 (the TRIVIAL regime)
SWEEPS = {
    "weibull": {
        "outcome": {"l": 200, "p": 0.02},
        "model": {"family": "weibull", "K": 1.5, "m": 0.8},
        "time_grid": {"start": 0.05, "stop": 20.0, "steps": 24, "spacing": "log"},
    },
    "weibull-negative-m": {
        "outcome": {"l": 120, "p": 0.05},
        "model": {"family": "weibull", "K": 2.5, "m": -0.4},
        "time_grid": {"start": 0.01, "stop": 10.0, "steps": 16, "spacing": "log"},
    },
    "nld": {
        "outcome": {"l": 150, "p": 0.03},
        "model": {"family": "nld", "K": 0.8},
        "time_grid": {"start": 0.001, "stop": 10.0, "steps": 20, "spacing": "log"},
    },
    "ld": {
        "outcome": {"l": 100, "p": 0.02},
        "model": {"family": "ld", "K": 3.0, "m": 1.5},
        "time_grid": {"start": 0.25, "stop": 2.0, "steps": 8},
    },
    "nli": {
        "outcome": {"l": 300, "p": 0.01},
        "model": {"family": "nli", "K": 0.05},
        "time_grid": {"start": 0.5, "stop": 12.0, "steps": 24},
    },
    "li": {
        "outcome": {"l": 100, "p": 0.05},
        "model": {"family": "li", "K": 0.6},
        "time_grid": {"start": 1.0, "stop": 15.0, "steps": 15},
    },
    "weibull-linear": {
        "outcome": {"l": 2000, "p": 0.01},
        "model": {"family": "weibull", "K": 0.5, "m": 0.7},
        "time_grid": {"start": 0.05, "stop": 300.0, "steps": 37, "spacing": "linear"},
    },
    "constant": {
        "outcome": {"l": 100, "p": 0.05},
        "model": {"family": "constant", "lambda": 0.02},
        "time_grid": {"start": 0.1, "stop": 5.0, "steps": 12, "spacing": "log"},
    },
    "y-corrected": {
        "outcome": {"l": 50, "p": 0.1, "injection": {"K_hat": 1.0, "m_hat": 0.5}},
        "model": {"family": "weibull", "K": 2.0, "m": 0.5},
        "time_grid": {"start": 0.05, "stop": 2.0, "steps": 16, "spacing": "log"},
        "variant": "Y",
        "corrected": True,
    },
    "y-as-published": {
        "outcome": {"l": 50, "p": 0.1, "injection": {"K_hat": 1.0, "m_hat": 0.5}},
        "model": {"family": "weibull", "K": 2.0, "m": 0.5},
        "time_grid": {"start": 0.05, "stop": 2.0, "steps": 16, "spacing": "log"},
        "variant": "Y",
        "corrected": False,
    },
}

#: l <= 1e5, so the MC records come from the same sampler before and after
VERIFY = {
    "outcome": {"l": 2000, "p": 0.004},
    "model": {"family": "weibull", "K": 1.2, "m": 1.1},
    "time_grid": {"start": 0.1, "stop": 10.0, "steps": 12, "spacing": "log"},
    "kinds": BOTH,
    "verify": {"exact": True, "mc_trials": 4000, "seed": 11},
}

#: Y rows are checked in count units, threshold / (K_hat * t**m_hat); this
#: model puts a different non-integral count threshold at each point
VERIFY_Y = {
    "outcome": {"l": 200, "p": 0.05, "injection": {"K_hat": 1.0, "m_hat": 0.5}},
    "model": {"family": "weibull", "K": 7.5, "m": 0.7},
    "time_grid": {"start": 0.05, "stop": 2.0, "steps": 6, "spacing": "log"},
    "kinds": BOTH,
    "variant": "Y",
    "corrected": True,
    "verify": {"exact": True, "mc_trials": 2000, "seed": 5},
}

W = HazardFamily.WEIBULL
LD = HazardFamily.LINEAR_DECREASING
R = BoundKind.RELIABILITY
X_OUT = SdpOutcome(l=100, p=0.05)
Y_OUT = SdpOutcome(l=100, p=0.05, injection=HazardModel(HazardFamily.WEIBULL, K=1.0, m=0.5))


def verify_tail(*args, **kwargs):
    """verify_bound of the kernel at (10, 2) against TailEstimate(*args, **kwargs)."""
    return verify_bound(chernoff_lower_tail(10.0, 2.0), TailEstimate(*args, **kwargs))


def verify_row(bound, log_bound):
    """verify_bound of a hand-built in-regime row with this bound and log
    bound against an exact tail of 0.1."""
    row = BoundResult("Thm1", 5.0, 2.0, 0.6, bound, log_bound, Regime.VALID, 1.0)
    return verify_bound(row, TailEstimate(0.1, TailMethod.EXACT))


#: name -> thunk; the golden records the exception each one raises
ERROR_CASES = {
    "weibull K=0": lambda: HazardModel(W, K=0.0, m=1.0),
    "weibull m=-1": lambda: HazardModel(W, K=1.0, m=-1.0),
    "weibull m missing": lambda: HazardModel(W, K=1.0),
    "weibull K nan": lambda: HazardModel(W, K=math.nan, m=1.0),
    "nld K<0": lambda: HazardModel(HazardFamily.NONLINEAR_DECREASING, K=-1.0),
    "nli K missing": lambda: HazardModel(HazardFamily.NONLINEAR_INCREASING),
    "li K=0": lambda: HazardModel(HazardFamily.LINEAR_INCREASING, K=0.0),
    "ld m=0": lambda: HazardModel(LD, K=1.0, m=0.0),
    "ld K missing": lambda: HazardModel(LD, m=1.0),
    "constant lambda=0": lambda: HazardModel(HazardFamily.CONSTANT, lam=0.0),
    "constant lambda missing": lambda: HazardModel(HazardFamily.CONSTANT, K=1.0),
    "descriptor not object": lambda: model_from_descriptor([1]),
    "descriptor no family": lambda: model_from_descriptor({"K": 1}),
    "descriptor bad family": lambda: model_from_descriptor({"family": "bogus"}),
    "descriptor missing": lambda: model_from_descriptor({"family": "ld", "K": 1}),
    "descriptor extra": lambda: model_from_descriptor({"family": "li", "K": 1, "m": 2}),
    "descriptor lambda extra": lambda: model_from_descriptor({"family": "constant", "lambda": 1, "K": 1}),
    "descriptor weibull both missing": lambda: model_from_descriptor({"family": "weibull"}),
    "X hazard beyond ld domain": lambda: bound_at(X_OUT, HazardModel(LD, K=3.0, m=1.5), 2.5),
    # a closed form past the float range: a pow (t**4) raises, a product (K*t**2) is inf
    "X hazard pow overflows": lambda: bound_at(X_OUT, HazardModel(W, K=1.0, m=4.0), 1e100),
    "X hazard product overflows": lambda: bound_at(X_OUT, HazardModel(HazardFamily.NONLINEAR_INCREASING, K=1e300), 1e10),
    "X reliability pow overflows": lambda: bound_at(X_OUT, HazardModel(W, K=1.0, m=4.0), 1e100, R),
    "X reliability product overflows": lambda: bound_at(
        X_OUT, HazardModel(HazardFamily.NONLINEAR_INCREASING, K=1e300), 1e10, R
    ),
    # nld's z divides by sqrt(t): the sweep refuses t <= 0 before reading a column
    "X hazard at t=0": lambda: bound_at(X_OUT, HazardModel(HazardFamily.NONLINEAR_DECREASING, K=1.0), 0.0),
    "X hazard at negative t": lambda: bound_at(X_OUT, HazardModel(W, K=1.0, m=1.0), -1.0),
    "X reliability at t=0": lambda: bound_at(X_OUT, HazardModel(W, K=1.0, m=1.0), 0.0, R),
    "X reliability beyond ld domain": lambda: bound_at(X_OUT, HazardModel(LD, K=3.0, m=1.5), 2.5, R),
    "Y hazard on ld": lambda: bound_at(Y_OUT, HazardModel(LD, K=3.0, m=1.5), 1.0),
    "Y reliability on constant": lambda: bound_at(Y_OUT, HazardModel(HazardFamily.CONSTANT, lam=1.0), 1.0, R),
    "scenario X on Y outcome": lambda: ScenarioConfig.from_descriptor(dict(SWEEPS["y-corrected"], variant="X")),
    "scenario Y on X outcome": lambda: ScenarioConfig.from_descriptor(dict(SWEEPS["weibull"], variant="Y")),
    "sweep bad kind": lambda: bound_sweep(X_OUT, HazardModel(W, K=1.0, m=1.0), [1.0], kind="bogus"),
    "sweep empty grid": lambda: bound_sweep(X_OUT, HazardModel(W, K=1.0, m=1.0), []),
    "sweep Y on li": lambda: bound_sweep(Y_OUT, HazardModel(HazardFamily.LINEAR_INCREASING, K=1.0), [1.0], kind=BoundKind.RELIABILITY),
    # a model built in Python is read as a descriptor's is
    "weibull K bool": lambda: HazardModel(W, K=True, m=1.0),
    "weibull K inf": lambda: HazardModel(W, K=math.inf, m=1.0),
    "weibull K string": lambda: HazardModel(W, K="1", m=1.0),
    "weibull m inf": lambda: HazardModel(W, K=1.0, m=math.inf),
    "family bogus": lambda: HazardModel("bogus", K=1.0),
    "family by value": lambda: HazardModel("li", K=1.0),
    "Y hazard on li by value": lambda: bound_at(Y_OUT, HazardModel("li", K=1.0), 1.0),
    # a number or flag given from Python is read as a descriptor's is
    "sweep grid string": lambda: bound_sweep(X_OUT, HazardModel(W, K=1.0, m=1.0), ["2"]),
    "sweep grid bool": lambda: bound_sweep(X_OUT, HazardModel(W, K=1.0, m=1.0), [True]),
    "sweep grid Decimal": lambda: bound_sweep(X_OUT, HazardModel(W, K=1.0, m=1.0), [decimal.Decimal("2")]),
    "sweep corrected string": lambda: bound_sweep(
        Y_OUT, HazardModel(W, K=2.0, m=0.5), [1.0], kind=BoundKind.RELIABILITY, corrected="no"
    ),
    "hazard bound t bool": lambda: bound_at(X_OUT, HazardModel(W, K=1.0, m=1.0), True),
    "kernel mu bool": lambda: chernoff_lower_tail(True, 0.0),
    "kernel mu string": lambda: chernoff_lower_tail("5", "2"),
    "exact tail bool": lambda: BinomialWindow(10, 0.5).exact_tail(True),
    "exact tail string": lambda: BinomialWindow(10, 0.5).exact_tail("3"),
    "mc tails string": lambda: BinomialWindow(10, 0.5).mc_tails(["1"], 100, 1),
    "scenario no kinds": lambda: ScenarioConfig(X_OUT, HazardModel(W, K=1.0, m=1.0), [1.0], []),
    "scenario duplicate kinds": lambda: ScenarioConfig(X_OUT, HazardModel(W, K=1.0, m=1.0), [1.0], ["hazard", "hazard"]),
    # a parameter the family does not take, and an object of the wrong type
    "weibull lambda unused": lambda: HazardModel(W, K=1.0, m=1.0, lam="junk"),
    "li m unused": lambda: HazardModel("li", K=1.0, m=2.0),
    "verify float oracle": lambda: verify_bound(bound_at(X_OUT, HazardModel(W, K=1.0, m=1.0), 1.0), 0.1),
    "scenario string outcome": lambda: build_report(ScenarioConfig("x", HazardModel(W, K=1.0, m=1.0), [1.0], ["hazard"])),
    "scenario dict model": lambda: build_report(
        ScenarioConfig(X_OUT, {"family": "weibull", "K": 1.0, "m": 1.0}, [1.0], ["hazard"])
    ),
    # an oracle value that is not a probability, and a row with no bound
    "tail value nan": lambda: verify_tail(math.nan, TailMethod.EXACT),
    "tail value negative": lambda: verify_tail(-0.2, TailMethod.EXACT),
    "tail value above 1": lambda: verify_tail(1.5, TailMethod.EXACT),
    "tail method string": lambda: verify_tail(0.1, "exact"),
    "verify out-of-regime row": lambda: verify_bound(
        bound_sweep(X_OUT, HazardModel(HazardFamily.LINEAR_INCREASING, K=1.0), [6.0])[0],
        BinomialWindow(100, 0.05).exact_tail(6.0),
    ),
    # an object only Python hands in, of the wrong type
    "hazard bound None outcome": lambda: bound_at(None, HazardModel(W, K=1.0, m=1.0), 1.0),
    "reliability bound string model": lambda: bound_at(X_OUT, "weibull", 1.0, R),
    "sweep string model": lambda: bound_sweep(X_OUT, "li", [1.0]),
    "sweep dict outcome": lambda: bound_sweep({"l": 100, "p": 0.05}, HazardModel(W, K=1.0, m=1.0), [1.0]),
    "false omission rate tuple": lambda: false_omission_rate((1, 2, 3, 4)),
    "sweep grid None": lambda: bound_sweep(X_OUT, HazardModel(W, K=1.0, m=1.0), None),
    "scenario grid None": lambda: build_report(ScenarioConfig(X_OUT, HazardModel(W, K=1.0, m=1.0), None, ["hazard"])),
    # Monte-Carlo provenance on an exact tail, and an MC seed outside the key range
    "tail exact with seed": lambda: verify_tail(0.1, TailMethod.EXACT, seed=5),
    "tail exact with trials": lambda: verify_tail(0.1, TailMethod.EXACT, 100),
    "tail mc seed string": lambda: verify_tail(0.1, TailMethod.MONTE_CARLO, 100, "x"),
    "tail mc seed negative": lambda: verify_tail(0.1, TailMethod.MONTE_CARLO, 100, -1),
    "tail mc seed past key range": lambda: verify_tail(0.1, TailMethod.MONTE_CARLO, 100, 2**128),
    # a log value that is not the log of a probability
    "tail log value string": lambda: verify_tail(0.1, TailMethod.EXACT, log_value="x"),
    "tail log value nan": lambda: verify_tail(0.1, TailMethod.EXACT, log_value=math.nan),
    "tail log value positive": lambda: verify_tail(0.1, TailMethod.EXACT, log_value=0.5),
    # a hand-built row whose fields its consumers cannot use
    "verify row log bound string": lambda: verify_bound(
        BoundResult("Thm1", 5.0, 2.0, 0.6, 0.4, "x", Regime.VALID, 1.0), TailEstimate(0.1, TailMethod.EXACT)
    ),
    "verify row bound None": lambda: verify_bound(
        BoundResult("Thm1", 5.0, 2.0, 0.6, None, -0.9, Regime.VALID, 1.0), TailEstimate(0.1, TailMethod.EXACT)
    ),
    # a bound that is not a probability, and a number JSON cannot hold
    "verify row bound nan": lambda: verify_row(math.nan, math.nan),
    "verify row bound above 1": lambda: verify_row(1.5, -0.9),
    "verify row bound negative": lambda: verify_row(-0.1, -0.9),
    "verify row log bound nan": lambda: verify_row(0.4, math.nan),
    "verify row log bound positive": lambda: verify_row(0.4, 0.5),
    "json nan": lambda: indented_json({"rows": [{"bound": math.nan}]}),
    "json infinity": lambda: indented_json([1.0, math.inf]),
    "report row mu nan": lambda: FeasibilityReport(
        {}, [BoundResult("Thm1", math.nan, 2.0, 0.6, None, None, Regime.OUT_OF_REGIME, 1.0)], [], 0.05, ""
    ).to_json(),
    # a regime that is not a Regime member
    "verify row regime string": lambda: verify_bound(
        BoundResult("Thm1", 5.0, 6.0, -0.2, None, None, "out-of-regime", 1.0), TailEstimate(0.1, TailMethod.EXACT)
    ),
    "row to_dict regime string": lambda: BoundResult("Thm1", 5.0, 2.0, 0.6, 0.4, -0.9, "valid", 1.0).to_dict(),
    # a grid value that is not finite, refused as an unread one is
    "sweep grid inf": lambda: bound_sweep(X_OUT, HazardModel(W, K=1.0, m=1.0), [math.inf]),
    "sweep grid nan": lambda: bound_sweep(X_OUT, HazardModel(W, K=1.0, m=1.0), [math.nan]),
    "sweep grid trailing nans": lambda: bound_sweep(X_OUT, HazardModel(W, K=1.0, m=1.0), [1.0, math.nan, math.nan]),
    "sweep grid -inf": lambda: bound_sweep(X_OUT, HazardModel(W, K=1.0, m=1.0), [-math.inf]),
    # the first fault in file order: a bad record before a field the csv module refuses
    "records one field before an oversize field": lambda: records_from_csv(
        "actual,predicted\nclean\nclean," + "x" * 200000 + "\n"
    ),
    # a scenario's time grid and flags, read as its descriptor or constructor gives them
    "scenario time_grid missing stop": lambda: ScenarioConfig.from_descriptor(
        dict(SWEEPS["weibull"], time_grid={"start": 1.0, "steps": 3})
    ),
    "scenario time_grid extra step": lambda: ScenarioConfig.from_descriptor(
        dict(SWEEPS["weibull"], time_grid={"start": 1.0, "stop": 2.0, "steps": 3, "step": 0.5})
    ),
    "scenario time_grid geometric spacing": lambda: ScenarioConfig.from_descriptor(
        dict(SWEEPS["weibull"], time_grid={"start": 1.0, "stop": 2.0, "steps": 3, "spacing": "geometric"})
    ),
    "scenario time point 0": lambda: ScenarioConfig.from_descriptor(dict(SWEEPS["weibull"], time_grid={"t": 0})),
    "scenario corrected string": lambda: ScenarioConfig(
        X_OUT, HazardModel(W, K=1.0, m=1.0), [1.0], ["hazard"], corrected="yes"
    ),
    "scenario seed negative": lambda: ScenarioConfig(X_OUT, HazardModel(W, K=1.0, m=1.0), [1.0], ["hazard"], seed=-1),
    # a report row without a t, alone and after a swept row
    "report kernel row": lambda: FeasibilityReport({}, [chernoff_lower_tail(10.0, 2.0)], [], 0.05, "").to_json(),
    "report kernel row after a swept row": lambda: FeasibilityReport(
        {}, [*bound_sweep(X_OUT, HazardModel(W, K=1.0, m=1.0), [1.0]), chernoff_lower_tail(10.0, 2.0)], [], 0.05, ""
    ).to_json(),
}


def sweep_csv(name: str) -> str:
    return sweep_to_csv(ScenarioConfig.from_descriptor(dict(SWEEPS[name], kinds=BOTH)))


def verify_json(descriptor: dict) -> str:
    report = build_report(ScenarioConfig.from_descriptor(descriptor)).to_dict()
    report.pop("timestamp")
    return json.dumps(report, indent=2) + "\n"


def errors_text() -> str:
    lines = []
    for name, thunk in ERROR_CASES.items():
        try:
            thunk()
        except Exception as exc:  # the golden records whatever escapes
            lines.append(f"{name}: {type(exc).__name__}: {exc}")
        else:
            lines.append(f"{name}: no error")
    return "\n".join(lines) + "\n"


#: golden file name -> thunk producing its text
OUTPUTS = {
    **{f"sweep-{name}.csv": (lambda name=name: sweep_csv(name)) for name in SWEEPS},
    "verify-weibull.json": lambda: verify_json(VERIFY),
    "verify-y.json": lambda: verify_json(VERIFY_Y),
    "errors.txt": errors_text,
}


@pytest.mark.parametrize("name", sorted(OUTPUTS))
def test_matches_golden(name):
    assert OUTPUTS[name]() == (GOLDEN / name).read_text()


@pytest.mark.parametrize("descriptor", [VERIFY, VERIFY_Y], ids=["x", "y"])
def test_report_json_is_json_dumps_indent_2(descriptor):
    report = build_report(ScenarioConfig.from_descriptor(descriptor))
    assert report.to_json() == json.dumps(report.to_dict(), indent=2)


@pytest.mark.parametrize("name", sorted(ERROR_CASES))
def test_error_case_raises_a_package_error_or_nothing(name):
    # errors.txt records whatever escapes, so a TypeError or an
    # AttributeError would be pinned there as the expected result
    try:
        ERROR_CASES[name]()
    except SdpFeasError:
        pass


@pytest.mark.parametrize("name", ["verify-weibull.json", "verify-y.json"])
def test_golden_reports_are_strict_json(name):
    report = strict_json((GOLDEN / name).read_text())
    assert report["verification"] and report["summary"]["all_hold"] is True


def test_goldens_cover_every_regime_and_sign_mode():
    text = "".join(sweep_csv(name) for name in SWEEPS)
    for needle in (",valid\n", ",trivial\n", ",out-of-regime\n", "Thm3", "Thm4"):
        assert needle in text
    theorems = {line.split(",")[1] for line in text.splitlines()[1:] if not line.startswith("t,")}
    assert theorems >= {"Thm1", "Thm2", "Cor1", "Cor2", "Cor3", "Cor4", "Cor5", "Cor6",
                        "Cor7", "Cor8", "Cor9", "Cor10", "Thm3", "Thm4"}
    assert sweep_csv("y-corrected") != sweep_csv("y-as-published")
    # every FORMS row is reached by a golden sweep, whose rows carry its tag,
    # its sign mode and, as mu, the row's mean of the outcome
    reached, sign_modes = set(), set()
    for name in SWEEPS:
        config = ScenarioConfig.from_descriptor(dict(SWEEPS[name], kinds=BOTH))
        outcome, corrected = config.outcome, config.corrected
        for kind in BoundKind:
            sign_mode, form = _form(outcome, kind, corrected)
            reached.update(key for key, row in FORMS.items() if row is form)
            entries = bound_sweep(outcome, config.model, config.grid, kind, corrected)
            spec = FAMILIES[config.model.family]
            tag = form.tag or (spec.hazard_tag if kind is BoundKind.HAZARD else spec.reliability_tag)
            modes = {entry.sign_mode for entry in entries}
            assert {entry.theorem_tag for entry in entries} == {tag} and modes <= {sign_mode}
            sign_modes |= modes
            for entry in entries:
                assert form.mean(outcome.mean_failures, outcome.injection, entry.t) == entry.mu
    assert reached == set(FORMS) and sign_modes == {key[2] for key in FORMS}
    # each (variant, kind, corrected) resolves to exactly one row
    for (variant, outcome), kind, corrected in itertools.product(
        [("X", X_OUT), ("Y", Y_OUT)], BoundKind, [True, False]
    ):
        mode = "corrected" if corrected else "as-published"
        keys = [key for key in FORMS if key[:2] == (variant, kind) and key[2] in (mode, None)]
        sign_mode, form = _form(outcome, kind, corrected)
        assert keys == [(variant, kind, sign_mode)] and FORMS[keys[0]] is form


if __name__ == "__main__":
    from test_demos import DEMOS, demo_golden, run_demo

    def write(path: Path, data: bytes) -> None:
        """Write ``data`` to ``path`` only where its bytes differ."""
        if not path.exists() or path.read_bytes() != data:
            path.write_bytes(data)
            print(f"changed {path.name}")

    GOLDEN.mkdir(exist_ok=True)
    for name, thunk in OUTPUTS.items():
        write(GOLDEN / name, thunk().encode())
    for demo in DEMOS:
        result = run_demo(demo)
        result.check_returncode()
        write(demo_golden(demo), result.stdout)
