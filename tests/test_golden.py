"""Golden outputs: sweep CSVs for every family and both kinds, an X and a
Y verify report with exact and Monte-Carlo records, and the exception type and
message of each invalid input below. Refactors of the family table, the
bound resolver or the sampler must leave every byte unchanged. The same
command also writes each demo's stdout, which ``tests/test_demos.py``
compares.

Regenerate the files under ``tests/golden/`` (only when a change of output
is intended, and say so in CHANGES.md) with

    PYTHONPATH=src python tests/test_golden.py
"""

import itertools
import json
import math
from pathlib import Path

import pytest

from conftest import strict_json
from sdpfeas import (
    BoundKind,
    BoundResult,
    HazardFamily,
    HazardModel,
    SdpOutcome,
    bound_sweep,
    cumulative_hazard,
    expected_hazard,
    expected_reliability_bound,
    hazard_at,
    hazard_bound,
    model_from_descriptor,
    reliability_bound,
    reliability_tail_threshold,
)
from sdpfeas.bounds import FORMS, _form
from sdpfeas.hazards import FAMILIES
from sdpfeas.report import ScenarioConfig, build_report, run_sweep, sweep_to_csv

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
X_OUT = SdpOutcome(l=100, p=0.05)
Y_OUT = SdpOutcome(l=100, p=0.05, injection=HazardModel(HazardFamily.WEIBULL, K=1.0, m=0.5))

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
    "hazard beyond ld domain": lambda: hazard_at(HazardModel(LD, K=3.0, m=1.5), 2.5),
    "cumulative beyond ld domain": lambda: cumulative_hazard(HazardModel(LD, K=3.0, m=1.5), 2.5),
    "threshold beyond ld domain": lambda: reliability_tail_threshold(HazardModel(LD, K=3.0, m=1.5), 2.5),
    "nld hazard at 0": lambda: hazard_at(HazardModel(HazardFamily.NONLINEAR_DECREASING, K=1.0), 0.0),
    "weibull m<0 hazard at 0": lambda: hazard_at(HazardModel(W, K=1.0, m=-0.5), 0.0),
    "weibull m>0 hazard at 0": lambda: hazard_at(HazardModel(W, K=1.0, m=0.5), 0.0),
    "li threshold at 0": lambda: reliability_tail_threshold(HazardModel(HazardFamily.LINEAR_INCREASING, K=1.0), 0.0),
    "nld cumulative at 0": lambda: cumulative_hazard(HazardModel(HazardFamily.NONLINEAR_DECREASING, K=1.0), 0.0),
    "negative time": lambda: hazard_at(HazardModel(W, K=1.0, m=1.0), -1.0),
    "infinite time": lambda: cumulative_hazard(HazardModel(HazardFamily.CONSTANT, lam=1.0), math.inf),
    "nan time": lambda: reliability_tail_threshold(HazardModel(HazardFamily.CONSTANT, lam=1.0), math.nan),
    "X reliability at t=0": lambda: reliability_bound(X_OUT, HazardModel(W, K=1.0, m=1.0), 0.0),
    "X reliability beyond ld domain": lambda: reliability_bound(X_OUT, HazardModel(LD, K=3.0, m=1.5), 2.5),
    "Y hazard on ld": lambda: hazard_bound(Y_OUT, HazardModel(LD, K=3.0, m=1.5), 1.0),
    "Y reliability on constant": lambda: reliability_bound(Y_OUT, HazardModel(HazardFamily.CONSTANT, lam=1.0), 1.0),
    "scenario X on Y outcome": lambda: ScenarioConfig.from_descriptor(dict(SWEEPS["y-corrected"], variant="X")),
    "scenario Y on X outcome": lambda: ScenarioConfig.from_descriptor(dict(SWEEPS["weibull"], variant="Y")),
    "sweep bad kind": lambda: bound_sweep(X_OUT, HazardModel(W, K=1.0, m=1.0), [1.0], kind="bogus"),
    "sweep empty grid": lambda: bound_sweep(X_OUT, HazardModel(W, K=1.0, m=1.0), []),
    "sweep Y on li": lambda: bound_sweep(Y_OUT, HazardModel(HazardFamily.LINEAR_INCREASING, K=1.0), [1.0], kind=BoundKind.RELIABILITY),
}


def sweep_csv(name: str) -> str:
    config = ScenarioConfig.from_descriptor(dict(SWEEPS[name], kinds=BOTH))
    return sweep_to_csv(run_sweep(config))


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
    # its sign mode and, as mu, the public mean of the outcome
    reached, sign_modes = set(), set()
    for name in SWEEPS:
        config = ScenarioConfig.from_descriptor(dict(SWEEPS[name], kinds=BOTH))
        outcome, corrected = config.outcome, config.corrected
        for kind in BoundKind:
            sign_mode, form = _form(outcome, kind, corrected)
            reached.update(key for key, row in FORMS.items() if row is form)
            entries = bound_sweep(outcome, config.model, config.grid, kind, corrected)
            tag = form.tag(FAMILIES[config.model.family])
            modes = {entry.sign_mode for entry in entries if isinstance(entry, BoundResult)}
            assert {entry.theorem_tag for entry in entries} == {tag} and modes <= {sign_mode}
            sign_modes |= modes
            for entry in entries:
                if kind is BoundKind.HAZARD:
                    assert expected_hazard(outcome, entry.t) == entry.mu
                else:
                    assert expected_reliability_bound(outcome, entry.t, corrected) == entry.mu
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

    GOLDEN.mkdir(exist_ok=True)
    for name, thunk in OUTPUTS.items():
        (GOLDEN / name).write_text(thunk())
        print(f"wrote {GOLDEN / name}")
    for demo in DEMOS:
        result = run_demo(demo)
        result.check_returncode()
        demo_golden(demo).write_bytes(result.stdout)
        print(f"wrote {demo_golden(demo)}")
