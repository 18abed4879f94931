"""Feasibility analysis of replacing manual software testing with a
binary defect-prediction model, via Chernoff lower-tail bounds on hazard
rate and reliability, verified against exact binomial and Monte-Carlo
oracles.

The names below are re-exported lazily (PEP 562): ``import sdpfeas``
loads no submodule, and the first use of a name loads the module that
defines it, so ``sdpfeas metrics`` never pays for the scenario stack.
"""

__version__ = "0.1.0"

#: module -> the names the package re-exports from it
_EXPORTS = {
    "bounds": (
        "BoundKind",
        "BoundResult",
        "Regime",
        "bound_sweep",
        "chernoff_lower_tail",
    ),
    "confusion": ("ConfusionMatrix", "confusion_from_records", "false_omission_rate"),
    "errors": (
        "AssumptionViolationError",
        "InvalidInputError",
        "NumericOverflowError",
        "ParseError",
        "SdpFeasError",
    ),
    "hazards": (
        "HazardFamily",
        "HazardModel",
        "model_from_descriptor",
    ),
    "oracle": ("BinomialWindow", "TailEstimate", "TailMethod", "VerificationRecord", "verify_bound"),
    "outcome": ("SdpOutcome", "outcome_from_descriptor"),
    "report": ("FeasibilityReport", "ScenarioConfig", "build_report", "run_sweep", "sweep_to_csv"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(f"{__name__}.{module}"), name)
