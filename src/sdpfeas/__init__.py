"""Feasibility analysis of replacing manual software testing with a
binary defect-prediction model, via Chernoff lower-tail bounds on hazard
rate and reliability, verified against exact binomial and Monte-Carlo
oracles."""

__version__ = "0.1.0"

from .bounds import (
    BoundKind,
    BoundResult,
    OutOfRegime,
    Regime,
    bound_sweep,
    chernoff_lower_tail,
    hazard_bound,
    reliability_bound,
)
from .confusion import (
    ConfusionMatrix,
    confusion_from_records,
    false_omission_rate,
)
from .errors import (
    AssumptionViolationError,
    DomainError,
    InvalidInputError,
    NumericOverflowError,
    OutOfRegimeError,
    ParseError,
    SdpFeasError,
)
from .hazards import (
    HazardFamily,
    HazardModel,
    cumulative_hazard,
    hazard_at,
    model_from_descriptor,
    reliability_at,
    reliability_tail_threshold,
)
from .oracle import BinomialWindow, TailEstimate, TailMethod, VerificationRecord, binomial_window, verify_bound
from .outcome import (
    SdpOutcome,
    expected_hazard,
    expected_reliability_bound,
    outcome_from_descriptor,
)
from .report import FeasibilityReport, ScenarioConfig, build_report, run_sweep, sweep_to_csv
