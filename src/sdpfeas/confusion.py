"""Classifier evaluation ingest: confusion matrices and the false omission rate.

The false omission rate FOR = FN / (FN + TN) is the probability that a
module predicted clean is actually defective; it is the single metric the
downstream bounds consume.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .errors import AssumptionViolationError, InvalidInputError, ParseError, read_integer, read_json, read_object

__all__ = [
    "ConfusionMatrix",
    "FailureProbability",
    "confusion_from_counts",
    "confusion_from_records",
    "false_omission_rate",
    "counts_from_descriptor",
    "counts_from_json",
    "records_from_csv",
]

#: canonical binary labels; matching is case-insensitive
DEFECTIVE = "defective"
CLEAN = "clean"


@dataclass(frozen=True)
class ConfusionMatrix:
    """The four prediction-outcome counts.

    ``tp`` and ``fp`` are carried for reporting only; the bound machinery
    uses just ``fn_`` and ``tn``.
    """

    tp: int
    fn_: int
    fp: int
    tn: int

    def __post_init__(self):
        for name in ("tp", "fn_", "fp", "tn"):
            value = read_integer(getattr(self, name), f"count {name!r}")
            if value < 0:
                raise InvalidInputError(f"count {name!r} must be >= 0, got {value}")

    def to_dict(self) -> dict:
        return {"tp": self.tp, "fn": self.fn_, "fp": self.fp, "tn": self.tn}


@dataclass(frozen=True)
class FailureProbability:
    """Per-module misclassification probability p, strictly inside (0, 1).

    ``numerator``/``denominator`` record the exact integer ratio the float
    was computed from, so reports stay auditable when FN + TN is large.
    """

    p: float
    numerator: int
    denominator: int

    def __post_init__(self):
        if not 0.0 < self.p < 1.0:
            raise InvalidInputError(f"failure probability must lie strictly in (0, 1), got {self.p!r}")

    @property
    def fraction(self) -> str:
        frac = Fraction(self.numerator, self.denominator)
        return f"{frac.numerator}/{frac.denominator}"


def confusion_from_counts(tp: int, fn_: int, fp: int, tn: int) -> ConfusionMatrix:
    """Build a confusion matrix from the four cell counts."""
    return ConfusionMatrix(tp=tp, fn_=fn_, fp=fp, tn=tn)


def _canonical_label(raw, index: int, aliases: Mapping[str, str] | None):
    if not isinstance(raw, str):
        raise ParseError(f"record {index}: label {raw!r} is not a string", index=index)
    label = raw.strip().lower()
    if aliases:
        label = aliases.get(label, label)
    if label not in (DEFECTIVE, CLEAN):
        raise ParseError(
            f"record {index}: unknown label {raw!r} (expected 'defective' or 'clean')",
            index=index,
        )
    return label


def confusion_from_records(
    records: Iterable[Sequence],
    aliases: Mapping[str, str] | None = None,
) -> ConfusionMatrix:
    """Tally (actual, predicted) label pairs into a confusion matrix.

    actual=defective & predicted=clean counts as a false negative. Labels
    are case-insensitive; ``aliases`` maps extra vocabulary onto the
    canonical labels.
    """
    if aliases is not None:
        aliases = {str(k).strip().lower(): str(v).strip().lower() for k, v in aliases.items()}
    tp = fn_ = fp = tn = 0
    for index, record in enumerate(records):
        try:
            actual_raw, predicted_raw = record
        except (TypeError, ValueError):
            raise ParseError(
                f"record {index}: expected an (actual, predicted) pair, got {record!r}",
                index=index,
            ) from None
        actual = _canonical_label(actual_raw, index, aliases)
        predicted = _canonical_label(predicted_raw, index, aliases)
        if actual == DEFECTIVE and predicted == DEFECTIVE:
            tp += 1
        elif actual == DEFECTIVE and predicted == CLEAN:
            fn_ += 1
        elif actual == CLEAN and predicted == DEFECTIVE:
            fp += 1
        else:
            tn += 1
    return ConfusionMatrix(tp=tp, fn_=fn_, fp=fp, tn=tn)


def false_omission_rate(matrix: ConfusionMatrix) -> FailureProbability:
    """FOR = FN / (FN + TN).

    Requires at least one false negative and one true negative; with
    either side at zero the ratio degenerates to 0 or 1, which the failure
    model excludes.
    """
    if matrix.fn_ < 1 or matrix.tn < 1:
        zero_side = "fn" if matrix.fn_ < 1 else "tn"
        raise AssumptionViolationError(
            "false omission rate needs at least one false negative and one "
            f"true negative; {zero_side} is zero",
            assumption=5,
            detail=zero_side,
        )
    denominator = matrix.fn_ + matrix.tn
    return FailureProbability(
        p=matrix.fn_ / denominator,
        numerator=matrix.fn_,
        denominator=denominator,
    )


def counts_from_descriptor(payload: dict) -> ConfusionMatrix:
    """Build a matrix from the object ``{"tp":int,"fn":int,"fp":int,"tn":int}``."""
    read_object(payload, "counts document", required=("tp", "fn", "fp", "tn"))
    return confusion_from_counts(tp=payload["tp"], fn_=payload["fn"], fp=payload["fp"], tn=payload["tn"])


def counts_from_json(text: str) -> ConfusionMatrix:
    """Parse the JSON counts format ``{"tp":int,"fn":int,"fp":int,"tn":int}``."""
    return counts_from_descriptor(read_json(text))


def records_from_csv(text: str, aliases: Mapping[str, str] | None = None) -> ConfusionMatrix:
    """Parse the CSV record format: header ``actual,predicted``, one pair per line."""
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise ParseError("empty CSV input; expected an 'actual,predicted' header") from None
    if [cell.strip().lower() for cell in header] != ["actual", "predicted"]:
        raise ParseError(f"expected header 'actual,predicted', got {header!r}")
    return confusion_from_records(
        (row for row in reader if row),
        aliases=aliases,
    )
