"""Classifier evaluation ingest: confusion matrices and the false omission rate.

The false omission rate FOR = FN / (FN + TN) is the probability that a
module predicted clean is actually defective; it is the single metric the
downstream bounds consume. ``false_omission_rate`` returns it as the exact
``fractions.Fraction``: its float is fn / (fn + tn) bit for bit, and its
str the reduced ratio, e.g. "3/20".
"""

from __future__ import annotations

import csv
import io
from collections import namedtuple
from collections.abc import Iterable, Sequence
from fractions import Fraction

from .errors import AssumptionViolationError, InvalidInputError, ParseError, read_instance, read_integer, read_json
from .errors import read_object

__all__ = [
    "ConfusionMatrix",
    "confusion_from_records",
    "false_omission_rate",
    "counts_from_descriptor",
    "counts_from_json",
    "records_from_csv",
]

#: canonical binary labels; matching is case-insensitive
DEFECTIVE = "defective"
CLEAN = "clean"
#: (actual, predicted) canonical labels -> the index of the matrix cell
#: they count in: tp, fn, fp, tn
_CELLS = {(DEFECTIVE, DEFECTIVE): 0, (DEFECTIVE, CLEAN): 1, (CLEAN, DEFECTIVE): 2, (CLEAN, CLEAN): 3}


class ConfusionMatrix(namedtuple("ConfusionMatrix", ("tp", "fn_", "fp", "tn"))):
    """The four prediction-outcome counts, an immutable named tuple whose
    constructor checks each count.

    ``tp`` and ``fp`` are carried for reporting only; the bound machinery
    uses just ``fn_`` and ``tn``.
    """

    __slots__ = ()

    def __new__(cls, tp, fn_, fp, tn):
        for name, count in zip(cls._fields, (tp, fn_, fp, tn)):
            value = read_integer(count, f"count {name!r}")
            if value < 0:
                raise InvalidInputError(f"count {name!r} must be >= 0, got {value}")
        return super().__new__(cls, tp, fn_, fp, tn)

    def to_dict(self) -> dict:
        return {"tp": self.tp, "fn": self.fn_, "fp": self.fp, "tn": self.tn}


def _canonical_label(raw, index: int):
    if not isinstance(raw, str):
        raise ParseError(f"record {index}: label {raw!r} is not a string")
    label = raw.strip().lower()
    if label not in (DEFECTIVE, CLEAN):
        raise ParseError(f"record {index}: unknown label {raw!r} (expected 'defective' or 'clean')")
    return label


def confusion_from_records(records: Iterable[Sequence]) -> ConfusionMatrix:
    """Tally (actual, predicted) label pairs into a confusion matrix.

    actual=defective & predicted=clean counts as a false negative. Labels
    are case-insensitive. The records are read in order and each is
    classified as it comes, by one ``_CELLS`` lookup, so the first bad one
    raises and none is held.
    """
    counts = [0, 0, 0, 0]
    for index, record in enumerate(records):
        try:
            actual_raw, predicted_raw = record
        except (TypeError, ValueError):
            raise ParseError(f"record {index}: expected an (actual, predicted) pair, got {record!r}") from None
        cell = None
        # one lookup for exact strs; a str subclass (whose own strip() or
        # lower() may give a label no cell can hash) and a refused record go
        # through ``_canonical_label``, which words the fault, the actual's first
        if type(actual_raw) is str and type(predicted_raw) is str:
            cell = _CELLS.get((actual_raw.strip().lower(), predicted_raw.strip().lower()))
        if cell is None:
            cell = _CELLS[_canonical_label(actual_raw, index), _canonical_label(predicted_raw, index)]
        counts[cell] += 1
    return ConfusionMatrix(*counts)


def false_omission_rate(matrix: ConfusionMatrix) -> Fraction:
    """FOR = FN / (FN + TN), exactly.

    Requires at least one false negative and one true negative; with
    either side at zero the ratio degenerates to 0 or 1, which the failure
    model excludes. The ratio then lies in (0, 1), but its float can still
    round onto either end (fn = 10**17, tn = 1 gives 1.0), and that is
    refused too.
    """
    read_instance(matrix, "confusion matrix", ConfusionMatrix, "a ConfusionMatrix")
    if matrix.fn_ < 1 or matrix.tn < 1:
        zero_side = "fn" if matrix.fn_ < 1 else "tn"
        raise AssumptionViolationError(
            "false omission rate needs at least one false negative and one "
            f"true negative; {zero_side} is zero",
            assumption=5,
        )
    p = Fraction(matrix.fn_, matrix.fn_ + matrix.tn)
    if not 0.0 < float(p) < 1.0:
        raise InvalidInputError(f"failure probability must lie strictly in (0, 1), got {float(p)!r}")
    return p


def counts_from_descriptor(payload: dict) -> ConfusionMatrix:
    """Build a matrix from the object ``{"tp":int,"fn":int,"fp":int,"tn":int}``."""
    read_object(payload, "counts document", required=("tp", "fn", "fp", "tn"))
    return ConfusionMatrix(tp=payload["tp"], fn_=payload["fn"], fp=payload["fp"], tn=payload["tn"])


def counts_from_json(text: str) -> ConfusionMatrix:
    """Parse the JSON counts format ``{"tp":int,"fn":int,"fp":int,"tn":int}``."""
    return counts_from_descriptor(read_json(text))


def records_from_csv(text: str) -> ConfusionMatrix:
    """Parse the CSV record format: header ``actual,predicted``, one pair per line.

    The text is read once, its records tallied by
    ``confusion_from_records``; blank lines are skipped. The first fault
    in file order raises a ParseError: a bad record names its zero-based
    index, and text the csv module refuses (a field past its size limit,
    a quote left open) names the line it stopped on."""
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader, None)
        if header is None:
            raise ParseError("empty CSV input; expected an 'actual,predicted' header")
        if [cell.strip().lower() for cell in header] != ["actual", "predicted"]:
            raise ParseError(f"expected header 'actual,predicted', got {header!r}")
        return confusion_from_records(filter(None, reader))
    except csv.Error as exc:
        raise ParseError(f"records CSV line {reader.line_num}: {exc}") from None
