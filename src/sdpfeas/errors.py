"""Exception hierarchy shared by all sdpfeas modules, and the ``read_*``
functions every descriptor field passes through: a malformed value raises
ParseError and is never coerced (a bool is not a number, a float is not
an integer, a number is finite)."""

import functools
import json
import sys


class SdpFeasError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInputError(SdpFeasError):
    """Malformed or out-of-contract input (negative counts, empty grids, ...)."""


class ParseError(InvalidInputError):
    """A record or descriptor could not be parsed.

    Carries the zero-based index of the offending record when applicable.
    """

    def __init__(self, message, index=None):
        super().__init__(message)
        self.index = index


class NumericOverflowError(SdpFeasError, OverflowError):
    """A closed form overflowed a 64-bit float. Also an ``OverflowError``,
    so callers that already catch that keep working."""


class AssumptionViolationError(SdpFeasError):
    """A precondition required by the underlying failure model does not hold.

    ``assumption`` identifies which modelling assumption was violated,
    ``detail`` says how (e.g. which confusion-matrix cell is zero).
    """

    def __init__(self, message, assumption, detail=None):
        super().__init__(message)
        self.assumption = assumption
        self.detail = detail


class DomainError(SdpFeasError):
    """Evaluation requested outside a hazard family's valid time domain."""


class OutOfRegimeError(SdpFeasError):
    """The Chernoff lower-tail bound is inapplicable: the deviation band
    delta = 1 - threshold/mu falls outside (0, 1].

    This is a finding, not a defect; callers that sweep over parameters
    should catch it and report the point as out-of-regime. ``mu``,
    ``threshold`` and ``delta`` carry the diagnostics.
    """

    def __init__(self, mu, threshold, theorem_tag=None, t=None):
        self.mu = mu
        self.threshold = threshold
        self.delta = 1.0 - threshold / mu
        self.theorem_tag = theorem_tag
        self.t = t
        super().__init__(
            f"Chernoff lower tail inapplicable: threshold={threshold!r} vs "
            f"mu={mu!r} gives delta={self.delta!r} outside (0, 1]"
        )


def read_json(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc


def read_object(payload, what: str, required=(), optional=()) -> dict:
    """``payload`` if it is a JSON object with every ``required`` field and
    none outside ``required`` and ``optional`` (None: any, for objects read
    in two steps)."""
    if not isinstance(payload, dict):
        raise ParseError(f"{what} must be an object, got {type(payload).__name__}")
    missing = set(required) - payload.keys()
    if missing:
        raise ParseError(f"{what} missing fields: {sorted(missing)}")
    extra = payload.keys() - {*required, *(optional or ())}
    if optional is not None and extra:
        raise ParseError(f"{what} has extraneous fields: {sorted(extra)}")
    return payload


def _read(value, what: str, kind, noun: str):
    """``value`` if it is a JSON value of type ``kind``; bool subclasses
    int, but a JSON true is neither a number nor a count."""
    if isinstance(value, bool) != (kind is bool) or not isinstance(value, kind):
        raise ParseError(f"{what} must be {noun}, got {value!r}")
    return value


read_integer = functools.partial(_read, kind=int, noun="an integer")
read_boolean = functools.partial(_read, kind=bool, noun="true or false")
read_list = functools.partial(_read, kind=list, noun="a list")


def read_number(value, what: str) -> float:
    """A finite JSON number, integer or float, as a float."""
    if not abs(_read(value, what, (int, float), "a number")) <= sys.float_info.max:
        raise ParseError(f"{what} must be a finite number, got {value!r}")
    return float(value)


def read_choice(value, what: str, choices):
    """The member of the enum ``choices`` whose value is ``value``."""
    try:
        return choices(value)
    except ValueError:
        valid = ", ".join(choice.value for choice in choices)
        raise ParseError(f"unknown {what} {value!r}; expected one of: {valid}") from None
