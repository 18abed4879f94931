"""Exception hierarchy shared by all sdpfeas modules, the ``read_*``
functions every descriptor field passes through (a malformed value raises
ParseError and is never coerced: a bool is not a number, a float is not
an integer, a number is finite), the two rules for numbers given as text,
by a flag or an environment variable, and ``indented_json``, the writer of
every JSON output. JSON in and JSON out live here, beside the errors, so
that ``metrics`` loads neither the scenario stack nor the report."""

import functools
import json
import re
import sys
from json.encoder import encode_basestring_ascii


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
    delta = 1 - threshold/mu falls outside (0, 1], or mu underflowed to
    0.0 and delta is -inf.

    This is a finding, not a defect; callers that sweep over parameters
    should catch it and report the point as out-of-regime. ``mu``,
    ``threshold`` and ``delta`` carry the diagnostics.
    """

    def __init__(self, mu, threshold, delta, theorem_tag=None, t=None):
        self.mu = mu
        self.threshold = threshold
        self.delta = delta
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


#: the types json writes as scalars, matched exactly: any other type, a
#: subclass too, takes the general path of indented_json
_SCALARS = frozenset((str, int, float, bool, type(None)))


def indented_json(obj) -> str:
    """``json.dumps(obj, indent=2)``, byte for byte, with the C encoder
    (which ``indent`` turns off) writing every container of scalars.

    Encoded strings escape every newline, so an encoder whose item
    separator is a comma, a newline and the items' indent writes a
    container of scalars in its indented form, less the newline after the
    opening bracket and the one before the closing bracket; those are
    added here.
    Other containers are joined here, one level at a time, except a list
    of records (non-empty dicts of scalars), which takes one encoder call.
    """
    encoders: dict = {}

    def encoder(depth: int) -> json.JSONEncoder:
        if depth not in encoders:
            # no cycle check: a container that reaches the encoder holds
            # scalars or records of scalars, so it cannot hold itself
            separators = (",\n" + "  " * (depth + 1), ": ")
            encoders[depth] = json.JSONEncoder(check_circular=False, separators=separators)
        return encoders[depth]

    def encode(value, depth: int) -> str:
        if isinstance(value, dict):
            items = value.values()
        elif isinstance(value, (list, tuple)):
            items = value
        else:
            return encoder(depth).encode(value)
        brackets = "[]" if items is value else "{}"
        if not value:
            return brackets
        inner = "\n" + "  " * (depth + 1)
        if _SCALARS.issuperset(map(type, items)):
            body = encoder(depth).encode(value)[1:-1]
        elif items is not value:
            body = ("," + inner).join([_json_key(key) + ": " + encode(item, depth + 1) for key, item in value.items()])
        elif all(type(item) is dict and item and _SCALARS.issuperset(map(type, item.values())) for item in value):
            # the records' item separator also falls between the records,
            # after a '}' and before a '{', where nothing else can: there it
            # is re-indented one level out
            deeper = inner + "  "
            records = encoder(depth + 1).encode(value)[2:-2]
            records = records.replace("}," + deeper + "{", inner + "}," + inner + "{" + deeper)
            body = "{" + deeper + records + inner + "}"
        else:
            body = ("," + inner).join([encode(item, depth + 1) for item in value])
        return brackets[0] + inner + body + "\n" + "  " * depth + brackets[1]

    return encode(obj, 0)


def _json_key(key) -> str:
    """A dict key as json writes it: a non-string key (a number, a bool or
    None) becomes the string json makes of it."""
    if isinstance(key, str):
        return encode_basestring_ascii(key)
    return json.dumps({key: None})[1 : -len(": null}")]


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


def _text_reader(pattern: str, convert):
    """A reader of a number given as text: ``convert(text)`` where all of
    ``text`` matches ``pattern``, else ValueError. Where ``int`` and
    ``float`` would also take whitespace, ``_`` and other scripts' digits
    (and ``float`` nan and inf), the pattern takes ASCII alone. The reader
    keeps ``convert``'s name, which argparse prints in its "invalid int
    value" line."""
    match = re.compile(pattern).fullmatch

    def read(text: str):
        if not match(text):
            raise ValueError(f"invalid {convert.__name__} text: {text!r}")
        return convert(text)

    read.__name__ = convert.__name__
    return read


#: ASCII digits with an optional leading '-'
read_integer_text = _text_reader(r"-?[0-9]+", int)
#: an ASCII decimal: optional sign, digits with an optional point, and an
#: optional exponent
read_number_text = _text_reader(r"[-+]?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][-+]?[0-9]+)?", float)
