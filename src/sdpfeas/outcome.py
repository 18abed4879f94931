"""The failure model of software tested with a defect-prediction classifier.

Out of l modules predicted clean, each is independently misclassified
with probability p, so the failure count X is Binomial(l, p) with mean
l*p. In the Y-variant each misclassified module contributes the weibull
hazard Khat*t^mhat instead of a single failure, making Y a scaled
binomial at any fixed t. An outcome is of the Y-variant exactly when it
has an ``injection``, a weibull ``HazardModel`` with K = Khat and
m = mhat; the mean of every bound form on it (``bounds.FORMS``) follows
it.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

from .confusion import counts_from_descriptor, false_omission_rate
from .errors import InvalidInputError, ParseError
from .errors import read_integer, read_number, read_object
from .hazards import HazardFamily, HazardModel

__all__ = ["SdpOutcome", "outcome_from_descriptor"]


@dataclass(frozen=True)
class SdpOutcome:
    """(l, p) description of the predicted-clean modules.

    ``p`` lies strictly inside (0, 1). ``n`` (total developed modules) is
    reporting metadata only; the math uses just l and p. ``injection``
    makes the outcome, and every bound on it, of the Y-variant.
    """

    l: int
    p: float
    injection: HazardModel | None = None
    n: int | None = None

    def __post_init__(self):
        # l * p is a float: an l past the float range has no mean
        if not 1 <= read_integer(self.l, "module count l") <= sys.float_info.max:
            raise InvalidInputError(f"module count l must be an integer in [1, {sys.float_info.max!r}], got {self.l!r}")
        if not 0.0 < read_number(self.p, "failure probability") < 1.0:
            raise InvalidInputError(f"failure probability must lie strictly in (0, 1), got {self.p!r}")
        if self.injection is not None and getattr(self.injection, "family", None) is not HazardFamily.WEIBULL:
            raise InvalidInputError(f"injection must be a weibull HazardModel, got {self.injection!r}")
        if self.n is not None and read_integer(self.n, "total module count n") < self.l:
            raise InvalidInputError(f"total module count n={self.n} cannot be below l={self.l}")

    @property
    def mean_failures(self) -> float:
        return self.l * self.p


def outcome_from_descriptor(payload: dict) -> SdpOutcome:
    """Build an outcome from the JSON descriptor form.

    Either ``{"l": int, "p": num}`` or ``{"l": int, "confusion": {...}}``
    (p derived as the false omission rate), plus optional
    ``"injection": {"K_hat": num, "m_hat": num}`` and ``"n": int``.
    """
    read_object(payload, "outcome descriptor", required=("l",), optional=("p", "confusion", "injection", "n"))
    if ("p" in payload) == ("confusion" in payload):
        raise ParseError("outcome descriptor needs exactly one of 'p' or 'confusion'")
    if "p" in payload:
        p = read_number(payload["p"], "outcome p")
    else:
        p = float(false_omission_rate(counts_from_descriptor(payload["confusion"])))
    injection = None
    if "injection" in payload:
        fields = read_object(payload["injection"], "injection descriptor", required=("K_hat", "m_hat"))
        K, m = read_number(fields["K_hat"], "K_hat"), read_number(fields["m_hat"], "m_hat")
        try:
            injection = HazardModel(HazardFamily.WEIBULL, K=K, m=m)
        except InvalidInputError as exc:
            raise InvalidInputError(f"injection (K_hat, m_hat): {exc}") from None
    return SdpOutcome(l=payload["l"], p=p, injection=injection, n=payload.get("n"))
