"""Output checks made apart from sdpfeas.

Nothing here imports sdpfeas. Sweep rows are recomputed from the
families' closed forms and the Chernoff kernel exp(-(mu-threshold)^2/(2mu));
exact tails are compared with scipy.stats.binom in log space; MC hit
counts get a binomial test against that tail; verdicts and the report's
feasibility ranges are recomputed from the benchmark's own bounds.

Each check raises CheckError on the first mismatch and otherwise returns
a Tally of the operations it saw.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy import stats
from scipy.special import logsumexp

from workloads import Call, Confusion, Scenario

#: relative tolerance on mu, threshold, t and delta
REL = 1e-12
#: tolerance on log(bound), relative to max(1, |log bound|); a bound
#: scaled by 1 + 1e-9 must fail it
LOG_BOUND_TOL = 1e-11
#: tolerance on log(exact tail); sdpfeas documents ~1e-10 relative accuracy
LOG_TAIL_TOL = 1e-9
#: below this log value a double is subnormal or zero, and relative
#: comparison no longer means anything
LOG_TINY = math.log(1e-300)
#: log of the smallest positive double: a bound whose log lies below it
#: prints as 0.0
LOG_UNDERFLOW = math.log(5e-324)
#: binomial-test level for one MC record
MC_ALPHA = 1e-6

CSV_HEADER = ["t", "theorem", "mu", "threshold", "delta", "bound", "regime"]

HAZARD_TAG = {"weibull": "Thm1", "nld": "Cor1", "ld": "Cor3", "nli": "Cor5", "li": "Cor7", "constant": "Cor9"}
RELIABILITY_TAG = {"weibull": "Thm2", "nld": "Cor2", "ld": "Cor4", "nli": "Cor6", "li": "Cor8", "constant": "Cor10"}


class CheckError(Exception):
    """An output of sdpfeas disagrees with the benchmark's own computation."""


@dataclass(frozen=True)
class Tally:
    """Operations seen in one call's output; failed counts only the named
    underflow records."""

    rows: int = 0
    records: int = 0
    failed: int = 0


@dataclass(frozen=True)
class Expected:
    """One sweep row as the benchmark computes it."""

    tag: str
    mu: float
    threshold: float
    log_bound: float


def hazard(family: str, params: dict, t: float) -> float:
    """z(t) from the family's closed form."""
    K, m = params.get("K"), params.get("m")
    return {
        "weibull": lambda: K * t**m,
        "nld": lambda: K / math.sqrt(t),
        "ld": lambda: K - m * t,
        "nli": lambda: K * t * t,
        "li": lambda: K * t,
        "constant": lambda: params["lambda"],
    }[family]()


def hazard_over_t(family: str, params: dict, t: float) -> float:
    """H(t)/t, the reliability-side threshold, from the closed form of H."""
    K, m = params.get("K"), params.get("m")
    return {
        "weibull": lambda: K * t**m / (m + 1.0),
        "nld": lambda: 2.0 * K / math.sqrt(t),
        "ld": lambda: K - m * t / 2.0,
        "nli": lambda: K * t * t / 3.0,
        "li": lambda: K * t / 2.0,
        "constant": lambda: params["lambda"],
    }[family]()


def injection_scale(scenario: Scenario, t: float) -> float:
    if scenario.variant == "X":
        return 1.0
    return scenario.injection["K_hat"] * t ** scenario.injection["m_hat"]


def expected_row(scenario: Scenario, kind: str, t: float) -> Expected:
    lp = scenario.l * scenario.p
    if scenario.variant == "Y":
        if kind != "hazard":
            raise CheckError("the benchmark recomputes only the Y-variant hazard side")
        tag, mu, threshold = "Thm3", lp * injection_scale(scenario, t), hazard(scenario.family, scenario.params, t)
    elif kind == "hazard":
        tag, mu, threshold = HAZARD_TAG[scenario.family], lp, hazard(scenario.family, scenario.params, t)
    else:
        tag = RELIABILITY_TAG[scenario.family]
        mu = math.exp(lp * math.expm1(-t))
        threshold = hazard_over_t(scenario.family, scenario.params, t)
    return Expected(tag=tag, mu=mu, threshold=threshold, log_bound=-((mu - threshold) ** 2) / (2.0 * mu))


def grid(scenario: Scenario) -> list:
    space = np.geomspace if scenario.spacing == "log" else np.linspace
    return [float(t) for t in space(scenario.start, scenario.stop, scenario.steps)]


def _close(got: float, want: float, rel: float, what: str) -> None:
    if not abs(got - want) <= rel * max(abs(got), abs(want), 1e-300):
        raise CheckError(f"{what}: got {got!r}, expected {want!r}")


def _check_bound(bound: float, log_bound: float, what: str) -> None:
    if log_bound < LOG_TINY:
        if not 0.0 <= bound <= 1e-300:
            raise CheckError(f"{what}: bound {bound!r}, expected below 1e-300 (log {log_bound!r})")
        return
    if not bound > 0:
        raise CheckError(f"{what}: bound {bound!r}, expected exp({log_bound!r})")
    if not abs(math.log(bound) - log_bound) <= LOG_BOUND_TOL * max(1.0, abs(log_bound)):
        raise CheckError(f"{what}: bound {bound!r}, expected exp({log_bound!r})")


def check_row(row: dict, want: Expected, what: str) -> bool:
    """Compare one parsed row with the benchmark's own; return True when
    it is in regime. ``row`` has t, theorem, mu, threshold, delta, regime
    and, for in-regime rows, bound (and log_bound in JSON)."""
    if row["theorem"] != want.tag:
        raise CheckError(f"{what}: theorem {row['theorem']!r}, expected {want.tag!r}")
    _close(row["mu"], want.mu, REL, f"{what} mu")
    _close(row["threshold"], want.threshold, REL, f"{what} threshold")
    mu, threshold = row["mu"], row["threshold"]
    delta = 1.0 - want.threshold / want.mu
    if not abs(row["delta"] - delta) <= REL * max(1.0, abs(delta)):
        raise CheckError(f"{what}: delta {row['delta']!r}, expected {delta!r}")
    out_of_regime = threshold >= mu or threshold < 0
    if (want.threshold >= want.mu) != out_of_regime and abs(want.threshold - want.mu) > REL * want.mu:
        raise CheckError(f"{what}: regime of threshold {threshold!r} vs mu {mu!r} disagrees with the closed form")
    if out_of_regime:
        if row["regime"] != "out-of-regime" or row.get("bound") is not None:
            raise CheckError(f"{what}: threshold {threshold!r} >= mu {mu!r} but row is {row['regime']!r}")
        return False
    regime = "trivial" if threshold == 0 else "valid"
    if row["regime"] != regime:
        raise CheckError(f"{what}: regime {row['regime']!r}, expected {regime!r} at threshold {threshold!r}")
    if row.get("bound") is None:
        raise CheckError(f"{what}: in-regime row without a bound")
    _check_bound(row["bound"], want.log_bound, what)
    if "log_bound" in row:
        _close(row["log_bound"], want.log_bound, LOG_BOUND_TOL, f"{what} log_bound")
    return True


def _expected_rows(scenario: Scenario) -> list:
    ts = grid(scenario)
    return [(kind, t) for kind in scenario.kinds for t in ts]


# -- metrics -----------------------------------------------------------------


def check_metrics(out: str, code: int, confusion: Confusion) -> Tally:
    """p must equal fn/(fn+tn) from the benchmark's own tally."""
    if code != 0:
        raise CheckError(f"metrics exited {code}")
    payload = json.loads(out)
    counts = {"tp": confusion.tp, "fn": confusion.fn, "fp": confusion.fp, "tn": confusion.tn}
    if payload["confusion"] != counts:
        raise CheckError(f"metrics confusion {payload['confusion']!r}, tallied {counts!r}")
    p = confusion.fn / (confusion.fn + confusion.tn)
    if payload["p"] != p:
        raise CheckError(f"metrics p {payload['p']!r}, tallied fn/(fn+tn) = {p!r}")
    fraction = Fraction(confusion.fn, confusion.fn + confusion.tn)
    if payload["fraction"] != f"{fraction.numerator}/{fraction.denominator}":
        raise CheckError(f"metrics fraction {payload['fraction']!r}, expected {fraction}")
    return Tally()


# -- sweep CSV -----------------------------------------------------------------


def _csv_float(text: str, what: str) -> float:
    value = float(text)
    if format(value, ".17g") != text:
        raise CheckError(f"{what}: {text!r} does not round-trip as a 17-digit float")
    return value


def parse_sweep_csv(out: str) -> list:
    reader = csv.reader(io.StringIO(out))
    header = next(reader)
    if header != CSV_HEADER:
        raise CheckError(f"sweep CSV header {header!r}")
    rows = []
    for index, cells in enumerate(reader):
        if len(cells) != len(CSV_HEADER):
            raise CheckError(f"sweep CSV line {index + 2}: {len(cells)} fields")
        t, theorem, mu, threshold, delta, bound, regime = cells
        what = f"sweep CSV line {index + 2}"
        rows.append(
            {
                "t": _csv_float(t, what),
                "theorem": theorem,
                "mu": _csv_float(mu, what),
                "threshold": _csv_float(threshold, what),
                "delta": _csv_float(delta, what),
                "bound": _csv_float(bound, what) if bound else None,
                "regime": regime,
            }
        )
    return rows


def check_sweep(out: str, code: int, scenario: Scenario) -> Tally:
    if code != 0:
        raise CheckError(f"sweep exited {code}")
    rows = parse_sweep_csv(out)
    expected = _expected_rows(scenario)
    if len(rows) != len(expected):
        raise CheckError(f"sweep has {len(rows)} rows, expected {len(expected)}")
    for index, (row, (kind, t)) in enumerate(zip(rows, expected)):
        check_row(row, expected_row(scenario, kind, row["t"]), f"{scenario.family} {kind} row {index}")
        _close(row["t"], t, REL, f"{scenario.family} {kind} row {index} grid point")
    return Tally(rows=len(rows))


# -- verify report -----------------------------------------------------------------


def log_tail(l: int, p: float, threshold: float) -> float:
    """log Pr[X < threshold] for X ~ Binomial(l, p), strict '<', from
    scipy; deep tails that underflow go through a log-sum-exp of the pmf."""
    if threshold <= 0:
        return -math.inf
    if threshold > l:
        return 0.0
    k = math.ceil(threshold) - 1
    value = float(stats.binom.logcdf(k, l, p))
    if math.isfinite(value):
        return value
    return float(logsumexp(stats.binom.logpmf(np.arange(k + 1), l, p)))


def _check_exact(record: dict, truth: float, what: str) -> None:
    oracle = record["oracle"]
    if truth < LOG_TINY:
        if not 0.0 <= oracle <= 1e-300:
            raise CheckError(f"{what}: exact tail {oracle!r}, expected exp({truth!r})")
        return
    if not oracle > 0 or not abs(math.log(oracle) - truth) <= LOG_TAIL_TOL * max(1.0, abs(truth)):
        raise CheckError(f"{what}: exact tail {oracle!r}, scipy gives exp({truth!r})")


def _check_mc(record: dict, truth: float, trials: int, what: str) -> None:
    estimate = record["oracle"]
    hits = round(estimate * trials)
    if hits / trials != estimate:
        raise CheckError(f"{what}: MC estimate {estimate!r} is not a hit count over {trials} trials")
    q = math.exp(truth)
    if q == 0.0 or q == 1.0:
        if hits != q * trials:
            raise CheckError(f"{what}: {hits} hits for an event of probability {q}")
        return
    pvalue = stats.binomtest(hits, trials, q).pvalue
    if pvalue < MC_ALPHA:
        raise CheckError(f"{what}: {hits}/{trials} MC hits against tail {q!r} (binomial test p = {pvalue:.3g})")


def _condense(ts: list, classes: list, wanted: str) -> list:
    """Runs of consecutive grid points of one class, as [first, last]."""
    ranges, run = [], None
    for t, cls in zip(ts, classes):
        if cls == wanted:
            run = [t, t] if run is None else [run[0], t]
        elif run is not None:
            ranges.append(run)
            run = None
    if run is not None:
        ranges.append(run)
    return ranges


def check_report(out: str, code: int, scenario: Scenario) -> Tally:
    """Rows, exact and MC records, verdicts and the feasibility summary of
    one ``verify`` report. Records whose bound underflows to 0.0 where the
    log-space check shows the bound holds are counted as failed."""
    report = json.loads(out)
    rows = report["rows"]
    expected = _expected_rows(scenario)
    if len(rows) != len(expected):
        raise CheckError(f"report has {len(rows)} rows, expected {len(expected)}")
    methods = ["exact"] + (["monte-carlo"] if scenario.mc_trials else [])
    records = iter(report["verification"])
    seen, failed = 0, 0
    log_eps = math.log(scenario.epsilon)
    classes: dict = {}
    for index, (row, (kind, t)) in enumerate(zip(rows, expected)):
        what = f"{scenario.family} {scenario.variant} {kind} row {index}"
        want = expected_row(scenario, kind, row["t"])
        _close(row["t"], t, REL, f"{what} grid point")
        in_regime = check_row(row, want, what)
        cls = classes.get(row["t"], "out-of-regime")
        if in_regime:
            cls = "infeasible" if cls == "infeasible" or want.log_bound <= log_eps else "feasible"
        classes[row["t"]] = cls
        if not in_regime:
            continue
        truth = log_tail(scenario.l, scenario.p, want.threshold / injection_scale(scenario, t))
        for method in methods:
            record = next(records, None)
            seen += 1
            where = f"{what} {method} record"
            if record is None or record["method"] != method:
                raise CheckError(f"{where}: missing or out of order")
            if record["bound"] != row["bound"]:
                raise CheckError(f"{where}: bound {record['bound']!r}, row has {row['bound']!r}")
            if record["slack"] != record["bound"] - record["oracle"]:
                raise CheckError(f"{where}: slack {record['slack']!r} is not bound - oracle")
            if method == "exact":
                _check_exact(record, truth, where)
            else:
                if record.get("seed") != scenario.seed:
                    raise CheckError(f"{where}: seed {record.get('seed')!r}, expected {scenario.seed!r}")
                _check_mc(record, truth, scenario.mc_trials, where)
            if not truth < want.log_bound:
                raise CheckError(f"{where}: the bound is violated (log tail {truth!r} >= log bound {want.log_bound!r})")
            if record["holds"]:
                continue
            if record["bound"] == 0.0 and want.log_bound < LOG_UNDERFLOW:
                failed += 1
                continue
            raise CheckError(f"{where}: holds is false, but log tail {truth!r} < log bound {want.log_bound!r}")
    if next(records, None) is not None:
        raise CheckError(f"report has more than the {seen} expected verification records")
    holds = [r["holds"] for r in report["verification"]]
    want_code = 0 if all(holds) else 4
    if code != want_code:
        raise CheckError(f"verify exited {code}, expected {want_code}")
    summary = report["summary"]
    if summary["all_hold"] != all(holds):
        raise CheckError(f"summary all_hold {summary['all_hold']!r}")
    slacks = [r["slack"] for r in report["verification"]]
    if slacks and (summary["min_slack"] != min(slacks) or summary["max_slack"] != max(slacks)):
        raise CheckError("summary min/max slack disagree with the records")
    if summary["epsilon"] != scenario.epsilon:
        raise CheckError(f"summary epsilon {summary['epsilon']!r}")
    ts = sorted(classes)
    for key, cls in (
        ("feasible_at", "feasible"),
        ("infeasible_at", "infeasible"),
        ("out_of_regime_at", "out-of-regime"),
    ):
        want_ranges = _condense(ts, [classes[t] for t in ts], cls)
        if summary[key] != want_ranges:
            raise CheckError(f"summary {key} {summary[key]!r}, expected {want_ranges!r}")
    return Tally(rows=len(rows), records=seen, failed=failed)


def check_call(call: Call, out: str, code: int) -> Tally:
    if call.argv[0] == "metrics":
        return check_metrics(out, code, call.confusion)
    if call.argv[0] == "sweep":
        return check_sweep(out, code, call.scenario)
    return check_report(out, code, call.scenario)
