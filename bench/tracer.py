"""Spans around the calls into each sdpfeas layer, recorded from outside.

While a Tracer is installed, each traced public function is replaced, in
every sdpfeas module that holds it, by a wrapper that records a span
(name, start, end, parent). Counters are taken at the same boundary from
the call's arguments and result. Spans stay in memory; layer_metrics()
turns one round's spans into the per-layer metrics and clear() starts the
next round.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from collections import defaultdict

#: (module, attribute, span name); the span name's prefix is the layer
FUNCTIONS = (
    ("sdpfeas.cli", "main", "cli.main"),
    ("sdpfeas.confusion", "records_from_csv", "confusion.records_from_csv"),
    ("sdpfeas.hazards", "hazard_at", "hazards.hazard_at"),
    ("sdpfeas.hazards", "reliability_tail_threshold", "hazards.reliability_tail_threshold"),
    ("sdpfeas.hazards", "cumulative_hazard", "hazards.cumulative_hazard"),
    ("sdpfeas.outcome", "expected_hazard_x", "outcome.expected_hazard_x"),
    ("sdpfeas.outcome", "expected_hazard_y", "outcome.expected_hazard_y"),
    ("sdpfeas.outcome", "expected_reliability_bound_x", "outcome.expected_reliability_bound_x"),
    ("sdpfeas.outcome", "expected_reliability_bound_y", "outcome.expected_reliability_bound_y"),
    ("sdpfeas.bounds", "chernoff_lower_tail", "bounds.kernel"),
    ("sdpfeas.bounds", "bound_sweep", "bounds.bound_sweep"),
    ("sdpfeas.oracle", "exact_binomial_tail", "oracle.exact"),
    ("sdpfeas.oracle", "mc_tail", "oracle.mc"),
    ("sdpfeas.oracle", "verify_bound", "oracle.verify"),
    ("sdpfeas.report", "run_sweep", "report.run_sweep"),
    ("sdpfeas.report", "run_verification", "report.run_verification"),
    ("sdpfeas.report", "sweep_to_csv", "report.serialize"),
)
#: (module, class, method, span name)
METHODS = (
    ("sdpfeas.report", "ScenarioConfig", "from_json", "report.config"),
    ("sdpfeas.report", "FeasibilityReport", "to_json", "report.serialize"),
)

#: every per-layer metric with its unit, in report order
LAYER_METRICS = (
    ("cli.main_s", "s"),
    ("confusion.records_from_csv_s", "s"),
    ("confusion.records", "count"),
    ("hazards.calls", "count"),
    ("hazards.self_s", "s"),
    ("outcome.calls", "count"),
    ("outcome.self_s", "s"),
    ("bounds.bound_sweep_s", "s"),
    ("bounds.kernel_calls", "count"),
    ("bounds.kernel_self_s", "s"),
    ("bounds.points", "count"),
    ("bounds.out_of_regime", "count"),
    ("oracle.exact_calls", "count"),
    ("oracle.exact_s", "s"),
    ("oracle.exact_terms", "count"),
    ("oracle.mc_calls", "count"),
    ("oracle.mc_s", "s"),
    ("oracle.mc_uniforms", "count"),
    ("oracle.mc_distinct_draws", "count"),
    ("oracle.mc_draw_useful_ratio", "ratio"),
    ("oracle.verify_s", "s"),
    ("report.config_s", "s"),
    ("report.run_sweep_s", "s"),
    ("report.run_verification_s", "s"),
    ("report.serialize_s", "s"),
    ("report.serialize_bytes", "bytes"),
    ("trace.spans", "count"),
    ("trace.overhead_s", "s"),
)

#: metric -> span name whose inclusive time it sums
INCLUSIVE = {
    "cli.main_s": "cli.main",
    "confusion.records_from_csv_s": "confusion.records_from_csv",
    "bounds.bound_sweep_s": "bounds.bound_sweep",
    "oracle.exact_s": "oracle.exact",
    "oracle.mc_s": "oracle.mc",
    "oracle.verify_s": "oracle.verify",
    "report.config_s": "report.config",
    "report.run_sweep_s": "report.run_sweep",
    "report.run_verification_s": "report.run_verification",
    "report.serialize_s": "report.serialize",
}
#: (calls metric, self-time metric) -> span-name prefix they sum over
SELF = {
    ("hazards.calls", "hazards.self_s"): "hazards.",
    ("outcome.calls", "outcome.self_s"): "outcome.",
    ("bounds.kernel_calls", "bounds.kernel_self_s"): "bounds.kernel",
}


def strict_terms(l: int, threshold: float) -> int:
    """pmf terms an exact Pr[X < threshold] sums: k* + 1, or none when the
    event is empty or certain."""
    if threshold <= 0 or threshold > l:
        return 0
    return math.ceil(threshold)


class Tracer:
    def __init__(self, modules: dict):
        self.modules = modules
        self.spans: list = []
        self.stack: list = []
        self.counters: dict = defaultdict(int)
        self.draws: set = set()
        self.restore: list = []
        oracle = modules["sdpfeas.oracle"]
        self.bernoulli_cutoff = getattr(oracle, "BERNOULLI_CUTOFF", math.inf)
        self.out_of_regime_type = getattr(modules["sdpfeas.bounds"], "OutOfRegime", ())

    def clear(self) -> None:
        self.spans = []
        self.counters = defaultdict(int)
        self.draws = set()

    def _wrap(self, fn, name):
        clock = time.perf_counter
        count = {
            "confusion.records_from_csv": self._count_records,
            "bounds.bound_sweep": self._count_points,
            "oracle.exact": self._count_exact_terms,
            "oracle.mc": self._count_draws,
            "report.serialize": self._count_bytes,
        }.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans, stack = self.spans, self.stack
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if count is not None:
                count(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        for module_name, attr, name in FUNCTIONS:
            original = getattr(self.modules[module_name], attr, None)
            if original is None:
                continue
            traced = self._wrap(original, name)
            # patch every name callers look the function up under
            for module in self.modules.values():
                if getattr(module, attr, None) is original:
                    self.restore.append((module, attr, original))
                    setattr(module, attr, traced)
        for module_name, cls_name, attr, name in METHODS:
            cls = getattr(self.modules[module_name], cls_name, None)
            raw = None if cls is None else cls.__dict__.get(attr)
            if raw is None:
                continue
            self.restore.append((cls, attr, raw))
            if isinstance(raw, classmethod):
                setattr(cls, attr, classmethod(_drop_cls(self._wrap(raw.__get__(None, cls), name))))
            else:
                setattr(cls, attr, self._wrap(raw, name))

    def uninstall(self) -> None:
        while self.restore:
            owner, attr, original = self.restore.pop()
            setattr(owner, attr, original)

    # -- counters, taken at the same boundaries as the spans ---------------

    def _count_records(self, args, kwargs, result):
        self.counters["confusion.records"] += sum(result.to_dict().values())

    def _count_points(self, args, kwargs, result):
        self.counters["bounds.points"] += len(result)
        self.counters["bounds.out_of_regime"] += sum(isinstance(e, self.out_of_regime_type) for e in result)

    def _count_exact_terms(self, args, kwargs, result):
        query = args[0] if args else kwargs["query"]
        self.counters["oracle.exact_terms"] += strict_terms(query.l, query.threshold)

    def _count_draws(self, args, kwargs, result):
        bound = dict(zip(("query", "trials", "seed"), args), **kwargs)
        query, trials = bound["query"], bound["trials"]
        bernoulli = query.l > self.bernoulli_cutoff
        self.counters["oracle.mc_uniforms"] += trials * query.l if bernoulli else trials
        self.draws.add((query.l, query.p, bound["seed"], trials))

    def _count_bytes(self, args, kwargs, result):
        self.counters["report.serialize_bytes"] += len(result.encode())

    # -- per-layer metrics of one round -------------------------------------

    def layer_metrics(self) -> dict:
        spans = self.spans
        children = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                children[parent] += end - start
        inclusive: dict = defaultdict(float)
        calls: dict = defaultdict(int)
        self_time: dict = defaultdict(float)
        for (name, start, end, parent), child in zip(spans, children):
            inclusive[name] += end - start
            calls[name] += 1
            self_time[name] += end - start - child
        metrics = {metric: inclusive[span] for metric, span in INCLUSIVE.items()}
        for (calls_metric, self_metric), prefix in SELF.items():
            names = [n for n in calls if n.startswith(prefix)]
            metrics[calls_metric] = sum(calls[n] for n in names)
            metrics[self_metric] = sum(self_time[n] for n in names)
        for key in ("confusion.records", "bounds.points", "bounds.out_of_regime", "oracle.exact_terms",
                    "oracle.mc_uniforms", "report.serialize_bytes"):
            metrics[key] = self.counters[key]
        metrics["oracle.exact_calls"] = calls["oracle.exact"]
        metrics["oracle.mc_calls"] = calls["oracle.mc"]
        metrics["oracle.mc_distinct_draws"] = len(self.draws)
        # with no MC calls nothing was re-drawn
        metrics["oracle.mc_draw_useful_ratio"] = len(self.draws) / calls["oracle.mc"] if calls["oracle.mc"] else 1.0
        metrics["trace.spans"] = len(spans)
        return metrics

    def write_spans(self, path) -> None:
        with open(path, "w") as out:
            out.write("index,name,start,end,parent\n")
            for index, (name, start, end, parent) in enumerate(self.spans):
                out.write(f"{index},{name},{start!r},{end!r},{parent}\n")


def _drop_cls(bound):
    """A classmethod body that calls an already-bound method."""

    def method(cls, *args, **kwargs):
        return bound(*args, **kwargs)

    return method


def sdpfeas_modules() -> dict:
    return {name: module for name, module in sys.modules.items() if name == "sdpfeas" or name.startswith("sdpfeas.")}
