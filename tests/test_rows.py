"""The per-point records: sweep rows (BoundResult, in regime or out of
it) and oracle records (TailEstimate, VerificationRecord) are plain
slotted dataclasses, a sweep's CSV rows keep their bytes, and every JSON
output is the one ``json.dumps(..., indent=2)`` writes."""

import dataclasses
import json
import math
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdpfeas.bounds import BoundKind, BoundResult, Regime
from sdpfeas.oracle import BinomialWindow, TailEstimate, TailMethod, VerificationRecord, verify_bound
from sdpfeas.errors import InvalidInputError, SdpFeasError, indented_json
from sdpfeas.hazards import HazardFamily, HazardModel
from sdpfeas.outcome import SdpOutcome
from sdpfeas.report import ScenarioConfig, _csv_text, run_sweep, sweep_to_csv
from test_bounds import sweep_cases

MU = 0.1 + 0.2  # 0.30000000000000004: needs all 17 digits
LOG_BOUND = -((MU - 0.1) ** 2) / (2 * MU)

#: one fixed example per type, and a sweep row out of regime: (type,
#: positional args, keyword args, to_dict payload; None for TailEstimate,
#: which has no to_dict)
EXAMPLES = {
    "BoundResult": (
        BoundResult,
        ("Thm1", MU, 0.1, 1 - 0.1 / MU, math.exp(LOG_BOUND), LOG_BOUND, Regime.VALID, 1.25),
        dict(
            theorem_tag="Thm1",
            mu=MU,
            threshold=0.1,
            delta=1 - 0.1 / MU,
            bound=math.exp(LOG_BOUND),
            log_bound=LOG_BOUND,
            regime=Regime.VALID,
            t=1.25,
        ),
        {
            "theorem": "Thm1",
            "mu": 0.30000000000000004,
            "threshold": 0.1,
            "delta": 0.6666666666666667,
            "bound": 0.9355069850316178,
            "log_bound": -0.06666666666666668,
            "regime": "valid",
            "t": 1.25,
        },
    ),
    # out of regime, the row writes no bound, log bound or sign mode
    "BoundResult-out-of-regime": (
        BoundResult,
        ("Thm4", 0.25, 0.5, -1.0, None, None, Regime.OUT_OF_REGIME, 3.0, "corrected"),
        dict(
            theorem_tag="Thm4",
            mu=0.25,
            threshold=0.5,
            delta=-1.0,
            bound=None,
            log_bound=None,
            regime=Regime.OUT_OF_REGIME,
            t=3.0,
            sign_mode="corrected",
        ),
        {"theorem": "Thm4", "mu": 0.25, "threshold": 0.5, "delta": -1.0, "regime": "out-of-regime", "t": 3.0},
    ),
    "TailEstimate": (
        TailEstimate,
        (0.125, TailMethod.MONTE_CARLO, 4000, 7),
        dict(value=0.125, method=TailMethod.MONTE_CARLO, trials=4000, seed=7),
        None,
    ),
    "VerificationRecord": (
        VerificationRecord,
        ("e", 0.5, 0.125, TailMethod.MONTE_CARLO, True, 0.375, 0.25, 7, True),
        dict(
            event="e",
            bound=0.5,
            oracle=0.125,
            method=TailMethod.MONTE_CARLO,
            holds=True,
            slack=0.375,
            ratio=0.25,
            seed=7,
            advisory=True,
        ),
        {
            "event": "e",
            "bound": 0.5,
            "oracle": 0.125,
            "method": "monte-carlo",
            "holds": True,
            "slack": 0.375,
            "ratio": 0.25,
            "seed": 7,
            "advisory": True,
        },
    ),
}


@pytest.fixture(params=sorted(EXAMPLES))
def example(request):
    return EXAMPLES[request.param]


class TestRecords:
    def test_positional_equals_keyword(self, example):
        cls, args, kwargs, _ = example
        assert cls(*args) == cls(**kwargs)

    def test_replace(self, example):
        cls, args, _, _ = example
        row = cls(*args)
        first = dataclasses.fields(cls)[0].name
        new = "changed" if isinstance(args[0], str) else args[0] / 2
        copy = dataclasses.replace(row, **{first: new})
        assert type(copy) is cls and getattr(copy, first) == new and copy != row
        assert dataclasses.replace(copy, **{first: args[0]}) == row
        assert getattr(row, first) == args[0]

    @pytest.mark.parametrize("name", [name for name, example in sorted(EXAMPLES.items()) if example[3]])
    def test_to_dict_keys_order_and_values(self, name):
        cls, args, _, expected = EXAMPLES[name]
        payload = cls(*args).to_dict()
        assert list(payload) == list(expected)
        assert payload == expected

    def test_slotted_and_unhashable(self, example):
        cls, args, _, _ = example
        row = cls(*args)
        assert not hasattr(row, "__dict__")
        with pytest.raises(TypeError):
            hash(row)

    def test_bound_never_equals_out_of_regime(self):
        bound = BoundResult("Thm2", 0.25, 0.5, -1.0, 1.0, 0.0, Regime.VALID, 3.0)
        out = BoundResult("Thm2", 0.25, 0.5, -1.0, None, None, Regime.OUT_OF_REGIME, 3.0)
        assert bound != out and out != bound

    def test_repr(self):
        assert repr(BoundResult("Thm2", 0.25, 0.5, -1.0, None, None, Regime.OUT_OF_REGIME, 3.0)) == (
            "BoundResult(theorem_tag='Thm2', mu=0.25, threshold=0.5, delta=-1.0, bound=None, log_bound=None, "
            "regime=<Regime.OUT_OF_REGIME: 'out-of-regime'>, t=3.0, sign_mode=None)"
        )

    def test_log_value_of_zero_is_minus_inf(self):
        assert TailEstimate(0.0, TailMethod.EXACT).log_value == -math.inf

    def test_log_value_of_positive_is_its_log(self):
        assert TailEstimate(0.125, TailMethod.EXACT).log_value == math.log(0.125)
        assert TailEstimate(0.0, TailMethod.EXACT, None, None, -800.0).log_value == -800.0

    def test_replaced_value_gets_its_own_log(self):
        copy = dataclasses.replace(TailEstimate(0.125, TailMethod.EXACT), value=0.5)
        assert copy.log_value == math.log(0.5)
        assert dataclasses.replace(copy, value=0.0).log_value == -math.inf
        # the verdict follows the replaced value, not the old log
        bound = BoundResult("Thm1", 1.0, 0.5, 0.5, 0.25, math.log(0.25), Regime.VALID, 1.0)
        assert verify_bound(bound, TailEstimate(0.125, TailMethod.EXACT)).holds
        assert not verify_bound(bound, copy).holds

    def test_underflowed_exact_tail_keeps_its_log(self):
        # Pr[X < 100], X ~ Binomial(2e5, 0.01), is about 1e-702
        tail = BinomialWindow(200_000, 0.01).exact_tail(100.0)
        assert tail.value == 0.0 and -1700.0 < tail.log_value < -1600.0
        assert TailEstimate(*dataclasses.astuple(tail)) == tail
        assert dataclasses.replace(tail, method=TailMethod.EXACT).log_value == tail.log_value
        assert dataclasses.replace(tail, value=0.5).log_value == math.log(0.5)

    @pytest.mark.parametrize("trials", [0, -1])
    def test_monte_carlo_trials_below_one_refused(self, trials):
        with pytest.raises(InvalidInputError) as info:
            TailEstimate(0.125, TailMethod.MONTE_CARLO, trials, 7)
        assert str(info.value) == f"Monte-Carlo trials must be >= 1, got {trials}"

    def test_ratio_past_float_range_is_null(self):
        record = VerificationRecord("e", 0.0, 0.5, TailMethod.EXACT, False, -0.5, math.inf)
        assert record.to_dict()["ratio"] is None
        assert "seed" not in record.to_dict() and "advisory" not in record.to_dict()


class TestSweepCsv:
    """Rows written before the records became slotted, byte for byte."""

    VALID = BoundResult("Thm1", MU, 0.1, 1 - 0.1 / MU, math.exp(LOG_BOUND), LOG_BOUND, Regime.VALID, 1.25)
    TRIVIAL = BoundResult("Thm4", 2.5, 0.0, 1.0, math.exp(-1.25), -1.25, Regime.TRIVIAL, 1e-3, "corrected")
    OUT = BoundResult("Thm2", 0.25, 0.5, -1.0, None, None, Regime.OUT_OF_REGIME, 3.0)
    HEADER = "t,theorem,mu,threshold,delta,bound,regime\n"

    def test_valid_row(self):
        assert one_point_sweeps(self.VALID) == self.HEADER + (
            "1.25,Thm1,0.30000000000000004,0.10000000000000001,0.66666666666666674,0.93550698503161778,valid\n"
        )

    def test_trivial_row(self):
        assert one_point_sweeps(self.TRIVIAL) == self.HEADER + "0.001,Thm4,2.5,0,1,0.28650479686019009,trivial\n"

    def test_out_of_regime_row(self):
        assert one_point_sweeps(self.OUT) == self.HEADER + "3,Thm2,0.25,0.5,-1,,out-of-regime\n"

    def test_mixed_rows_in_order(self):
        assert one_point_sweeps(self.VALID, self.TRIVIAL, self.OUT) == (
            "t,theorem,mu,threshold,delta,bound,regime\n"
            "1.25,Thm1,0.30000000000000004,0.10000000000000001,0.66666666666666674,0.93550698503161778,valid\n"
            "0.001,Thm4,2.5,0,1,0.28650479686019009,trivial\n"
            "3,Thm2,0.25,0.5,-1,,out-of-regime\n"
        )

    def test_header_only_when_empty(self):
        assert _csv_text([], []) == self.HEADER

    def test_underflowed_mean_writes_delta_minus_inf(self):
        # a mean that underflowed to 0.0 is below every threshold: its delta
        # is -inf, the one infinity the CSV writes
        row = BoundResult("Thm2", 0.0, 0.5, -math.inf, None, None, Regime.OUT_OF_REGIME, 3.0)
        assert one_point_sweeps(self.VALID, row).endswith("\n3,Thm2,0,0.5,-inf,,out-of-regime\n")

    def test_tag_with_an_n_is_written(self):
        row = BoundResult("Chernoff", MU, 0.1, 1 - 0.1 / MU, math.exp(LOG_BOUND), LOG_BOUND, Regime.VALID, 1.25)
        assert one_point_sweeps(row) == one_point_sweeps(self.VALID).replace("Thm1", "Chernoff")


#: the CSV header and each regime's row template, written out apart from
#: the writer's own: the reference formats one row at a time
CSV_HEADER = "t,theorem,mu,threshold,delta,bound,regime"
CSV_TEMPLATES = {
    Regime.VALID: "%.17g,%s,%.17g,%.17g,%.17g,%.17g,valid",
    Regime.TRIVIAL: "%.17g,%s,%.17g,%.17g,%.17g,%.17g,trivial",
    Regime.OUT_OF_REGIME: "%.17g,%s,%.17g,%.17g,%.17g,%.0s,out-of-regime",
}
#: finite floats, with the edges of the float range: -0.0, the smallest
#: subnormal and the largest float, either sign
CSV_FLOATS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, sys.float_info.max, -sys.float_info.max]
)
#: tags free of commas, quotes and line breaks, a "%" and an "n" among them
CSV_TAGS = st.sampled_from(["Thm1", "Thm2", "Thm3", "Thm4", "Chernoff", "100%", "%s", ""]) | st.text(
    st.characters(blacklist_characters=',"\r\n'), max_size=6
)


def reference_csv(rows) -> str:
    return (
        "\n".join(
            [
                CSV_HEADER,
                *(
                    CSV_TEMPLATES[row.regime] % (row.t, row.theorem_tag, row.mu, row.threshold, row.delta, row.bound)
                    for row in rows
                ),
            ]
        )
        + "\n"
    )


def one_point_sweeps(*rows) -> str:
    """Each row written as a one-point sweep at its own t, after one header,
    as a writer of grid slices joins them."""
    texts = [_csv_text([row.t], [[row]]) for row in rows]
    return CSV_HEADER + "\n" + "".join(text.partition("\n")[2] for text in texts)


@st.composite
def csv_blocks(draw):
    """A grid's times and up to three blocks of rows over it, one tag a
    block. Each column of a block is drawn row by row, as one value at
    every row, or as zeros of either sign, which are equal but write "0"
    and "-0"; an out-of-regime row has no bound."""
    times = draw(st.lists(CSV_FLOATS, max_size=6))
    n = len(times)

    def column(values):
        shape = draw(st.sampled_from(["rows", "one", "zeros"]))
        if shape == "one":
            return [draw(values)] * n
        return draw(st.lists(st.sampled_from([0.0, -0.0]) if shape == "zeros" else values, min_size=n, max_size=n))

    blocks = []
    for _ in range(draw(st.integers(0, 3)) if times else 0):
        tag, regimes = draw(CSV_TAGS), draw(st.lists(st.sampled_from(list(Regime)), min_size=n, max_size=n))
        mus, thresholds, bounds = column(CSV_FLOATS), column(CSV_FLOATS), column(CSV_FLOATS)
        deltas = column(CSV_FLOATS | st.just(-math.inf))
        rows = []
        for t, regime, mu, threshold, delta, bound in zip(times, regimes, mus, thresholds, deltas, bounds):
            out = regime is Regime.OUT_OF_REGIME
            log_bound = None if out else -1.0
            rows.append(BoundResult(tag, mu, threshold, delta, None if out else bound, log_bound, regime, t))
        blocks.append(rows)
    return times, blocks


#: sweeps whose blocks repeat a value in a column, or seem to: (outcome,
#: model, grid), swept for both kinds
SHARED_CELL_SWEEPS = {
    # the reliability mean exp(l*p*expm1(-t)) underflows to 0.0 at every t,
    # so its delta is -inf at every t; the hazard rows' bounds underflow too
    "mean underflowed at every point": (
        SdpOutcome(4000, 0.5), HazardModel(HazardFamily.WEIBULL, K=1.0, m=1.0), [1.0, 2.0, 3.0]
    ),
    "one-point grid": (SdpOutcome(100, 0.05), HazardModel(HazardFamily.WEIBULL, K=1.0, m=1.0), [2.5]),
    # the hazard mean l*p over in-regime and out-of-regime rows
    "one mean over both regimes": (
        SdpOutcome(100, 0.05), HazardModel(HazardFamily.WEIBULL, K=1.0, m=1.0), [1.0, 5.0, 10.0]
    ),
    # the hazard threshold lambda below l*p, where every hazard column holds
    # one value, and above it, where every hazard row is out of regime
    "constant below l*p": (SdpOutcome(100, 0.05), HazardModel(HazardFamily.CONSTANT, lam=2.0), [1.0, 5.0, 10.0]),
    "constant above l*p": (SdpOutcome(100, 0.05), HazardModel(HazardFamily.CONSTANT, lam=8.0), [1.0, 5.0, 10.0]),
}


class TestSweepCsvBytes:
    @settings(max_examples=200, deadline=None)
    @given(case=sweep_cases())
    def test_sweep_equals_row_at_a_time_writer(self, case):
        # both kinds, the drawn one first; a scenario or a sweep that fails
        # writes nothing and raises as building and sweeping it do
        outcome, model, grid, kind, corrected = case
        kinds = [kind, *(other for other in BoundKind if other is not kind)]
        try:
            config = ScenarioConfig(outcome, model, grid, kinds, corrected=corrected)
            rows = [row for block in run_sweep(config) for row in block]
        except SdpFeasError as exc:
            with pytest.raises(type(exc)) as info:
                sweep_to_csv(ScenarioConfig(outcome, model, grid, kinds, corrected=corrected))
            assert str(info.value) == str(exc)
            return
        assert sweep_to_csv(config) == reference_csv(rows)

    @settings(max_examples=200, deadline=None)
    @given(csv_blocks())
    def test_equals_row_at_a_time_writer(self, case):
        times, blocks = case
        assert _csv_text(times, blocks) == reference_csv([row for block in blocks for row in block])

    @pytest.mark.parametrize("name", SHARED_CELL_SWEEPS)
    def test_sweep_with_repeated_values(self, name):
        config = ScenarioConfig(*SHARED_CELL_SWEEPS[name], list(BoundKind))
        assert sweep_to_csv(config) == reference_csv([row for block in run_sweep(config) for row in block])

    def test_mean_underflowed_at_every_point_writes_each_zero(self):
        config = ScenarioConfig(*SHARED_CELL_SWEEPS["mean underflowed at every point"], ["reliability"])
        assert sweep_to_csv(config) == CSV_HEADER + (
            "\n1,Thm2,0,0.5,-inf,,out-of-regime\n2,Thm2,0,1,-inf,,out-of-regime\n3,Thm2,0,1.5,-inf,,out-of-regime\n"
        )

    def test_constant_below_mean_shares_every_hazard_cell(self):
        config = ScenarioConfig(*SHARED_CELL_SWEEPS["constant below l*p"], ["hazard"])
        row = ",Cor9,5,2,0.59999999999999998,0.40656965974059911,valid\n"
        assert sweep_to_csv(config) == CSV_HEADER + "\n1" + row + "5" + row + "10" + row

    def test_zeros_of_either_sign_are_not_one_value(self):
        # 0.0 == -0.0 in each column, but each row writes its own sign
        rows = [
            BoundResult("Thm1", -0.0, 0.0, -0.0, 0.0, -1.0, Regime.TRIVIAL, 1.0),
            BoundResult("Thm1", 0.0, -0.0, 0.0, -0.0, -1.0, Regime.TRIVIAL, 2.0),
        ]
        assert _csv_text([1.0, 2.0], [rows]) == reference_csv(rows) == (
            CSV_HEADER + "\n1,Thm1,-0,0,-0,0,trivial\n2,Thm1,0,-0,0,-0,trivial\n"
        )

    @pytest.mark.parametrize("tag", ["100%", "%s", "%%", "%.17g"])
    def test_tag_with_a_percent_is_written_as_is(self, tag):
        rows = [
            BoundResult(tag, 5.0, 1.0, 0.8, 0.2, -1.6, Regime.VALID, 1.0),
            BoundResult(tag, 5.0, 6.0, -0.2, None, None, Regime.OUT_OF_REGIME, 2.0),
        ]
        assert _csv_text([1.0, 2.0], [rows]) == reference_csv(rows) == (
            f"{CSV_HEADER}\n1,{tag},5,1,0.80000000000000004,0.20000000000000001,valid\n"
            f"2,{tag},5,6,-0.20000000000000001,,out-of-regime\n"
        )

    def test_edge_floats(self):
        rows = [
            BoundResult("Thm1", sys.float_info.max, 5e-324, -0.0, 5e-324, -744.0, Regime.VALID, -0.0),
            BoundResult("Thm4", 0.0, 0.5, -math.inf, None, None, Regime.OUT_OF_REGIME, sys.float_info.max),
            BoundResult("Thm4", 2.5, -0.0, 1.0, sys.float_info.max, 0.0, Regime.TRIVIAL, 5e-324),
        ]
        assert one_point_sweeps(*rows) == reference_csv(rows) == (
            CSV_HEADER + "\n"
            "-0,Thm1,1.7976931348623157e+308,4.9406564584124654e-324,-0,4.9406564584124654e-324,valid\n"
            "1.7976931348623157e+308,Thm4,0,0.5,-inf,,out-of-regime\n"
            "4.9406564584124654e-324,Thm4,2.5,-0,1,1.7976931348623157e+308,trivial\n"
        )


#: JSON trees as json.dumps takes them: non-ASCII, escaped and control
#: characters, -0.0 and the floats JSON cannot hold (NaN, +-inf), ints past
#: 64 bits, non-string keys, tuples, and empty and nested-empty containers
SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(10**40), max_value=10**40)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from([-0.0, math.nan, math.inf, -math.inf, 2**53 + 1, "", "\u00e9\u4e2d\U0001f600", '"\\/\b\f\n\r\t'])
    | st.text()
)
KEYS = st.text() | st.sampled_from([0, -1, 2.5, -0.0, math.inf, True, False, None, "}", "{"])
TREES = st.recursive(
    SCALARS,
    lambda children: (
        st.lists(children, max_size=5)
        | st.lists(children, max_size=5).map(tuple)
        | st.dictionaries(KEYS, children, max_size=5)
        | st.lists(st.dictionaries(KEYS, SCALARS, max_size=4), max_size=4)
    ),
    max_leaves=30,
)


class TestIndentedJson:
    @settings(max_examples=200, deadline=None)
    @given(TREES)
    def test_equals_json_dumps_indent_2(self, tree):
        # with allow_nan=False: a NaN or infinite float, value or key, has no JSON form
        try:
            expected = json.dumps(tree, indent=2, allow_nan=False)
        except ValueError:
            with pytest.raises(InvalidInputError, match="^output has no JSON form"):
                indented_json(tree)
        else:
            assert indented_json(tree) == expected

    @pytest.mark.parametrize(
        "tree",
        [
            {},
            [],
            (),
            [[]],
            [{}],
            {"a": {"b": []}},
            [{"a": 1}, {}, {"b": 2}],
            [{"a": "},\n    {"}, {"b": [1]}],
            {1: [1.5], None: {}, True: (2,), -0.0: "x"},
            [{"a": 1, "b": "\u00e9"}, {"c": None}],
            10**30,
            "\u00e9\n",
        ],
    )
    def test_edge_trees(self, tree):
        assert indented_json(tree) == json.dumps(tree, indent=2)
