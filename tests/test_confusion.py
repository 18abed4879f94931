import csv
import io
import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sdpfeas import (
    AssumptionViolationError,
    ConfusionMatrix,
    InvalidInputError,
    ParseError,
    confusion_from_records,
    false_omission_rate,
)
from sdpfeas.confusion import _CELLS, _canonical_label, counts_from_json, records_from_csv


class TestConfusionFromCounts:
    def test_identity_construction(self):
        m = ConfusionMatrix(5, 3, 2, 17)
        assert (m.tp, m.fn_, m.fp, m.tn) == (5, 3, 2, 17)

    def test_empty_matrix_allowed(self):
        m = ConfusionMatrix(0, 0, 0, 0)
        assert m.to_dict() == {"tp": 0, "fn": 0, "fp": 0, "tn": 0}

    def test_negative_count_rejected(self):
        with pytest.raises(InvalidInputError):
            ConfusionMatrix(-1, 0, 0, 0)

    def test_non_integer_rejected(self):
        with pytest.raises(InvalidInputError):
            ConfusionMatrix(1.5, 0, 0, 0)

    def test_checked_immutable_named_tuple(self):
        m = ConfusionMatrix(5, 3, 2, 17)
        assert repr(m) == "ConfusionMatrix(tp=5, fn_=3, fp=2, tn=17)"
        same = ConfusionMatrix(tp=5, fn_=3, fp=2, tn=17)
        assert m == same and hash(m) == hash(same)
        tp, fn, fp, tn = m
        assert (tp, fn, fp, tn) == (5, 3, 2, 17)
        with pytest.raises(AttributeError):
            m.tp = 6
        # each count is read, then checked for sign, in field order
        with pytest.raises(InvalidInputError, match=r"^count 'fn_' must be >= 0, got -1$"):
            ConfusionMatrix(0, -1, 1.5, 0)
        with pytest.raises(ParseError, match=r"^count 'fn_' must be an integer, got 1\.5$"):
            ConfusionMatrix(0, 1.5, -1, 0)


class TestConfusionFromRecords:
    def test_single_false_negative(self):
        m = confusion_from_records([("defective", "clean")])
        assert m == ConfusionMatrix(0, 1, 0, 0)

    def test_clean_pair(self):
        m = confusion_from_records([("clean", "clean"), ("clean", "defective")])
        assert m == ConfusionMatrix(0, 0, 1, 1)

    def test_empty_input(self):
        assert confusion_from_records([]) == ConfusionMatrix(0, 0, 0, 0)

    def test_case_insensitive(self):
        m = confusion_from_records([("Defective", "CLEAN")])
        assert m.fn_ == 1

    def test_malformed_record_carries_index(self):
        with pytest.raises(ParseError, match=r"^record 1: expected an \(actual, predicted\) pair, got \('clean',\)$"):
            confusion_from_records([("clean", "clean"), ("clean",)])

    def test_unknown_label_rejected(self):
        with pytest.raises(ParseError):
            confusion_from_records([("clean", "maybe")])

    def test_non_string_label_rejected(self):
        with pytest.raises(ParseError, match="^record 1: label 1 is not a string$"):
            confusion_from_records([("clean", "clean"), ("defective", 1)])

    def test_list_label_rejected(self):
        # an unhashable label after a pair of str labels
        with pytest.raises(ParseError, match=r"^record 1: label \['clean'\] is not a string$"):
            confusion_from_records([("clean", "clean"), (["clean"], "clean")])

    def test_str_subclass_label_counted(self):
        class Label(str):
            pass

        m = confusion_from_records([(Label(" Defective"), "clean"), ("clean", Label("CLEAN"))])
        assert m == ConfusionMatrix(0, 1, 0, 1)

    def test_str_subclass_label_read_by_its_own_methods(self):
        # the label checks see what the subclass's strip() and lower() give
        class Listed(str):
            def strip(self):
                return self

            def lower(self):
                return ["clean"]

        with pytest.raises(ParseError, match=r"^record 0: unknown label 'clean' \(expected"):
            confusion_from_records([(Listed("clean"), "clean")])

    def test_label_that_only_acts_as_a_string_rejected(self):
        # strip() and lower() that give "clean" do not make a label a string
        class Lookalike:
            def strip(self):
                return self

            def lower(self):
                return "clean"

            def __repr__(self):
                return "Lookalike()"

        with pytest.raises(ParseError, match=r"^record 1: label Lookalike\(\) is not a string$"):
            confusion_from_records([("clean", "clean"), ("clean", Lookalike())])
        with pytest.raises(ParseError, match=r"^record 0: label Lookalike\(\) is not a string$"):
            confusion_from_records([(Lookalike(), "clean")])

    def test_actual_fault_reported_before_predicted(self):
        with pytest.raises(ParseError, match=r"^record 1: unknown label 'maybe' \(expected"):
            confusion_from_records([("clean", "clean"), ("maybe", 1)])

    def test_unique_ids_fail_at_the_first_record(self):
        rows = iter([[str(i), "clean", "clean"] for i in range(10)])
        with pytest.raises(ParseError, match=r"^record 0: expected an \(actual, predicted\) pair, got \['0', "):
            confusion_from_records(rows)
        # and no record past the first was read
        assert next(rows) == ["1", "clean", "clean"]


#: every (actual, predicted) pair, spelt in mixed case and padded, and the
#: matrix of three such records, written out
PAIR_CELLS = [
    (" Defective", "DEFECTIVE ", ConfusionMatrix(tp=3, fn_=0, fp=0, tn=0)),
    ("defective\t", " Clean", ConfusionMatrix(tp=0, fn_=3, fp=0, tn=0)),
    (" CLEAN ", "deFective", ConfusionMatrix(tp=0, fn_=0, fp=3, tn=0)),
    ("clean", "\tcLEAN ", ConfusionMatrix(tp=0, fn_=0, fp=0, tn=3)),
]


@pytest.mark.parametrize("actual, predicted, matrix", PAIR_CELLS)
def test_each_pair_counts_in_its_cell(actual, predicted, matrix):
    # both paths read the one table of cells; a literal matrix keeps a
    # swapped cell from passing both alike
    assert confusion_from_records([(actual, predicted)] * 3) == matrix
    assert records_from_csv("actual,predicted\n" + f"{actual},{predicted}\n" * 3) == matrix


class TestFalseOmissionRate:
    def test_desk_example(self):
        p = false_omission_rate(ConfusionMatrix(tp=5, fn_=3, fp=2, tn=17))
        assert p == Fraction(3, 20)
        assert float(p) == pytest.approx(0.15)
        assert str(p) == "3/20"

    def test_symmetric_case(self):
        p = false_omission_rate(ConfusionMatrix(tp=0, fn_=1, fp=0, tn=1))
        assert float(p) == 0.5

    def test_zero_fn_rejected(self):
        with pytest.raises(AssumptionViolationError, match="^assumption 5 violated: .*; fn is zero$"):
            false_omission_rate(ConfusionMatrix(tp=5, fn_=0, fp=2, tn=10))

    def test_zero_tn_rejected(self):
        with pytest.raises(AssumptionViolationError, match="^assumption 5 violated: .*; tn is zero$"):
            false_omission_rate(ConfusionMatrix(tp=5, fn_=4, fp=2, tn=0))

    @given(fn=st.integers(1, 10**6), tn=st.integers(1, 10**6), k=st.integers(1, 1000))
    def test_scale_invariance(self, fn, tn, k):
        base = false_omission_rate(ConfusionMatrix(0, fn, 0, tn))
        scaled = false_omission_rate(ConfusionMatrix(0, fn * k, 0, tn * k))
        assert float(scaled) == pytest.approx(float(base), rel=1e-15)

    @given(fn=st.integers(1, 10**9), tn=st.integers(1, 10**9))
    def test_strictly_inside_unit_interval(self, fn, tn):
        p = false_omission_rate(ConfusionMatrix(0, fn, 0, tn))
        assert 0.0 < float(p) < 1.0

    @given(fn=st.integers(1, 10**30), tn=st.integers(1, 10**30))
    def test_exact_ratio(self, fn, tn):
        matrix = ConfusionMatrix(0, fn, 0, tn)
        if fn / (fn + tn) == 1.0:  # tn is below half an ulp of fn + tn
            with pytest.raises(InvalidInputError):
                false_omission_rate(matrix)
            return
        p = false_omission_rate(matrix)
        assert float(p) == fn / (fn + tn)
        divisor = math.gcd(fn, fn + tn)
        assert str(p) == f"{fn // divisor}/{(fn + tn) // divisor}"

    @given(
        labels=st.lists(
            st.tuples(
                st.sampled_from(["defective", "clean"]),
                st.sampled_from(["defective", "clean"]),
            ),
            min_size=1,
            max_size=200,
        )
    )
    def test_records_agree_with_direct_tally(self, labels):
        m = confusion_from_records(labels)
        fn = sum(1 for a, pr in labels if a == "defective" and pr == "clean")
        tn = sum(1 for a, pr in labels if a == "clean" and pr == "clean")
        assert (m.fn_, m.tn) == (fn, tn)
        if fn >= 1 and tn >= 1:
            assert float(false_omission_rate(m)) == pytest.approx(fn / (fn + tn), rel=1e-15)


class TestSerializedForms:
    def test_counts_json(self):
        m = counts_from_json('{"tp":5,"fn":3,"fp":2,"tn":17}')
        assert m == ConfusionMatrix(5, 3, 2, 17)

    def test_counts_json_rejects_extras(self):
        with pytest.raises(ParseError):
            counts_from_json('{"tp":5,"fn":3,"fp":2,"tn":17,"junk":1}')

    def test_counts_json_rejects_missing(self):
        with pytest.raises(ParseError):
            counts_from_json('{"tp":5,"fn":3}')

    def test_records_csv(self):
        text = "actual,predicted\ndefective,clean\nclean,clean\nclean,defective\ndefective,defective\n"
        m = records_from_csv(text)
        assert m == ConfusionMatrix(1, 1, 1, 1)

    def test_records_csv_bad_header(self):
        with pytest.raises(ParseError):
            records_from_csv("a,b\nclean,clean\n")


def read_each_record(text: str) -> ConfusionMatrix:
    """The records CSV read and classified one record at a time, without
    ``confusion_from_records``: the reference that ``records_from_csv``
    must agree with, error for error."""
    reader = csv.reader(io.StringIO(text))
    counts = [0, 0, 0, 0]
    try:
        header = next(reader, None)
        if header is None:
            raise ParseError("empty CSV input; expected an 'actual,predicted' header")
        if [cell.strip().lower() for cell in header] != ["actual", "predicted"]:
            raise ParseError(f"expected header 'actual,predicted', got {header!r}")
        for index, row in enumerate(row for row in reader if row):
            if len(row) != 2:
                raise ParseError(f"record {index}: expected an (actual, predicted) pair, got {row!r}")
            counts[_CELLS[_canonical_label(row[0], index), _canonical_label(row[1], index)]] += 1
    except csv.Error as exc:
        raise ParseError(f"records CSV line {reader.line_num}: {exc}") from None
    return ConfusionMatrix(*counts)


def result(read, text):
    """The matrix ``read(text)`` returns, or the type, message and record
    index of what it raises."""
    try:
        return read(text)
    except Exception as exc:
        return type(exc), str(exc), getattr(exc, "index", None)


#: a label as a file may spell it: any case, padded, bare or quoted, and
#: quoted with a line break inside the quotes (which strip() removes)
LABELS = st.builds(
    lambda label, case, pad, quote: quote.format(pad + case(label) + pad),
    st.sampled_from(["defective", "clean"]),
    st.sampled_from([str.lower, str.upper, str.title, str.swapcase]),
    st.sampled_from(["", " ", "\t "]),
    st.sampled_from(["{}", '"{}"', '"{}\n"', '"\r\n{}"']),
)
#: a line no record may be: one or three fields, an unknown label, a
#: label split by a quote, a whitespace-only row, a field past the csv
#: module's size limit and a quote left open
FAULTS = st.sampled_from(
    [
        "clean",
        "clean,clean,clean",
        "defective,maybe",
        'cle"an,clean',
        "   ",
        "clean," + "x" * (csv.field_size_limit() + 1),
        '"clean,clean',
    ]
)


#: headers a file may give, the last one wrong
HEADERS = ["actual,predicted", " Actual , PREDICTED ", '"actual","predicted"', "ACTUAL,predicted\t", "actual,label"]


@st.composite
def records_texts(draw):
    lines = draw(st.lists(st.builds(",".join, st.tuples(LABELS, LABELS)), max_size=30))
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), draw(FAULTS))
    header = draw(st.sampled_from(HEADERS))
    size = len(lines) + 1
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n", "\n\n", "\r\n\r\n"]), min_size=size, max_size=size))
    return "".join(line + end for line, end in zip([header, *lines], ends))


class TestRecordsTally:
    """``records_from_csv`` reads the text once, through
    ``confusion_from_records``, which classifies each record as it comes;
    the first error in file order is the one raised."""

    @given(records_texts())
    def test_tally_agrees_with_reading_each_record(self, text):
        assert result(records_from_csv, text) == result(read_each_record, text)

    @pytest.mark.parametrize("before", [1, 4097], ids=["1-row-before", "4097-rows-before"])
    def test_first_fault_is_the_one_raised(self, before):
        oversize = "clean," + "x" * (csv.field_size_limit() + 1)
        valid = "clean,clean\n" * before
        # a bad label before a field the csv module refuses, valid records
        # apart
        text = "actual,predicted\n" + valid + "\nclean,maybe\n" + valid + oversize + "\n"
        with pytest.raises(ParseError, match=rf"^record {before}: unknown label 'maybe' \(expected"):
            records_from_csv(text)
        # and the field before the bad label
        text = "actual,predicted\n" + valid + oversize + "\n" + valid + "clean,maybe\n"
        with pytest.raises(ParseError, match=rf"^records CSV line {before + 2}: field larger than field limit"):
            records_from_csv(text)

    def test_distinct_records_are_counted_in_their_cells(self):
        text = "actual,predicted\r\n" + "defective,clean\n" * 3 + " CLEAN ,Clean\n" * 4 + '"clean\n",defective\n' * 2
        assert records_from_csv(text) == ConfusionMatrix(tp=0, fn_=3, fp=2, tn=4)
        # over many repeats of each record
        text = "actual,predicted\n" + ("defective,defective\n" + "clean,Clean\n" * 2) * 4096
        assert records_from_csv(text) == ConfusionMatrix(tp=4096, fn_=0, fp=0, tn=2 * 4096)

    def test_unique_id_file_fails_at_record_0(self):
        text = "actual,predicted\n" + "".join(f"{i},defective,clean\n" for i in range(10000))
        with pytest.raises(
            ParseError, match=r"^record 0: expected an \(actual, predicted\) pair, got \['0', 'defective', 'clean'\]$"
        ):
            records_from_csv(text)
