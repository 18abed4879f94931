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
from sdpfeas.confusion import counts_from_json, records_from_csv


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
        with pytest.raises(ParseError) as info:
            confusion_from_records([("clean", "clean"), ("clean",)])
        assert info.value.index == 1

    def test_unknown_label_rejected(self):
        with pytest.raises(ParseError):
            confusion_from_records([("clean", "maybe")])

    def test_non_string_label_rejected(self):
        with pytest.raises(ParseError, match="record 1: label 1 is not a string") as info:
            confusion_from_records([("clean", "clean"), ("defective", 1)])
        assert info.value.index == 1


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
        with pytest.raises(AssumptionViolationError) as info:
            false_omission_rate(ConfusionMatrix(tp=5, fn_=0, fp=2, tn=10))
        assert info.value.assumption == 5
        assert info.value.detail == "fn"

    def test_zero_tn_rejected(self):
        with pytest.raises(AssumptionViolationError) as info:
            false_omission_rate(ConfusionMatrix(tp=5, fn_=4, fp=2, tn=0))
        assert info.value.detail == "tn"

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
