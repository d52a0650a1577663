import importlib.util
from importlib import resources
from pathlib import Path

import pytest

from aspectcast.corpus import (
    CorpusError,
    Quarter,
    Review,
    parse_revenue,
    parse_reviews,
    reviews_to_jsonl,
)


class TestQuarter:
    def test_parse(self):
        q = Quarter.parse("2016Q4")
        assert (q.year, q.index) == (2016, 4)

    def test_invalid_index(self):
        with pytest.raises(CorpusError, match="invalid quarter"):
            Quarter.parse("2016Q5")

    def test_invalid_label(self):
        with pytest.raises(CorpusError):
            Quarter.parse("Q42016")

    def test_equal_labels_share_one_instance(self):
        assert Quarter.parse("2016Q4") is Quarter.parse("2016Q4")
        assert Quarter.parse("2016Q4") == Quarter(2016, 4)
        assert Quarter.parse("2017Q1") is not Quarter.parse("2016Q4")

    @pytest.mark.parametrize("label", ["2016Q5", "2016Q0", "Q42016", "", "2016q4"])
    def test_bad_labels_still_rejected(self, label):
        for _ in range(2):  # a failed parse is not remembered
            with pytest.raises(CorpusError, match="invalid quarter label"):
                Quarter.parse(label)

    def test_next_rolls_over_the_year(self):
        assert Quarter(2016, 1).next() == Quarter(2016, 2)
        assert Quarter(2016, 4).next() == Quarter(2017, 1)

    def test_ordering(self):
        qs = [Quarter(2017, 1), Quarter(2016, 4), Quarter(2016, 2)]
        assert sorted(qs) == [Quarter(2016, 2), Quarter(2016, 4), Quarter(2017, 1)]
        assert sorted(sorted(qs)) == sorted(qs)

    def test_str(self):
        assert str(Quarter(2016, 4)) == "2016Q4"


class TestParseReviews:
    def test_jsonl_single(self):
        data = b'{"id":"r1","quarter":"2016Q4","text":"great support"}'
        reviews = parse_reviews(data, "jsonl")
        assert reviews == [Review("r1", Quarter(2016, 4), "great support")]

    def test_csv_empty(self):
        assert parse_reviews(b"id,quarter,text\n", "csv") == []

    def test_csv_rows(self):
        data = b"id,quarter,text\nr1,2016Q4,good\nr2,2017Q1,bad\n"
        reviews = parse_reviews(data, "csv")
        assert [r.id for r in reviews] == ["r1", "r2"]

    def test_bad_quarter(self):
        data = b'{"id":"r1","quarter":"2016Q5","text":"x"}'
        with pytest.raises(CorpusError, match="invalid quarter"):
            parse_reviews(data, "jsonl")

    def test_empty_text_names_review(self):
        data = b'{"id":"r9","quarter":"2016Q4","text":"  "}'
        with pytest.raises(CorpusError, match="r9"):
            parse_reviews(data, "jsonl")

    def test_duplicate_id(self):
        data = (
            b'{"id":"r1","quarter":"2016Q4","text":"a"}\n'
            b'{"id":"r1","quarter":"2016Q4","text":"b"}'
        )
        with pytest.raises(CorpusError, match="duplicate"):
            parse_reviews(data, "jsonl")

    def test_duplicate_id_compares_as_loaded(self):
        # 5 and "5" both load as review '5'
        data = (
            b'{"id":5,"quarter":"2016Q4","text":"a"}\n'
            b'{"id":"5","quarter":"2016Q4","text":"b"}'
        )
        with pytest.raises(CorpusError, match="line 2: duplicate review id '5'"):
            parse_reviews(data, "jsonl")

    @pytest.mark.parametrize("rid", [b'["r1"]', b'{"a": 1}', b"[]"])
    def test_id_not_a_string_or_number(self, rid):
        data = b'{"id":"r0","quarter":"2016Q4","text":"a"}\n{"id":' + rid + b',"quarter":"2016Q4","text":"b"}'
        with pytest.raises(CorpusError, match="line 2: review id must be a string or a number"):
            parse_reviews(data, "jsonl")

    def test_malformed_line_number(self):
        data = b'{"id":"r1","quarter":"2016Q4","text":"a"}\n{broken'
        with pytest.raises(CorpusError, match="line 2"):
            parse_reviews(data, "jsonl")

    def test_jsonl_with_byte_order_mark(self):
        # a leading BOM is dropped; one inside a later record's text stays
        data = ('\ufeff{"id":"r1","quarter":"2016Q4","text":"good"}\n'
                '{"id":"r2","quarter":"2016Q4","text":"\ufeffok"}\n')
        reviews = parse_reviews(data.encode(), "jsonl")
        assert [(r.id, r.text) for r in reviews] == [("r1", "good"), ("r2", "\ufeffok")]

    def test_jsonl_byte_order_mark_after_the_first_line_is_malformed(self):
        data = ('{"id":"r1","quarter":"2016Q4","text":"good"}\n'
                '\ufeff{"id":"r2","quarter":"2016Q4","text":"ok"}\n')
        with pytest.raises(CorpusError, match="line 2: malformed JSON"):
            parse_reviews(data.encode(), "jsonl")

    def test_csv_with_byte_order_mark(self):
        data = "\ufeffid,quarter,text\r\nr1,2016Q4,good\r\nr2,2017Q1,\ufeffbad\r\n".encode()
        reviews = parse_reviews(data, "csv")
        assert [(r.id, r.quarter, r.text) for r in reviews] == [
            ("r1", Quarter(2016, 4), "good"), ("r2", Quarter(2017, 1), "\ufeffbad")]

    def test_roundtrip(self):
        data = (
            b'{"id":"r1","quarter":"2016Q4","text":"great support","source":"g2"}\n'
            b'{"id":"r2","quarter":"2017Q1","text":"slow and buggy"}\n'
        )
        reviews = parse_reviews(data, "jsonl")
        assert parse_reviews(reviews_to_jsonl(reviews), "jsonl") == reviews


class TestParseRevenue:
    def test_basic(self):
        series = parse_revenue(b"quarter,revenue\n2015Q4,100\n2016Q1,110\n")
        assert len(series) == 2
        assert series.quarters == (Quarter(2015, 4), Quarter(2016, 1)) and series.values == (100, 110)

    def test_byte_order_mark(self):
        series = parse_revenue("\ufeffquarter,revenue\r\n2015Q4,100\r\n2016Q1,110\r\n".encode())
        assert series.quarters == (Quarter(2015, 4), Quarter(2016, 1)) and series.values == (100, 110)

    def test_unsorted_input(self):
        series = parse_revenue(b"quarter,revenue\n2016Q1,110\n2015Q4,100\n")
        assert series.quarters[0] == Quarter(2015, 4)

    def test_gap(self):
        with pytest.raises(CorpusError, match="missing 2016Q1"):
            parse_revenue(b"quarter,revenue\n2015Q4,100\n2016Q2,120\n")

    def test_non_positive(self):
        with pytest.raises(CorpusError, match="non-positive"):
            parse_revenue(b"quarter,revenue\n2016Q1,-5\n")

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite(self, value):
        # nan <= 0 is false, so a positivity check alone lets nan through
        with pytest.raises(CorpusError, match=f"line 3: non-finite revenue '{value}' for 2016Q1"):
            parse_revenue(f"quarter,revenue\n2015Q4,100\n2016Q1,{value}\n".encode())


def test_bundled_corpus_regenerates(tmp_path, monkeypatch):
    path = Path(__file__).resolve().parents[1] / "scripts" / "make_synthetic_corpus.py"
    spec = importlib.util.spec_from_file_location("make_synthetic_corpus", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    monkeypatch.setattr(script, "OUT", tmp_path)
    script.main()
    bundled = resources.files("aspectcast").joinpath("data/synthetic")
    for name in ("reviews.jsonl", "revenue.csv"):
        assert (tmp_path / name).read_bytes() == bundled.joinpath(name).read_bytes()
