import importlib.util
import io
import json
from importlib import resources
from pathlib import Path

import pytest

from aspectcast.corpus import (
    CorpusError,
    Quarter,
    Review,
    RevenueSeries,
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
        # within one parse, the reviews of a label share its Quarter
        labels = ["2016Q4", "2017Q1", "2016Q4", "2017Q1"]
        data = "".join(json.dumps({"id": i, "quarter": q, "text": "ok"}) + "\n" for i, q in enumerate(labels))
        a, b, c, d = parse_reviews(data.encode())
        assert a.quarter is c.quarter and b.quarter is d.quarter
        assert a.quarter == Quarter(2016, 4) and b.quarter == Quarter(2017, 1)

    @pytest.mark.parametrize("label", ["2016Q5", "2016Q0", "Q42016", "", "2016q4"])
    def test_bad_labels_still_rejected(self, label):
        for _ in range(2):  # a failed parse is not remembered
            with pytest.raises(CorpusError, match="invalid quarter label"):
                Quarter.parse(label)

    @pytest.mark.parametrize("index", [0, 5])
    def test_invalid_index_built_directly(self, index):
        with pytest.raises(CorpusError, match=f"^invalid quarter index: {index}$"):
            Quarter(2020, index)

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


class TestReview:
    def test_blank_text_is_refused(self):
        for text in ("", "  ", "\t\n", "\u2028"):
            with pytest.raises(CorpusError, match="review 'r1' has empty text"):
                Review("r1", Quarter(2016, 4), text)

    def test_repr_and_equality_of_built_and_parsed_reviews(self):
        built = [Review("r1", Quarter(2016, 4), "great support"),
                 Review(id="r2", quarter=Quarter(2017, 1), text="slow", source="forum")]
        parsed = parse_reviews(b'{"id":"r1","quarter":"2016Q4","text":"great support"}\n'
                               b'{"id":"r2","quarter":"2017Q1","text":"slow","source":"forum"}\n', "jsonl")
        assert parsed == built and [type(r) for r in parsed] == [Review, Review]
        assert [repr(r) for r in parsed] == [repr(r) for r in built] == [
            "Review(id='r1', quarter=Quarter(year=2016, index=4), text='great support', source=None)",
            "Review(id='r2', quarter=Quarter(year=2017, index=1), text='slow', source='forum')",
        ]
        assert hash(parsed[0]) == hash(built[0])

    def test_immutable(self):
        review = Review("r1", Quarter(2016, 4), "great support")
        with pytest.raises(AttributeError):
            review.text = "changed"
        assert review.text == "great support"


def reference_jsonl_outcome(data):
    """The reviews by repr, or the error, of the parse that ran ``json.loads``
    on every non-blank line without its "\\n" (the records here are otherwise
    valid, so a Review is built straight from each)."""
    reviews = []
    lines = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8-sig", newline=None)
    for idx, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line.rstrip("\n"))
        except json.JSONDecodeError as e:
            return ("error", f"line {idx}: malformed JSON ({e.msg})")
        reviews.append(repr(Review(str(obj["id"]), Quarter.parse(obj["quarter"]), str(obj["text"]),
                                   obj.get("source") or None)))
    return reviews


def jsonl_outcome(data):
    try:
        return [repr(r) for r in parse_reviews(data, "jsonl")]
    except CorpusError as e:
        return ("error", str(e))


RECORD = '{"id": "a", "quarter": "2016Q1", "text": "x"}'
OTHER = '{"id": "b", "quarter": "2016Q2", "text": "y", "source": "forum"}'


class TestScannedLines:
    """Each line reads as ``json.loads`` read it, errors worded alike."""

    @pytest.mark.parametrize("text", [
        f"  {RECORD}  \n{OTHER}\n",           # spaces around a record
        f"\t{RECORD}\t\n\t \n{OTHER}",        # tabs, a padded blank line, no final "\n"
        f"{RECORD}\r{OTHER}\r",               # "\r" line ends
        f"{RECORD}\r\n{OTHER} \r\n\r\n",      # "\r\n" line ends, a space before one
        f"{RECORD}\n\x0b\u3000\n{OTHER}\n",    # blank to str.strip, not JSON whitespace
        '{"id": NaN, "quarter": "2016Q1", "text": Infinity}\n'
        '{"id": "b", "quarter": "2016Q1", "text": "x", "source": -Infinity}\n',
        '{"id": "a", "quarter": "2016Q1", "text": "half \\ud800 a pair"}\n',
        '{"id": "a", "quarter": "2016Q1", "text": "one\u2028line"}\n',
    ])
    def test_records(self, text):
        data = text.encode()
        assert jsonl_outcome(data) == reference_jsonl_outcome(data)
        assert jsonl_outcome(data)[0] != "error"

    @pytest.mark.parametrize("text, message", [
        ("{} {}\n", "line 1: malformed JSON (Extra data)"),
        (f"{RECORD}x", "line 1: malformed JSON (Extra data)"),
        (f"{RECORD}\n\ufeff{OTHER}\n", "line 2: malformed JSON (Unexpected UTF-8 BOM (decode using utf-8-sig))"),
        (f"{RECORD}\n{{\"id\": \n", "line 2: malformed JSON (Expecting value)"),
        (f"{RECORD}\n {{\"id\": \"b\"\n", "line 2: malformed JSON (Expecting ',' delimiter)"),
        (f"{RECORD}\n\x0b{OTHER}\n", "line 2: malformed JSON (Expecting value)"),
    ])
    def test_errors(self, text, message):
        data = text.encode()
        assert jsonl_outcome(data) == reference_jsonl_outcome(data) == ("error", message)

    def test_deeply_nested_line(self):
        deep = "[" * 100_000 + "]" * 100_000
        data = f'{RECORD}\n{{"id": "b", "quarter": "2016Q1", "text": {deep}}}\n'.encode()
        with pytest.raises(CorpusError, match=r"^line 2: malformed JSON \(nested too deeply\)$"):
            parse_reviews(data, "jsonl")


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

    @pytest.mark.parametrize("values, problem", [
        ((100.0,), "quarters and values length mismatch"),
        ((100.0, 0.0), "non-positive revenue for 2016Q1: 0.0"),
    ])
    def test_series_built_directly(self, values, problem):
        with pytest.raises(CorpusError, match=f"^{problem}$"):
            RevenueSeries(quarters=(Quarter(2015, 4), Quarter(2016, 1)), values=values)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite(self, value):
        # nan <= 0 is false, so a positivity check alone lets nan through
        with pytest.raises(CorpusError, match=f"line 3: non-finite value '{value}' in column 'revenue'"):
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
