"""Differential tests: the streamed review parser and the matched-only perception
builder against frozen copies of the whole-text parser and the
score-every-review path they replaced, and the review stream of
``load_inputs`` against the parsed review list it replaced.

Both must agree exactly (reviews and perceptions by ``repr``, errors by type
and message), because report bytes are pinned downstream.
"""

import csv
import io
import json
import random
import re
import tracemalloc
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from aspectcast import corpus, pipeline, sentiment
from aspectcast.aspects import default_vocabulary, match_aspects
from aspectcast.corpus import CorpusError, Quarter, Review, iter_reviews, parse_reviews
from aspectcast.features import perception
from aspectcast.pipeline import PipelineConfig, StageError, build_features, build_perceptions, load_inputs
from aspectcast.sentiment import HeuristicConfig, analyze, default_lexicon, score_ids


# --- frozen references -------------------------------------------------------

_REF_QUARTER_RE = re.compile(r"^(\d{4})Q([1-4])$")


def _ref_build_review(idx, rid, qlabel, text, source, seen_ids):
    if rid is None or rid == "":
        raise CorpusError(f"line {idx}: missing review id")
    if rid in seen_ids:
        raise CorpusError(f"line {idx}: duplicate review id {rid!r}")
    if text is None or not str(text).strip():
        raise CorpusError(f"line {idx}: empty text for review {rid!r}")
    m = _REF_QUARTER_RE.match(str(qlabel).strip())
    if not m:
        raise CorpusError(f"line {idx}: invalid quarter label: {str(qlabel)!r} (expected YYYYQn)")
    seen_ids.add(rid)
    quarter = Quarter(int(m.group(1)), int(m.group(2)))
    return Review(id=str(rid), quarter=quarter, text=str(text), source=source or None)


def reference_parse_reviews(data, format="jsonl"):
    """The whole-text parser: decode everything, then split it into lines."""
    text = data.decode("utf-8")
    seen = set()
    reviews = []
    if format == "jsonl":
        for idx, line in enumerate(text.splitlines(), start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as e:
                raise CorpusError(f"line {idx}: malformed JSON ({e.msg})") from None
            if not isinstance(obj, dict):
                raise CorpusError(f"line {idx}: expected a JSON object")
            reviews.append(_ref_build_review(idx, obj.get("id"), obj.get("quarter"), obj.get("text"),
                                             obj.get("source"), seen))
    else:
        reader = csv.DictReader(io.StringIO(text))
        if reader.fieldnames is None or not {"id", "quarter", "text"} <= set(reader.fieldnames):
            raise CorpusError("CSV header must contain id,quarter,text")
        for idx, row in enumerate(reader, start=2):
            reviews.append(_ref_build_review(idx, row.get("id"), row.get("quarter"), row.get("text"),
                                             row.get("source"), seen))
    return reviews


def reference_perceptions(reviews, vocab, lexicon, heuristics):
    """Score every review, then bucket the compounds of the matched ones."""
    scores = [analyze(r.text, lexicon, heuristics) for r in reviews]
    buckets = {}
    for review, score in zip(reviews, scores, strict=True):
        for match in match_aspects(review, vocab):
            buckets.setdefault((match.aspect_id, review.quarter), []).append(score.compound)
    return [
        perception(aspect_id, quarter, compounds)
        for (aspect_id, quarter), compounds in sorted(buckets.items(), key=lambda kv: (kv[0][0], kv[0][1]))
    ]


def outcome(parse, data, format):
    """The parsed reviews by repr, or the CorpusError's message."""
    try:
        return [repr(r) for r in parse(data, format)]
    except CorpusError as e:
        return ("error", str(e))


# --- generated corpora -------------------------------------------------------

# the separators str.splitlines() also splits on; a record holding one raw is
# the case where the two parsers differ, tested on its own below
_OTHER_LINE_BREAKS = "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
TEXTS = st.one_of(
    st.sampled_from(["great support", "slow and costly", "  ", "", "Cost, cost: COST!",
                     'quote " and \\ slash', "comma, inside", "two\nlines", "cr\rhere", "crlf\r\nhere"]),
    st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters=_OTHER_LINE_BREAKS),
            max_size=30),
)
IDS = st.sampled_from(["r1", "r2", "r3", "r4", "", None, 7])
QUARTERS = st.sampled_from(["2016Q1", "2016Q4", "2017Q2", " 2018Q3 ", "2016Q5", "16Q1", "", None])
SOURCES = st.sampled_from([None, "", "forum", "blog"])
LINE_ENDS = st.sampled_from(["\n", "\r\n", "\r"])
RECORDS = st.fixed_dictionaries({"id": IDS, "quarter": QUARTERS, "text": TEXTS},
                                optional={"source": SOURCES})
JSONL_LINES = st.one_of(
    st.builds(json.dumps, RECORDS, ensure_ascii=st.booleans()),
    st.sampled_from(["", "   ", "\t", '{"id": ', "[1, 2]", "not json", '{"id": "x", "text": "open',
                     "42", '"text"', "{} {}"]),
)


@st.composite
def jsonl_corpora(draw):
    lines = draw(st.lists(st.tuples(JSONL_LINES, LINE_ENDS), max_size=12))
    last = draw(st.sampled_from(["", "\n"]))
    return ("".join(line + end for line, end in lines) + last).encode("utf-8")


CSV_ROWS = st.lists(st.one_of(
    st.tuples(IDS, QUARTERS, TEXTS),
    st.tuples(IDS, QUARTERS, TEXTS, SOURCES),
    st.tuples(IDS, QUARTERS),           # short row
    st.just(()),                        # blank line
), max_size=10)
CSV_HEADERS = st.sampled_from([("id", "quarter", "text"), ("id", "quarter", "text", "source"),
                               ("quarter", "text", "id"), ("id", "text")])


def csv_bytes(header, rows, line_end):
    """A CSV file whose records end in ``line_end``; a field holding "\\r" or
    "\\n" is quoted whatever the line end is."""
    lines = []
    for row in [header, *rows]:
        buf = io.StringIO(newline="")
        csv.writer(buf, lineterminator="\r\n").writerow(["" if v is None else v for v in row])
        lines.append(buf.getvalue()[:-2] + line_end)
    return "".join(lines).encode("utf-8")


# --- parser ------------------------------------------------------------------

class TestParseEquivalence:
    def test_bundled_corpus(self):
        data = resources.files("aspectcast").joinpath("data/synthetic/reviews.jsonl").read_bytes()
        reviews = parse_reviews(data, "jsonl")
        assert len(reviews) == 224
        assert [repr(r) for r in reviews] == [repr(r) for r in reference_parse_reviews(data, "jsonl")]

    @given(jsonl_corpora())
    @settings(max_examples=400, deadline=None)
    def test_generated_jsonl(self, data):
        assert outcome(parse_reviews, data, "jsonl") == outcome(reference_parse_reviews, data, "jsonl")

    @given(CSV_HEADERS, CSV_ROWS, st.sampled_from(["\n", "\r\n"]))
    @settings(max_examples=300, deadline=None)
    def test_generated_csv(self, header, rows, line_end):
        data = csv_bytes(header, rows, line_end)
        assert outcome(parse_reviews, data, "csv") == outcome(reference_parse_reviews, data, "csv")

    @given(CSV_HEADERS, CSV_ROWS)
    @settings(max_examples=200, deadline=None)
    def test_csv_carriage_return_line_ends(self, header, rows):
        # the whole-text parser failed with csv.Error at the first bare "\r"
        # line end, so its outcome on the "\n" corpus stands in
        expected = outcome(reference_parse_reviews, csv_bytes(header, rows, "\n"), "csv")
        assert outcome(parse_reviews, csv_bytes(header, rows, "\r"), "csv") == expected

    @pytest.mark.parametrize("separator", ["\u2028", "\u2029", "\x85"])
    def test_unicode_line_separator_inside_text(self, separator):
        text = f"great support{separator}and low cost"
        record = {"id": "r1", "quarter": "2016Q4", "text": text}
        data = (json.dumps(record, ensure_ascii=False) + "\n").encode("utf-8")
        [review] = parse_reviews(data, "jsonl")
        assert review.text == text
        with pytest.raises(CorpusError, match="line 1: malformed JSON"):
            reference_parse_reviews(data, "jsonl")

    @pytest.mark.parametrize("data, line", [
        (b'{"id": "a", "quarter": "2016Q1", "text": "x"}\r\n{"id": ', 2),
        (b'\r\r{"id": "a", "quarter": "2016Q1", "text": "x"}\r[1]', 4),
        (b'\n\r\n{"id": "a", "quarter": "2016Q9", "text": "x"}', 3),
    ])
    def test_line_numbers_count_every_line_end(self, data, line):
        with pytest.raises(CorpusError, match=f"^line {line}: "):
            parse_reviews(data, "jsonl")

    @pytest.mark.parametrize("format, data", [
        ("jsonl", b'{"id": "a", "quarter": "2016Q1", "text": "caf\xe9"}\n'),
        ("jsonl", "".join(f'{{"id": "{i}", "quarter": "2016Q1", "text": "x"}}\n'
                          for i in range(1000)).encode() + b"\xff\n"),
        ("csv", b"id,quarter,text\na,2016Q1,caf\xe9\n"),
        ("csv", b"\xfe\xffid,quarter,text\n"),
    ])
    def test_invalid_utf8(self, format, data):
        with pytest.raises(CorpusError, match="not valid UTF-8"):
            parse_reviews(data, format)

    def test_csv_error_is_a_corpus_error(self):
        data = b'id,quarter,text\na,2016Q1,"' + b"x" * (csv.field_size_limit() + 1) + b'"\n'
        with pytest.raises(CorpusError, match="line 2: malformed CSV"):
            parse_reviews(data, "csv")

    def test_unknown_format(self):
        with pytest.raises(CorpusError, match="unknown review format"):
            parse_reviews(b"", "xml")

    def test_quarters_are_shared(self):
        data = b"".join(
            json.dumps({"id": f"r{i}", "quarter": f"2016Q{i % 2 + 1}", "text": "ok"}).encode() + b"\n"
            for i in range(6)
        )
        quarters = [r.quarter for r in parse_reviews(data, "jsonl")]
        assert len({id(q) for q in quarters}) == 2

    def test_transient_memory_below_input_size(self):
        rng = random.Random(5)
        words = ["cloud", "cost", "support", "great", "slow", "the", "team", "really", "not", "outage"]
        data = "".join(
            json.dumps({"id": f"u{i:05d}", "quarter": f"{2010 + i % 8}Q{i % 4 + 1}",
                        "text": " ".join(rng.choice(words) for _ in range(40))}) + "\n"
            for i in range(2000)
        ).encode("utf-8")
        parse_reviews(data[:5000].rsplit(b"\n", 1)[0], "jsonl")  # first-use allocations
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            reviews = parse_reviews(data, "jsonl")
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(reviews) == 2000
        # the whole-text parser held the decoded text and its line list at
        # once: 2.65 times the input on top of the reviews it returned
        assert peak - kept < len(data)


# --- perceptions -------------------------------------------------------------

LEXICON = default_lexicon()
VOCAB = default_vocabulary()


def bundled_reviews():
    data = resources.files("aspectcast").joinpath("data/synthetic/reviews.jsonl").read_bytes()
    return parse_reviews(data, "jsonl")


def assert_same_perceptions(reviews, heuristics=None):
    heuristics = heuristics or HeuristicConfig()
    got = build_perceptions(reviews, VOCAB, LEXICON, heuristics)
    assert [repr(p) for p in got] == [repr(p) for p in reference_perceptions(reviews, VOCAB, LEXICON,
                                                                             heuristics)]


PHRASES = sorted({p for aspect in VOCAB.phrases.values() for p in aspect})
WORDS = ["the", "team", "we", "moved", "great", "terrible", "not", "very", "but", "slow", "happy",
         "GOOD", "really", "!!", "?", "never", "outage"]


@st.composite
def generated_reviews(draw):
    reviews = []
    for i in range(draw(st.integers(1, 20))):
        parts = draw(st.lists(st.one_of(st.sampled_from(WORDS), st.sampled_from(PHRASES)),
                              min_size=1, max_size=12))
        quarter = Quarter(2016 + draw(st.integers(0, 2)), draw(st.integers(1, 4)))
        reviews.append(Review(f"r{i}", quarter, " ".join(parts)))
    return reviews


class TestPerceptionEquivalence:
    def test_bundled_corpus(self):
        assert_same_perceptions(bundled_reviews())

    @given(generated_reviews(), st.builds(HeuristicConfig, negation_window=st.integers(1, 4),
                                          caps_boost=st.sampled_from([0.0, 0.733])))
    @settings(max_examples=60, deadline=None)
    def test_generated_corpus(self, reviews, heuristics):
        assert_same_perceptions(reviews, heuristics)

    @pytest.mark.parametrize("texts", [[], ["we moved", "terrible!!"]], ids=["none", "unmatched"])
    def test_no_matched_review_gives_no_perception(self, texts):
        reviews = [Review(f"r{i}", Quarter(2016, 1), text) for i, text in enumerate(texts)]
        assert build_perceptions(reviews, VOCAB, LEXICON, HeuristicConfig()) == []
        assert_same_perceptions(reviews)

    def test_unmatched_reviews_are_not_scored(self, monkeypatch):
        reviews = bundled_reviews() + [Review("x1", Quarter(2016, 4), "We love it!!"),
                                       Review("x2", Quarter(2017, 1), "terrible")]
        matched = [r for r in reviews if match_aspects(r, VOCAB)]
        assert (len(reviews), len(matched)) == (226, 223)
        scored = []

        def counting(ids, counts, texts, lexicon, config=None):
            scored.extend(texts)
            return score_ids(ids, counts, texts, lexicon, config)

        # build_perceptions looks score_ids up on the sentiment module
        monkeypatch.setattr(sentiment, "score_ids", counting)
        unread, *inputs = pipeline.load_inputs(pipeline.PipelineConfig.defaults())
        unread.close()
        growth, perceptions = pipeline.build_features(reviews, *inputs)
        assert scored == [r.text for r in matched]
        monkeypatch.undo()
        assert [repr(p) for p in perceptions] == [
            repr(p) for p in reference_perceptions(reviews, VOCAB, LEXICON, HeuristicConfig())]


# --- the review stream of load_inputs ---------------------------------------

def multi_sentence_records(n, seed):
    """``n`` reviews of four sentences, each naming one vocabulary phrase, over 32 quarters."""
    rng = random.Random(seed)

    def sentence():
        words = [rng.choice(WORDS) for _ in range(8)]
        words.insert(rng.randrange(9), rng.choice(PHRASES))
        return " ".join(words) + rng.choice([".", "!", "?"])

    return [{"id": f"u{i:05d}", "quarter": f"{2011 + i // 4 % 8}Q{i % 4 + 1}",
             "text": " ".join(sentence() for _ in range(4))} for i in range(n)]


def write_reviews(path: Path, records) -> bytes:
    """Write ``records`` as JSONL or CSV, by the suffix of ``path``; return the bytes."""
    if path.suffix == ".csv":
        buf = io.StringIO(newline="")
        writer = csv.DictWriter(buf, ["id", "quarter", "text"], lineterminator="\r\n")
        writer.writeheader()
        writer.writerows(records)
        data = buf.getvalue().encode("utf-8")
    else:
        data = "".join(json.dumps(r) + "\n" for r in records).encode("utf-8")
    path.write_bytes(data)
    return data


class TestReviewStream:
    @pytest.mark.parametrize("name", ["reviews.jsonl", "reviews.csv"])
    @pytest.mark.parametrize("corpus_name", ["bundled", "generated"])
    def test_streamed_perceptions(self, tmp_path, name, corpus_name):
        if corpus_name == "bundled":
            records = [json.loads(r) for r in resources.files("aspectcast").joinpath(
                "data/synthetic/reviews.jsonl").read_text("utf-8").splitlines()]
            records = [{k: r[k] for k in ("id", "quarter", "text")} for r in records]
        else:
            records = multi_sentence_records(300, seed=11)
        data = write_reviews(tmp_path / name, records)
        reviews, _, vocab, lexicon, heuristics = load_inputs(PipelineConfig.defaults(reviews=tmp_path / name))
        streamed = build_perceptions(reviews, vocab, lexicon, heuristics)
        parsed = build_perceptions(parse_reviews(data, name.rsplit(".", 1)[1]), vocab, lexicon, heuristics)
        assert len(parsed) > 100
        assert [repr(p) for p in streamed] == [repr(p) for p in parsed]

    def test_peak_below_retained_review_list(self, tmp_path):
        records = multi_sentence_records(2000, seed=3)
        data = write_reviews(tmp_path / "reviews.jsonl", records)
        cfg = PipelineConfig.defaults(reviews=tmp_path / "reviews.jsonl")
        build_features(*load_inputs(cfg))  # first-use allocations
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            reviews = parse_reviews(data, "jsonl")
            retained = tracemalloc.get_traced_memory()[0] - before
            del reviews
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            growth, perceptions = build_features(*load_inputs(cfg))
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert len(perceptions) > 100
        # parsing the bytes into a list first held the bytes and every review
        # at once, 1.8 times the list's size; the stream peaked at 767,635 of
        # 804,918 bytes, 0.95 times it, when measured: a margin of 5%
        assert peak < retained

    def test_run_pipeline_never_parses_bytes(self, monkeypatch, tmp_path):
        def refuse(data, format="jsonl"):
            raise AssertionError("parse_reviews called")

        monkeypatch.setattr(corpus, "parse_reviews", refuse)
        built, build_matrix = [], pipeline.build_matrix  # 13 and "13" name one aspect set: one matrix
        monkeypatch.setattr(pipeline, "build_matrix", lambda *args: built.append(args[3]) or build_matrix(*args))
        cfg = PipelineConfig.from_dict({"models": [{"kind": "lr", "label": "LR-13", "aspects": 13},
                                                   {"kind": "lr", "label": "LR-'13'", "aspects": "13"}]})
        assert [row.label for row in pipeline.run_pipeline(cfg).rows] == ["LR-13", "LR-'13'"]
        assert len(built) == 1

    @pytest.mark.parametrize("n", [pipeline.READ_AHEAD - 1, pipeline.READ_AHEAD, 2 * pipeline.READ_AHEAD + 1])
    def test_every_review_is_read_across_blocks(self, tmp_path, n):
        data = write_reviews(tmp_path / "reviews.jsonl", multi_sentence_records(n, seed=4))
        reviews = load_inputs(PipelineConfig.defaults(reviews=tmp_path / "reviews.jsonl"))[0]
        assert [repr(r) for r in reviews] == [repr(r) for r in parse_reviews(data, "jsonl")]

    def test_iter_reviews_leaves_the_stream_open(self):
        stream = io.BytesIO(b'{"id": "a", "quarter": "2016Q1", "text": "x"}\n')
        assert [r.id for r in iter_reviews(stream, "jsonl")] == ["a"]
        assert not stream.closed and stream.read() == b""

    def test_no_handle_is_leaked(self, tmp_path, monkeypatch):
        write_reviews(tmp_path / "reviews.jsonl", multi_sentence_records(5, seed=2))
        (tmp_path / "bad.jsonl").write_bytes(b"[1]\n")
        opened = []
        real_open = Path.open

        def recording_open(self, *args, **kwargs):
            opened.append(real_open(self, *args, **kwargs))
            return opened[-1]

        monkeypatch.setattr(Path, "open", recording_open)
        cfg = PipelineConfig.defaults(reviews=tmp_path / "reviews.jsonl")
        # a later input fails before the stream is read
        with pytest.raises(StageError, match="nope.csv"):
            load_inputs(PipelineConfig.defaults(reviews=tmp_path / "reviews.jsonl",
                                                revenue=tmp_path / "nope.csv"))
        # read to the end; stopped at an error; closed unread
        assert len(list(load_inputs(cfg)[0])) == 5
        with pytest.raises(StageError, match="line 1: expected a JSON object"):
            list(load_inputs(PipelineConfig.defaults(reviews=tmp_path / "bad.jsonl"))[0])
        load_inputs(cfg)[0].close()
        reviews_files = [f for f in opened if Path(f.name).suffix == ".jsonl"]
        assert len(reviews_files) == 4 and all(f.closed for f in reviews_files)
