import math

import pytest
from hypothesis import given, settings, strategies as st

import aspectcast.tokens as tokens
from aspectcast.sentiment import (
    HeuristicConfig,
    LexiconError,
    analyze,
    default_lexicon,
    load_lexicon,
    normalize_valence_sum,
)
from test_text_equivalence import (
    LEXICON,
    ODD_LEXICON,
    bits,
    block_bits,
    bundled_reviews,
    reference_analyze,
)

LEX = {"good": 1.9, "great": 3.1, "bad": -2.5, "terrible": -2.1}
CFG = HeuristicConfig()


class TestLoadLexicon:
    def test_basic(self):
        assert load_lexicon(b"good\t1.9") == {"good": 1.9}

    def test_out_of_range(self):
        with pytest.raises(LexiconError, match="out of range"):
            load_lexicon(b"bad\t-9.0")

    def test_non_numeric(self):
        with pytest.raises(LexiconError, match="line 1"):
            load_lexicon(b"bad\tx")

    def test_line_without_a_tab(self):
        with pytest.raises(LexiconError, match="^line 2: expected token<TAB>valence$"):
            load_lexicon(b"good\t1.9\nbad -1.5\n")

    def test_blank_lines_skipped(self):
        # a skipped line still counts toward the line an error names
        assert load_lexicon(b"good\t1.9\n\n \t \nbad\t-2.5\n") == {"good": 1.9, "bad": -2.5}
        with pytest.raises(LexiconError, match="^line 3: expected token<TAB>valence$"):
            load_lexicon(b"good\t1.9\n\nbad -1.5\n")

    def test_later_duplicate_wins(self):
        assert load_lexicon(b"ok\t0.5\nok\t0.9") == {"ok": 0.9}

    def test_extra_columns_ignored(self):
        assert load_lexicon(b"good\t1.9\t0.5\t[1,2]") == {"good": 1.9}

    def test_default_lexicon_in_range(self):
        lex = default_lexicon()
        assert len(lex) > 100
        assert all(-4.0 <= v <= 4.0 for v in lex.values())

    # a text's words lose apostrophes and edge punctuation and never hold
    # whitespace, so these entries would load and score nothing
    @pytest.mark.parametrize("entry, token, text", [
        ("can't\t-2", "can't", "we can't"),
        ("kind of\t1", "kind of", "kind of nice"),
        ("!great\t3", "!great", "!great"),
        ("great!\t3", "great!", "great!"),
        ("'tis\t1", "'tis", "'tis"),
        ("--\t1", "--", "--"),
        ("ⓐ\t2", "ⓐ", "ⓐ"),  # a symbol with a case, not a letter
    ])
    def test_token_that_can_never_match(self, entry, token, text):
        assert analyze(text, {token.lower(): 2.0}, CFG).compound == 0.0
        with pytest.raises(LexiconError) as e:
            load_lexicon(f"good\t1.9\n{entry}\n".encode())
        assert str(e.value) == f"line 2: token {token!r} can never match a scored word"

    def test_byte_order_mark(self):
        # one that opens the file is dropped; one anywhere else is a character
        assert load_lexicon("\ufeffgood\t1.9\nbad\t-2.5".encode()) == {"good": 1.9, "bad": -2.5}
        with pytest.raises(LexiconError, match=r"line 2: token '\\ufeffbad' can never match"):
            load_lexicon("good\t1.9\n\ufeffbad\t-2.5".encode())

    def test_empty_token(self):
        with pytest.raises(LexiconError, match="line 1: token '' can never match"):
            load_lexicon(b"\t1.0")

    @pytest.mark.parametrize("token", ["Great", "cant", "a_b", "3g", "404", "straße", "naïve", "Ⅻ", "Dİ"])
    def test_token_that_matches_loads(self, token):
        lex = load_lexicon(f"{token}\t2.0".encode())
        assert lex == {token.lower(): 2.0}
        assert analyze(f"so {token}!", lex, CFG).compound > 0


class TestAnalyze:
    def test_empty_text(self):
        s = analyze("", LEX, CFG)
        assert (s.positive, s.neutral, s.negative, s.compound) == (0, 0, 0, 0)

    def test_single_positive_token(self):
        # 1.9 / sqrt(1.9^2 + 15)
        s = analyze("good", LEX, CFG)
        assert s.compound == pytest.approx(0.44043357076016854, abs=1e-12)

    def test_negation(self):
        # 1.9 * -0.74 = -1.406, then s / sqrt(s^2 + 15)
        s = analyze("not good", LEX, CFG)
        assert s.compound == pytest.approx(-0.3412376512543242, abs=1e-12)

    def test_exclamation_boost(self):
        assert abs(analyze("good!", LEX, CFG).compound) > abs(analyze("good", LEX, CFG).compound)
        s = 1.9 + 0.292
        assert analyze("good!", LEX, CFG).compound == pytest.approx(
            s / math.sqrt(s * s + 15), abs=1e-12
        )

    def test_exclamation_cap(self):
        assert (
            analyze("good!!!!!", LEX, CFG).compound
            == analyze("good!!!!", LEX, CFG).compound
        )

    def test_punctuation_monotone(self):
        prev = abs(analyze("good", LEX, CFG).compound)
        for n in range(1, 5):
            cur = abs(analyze("good" + "!" * n, LEX, CFG).compound)
            assert cur >= prev
            prev = cur

    def test_caps_emphasis(self):
        plain = analyze("the service was good", LEX, CFG)
        shouted = analyze("the service was GOOD", LEX, CFG)
        assert abs(shouted.compound) >= abs(plain.compound)

    def test_all_caps_text_no_boost(self):
        # uniformly shouted text gets no differential emphasis
        assert analyze("GOOD", LEX, CFG).compound == analyze("good", LEX, CFG).compound

    def test_degree_modifier(self):
        assert analyze("very good", LEX, CFG).compound > analyze("good", LEX, CFG).compound
        assert analyze("slightly good", LEX, CFG).compound < analyze("good", LEX, CFG).compound

    def test_negation_flips_sign(self):
        for word in ("good", "great"):
            assert analyze(word, LEX, CFG).compound > 0
            assert analyze(f"not {word}", LEX, CFG).compound < 0

    def test_but_reweights(self):
        # mass after "but" dominates
        assert analyze("good but terrible", LEX, CFG).compound < 0
        assert analyze("terrible but good", LEX, CFG).compound > 0

    def test_valences_add_left_to_right(self):
        # (0.1 + 0.2) + -0.3 is 5.55e-17; a compensated sum, as sum() of
        # floats is since Python 3.12, gives 2.78e-17
        total = (0.1 + 0.2) + -0.3
        assert total == 5.551115123125783e-17
        s = analyze("a b c", {"a": 0.1, "b": 0.2, "c": -0.3}, CFG)
        assert s.compound == normalize_valence_sum(total)

    def test_unknown_tokens_neutral(self):
        s = analyze("frobnicate the widget", LEX, CFG)
        assert s.compound == 0
        assert s.neutral == pytest.approx(1.0)

    def test_sign_preserved_for_single_token(self):
        assert analyze("bad", LEX, CFG).compound < 0
        assert analyze("good", LEX, CFG).compound > 0

    def test_proportions_sum_to_one(self):
        s = analyze("good and bad weather", LEX, CFG)
        assert s.positive + s.neutral + s.negative == pytest.approx(1.0, abs=1e-6)

    def test_config_overrides(self):
        cfg = HeuristicConfig.from_json(b'{"alpha": 30.0}')
        assert cfg.alpha == 30.0
        assert cfg.caps_boost == CFG.caps_boost
        assert abs(analyze("good", LEX, cfg).compound) < abs(analyze("good", LEX, CFG).compound)

    def test_unknown_config_field(self):
        with pytest.raises(ValueError, match="unknown"):
            HeuristicConfig.from_json(b'{"nope": 1}')


WORDS = st.sampled_from(
    ["good", "bad", "great", "terrible", "not", "very", "but", "the", "cloud", "!", "so"]
)


class TestProperties:
    @given(st.lists(WORDS, min_size=0, max_size=12))
    @settings(max_examples=300, deadline=None)
    def test_compound_bounded(self, tokens):
        s = analyze(" ".join(tokens), LEX, CFG)
        assert -1.0 <= s.compound <= 1.0

    @given(st.lists(WORDS, min_size=1, max_size=12))
    @settings(max_examples=300, deadline=None)
    def test_proportions_partition(self, tokens):
        text = " ".join(tokens)
        s = analyze(text, LEX, CFG)
        if text.replace("!", "").strip():
            assert s.positive + s.neutral + s.negative == pytest.approx(1.0, abs=1e-6)

    @given(st.floats(min_value=-50, max_value=50, allow_nan=False))
    def test_normalization_closed_form(self, total):
        from aspectcast.sentiment import normalize_valence_sum

        assert normalize_valence_sum(total) == pytest.approx(
            total / math.sqrt(total * total + 15.0), abs=1e-15
        )
        assert -1.0 <= normalize_valence_sum(total) <= 1.0


@pytest.fixture
def table(monkeypatch):
    """An empty token table for one test."""
    fresh = tokens._TokenTable()
    monkeypatch.setattr(tokens, "_TABLE", fresh)
    return fresh


class TestTokenTable:
    TEXTS = [
        "Good good. GOOD! gOOd",
        "the cloud is NOT good, but VERY reliable!!",
        "Straße STRASSE ⓐ Ⓐ naïve NAÏVE 404 3G meh blah",
        "meek slightly meek: not meek?? kind of BAD",
        "SO VERY BAD. BUT good",
    ]

    @pytest.mark.parametrize("cfg", [HeuristicConfig(), HeuristicConfig(
        caps_boost=2.0, degree_increment=1.0, negation_window=5, but_weight_before=0.0)])
    def test_one_table_serves_every_lexicon_and_config(self, table, cfg):
        texts = self.TEXTS + [r.text for r in bundled_reviews()]
        for lexicon in (LEXICON, ODD_LEXICON, LEXICON):
            for text in texts:
                assert bits(analyze(text, lexicon, cfg)) == bits(reference_analyze(text, lexicon, cfg)), text
        assert table

    def test_lowered_words_are_shared(self, table):
        analyze("Good good. GOOD!", LEX)
        word_ids, flags = table.word_ids, table.flags
        assert word_ids[table["Good"]] == word_ids[table["good."]] == word_ids[table["GOOD!"]]
        assert list(table.words) == ["good"]
        assert flags[table["GOOD!"]] & tokens._CAPS and not flags[table["Good"]] & tokens._CAPS

    def test_stays_within_its_cap(self, table):
        cap = tokens._TOKEN_TABLE_CAP
        words = [f"w{i}" for i in range(cap + 500)]
        lexicon = dict(LEXICON, **{w: (i % 9 - 4) / 2 for i, w in enumerate(words) if i % 3 == 0})
        texts = ["very " + " ".join(words[start:start + 40]) + " but NOT bad!"
                 for start in range(0, len(words), 40)]
        sizes = []
        for start in range(0, len(texts), 3):
            block = texts[start:start + 3]
            assert block_bits(block, lexicon) == [bits(reference_analyze(t, lexicon)) for t in block]
            # a block's own new tokens stay until the next block
            assert len(table) < cap + sum(len(text.split()) for text in block)
            sizes.append(len(table))
        assert max(sizes) < cap + 3 * 44
        assert any(after < before for before, after in zip(sizes, sizes[1:]))  # it was cleared
        assert len(table.words) <= len(table) == len(table.word_ids) - 1 == len(table.flags) - 1

    def test_tokens_that_clean_to_nothing_hold_no_word_position(self, table):
        cfg = HeuristicConfig(negation_window=1)
        for _ in range(3):  # a cold table, then a warm one
            for text in ["not !!! ' -- good", "very -- ' !!! good", "!!! ' --", "bad ' but -- good", "' -- GOOD"]:
                assert bits(analyze(text, LEX, cfg)) == bits(reference_analyze(text, LEX, cfg)), text
        assert table["!!!"] == table["'"] == table["--"] == 0
        assert set(table.words) == {"not", "good", "very", "bad", "but"}
        # "not" is the word just before "good", inside a window of one
        assert analyze("not !!! ' -- good", LEX, cfg).compound < 0
        assert analyze("!!! ' --", LEX, cfg) == analyze("", LEX, cfg)
