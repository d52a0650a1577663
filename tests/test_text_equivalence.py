"""Differential tests: the block phrase matcher and the block sentiment scorer
against frozen copies of the straightforward implementations they replaced.

Both must agree bit for bit, signed zeros included, because report bytes are
pinned downstream.
"""

import json
import math
import re
import warnings
from dataclasses import astuple
from importlib import resources

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from aspectcast import aspects, sentiment, tokens
from aspectcast.aspects import (
    ASPECT_SET_16,
    AspectMatch,
    AspectVocabulary,
    default_vocabulary,
    load_vocabulary,
    match_aspects,
    match_block,
)
from aspectcast.corpus import Quarter, Review, parse_reviews
from aspectcast.pipeline import build_perceptions
from aspectcast.sentiment import (
    _DISTANCE_DECAY,
    HeuristicConfig,
    SentimentScores,
    analyze,
    analyze_many,
    default_lexicon,
    normalize_valence_sum,
)
from aspectcast.tokens import _BOOSTERS, _DAMPENERS, _NEGATIONS, _TOKEN_TABLE_CAP


# --- frozen references -------------------------------------------------------

_REF_CLEAN_RE = re.compile(r"^\W+|\W+$")


def _ref_clean(token):
    return _REF_CLEAN_RE.sub("", token).replace("'", "")


def _ref_punctuation_emphasis(text, cfg):
    excl = min(text.count("!"), cfg.exclamation_cap)
    emphasis = excl * cfg.exclamation_boost
    qm = text.count("?")
    if qm > 1:
        emphasis += min((qm - 1) * cfg.question_step, cfg.question_max)
    return emphasis


def reference_analyze(text, lexicon, config=None):
    """The per-token scorer: every token is cleaned, flagged and weighted."""
    cfg = config or HeuristicConfig()
    raw_tokens = text.split()
    words = [_ref_clean(t) for t in raw_tokens]
    keep = [i for i, w in enumerate(words) if w]
    if not keep:
        return SentimentScores(0.0, 0.0, 0.0, 0.0)
    words = [words[i] for i in keep]
    lowered = [w.lower() for w in words]

    is_caps = [w.isupper() and any(c.isalpha() for c in w) for w in words]
    letter_flags = [c for c, w in zip(is_caps, words) if any(ch.isalpha() for ch in w)]
    mixed_case = bool(letter_flags) and not all(letter_flags)

    valences = []
    for i, word in enumerate(lowered):
        v = lexicon.get(word, 0.0)
        if v != 0.0:
            sign = 1.0 if v > 0 else -1.0
            if mixed_case and is_caps[i]:
                v += sign * cfg.caps_boost
            for dist in range(1, min(3, i) + 1):
                prev = lowered[i - dist]
                scalar = 0.0
                if prev in _BOOSTERS:
                    scalar = cfg.degree_increment
                elif prev in _DAMPENERS:
                    scalar = -cfg.degree_increment
                if scalar != 0.0:
                    scalar *= _DISTANCE_DECAY[dist - 1]
                    if mixed_case and is_caps[i - dist]:
                        scalar += math.copysign(cfg.caps_boost * 0.25, scalar)
                    v += sign * scalar
            lo = max(0, i - cfg.negation_window)
            if any(lowered[j] in _NEGATIONS for j in range(lo, i)):
                v *= cfg.negation_factor
        valences.append(v)

    if "but" in lowered:
        pivot = lowered.index("but")
        valences = [
            v * (cfg.but_weight_before if i < pivot else cfg.but_weight_after if i > pivot else 1.0)
            for i, v in enumerate(valences)
        ]

    # every sum is added left to right, as a running += does it; since Python
    # 3.12, sum() of floats compensates for rounding
    total = 0.0
    for v in valences:
        total += v
    emphasis = _ref_punctuation_emphasis(text, cfg)
    if total > 0:
        total += emphasis
    elif total < 0:
        total -= emphasis
    compound = normalize_valence_sum(total, cfg.alpha)

    pos_mass = neg_mass = 0.0
    for v in valences:
        if v > 0:
            pos_mass += v + 1.0
        elif v < 0:
            neg_mass += -v + 1.0
    neu_mass = float(sum(1 for v in valences if v == 0))
    if total > 0:
        pos_mass += emphasis
    elif total < 0:
        neg_mass += emphasis
    denom = pos_mass + neg_mass + neu_mass
    if denom == 0:
        return SentimentScores(0.0, 0.0, 0.0, compound)
    return SentimentScores(pos_mass / denom, neu_mass / denom, neg_mass / denom, compound)


_REF_TOKEN_RE = re.compile(r"[a-z0-9]+")


def reference_match(review, vocab):
    """The substring matcher: every phrase of every aspect against the joined tokens."""
    tokens = _REF_TOKEN_RE.findall(review.text.lower())
    joined = " " + " ".join(tokens) + " "
    matches = []
    for aspect_id in ASPECT_SET_16:
        hits = {p for p in vocab.for_aspect(aspect_id) if f" {p} " in joined}
        if hits:
            matches.append(AspectMatch(review.id, aspect_id, frozenset(hits)))
    return matches


def bits(scores):
    """Exact form of a score: repr keeps the sign of zero and every digit."""
    return tuple(repr(x) for x in astuple(scores))


def block_bits(texts, lexicon, cfg=None):
    """``bits`` of each text's scores, all scored in one ``analyze_many`` block."""
    return [tuple(map(repr, row)) for row in zip(*(c.tolist() for c in analyze_many(texts, lexicon, cfg)))]


def assert_same_block_scores(texts, lexicon, cfg=None):
    assert block_bits(texts, lexicon, cfg) == [bits(reference_analyze(t, lexicon, cfg)) for t in texts], texts


def assert_same_scores(text, lexicon, cfg=None):
    assert bits(analyze(text, lexicon, cfg)) == bits(reference_analyze(text, lexicon, cfg)), text


def bundled_reviews():
    data = resources.files("aspectcast").joinpath("data/synthetic/reviews.jsonl").read_bytes()
    return parse_reviews(data, "jsonl")


def review(text):
    return Review("r1", Quarter(2016, 4), text)


# --- sentiment ---------------------------------------------------------------

LEXICON = default_lexicon()
# A lexicon that also scores non-ASCII and digit tokens, holds zero valences
# (which are not hits) and a valence a dampener cancels to exactly 0.0, which a
# negation then turns into -0.0.
ODD_LEXICON = dict(LEXICON, **{
    "straße": 1.5, "é": 2.0, "ⅻ": 1.1, "naïve": -1.2, "404": -2.5, "3g": 0.7,
    "meh": 0.0, "blah": -0.0, "meek": 0.293,
})

TOKENS = sorted(
    ["good", "bad", "great", "terrible", "happy", "slow", "reliable", "outage", "meek",
     "meh", "blah", "the", "cloud", "team", "support", "but", "but", "BUT", "But",
     "don't", "isn't", "can't", "team's", "'quoted'", "!!!", "?", "...", "'", "--", "(", ")",
     "42", "404", "3g", "2016Q4", "ß", "straße", "STRASSE", "Ⓐ", "ⓐ", "Ⅻ", "naïve", "NAÏVE",
     "é", "É", "éclair", "_", "a_b"]
    + sorted(_BOOSTERS) + sorted(_DAMPENERS) + sorted(_NEGATIONS)
)
CASES = st.sampled_from(["lower", "upper", "title", "keep"])
AFFIXES = st.sampled_from(["", "", "", "!", "?", ".", ",", "'", '"', "!!", "?!", "(", "):"])
SEPARATORS = st.sampled_from([" ", " ", " ", "  ", "\t", "\n"])


@st.composite
def review_texts(draw):
    parts = draw(st.lists(st.tuples(st.sampled_from(TOKENS), CASES, AFFIXES, AFFIXES, SEPARATORS),
                          max_size=24))
    out = []
    for token, case, prefix, suffix, sep in parts:
        if case != "keep":
            token = getattr(token, case)()
        out.append(prefix + token + suffix + sep)
    return "".join(out)


CONFIGS = st.builds(
    HeuristicConfig,
    negation_window=st.integers(1, 5),
    degree_increment=st.sampled_from([0.0, 0.293, 1.0]),
    caps_boost=st.sampled_from([0.0, 0.733, 2.0]),
    but_weight_before=st.sampled_from([0.0, 0.5, 1.0]),
)


class TestAnalyzeEquivalence:
    def test_bundled_corpus(self):
        reviews = bundled_reviews()
        assert len(reviews) == 224
        for r in reviews:
            assert_same_scores(r.text, LEXICON)

    @pytest.mark.parametrize("text", [
        "",
        "   \t\n ",
        "!!! ??? ...",
        "' '' '''",
        "GOOD",
        "GOOD service",
        "VERY good service",
        "Ⓐ GOOD",
        "the Ⅻ service",        # upper case but no letter: not a caps token
        "the VERY Ⅻ good",
        "ß GOOD",
        "42 GOOD",
        "not x y good",         # negation three tokens back: inside the window
        "not x y z good",       # four tokens back: outside it
        "not slightly meek",    # exact cancellation, then negation: -0.0
        "slightly meek but meh",
        "good but bad but great",
        "but good",
        "good but",
        "don't like it but it's great!!",
        "team's great?? really??",
        # token cleaning: ASCII tokens strip their non-word edges, others use the regex
        "(good), [bad]; {great}: \"happy\" <slow> *terrible* #reliable @outage ~good~ `bad`",
        "-good- +bad+ =great= |happy| \\slow/ ^terrible^ $reliable% &outage&",
        "_good_ __bad great_ _happy",
        "don't isn't can't 'good' ''great'' it's o'reilly's",
        "«good» „bad“ good… …bad ¡great! ¿happy? ‘good’ “bad”",
        "«_good_» good_… \x7fgood\x7f \x01bad\x02",
    ])
    def test_examples(self, text):
        assert_same_scores(text, LEXICON)
        assert_same_scores(text, ODD_LEXICON)

    @given(review_texts())
    @example("not one two great and never a b c bad")
    @example("BUT but But good")
    @settings(max_examples=400, deadline=None)
    def test_generated_texts(self, text):
        assert_same_scores(text, ODD_LEXICON)

    @given(review_texts(), CONFIGS)
    @settings(max_examples=200, deadline=None)
    def test_generated_configs(self, text, cfg):
        assert_same_scores(text, ODD_LEXICON, cfg)

    @given(st.text(max_size=60))
    @settings(max_examples=300, deadline=None)
    def test_arbitrary_unicode(self, text):
        assert_same_scores(text, ODD_LEXICON)


class TestBlockEquivalence:
    """A block scores each of its texts as the text alone would score."""

    @given(st.lists(review_texts(), max_size=12), CONFIGS)
    @settings(max_examples=200, deadline=None)
    def test_generated_blocks(self, texts, cfg):
        assert_same_block_scores(texts, ODD_LEXICON, cfg)

    @pytest.mark.parametrize("texts", [
        ["it was not", "good service"],   # a negation ends one text, a hit opens the next
        ["never", "GOOD"],
        ["support was very", "good"],     # a booster ends one text
        ["slightly", "bad"],
        ["good but bad", "great and bad", "bad then good"],  # "but" in one text only
        ["good and bad", "BUT good but bad", "bad good"],
        ["GOOD SERVICE", "good SERVICE", "VERY GOOD", "Good Service"],  # all caps next to mixed case
        ["good", "", "!!! ??", "   ", "' -- ...", "bad!"],  # empty and all-punctuation texts
        ["the cloud team", "support", "", "42 3g"],  # no hit anywhere
        ["é É éclair", "É!", "STRAßE naïve ⅻ"],
        [],
    ])
    def test_examples(self, texts):
        for cfg in (None, HeuristicConfig(negation_window=5, degree_increment=1.0, caps_boost=2.0)):
            assert_same_block_scores(texts, ODD_LEXICON, cfg)

    def test_text_with_more_distinct_tokens_than_the_table_cap(self):
        words = [f"x{i}" for i in range(_TOKEN_TABLE_CAP + 100)]
        lexicon = dict(LEXICON, **{w: (i % 9 - 4) / 2 for i, w in enumerate(words) if i % 7 == 0})
        assert_same_block_scores(["not good", " ".join(words) + " but good", "VERY bad"], lexicon)

    def test_blocks_that_fill_and_clear_the_table(self):
        words = [f"y{i}" for i in range(2 * _TOKEN_TABLE_CAP)]
        lexicon = dict(LEXICON, **{w: (i % 9 - 4) / 2 for i, w in enumerate(words) if i % 5 == 0})
        texts = ["not " + " ".join(words[i:i + 300]) + " but GOOD" for i in range(0, len(words), 300)]
        sizes = []
        for start in range(0, len(texts), 8):
            assert_same_block_scores(texts[start:start + 8], lexicon)
            sizes.append(len(tokens._TABLE))
        assert any(after < before for before, after in zip(sizes, sizes[1:]))  # it was cleared

    def test_negation_window_longer_than_an_index(self):
        cfg = HeuristicConfig(negation_window=10**30)
        assert_same_block_scores(["not " + "x " * 40 + "good", "good", "never bad at all"], LEXICON, cfg)

    def test_overflow_gives_python_float_results_silently(self):
        cfg = HeuristicConfig(caps_boost=1e308)
        texts = ["GOOD GREAT service", "VERY GOOD service!!", "TERRIBLE BAD service", "GOOD but BAD service",
                 "not GOOD GREAT service??"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert_same_block_scores(texts, LEXICON, cfg)
        assert any(math.isinf(x) or math.isnan(x) for s in map(reference_analyze, texts, [LEXICON] * 5,
                                                              [cfg] * 5) for x in astuple(s))


PUNCTUATED = ["", "no marks", "!", "?", "!!!!!", "??", "?????? !!", "!?" * 50, "?" * 1000, "good!!! ??",
              "BAD?? but GREAT!", "not good!!!!!!!!"]
EXTREME_PUNCTUATION = [
    HeuristicConfig(exclamation_cap=10**30),
    HeuristicConfig(exclamation_cap=2**63),
    HeuristicConfig(exclamation_cap=0),
    HeuristicConfig(exclamation_boost=-0.5, question_step=0.0),
    HeuristicConfig(exclamation_boost=2, question_step=3, question_max=5),  # ints
    HeuristicConfig(exclamation_boost=1e308, question_step=1e308),  # sums overflow to inf
    HeuristicConfig(question_step=1e308, question_max=1e308),
    HeuristicConfig(question_max=-1.0),
]


class TestPunctuationEquivalence:
    """The block's "!" and "?" emphasis against the scalar rule, one text at a time."""

    @pytest.mark.parametrize("cfg", [HeuristicConfig(), *EXTREME_PUNCTUATION])
    def test_emphasis(self, cfg):
        with np.errstate(over="ignore"):  # as score_ids calls it: overflow gives inf, as in Python
            got = sentiment._punctuation(PUNCTUATED, cfg).tolist()
        assert list(map(repr, got)) == [repr(float(_ref_punctuation_emphasis(t, cfg))) for t in PUNCTUATED]

    @pytest.mark.parametrize("cfg", EXTREME_PUNCTUATION)
    def test_scores(self, cfg):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert_same_block_scores(PUNCTUATED, LEXICON, cfg)

    @pytest.mark.parametrize("name", ["exclamation_boost", "question_step", "question_max"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, 10**400, -10**400])
    def test_non_finite_weights_are_refused(self, name, value):
        # so the block passes never see one, nor an int that float() cannot convert
        with pytest.raises(ValueError, match=f"{name} must be a finite number"):
            HeuristicConfig(**{name: value})


# --- aspect matching ---------------------------------------------------------

VOCAB = default_vocabulary()
# Phrases as a caller may pass them to the type directly, which normalizes
# them: doubled, leading and trailing spaces, and phrases that overlap or
# share a first token.
RAW_VOCAB = AspectVocabulary(phrases={
    "provider_lock_in": frozenset({"lock in", "locked in", "vendor lock", "lock", "lock  in",
                                   " lock in", "lock in ", "lock-in"}),
    "cost_savings": frozenset({"pay as you go", "pay as", "as you go", "go", "cost"}),
    "after_sales_experience": frozenset({"after-sales", "after sales", "support"}),
    "higher_availability": frozenset({"404", "24 7", "99 9"}),
    "security_concerns": frozenset({"lock"}),  # a phrase shared by two aspects
})
SPACED_VOCAB = load_vocabulary(json.dumps({
    "provider_lock_in": ["lock   in", "  vendor  lock ", "locked\tin"],
    "cost_savings": ["pay  as  you  go"],
}).encode())

MATCH_TEXTS = [
    "vendor lock in is real: locked in, lock in, LOCK-IN",
    "lock in",
    "in lock vendor",
    "Lock in at the start and lock in at the end lock in",
    "pay as you go as you go pay as",
    "Support support SUPPORT",
    "after-sales support and after sales care",
    "404 errors 24/7 and 99.9% uptime",
    "up-scale and down-scale, upscale",
    "!!!",
    "lock",
    "costly cost-effective costs",
]


def assert_same_matches(text, vocab):
    r = review(text)
    assert match_aspects(r, vocab) == reference_match(r, vocab), text


class TestMatchEquivalence:
    def test_bundled_corpus(self):
        for r in bundled_reviews():
            assert match_aspects(r, VOCAB) == reference_match(r, VOCAB)

    @pytest.mark.parametrize("text", MATCH_TEXTS)
    @pytest.mark.parametrize("vocab", [VOCAB, RAW_VOCAB, SPACED_VOCAB],
                             ids=["default", "raw", "spaced"])
    def test_adversarial(self, text, vocab):
        assert_same_matches(text, vocab)

    def test_hyphenated_phrases_never_match(self):
        # The tokenizer splits on "-", so the vocabulary's hyphenated phrases
        # (up-scale, down-scale, lock-in, after-sales) are dead; a hyphenated
        # review mention is matched only through other phrases.
        dead = {"up-scale", "down-scale", "lock-in", "after-sales"}
        assert dead <= {p for a in ASPECT_SET_16 for p in VOCAB.for_aspect(a)}
        matches = match_aspects(review("after-sales, up-scale, down-scale and lock-in"), VOCAB)
        assert not dead & {p for m in matches for p in m.matched_phrases}
        assert {m.aspect_id: m.matched_phrases for m in matches} == {
            "greater_scalability": {"scale"},
            "provider_lock_in": {"lock in"},
        }

    def test_index_built_on_first_match(self):
        vocab = load_vocabulary(b'{"cost_savings":["cheap"]}')
        assert "phrase_table" not in vocab.__dict__
        match_aspects(review("cheap"), vocab)
        assert "phrase_table" in vocab.__dict__

    @given(st.lists(st.sampled_from(
        ["lock", "in", "locked", "vendor", "pay", "as", "you", "go", "support", "after", "sales",
         "404", "24", "7", "the", "-", "LOCK", "In", "cost", "costs", "scale", "up"]),
        min_size=1, max_size=16), st.lists(SEPARATORS | st.sampled_from(["-", "/", ", "]), min_size=16,
                               max_size=16))
    @settings(max_examples=300, deadline=None)
    def test_generated_texts(self, words, seps):
        text = "".join(w + s for w, s in zip(words, seps))
        for vocab in (VOCAB, RAW_VOCAB, SPACED_VOCAB):
            assert_same_matches(text, vocab)

    # every code point, lone surrogates included (a JSONL "\ud800" escape
    # loads as one), and characters whose lower case is or holds ASCII
    @given(st.text(st.characters(blacklist_categories=())))
    @example("\ud800 cost savings")
    @example("\u212a")  # Kelvin sign: lowers to "k"
    @example("\u0130 cost")  # lowers to "i" and a combining dot
    @example("a\x1cb")
    @example("\x00lock in")
    @example("Stra\u00dfe")
    @example("lock\u00b2in")  # a UTF-8 continuation byte (0xb2) that is a digit as a code point
    @settings(max_examples=300, deadline=None)
    def test_arbitrary_unicode(self, text):
        assume(text.strip())  # a review's text is never blank
        for vocab in (VOCAB, RAW_VOCAB):
            assert_same_matches(text, vocab)


def block_matches(texts, vocab):
    """Each text's matches, all texts matched in one ``match_block`` call."""
    text, phrase = match_block(*tokens.token_ids(texts), vocab)
    return [aspects._aspect_matches("r1", phrase[text == i], vocab) for i in range(len(texts))]


def assert_same_block_matches(texts, vocab):
    assert block_matches(texts, vocab) == [reference_match(review(t), vocab) for t in texts], texts


MATCH_WORDS = ["lock", "in", "locked", "vendor", "pay", "as", "you", "go", "support", "after", "sales",
               "404", "24", "7", "24/7", "lock-in", "don't", "the", "-", "LOCK", "In", "cost", "costs",
               "scale", "up", "!!!", "é", "data", "location", "faster", "access"]


@st.composite
def match_texts(draw):
    words = draw(st.lists(st.sampled_from(MATCH_WORDS), min_size=1, max_size=10))
    seps = draw(st.lists(SEPARATORS | st.sampled_from(["-", "/", ", "]), min_size=10, max_size=10))
    return "".join(w + s for w, s in zip(words, seps))


class TestBlockMatchEquivalence:
    """A block matches each of its texts as the text alone would match."""

    @given(st.lists(match_texts() | st.text(max_size=30).filter(str.strip), max_size=12))
    @settings(max_examples=300, deadline=None)
    def test_generated_blocks(self, texts):
        for vocab in (VOCAB, RAW_VOCAB, SPACED_VOCAB):
            assert_same_block_matches(texts, vocab)

    @pytest.mark.parametrize("texts", [
        ["we feared vendor lock", "in the end", "pay as", "you go"],  # a phrase split over two texts
        ["24/7 support", "lock-in", "don't lock-in", "99.9% at 24/7"],  # tokens of several atoms
        ["lock in", "!!!", "é", "vendor lock", "!!! é ...", "cost"],  # atomless texts mid-block
        ["!!!"],
        ["lock", "lock in", "lock"],
        ["lock zzz in", "pay as zzz you go", "vendor é lock"],  # an atom no phrase holds, mid-phrase
        [],
    ])
    @pytest.mark.parametrize("vocab", [VOCAB, RAW_VOCAB, SPACED_VOCAB], ids=["default", "raw", "spaced"])
    def test_examples(self, texts, vocab):
        assert_same_block_matches(texts, vocab)

    def test_blocks_that_fill_and_clear_the_table(self):
        words = [f"q{i}" for i in range(2 * _TOKEN_TABLE_CAP)]
        texts = [" ".join(words[i:i + 300]) + " vendor lock in, pay as you go"
                 for i in range(0, len(words), 300)]
        sizes = []
        for start in range(0, len(texts), 8):
            for vocab in (VOCAB, RAW_VOCAB):
                assert_same_block_matches(texts[start:start + 8], vocab)
            sizes.append(len(tokens._TABLE))
        assert any(after < before for before, after in zip(sizes, sizes[1:]))  # it was cleared

    def test_no_nonword_character_lowers_to_an_atom(self):
        # the tokens scoring drops (all \W) hold no atom, so matching can drop them too
        nonword = "".join(re.findall(r"\W", "".join(map(chr, range(0x110000)))))
        assert tokens._atoms(nonword) == []

    def test_build_perceptions_creates_no_aspect_match(self, monkeypatch):
        reviews = bundled_reviews()
        expected = build_perceptions(reviews, VOCAB, LEXICON, HeuristicConfig())

        def forbidden(*args):
            raise AssertionError("build_perceptions made an AspectMatch")

        monkeypatch.setattr(aspects, "AspectMatch", forbidden)
        assert repr(build_perceptions(reviews, VOCAB, LEXICON, HeuristicConfig())) == repr(expected)
