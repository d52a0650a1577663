import json

import pytest

from aspectcast.aspects import (
    ASPECT_SET_13,
    ASPECT_SET_16,
    AspectVocabulary,
    VocabularyError,
    builtin_aspects,
    default_vocabulary,
    load_vocabulary,
    match_aspects,
)
from aspectcast.corpus import Quarter, Review


def review(text, rid="r1"):
    return Review(rid, Quarter(2016, 4), text)


class TestBuiltinAspects:
    def test_count(self):
        assert len(builtin_aspects()) == 16

    def test_first_is_scalability(self):
        assert builtin_aspects()[0].name == "Greater scalability"

    def test_contains_after_sales(self):
        names = [a.name for a in builtin_aspects()]
        assert "After-sales experience" in names

    def test_ids_unique(self):
        ids = [a.id for a in builtin_aspects()]
        assert len(set(ids)) == 16

    def test_13_subset(self):
        assert len(ASPECT_SET_13) == 13
        assert set(ASPECT_SET_13) < set(ASPECT_SET_16)
        for late in ("after_sales_experience", "market_responsiveness", "marketing_execution"):
            assert late not in ASPECT_SET_13


class TestLoadVocabulary:
    def test_basic(self):
        vocab = load_vocabulary(b'{"after_sales_experience":["customer service","support"]}')
        assert vocab.for_aspect("after_sales_experience") == {"customer service", "support"}

    def test_normalization(self):
        vocab = load_vocabulary(b'{"cost_savings":["  Pay  As  You  Go "]}')
        assert vocab.for_aspect("cost_savings") == {"pay as you go"}

    def test_unknown_aspect(self):
        with pytest.raises(VocabularyError, match="nope"):
            load_vocabulary(b'{"nope":["x"]}')
        # one built in code is refused too, not kept and never matched
        with pytest.raises(VocabularyError, match="^unknown aspect id: 'bogus'$"):
            AspectVocabulary(phrases={"bogus": ["cheap"]})

    def test_empty_phrase_list(self):
        with pytest.raises(VocabularyError, match="empty"):
            load_vocabulary(b'{"cost_savings":[]}')

    def test_default_after_sales_exact_ten(self):
        vocab = default_vocabulary()
        assert vocab.for_aspect("after_sales_experience") == {
            "customer service", "satisfaction", "good service", "after-sales",
            "client service", "product service", "troubleshooting", "assistance",
            "customer care", "support",
        }

    def test_default_security_forms(self):
        vocab = default_vocabulary()
        assert {"secure", "secured", "securely", "security"} <= vocab.for_aspect("security_concerns")

    def test_default_covers_all_16(self):
        vocab = default_vocabulary()
        for aspect_id in ASPECT_SET_16:
            assert vocab.for_aspect(aspect_id)


class TestAspectVocabulary:
    def test_phrases_built_in_code_are_normalized(self):
        vocab = AspectVocabulary(phrases={"cost_savings": ["  Pay  As\tYou Go ", "pay as you go", "CHEAP"]})
        assert vocab.phrases == {"cost_savings": frozenset({"pay as you go", "cheap"})}
        matches = match_aspects(review("Cheap, and we pay as you  go"), vocab)
        assert [m.matched_phrases for m in matches] == [{"pay as you go", "cheap"}]

    @pytest.mark.parametrize("blank", ["", "  ", "\t\n"])
    def test_blank_phrase(self, blank):
        with pytest.raises(VocabularyError, match="^blank phrase for aspect 'cost_savings'$"):
            AspectVocabulary(phrases={"cost_savings": ["cheap", blank]})
        with pytest.raises(VocabularyError, match="^blank phrase for aspect 'cost_savings'$"):
            load_vocabulary(json.dumps({"cost_savings": ["cheap", blank]}).encode())


class TestMatchAspects:
    def test_single_word_phrase(self):
        vocab = default_vocabulary()
        matches = match_aspects(review("The support was quick"), vocab)
        assert any(
            m.aspect_id == "after_sales_experience" and "support" in m.matched_phrases
            for m in matches
        )

    def test_no_match(self):
        assert match_aspects(review("xyzzy"), default_vocabulary()) == []

    def test_two_aspects(self):
        vocab = load_vocabulary(b'{"security_concerns":["secured"],"cost_savings":["cheap"]}')
        matches = match_aspects(review("secured and cheap"), vocab)
        assert {m.aspect_id for m in matches} == {"security_concerns", "cost_savings"}

    def test_token_boundaries(self):
        vocab = load_vocabulary(b'{"cost_savings":["cost"]}')
        assert match_aspects(review("costly migration"), vocab) == []
        assert len(match_aspects(review("the cost dropped"), vocab)) == 1

    def test_multiword_phrase(self):
        vocab = load_vocabulary(b'{"after_sales_experience":["customer service"]}')
        assert len(match_aspects(review("Their customer service rocks"), vocab)) == 1
        assert match_aspects(review("customer focused service"), vocab) == []

    def test_case_and_whitespace_invariance(self):
        vocab = load_vocabulary(b'{"after_sales_experience":["customer service"]}')
        a = match_aspects(review("great CUSTOMER   service"), vocab)
        b = match_aspects(review("great customer service"), vocab)
        assert [m.aspect_id for m in a] == [m.aspect_id for m in b]

    def test_monotonic_in_vocabulary(self):
        base = {"cost_savings": ["cheap"]}
        bigger = {"cost_savings": ["cheap", "affordable"], "security_concerns": ["secure"]}
        text = review("cheap and secure and affordable")
        small = match_aspects(text, load_vocabulary(json.dumps(base).encode()))
        large = match_aspects(text, load_vocabulary(json.dumps(bigger).encode()))
        small_pairs = {(m.aspect_id, p) for m in small for p in m.matched_phrases}
        large_pairs = {(m.aspect_id, p) for m in large for p in m.matched_phrases}
        assert small_pairs <= large_pairs
