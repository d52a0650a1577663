"""The 16 cloud aspects, keyword vocabularies, and phrase-based review matching."""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from importlib import resources
from itertools import compress, count

from .corpus import Review

__all__ = [
    "Aspect",
    "AspectVocabulary",
    "AspectMatch",
    "VocabularyError",
    "builtin_aspects",
    "load_vocabulary",
    "default_vocabulary",
    "match_aspects",
    "ASPECT_SET_13",
    "ASPECT_SET_16",
]


class VocabularyError(ValueError):
    """Bad vocabulary file content."""


@dataclass(frozen=True)
class Aspect:
    id: str
    name: str
    description: str


# Table order: the 13 product/service-quality drivers first, then the three
# added ones (after-sales, responsiveness, execution).
_ASPECTS = [
    ("greater_scalability", "Greater scalability", "Flexible to either up-scale or down-scale"),
    ("faster_access_to_infrastructure", "Faster access to infrastructure",
     "Easy access to infrastructure without having to purchase it"),
    ("managing_multiple_services", "Managing multiple services",
     "Overheads and difficulty in managing multiple services"),
    ("security_concerns", "Security concerns",
     "Concerns over data breaches, privacy, access control"),
    ("cost_savings", "Cost savings", "Cost saved by transfer to cloud infrastructure"),
    ("higher_availability", "Higher availability", "High availability of cloud services"),
    ("lack_of_control", "Lack of control",
     "Uncertainty of data location, legal issues, and dispute resolution"),
    ("higher_performance", "Higher performance",
     "Higher performance of cloud compared to on-premise infrastructure"),
    ("lack_of_expertise", "Lack of expertise/resources",
     "Lack of specialised people or sufficient resources for managing cloud services"),
    ("it_staff_efficiency", "IT staff efficiency", "Increase of productivity"),
    ("provider_lock_in", "Provider lock-in",
     "Difficulties with changing cloud computing service provider"),
    ("business_continuity", "Business continuity",
     "Ability to continually operate even through disasters"),
    ("capex_to_opex", "Move from CapEx to OpEx",
     "Changing from capital expenditure to operating expense"),
    ("after_sales_experience", "After-sales experience",
     "Ability to provide acceptable customer services"),
    ("market_responsiveness", "Market responsiveness",
     "Ability to enhance the products' after sales"),
    ("marketing_execution", "Marketing execution",
     "Ability to deliver the product that the customer expected"),
]

ASPECT_SET_16 = [a[0] for a in _ASPECTS]
ASPECT_SET_13 = ASPECT_SET_16[:13]


def builtin_aspects() -> list[Aspect]:
    """All 16 aspects in table order."""
    return [Aspect(*row) for row in _ASPECTS]


def _normalize_phrase(phrase: str) -> str:
    return " ".join(phrase.lower().split())


@dataclass(frozen=True)
class AspectVocabulary:
    """Per-aspect phrase sets, lowercase and single-space normalized.

    ``phrases`` must not change once the vocabulary has matched a review:
    the phrase index is built from it on first use and kept.
    """

    phrases: dict  # aspect-id -> frozenset of phrases

    def for_aspect(self, aspect_id: str) -> frozenset:
        return self.phrases.get(aspect_id, frozenset())

    @cached_property
    def phrase_index(self) -> dict:
        """First phrase token -> [(remaining tokens, phrase, aspect position in ASPECT_SET_16)].

        Tokens are the UTF-8 bytes ``_tokenize`` gives a review, so a phrase
        token equals a review token exactly when their strings are equal.
        Phrases split on single spaces, so a phrase with a doubled, leading or
        trailing space gets an empty token, which no review token equals, and
        never matches.
        """
        index: dict = {}
        for position, aspect_id in enumerate(ASPECT_SET_16):
            for phrase in self.for_aspect(aspect_id):
                head, *rest = phrase.encode("utf-8", "surrogatepass").split(b" ")
                index.setdefault(head, []).append((rest, phrase, position))
        return index


@dataclass(frozen=True)
class AspectMatch:
    review_id: str
    aspect_id: str
    matched_phrases: frozenset


def load_vocabulary(data: bytes) -> AspectVocabulary:
    """Load a JSON vocabulary mapping aspect ids to phrase arrays."""
    try:
        obj = json.loads(data.decode("utf-8"))
    except json.JSONDecodeError as e:
        raise VocabularyError(f"malformed vocabulary JSON: {e.msg}") from None
    if not isinstance(obj, dict):
        raise VocabularyError("vocabulary must be a JSON object")
    known = set(ASPECT_SET_16)
    phrases = {}
    for aspect_id, entries in obj.items():
        if aspect_id not in known:
            raise VocabularyError(f"unknown aspect id: {aspect_id!r}")
        if not isinstance(entries, list) or not entries:
            raise VocabularyError(f"empty phrase list for aspect {aspect_id!r}")
        normalized = frozenset(_normalize_phrase(str(p)) for p in entries)
        if "" in normalized:
            raise VocabularyError(f"blank phrase for aspect {aspect_id!r}")
        phrases[aspect_id] = normalized
    return AspectVocabulary(phrases=phrases)


def default_vocabulary() -> AspectVocabulary:
    """The bundled vocabulary covering all 16 aspects."""
    data = resources.files("aspectcast").joinpath("data").joinpath("default_vocabulary.json").read_bytes()
    return load_vocabulary(data)


# every byte but a-z and 0-9 becomes a space; the UTF-8 bytes of a non-ASCII
# character are all >= 0x80, so the runs left are the [a-z0-9]+ runs of the text
_SEPARATE = bytes(b if b in b"0123456789abcdefghijklmnopqrstuvwxyz" else 0x20 for b in range(256))


def _tokenize(text: str) -> list[bytes]:
    """The ``[a-z0-9]+`` runs of the lowered ``text``, as ASCII bytes."""
    # surrogatepass: a lone surrogate (a JSON "\ud800" escape) is not an error
    return text.lower().encode("utf-8", "surrogatepass").translate(_SEPARATE).split()


def match_aspects(review: Review, vocab: AspectVocabulary) -> list[AspectMatch]:
    """Aspects whose vocabulary phrases occur in the review on token boundaries.

    A k-token phrase matches k consecutive review tokens; a review may match
    several aspects or none.
    """
    index = vocab.phrase_index
    # The empty phrase occurs in exactly the reviews without tokens; a lone
    # empty token lets the loop find it there.
    tokens = _tokenize(review.text) or [b""]
    hits: dict = {}
    # only the tokens that start some phrase reach the loop body
    for start in compress(count(), map(index.get, tokens)):
        after = start + 1
        for rest, phrase, position in index[tokens[start]]:
            if not rest or tokens[after:after + len(rest)] == rest:
                hits.setdefault(position, set()).add(phrase)
    return [
        AspectMatch(review.id, ASPECT_SET_16[position], frozenset(hits[position]))
        for position in sorted(hits)
    ]
