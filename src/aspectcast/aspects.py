"""The 16 cloud aspects, keyword vocabularies, and phrase-based review matching."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from importlib import resources
from itertools import compress, repeat

import numpy as np

from . import tokens as tokens_mod
from .corpus import Review
from .schema import json_object

__all__ = [
    "Aspect",
    "AspectVocabulary",
    "AspectMatch",
    "VocabularyError",
    "builtin_aspects",
    "load_vocabulary",
    "default_vocabulary",
    "match_aspects",
    "match_block",
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

    Building one normalizes each aspect's phrases into a frozenset; an
    aspect id outside ``ASPECT_SET_16``, or a phrase that is blank once
    normalized, raises ``VocabularyError``. ``phrases`` must not change
    once the vocabulary has matched a review: the phrase table is built
    from it on first use and kept.
    """

    phrases: dict  # aspect-id -> frozenset of phrases

    def __post_init__(self):
        phrases = {}
        for aspect_id, entries in self.phrases.items():
            if aspect_id not in ASPECT_SET_16:
                raise VocabularyError(f"unknown aspect id: {aspect_id!r}")
            phrases[aspect_id] = frozenset(map(_normalize_phrase, entries))
            if "" in phrases[aspect_id]:
                raise VocabularyError(f"blank phrase for aspect {aspect_id!r}")
        object.__setattr__(self, "phrases", phrases)

    def for_aspect(self, aspect_id: str) -> frozenset:
        return self.phrases.get(aspect_id, frozenset())

    @cached_property
    def phrase_table(self) -> "_PhraseTable":
        return _PhraseTable(self)


class _PhraseTable:
    """A vocabulary's phrases, indexed for matching a block of token ids.

    ``phrases[i]`` is the i-th (phrase, aspect position in ASPECT_SET_16)
    pair; a phrase of two aspects is two pairs. Phrase tokens are the phrase
    split on its single spaces, so a phrase token equals an atom exactly when
    their strings are equal. ``tokens`` maps each phrase token to its id;
    ``len(tokens)`` stands for an atom that is no phrase token. ``body[i]``
    holds phrase ``i``'s token ids, -1 past its ``lengths[i]``; the phrases a
    token id heads are ``headed[head_starts[t]:][:head_counts[t]]``.
    """

    def __init__(self, vocab: AspectVocabulary):
        self.phrases = [(phrase, position) for position, aspect_id in enumerate(ASPECT_SET_16)
                        for phrase in sorted(vocab.for_aspect(aspect_id))]
        split = [phrase.split(" ") for phrase, _ in self.phrases]
        self.tokens: dict = {}
        for phrase_tokens in split:
            for token in phrase_tokens:
                self.tokens.setdefault(token, len(self.tokens))
        self.aspect = np.array([position for _, position in self.phrases], np.intp)
        self.lengths = np.array(list(map(len, split)), np.intp)
        self.body = np.full((len(split), max(self.lengths, default=1)), -1, np.intp)
        for row, phrase_tokens in zip(self.body, split):
            row[:len(phrase_tokens)] = [self.tokens[token] for token in phrase_tokens]
        heads = self.body[:, 0]
        self.headed = np.argsort(heads, kind="stable")
        self.head_counts = np.bincount(heads, minlength=len(self.tokens) + 1)
        self.head_starts = np.cumsum(self.head_counts) - self.head_counts


@dataclass(frozen=True)
class AspectMatch:
    review_id: str
    aspect_id: str
    matched_phrases: frozenset


def load_vocabulary(data: bytes) -> AspectVocabulary:
    """Load a JSON vocabulary mapping aspect ids to phrase arrays."""
    phrases = {}
    for aspect_id, entries in json_object(data, "vocabulary", VocabularyError).items():
        if not isinstance(entries, list) or not entries:
            raise VocabularyError(f"empty phrase list for aspect {aspect_id!r}")
        phrases[aspect_id] = [str(p) for p in entries]
    return AspectVocabulary(phrases=phrases)


def default_vocabulary() -> AspectVocabulary:
    """The bundled vocabulary covering all 16 aspects."""
    data = resources.files("aspectcast").joinpath("data").joinpath("default_vocabulary.json").read_bytes()
    return load_vocabulary(data)


def match_block(ids, counts, vocab: AspectVocabulary) -> tuple[np.ndarray, np.ndarray]:
    """The phrase hits of a block of texts, given as ``tokens.token_ids`` of
    the texts: a (text, phrase) index pair per hit, the phrase indexing
    ``vocab.phrase_table.phrases``.

    A k-token phrase matches k consecutive atoms of one text; it is checked
    only where an atom equal to its first token stands.
    """
    table = vocab.phrase_table
    token, place, text_ends = _phrase_atoms(ids, counts, table)
    heads = np.flatnonzero(table.head_counts[token])
    n = table.head_counts[token[heads]]
    phrase = table.headed[_gather(table.head_starts[token[heads]], n)]
    head = np.repeat(heads, n)
    del heads, n
    # a phrase's next atoms are the next phrase-token atoms of the block
    width = table.body.shape[1]
    place, token = (np.concatenate((a, np.full(width, -1))) for a in (place, token))
    for offset in range(1, width):
        want = table.body[phrase, offset]
        after = head + offset
        found = (want < 0) | ((place[after] == place[head] + offset) & (token[after] == want))
        head, phrase = head[found], phrase[found]
    start = place[head]
    text = tokens_mod.text_of(text_ends, start)
    found = start + table.lengths[phrase] <= text_ends[text]  # never across a text's end
    return text[found], phrase[found]


def _phrase_atoms(ids, counts, table: _PhraseTable) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The atoms of a block that are phrase tokens: their phrase token ids
    and their places among the block's atoms, in order; and the end of each
    text's atoms.

    Each distinct atom of the block is looked up once. The dels keep a
    block's peak memory down.
    """
    tokens = tokens_mod._TABLE
    starts, atom_counts, atom_ids = tokens.atom_starts, tokens.atom_counts, tokens.atom_ids
    none = len(table.tokens)
    seen = np.zeros(len(atom_counts), bool)
    seen[ids] = True
    distinct = np.flatnonzero(seen)  # the block's distinct tokens, and their atoms
    atoms = atom_ids[_gather(starts[distinct], atom_counts[distinct])]
    seen = np.zeros(len(tokens.atoms), bool)
    seen[atoms] = True
    phrase_token = np.full(len(seen), none)
    phrase_token[seen] = np.fromiter(
        map(table.tokens.get, compress(tokens.atoms, seen.tolist()), repeat(none)), np.intp)
    holds = np.zeros(len(atom_counts), bool)  # token ids with an atom that is a phrase token
    holds[np.repeat(distinct, atom_counts[distinct])[phrase_token[atoms] != none]] = True

    atom_end = atom_counts[ids]
    np.cumsum(atom_end, out=atom_end)  # the block's atoms up to each token's end
    token_end = np.cumsum(counts)
    text_ends = np.zeros(len(counts), np.intp)
    text_ends[token_end > 0] = atom_end[token_end[token_end > 0] - 1]
    at = np.flatnonzero(holds[ids])
    held, first = ids[at], atom_end[at]
    del atom_end, at
    n = atom_counts[held]
    first -= n
    token = phrase_token[atom_ids[_gather(starts[held], n)]]
    del held
    place = _gather(first, n)
    del first, n
    kept = token != none
    return token[kept], place[kept], text_ends


def _gather(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The indices ``starts[i], ..., starts[i] + counts[i] - 1`` for each ``i``, end to end."""
    offsets = np.cumsum(counts)
    offsets -= counts
    np.subtract(starts, offsets, out=offsets)
    index = np.repeat(offsets, counts)
    del offsets
    index += np.arange(len(index))
    return index


def _aspect_matches(review_id: str, phrases, vocab: AspectVocabulary) -> list[AspectMatch]:
    """One text's ``AspectMatch`` list from the indices of its phrase hits."""
    hits: dict = {}
    for i in phrases.tolist():
        phrase, position = vocab.phrase_table.phrases[i]
        hits.setdefault(position, set()).add(phrase)
    return [AspectMatch(review_id, ASPECT_SET_16[position], frozenset(hits[position]))
            for position in sorted(hits)]


def match_aspects(review: Review, vocab: AspectVocabulary) -> list[AspectMatch]:
    """Aspects whose vocabulary phrases occur in the review on token boundaries:
    ``match_block`` of a block of one.

    The review's tokens are the ``[a-z0-9]+`` runs of its lowered text; a
    k-token phrase matches k consecutive tokens, and a review may match
    several aspects or none.
    """
    return _aspect_matches(review.id, match_block(*tokens_mod.token_ids([review.text]), vocab)[1], vocab)
