"""Rule-based lexicon sentiment scoring with punctuation/caps/negation heuristics.

Scores a text from per-token valences in [-4, 4], adjusted for capitalization
emphasis, degree modifiers, negation, and the contrastive conjunction "but",
then normalizes the summed valence to a compound score in [-1, 1]. A block of
texts is scored at once, each heuristic a NumPy pass over the block's hits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from importlib import resources
from itertools import compress, repeat

import numpy as np

from . import tokens as tokens_mod
from .schema import check_fields, json_object, key, keys, validate
from .tokens import _BOOSTER, _BUT, _CAPS, _DAMPENER, _MIXED, _NEGATION, _clean, text_of, token_ids

__all__ = [
    "SentimentLexicon",
    "SentimentScores",
    "HeuristicConfig",
    "LexiconError",
    "load_lexicon",
    "default_lexicon",
    "normalize_valence_sum",
    "analyze",
    "analyze_many",
    "score_ids",
]


class LexiconError(ValueError):
    """Bad lexicon file content."""


SentimentLexicon = dict  # lowercase token -> valence in [-4, 4]


@dataclass(frozen=True)
class SentimentScores:
    positive: float
    neutral: float
    negative: float
    compound: float


@dataclass(frozen=True)
class HeuristicConfig:
    exclamation_boost: float = key(0.292)   # per "!", capped
    exclamation_cap: int = key(4, "int", low=0)
    question_step: float = key(0.18)        # per "?" beyond the first, up to question_max
    question_max: float = key(0.96)
    caps_boost: float = key(0.733)
    degree_increment: float = key(0.293)
    negation_factor: float = key(-0.74)
    negation_window: int = key(3, "int", low=1)
    but_weight_before: float = key(0.5)
    but_weight_after: float = key(1.5)
    alpha: float = key(15.0, low=0, open_low=True)  # compound normalization constant

    def __post_init__(self):
        check_fields(self, ValueError)

    @classmethod
    def from_json(cls, data: bytes) -> "HeuristicConfig":
        """Default config with fields overridden from a JSON object."""
        return cls(**validate(keys(cls), json_object(data, "heuristics"), ValueError))


def load_lexicon(data: bytes) -> SentimentLexicon:
    """Load a tab-separated ``token<TAB>valence`` lexicon; extra columns ignored.

    A token, as written or lowered, must clean to itself, the word
    ``analyze`` looks up: one that holds whitespace or an apostrophe, or has
    punctuation at either end, can never match a word of a text.
    """
    lexicon: SentimentLexicon = {}
    for idx, line in enumerate(data.decode("utf-8-sig").splitlines(), start=1):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) < 2:
            raise LexiconError(f"line {idx}: expected token<TAB>valence")
        written = parts[0].strip()
        token = written.lower()
        # "Dİ" lowers to "di̇", whose combining dot cleaning strips: the
        # token is still the word of a text that says "Dİ"
        if not any(t.split() == [t] and _clean(t).lower() == token for t in (written, token)):
            raise LexiconError(f"line {idx}: token {written!r} can never match a scored word")
        try:
            valence = float(parts[1])
        except ValueError:
            raise LexiconError(f"line {idx}: non-numeric valence {parts[1]!r}") from None
        if not -4.0 <= valence <= 4.0:
            raise LexiconError(f"line {idx}: valence out of range [-4, 4]: {valence}")
        lexicon[token] = valence
    return lexicon


def default_lexicon() -> SentimentLexicon:
    data = resources.files("aspectcast").joinpath("data").joinpath("sentiment_lexicon.txt").read_bytes()
    return load_lexicon(data)


# Scaling of a degree modifier's effect by distance from the sentiment token.
_DISTANCE_DECAY = (1.0, 0.95, 0.9)
_DEFAULT_HEURISTICS = HeuristicConfig()  # checked once, not on every analyze call


def normalize_valence_sum(total: float, alpha: float = HeuristicConfig.alpha) -> float:
    """Map a summed valence onto [-1, 1]: total / sqrt(total^2 + alpha)."""
    return max(-1.0, min(1.0, total / math.sqrt(total * total + alpha)))


def analyze_many(texts, lexicon: SentimentLexicon, config: HeuristicConfig | None = None):
    """Score a sequence of texts: the (positive, neutral, negative, compound)
    columns, one float64 array each, row ``i`` scoring ``texts[i]``.

    Unknown tokens are neutral, and a text with no word scores all zeros.
    Peak memory grows with the block, so score a long sequence a block at a
    time.
    """
    return score_ids(*token_ids(texts), texts, lexicon, config)


def score_ids(ids, counts, texts, lexicon: SentimentLexicon, config: HeuristicConfig | None = None):
    """``analyze_many`` of ``texts`` whose ``tokens.token_ids`` are ``(ids, counts)``.

    Every heuristic is a NumPy pass over all lexicon hits of the block, doing
    for each hit and each text the float operations of scoring it alone, in
    the same order; a text's valences and pole masses are added hit by hit,
    left to right.
    """
    cfg = config or _DEFAULT_HEURISTICS
    ends = np.cumsum(counts)
    token_flags = tokens_mod._TABLE.flags[ids]
    hits, v = _hits(ids, lexicon)
    del ids  # one slot per token: the passes below use the hits and the rarer flagged tokens
    text = text_of(ends, hits)
    with np.errstate(all="ignore"):  # overflow gives inf and nan, as in Python
        _emphasize(v, hits, text, token_flags, counts, ends, cfg)
        _negate(v, hits, text, token_flags, ends - counts, cfg)
        _weigh_but(v, hits, text, token_flags, ends, cfg)
        return _scores(texts, v, text, counts, cfg)


def _hits(ids: np.ndarray, lexicon: SentimentLexicon) -> tuple[np.ndarray, np.ndarray]:
    """The positions in ``ids`` of the lexicon hits, and their valences.

    Each distinct word of the block is looked up once. A valence that is not
    0 (nan included) makes a hit; other tokens add nothing to a score.
    """
    word_ids = tokens_mod._TABLE.word_ids
    seen = np.zeros(len(word_ids), bool)
    seen[ids] = True
    seen_words = np.zeros(len(tokens_mod._TABLE.words), bool)
    seen_words[word_ids[seen]] = True
    valence = np.zeros(len(seen_words))
    valence[seen_words] = np.fromiter(
        map(lexicon.get, compress(tokens_mod._TABLE.words, seen_words.tolist()), repeat(0.0)), float)
    valence = valence[word_ids]  # by token id
    hits = np.flatnonzero((valence != 0)[ids])
    return hits, valence[ids[hits]]


def _emphasize(v, hits, text, token_flags, counts, ends, cfg: HeuristicConfig) -> None:
    """Add the caps boost, then each degree modifier's, nearest first, to the valences ``v``."""
    # caps emphasis only applies when the text is mixed-case (not shouting
    # throughout): some token with a letter is not all caps. Fewer tokens
    # lack that vote than hold it.
    no_vote = text_of(ends, np.flatnonzero((token_flags & _MIXED) == 0))
    mixed_case = (counts > np.bincount(no_vote, minlength=len(counts)))[text]
    rising = v > 0  # the sign of each hit's own valence: 1.0 if rising else -1.0
    caps_boost = float(cfg.caps_boost)
    shouted = np.flatnonzero(mixed_case & ((token_flags[hits] & _CAPS) != 0))
    v[shouted] += np.where(rising[shouted], 1.0, -1.0) * caps_boost

    increment = float(cfg.degree_increment)
    modifiers = np.flatnonzero(token_flags & (_BOOSTER | _DAMPENER))
    if increment == 0.0 or not modifiers.size or not hits.size:
        return
    text_end = ends[text_of(ends, modifiers)]
    for dist, decay in enumerate(_DISTANCE_DECAY, start=1):
        target = modifiers + dist  # a hit there, in the modifier's text, is modified
        at = np.minimum(np.searchsorted(hits, target), len(hits) - 1)
        found = (hits[at] == target) & (target < text_end)
        at, modifier = at[found], token_flags[modifiers[found]]
        scalar = np.where((modifier & _BOOSTER) != 0, increment, -increment) * decay
        np.add(scalar, np.copysign(caps_boost * 0.25, scalar), out=scalar,
               where=mixed_case[at] & ((modifier & _CAPS) != 0))
        v[at] += np.where(rising[at], 1.0, -1.0) * scalar


def _negate(v, hits, text, token_flags, starts, cfg: HeuristicConfig) -> None:
    """Scale the valences ``v`` of the hits with a negation within the window before them."""
    negations = np.flatnonzero(token_flags & _NEGATION)
    if not negations.size or not hits.size:
        return
    nearest = np.searchsorted(negations, hits)  # then the nearest negation before each hit
    negated = nearest > 0
    nearest -= 1
    nearest = negations[nearest]
    # a window longer than the block reaches back to the text's start
    reach = hits - min(cfg.negation_window, len(token_flags))
    np.maximum(reach, starts[text], out=reach)
    negated &= nearest >= reach
    v[negated] *= float(cfg.negation_factor)


def _weigh_but(v, hits, text, token_flags, ends, cfg: HeuristicConfig) -> None:
    """Weigh the valences ``v`` of the hits before and after their text's first "but"."""
    buts = np.flatnonzero(token_flags & _BUT)
    if not buts.size or not hits.size:
        return
    but_text = text_of(ends, buts)
    first = np.ones(len(buts), bool)
    first[1:] = but_text[1:] != but_text[:-1]
    pivot = np.full(len(ends), -1)
    pivot[but_text[first]] = buts[first]
    pivot = pivot[text]
    np.multiply(v, float(cfg.but_weight_before), out=v, where=hits < pivot)
    np.multiply(v, float(cfg.but_weight_after), out=v, where=(pivot >= 0) & (hits > pivot))


def _sums(index: np.ndarray, values: np.ndarray, n: int) -> np.ndarray:
    """Per row ``i`` below ``n``, the ``values`` at ``index == i`` added left
    to right from 0.0: bincount's loop, as a running ``+=`` would do it."""
    return np.bincount(index, values, n).astype(float, copy=False)  # int zeros when empty


def _punctuation(texts, cfg: HeuristicConfig) -> np.ndarray:
    """Each text's emphasis: ``min(count("!"), exclamation_cap) * exclamation_boost``,
    plus ``min((count("?") - 1) * question_step, question_max)`` when it holds
    more than one "?"; Python's ``min(a, b)``, which is ``b if b < a else a``.

    The three weights are used as floats, as in the other passes, so an int
    weight computes as Python computed it while its products stay below 2**53.
    """
    n = len(texts)
    exclamations = np.fromiter(map(str.count, texts, repeat("!")), np.int64, n)
    # no count reaches the int64 maximum, so a larger cap caps nothing
    np.minimum(exclamations, min(cfg.exclamation_cap, np.iinfo(np.int64).max), out=exclamations)
    emphasis = exclamations * float(cfg.exclamation_boost)
    questions = np.fromiter(map(str.count, texts, repeat("?")), np.int64, n)
    beyond = (questions - 1) * float(cfg.question_step)
    question_max = float(cfg.question_max)
    np.add(emphasis, np.where(question_max < beyond, question_max, beyond), out=emphasis, where=questions > 1)
    return emphasis


def _scores(texts, v, text, counts, cfg: HeuristicConfig) -> tuple:
    """The four score columns from the hits' final valences ``v``."""
    n = len(counts)
    total = _sums(text, v, n)
    emphasis = _punctuation(texts, cfg)
    up, down = total > 0, total < 0
    np.add(total, emphasis, out=total, where=up)
    np.subtract(total, emphasis, out=total, where=down)
    compound = total / np.sqrt(total * total + float(cfg.alpha))
    # max(-1.0, min(1.0, x)): nan clamps to 1.0
    compound = np.where(compound < 1.0, compound, 1.0)
    compound = np.where(compound > -1.0, compound, -1.0)

    # proportions: each hit contributes mass |v| + 1 to its pole, other
    # tokens mass 1; punctuation emphasis is credited to the dominant pole
    positive, negative = v > 0, v < 0
    pos_mass = _sums(text[positive], v[positive] + 1.0, n)
    neg_mass = _sums(text[negative], -v[negative] + 1.0, n)
    neu_mass = (counts - np.bincount(text[positive | negative], minlength=n)).astype(float)
    np.add(pos_mass, emphasis, out=pos_mass, where=total > 0)
    np.add(neg_mass, emphasis, out=neg_mass, where=total < 0)
    denom = pos_mass + neg_mass + neu_mass
    empty = denom == 0
    for mass in (pos_mass, neu_mass, neg_mass):
        mass /= denom
        mass[empty] = 0.0
    return pos_mass, neu_mass, neg_mass, compound


def analyze(text: str, lexicon: SentimentLexicon, config: HeuristicConfig | None = None) -> SentimentScores:
    """Score one text: ``analyze_many`` of a block of one."""
    return SentimentScores(*(float(column[0]) for column in analyze_many([text], lexicon, config)))
