"""Rule-based lexicon sentiment scoring with punctuation/caps/negation heuristics.

Scores a text from per-token valences in [-4, 4], adjusted for capitalization
emphasis, degree modifiers, negation, and the contrastive conjunction "but",
then normalizes the summed valence to a compound score in [-1, 1].
"""

from __future__ import annotations

import json
import math
import re
import sys
from dataclasses import dataclass
from importlib import resources
from itertools import compress, count
from operator import itemgetter

from .schema import check_fields, key, keys, validate

__all__ = [
    "SentimentLexicon",
    "SentimentScores",
    "HeuristicConfig",
    "LexiconError",
    "load_lexicon",
    "default_lexicon",
    "normalize_valence_sum",
    "analyze",
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
        overrides = json.loads(data.decode("utf-8"))
        if not isinstance(overrides, dict):
            raise ValueError("heuristics must be a JSON object")
        return cls(**validate(keys(cls), overrides, ValueError))


def load_lexicon(data: bytes) -> SentimentLexicon:
    """Load a tab-separated ``token<TAB>valence`` lexicon; extra columns ignored.

    A token, as written or lowered, must clean to itself, the word
    ``analyze`` looks up: one that holds whitespace or an apostrophe, or has
    punctuation at either end, can never match a word of a text.
    """
    lexicon: SentimentLexicon = {}
    for idx, line in enumerate(data.decode("utf-8").splitlines(), start=1):
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


# Degree modifiers: boosters raise the following sentiment token's magnitude,
# dampeners lower it. Sign is applied relative to the token's valence sign.
_BOOSTERS = {
    "very", "really", "extremely", "absolutely", "completely", "incredibly",
    "totally", "highly", "hugely", "remarkably", "exceptionally", "especially",
    "particularly", "truly", "unbelievably", "so",
}
_DAMPENERS = {
    "slightly", "somewhat", "barely", "hardly", "marginally", "kinda",
    "fairly", "moderately", "partly", "occasionally", "sort", "kind",
}
# degree modifier -> True for a booster, False for a dampener
_DEGREE = {**dict.fromkeys(_DAMPENERS, False), **dict.fromkeys(_BOOSTERS, True)}
_NEGATIONS = {
    "not", "no", "never", "none", "neither", "nor", "cannot", "cant",
    "dont", "doesnt", "didnt", "isnt", "wasnt", "arent", "werent", "wont",
    "wouldnt", "couldnt", "shouldnt", "aint", "without", "lack", "lacking",
}
# Scaling of a degree modifier's effect by distance from the sentiment token.
_DISTANCE_DECAY = (1.0, 0.95, 0.9)
_DEFAULT_HEURISTICS = HeuristicConfig()  # checked once, not on every analyze call

_WORD_CLEAN_RE = re.compile(r"^\W+|\W+$")
# the ASCII characters \W matches: all but letters, digits and "_"
_ASCII_NONWORD = "".join(c for c in map(chr, range(128)) if not (c.isalnum() or c == "_"))


def _clean(token: str) -> str:
    if token.isascii():
        return token.strip(_ASCII_NONWORD).replace("'", "")
    return _WORD_CLEAN_RE.sub("", token).replace("'", "")


def _punctuation_emphasis(text: str, cfg: HeuristicConfig) -> float:
    excl = min(text.count("!"), cfg.exclamation_cap)
    emphasis = excl * cfg.exclamation_boost
    qm = text.count("?")
    if qm > 1:
        emphasis += min((qm - 1) * cfg.question_step, cfg.question_max)
    return emphasis


def normalize_valence_sum(total: float, alpha: float = HeuristicConfig.alpha) -> float:
    """Map a summed valence onto [-1, 1]: total / sqrt(total^2 + alpha)."""
    return max(-1.0, min(1.0, total / math.sqrt(total * total + alpha)))


# raw whitespace token -> (lowered cleaned word, all caps, votes for mixed
# case), or _EMPTY for a token that cleans to nothing. The facts depend on the
# token's characters alone, so one table serves every lexicon and config; it
# is cleared when it reaches _TOKEN_TABLE_CAP entries.
_TOKENS: dict[str, tuple[str, bool, bool]] = {}
_TOKEN_TABLE_CAP = 2**14
_EMPTY = ("", False, False)
_WORD = itemgetter(0)
_MIXED = itemgetter(2)


def _token(token: str) -> tuple[str, bool, bool]:
    """Clean, case-fold and flag one raw token, and record it in ``_TOKENS``."""
    # _clean leaves a token made only of letters and digits unchanged
    word = token if token.isalnum() else _clean(token)
    if word:
        upper = word.isupper()
        alpha = any(c.isalpha() for c in word)
        # the lowered word is interned: "Good", "good." and "GOOD!" share it
        facts = (sys.intern(word.lower()), upper and alpha, alpha and not upper)
    else:
        facts = _EMPTY
    if len(_TOKENS) >= _TOKEN_TABLE_CAP:
        _TOKENS.clear()
    _TOKENS[token] = facts
    return facts


def analyze(text: str, lexicon: SentimentLexicon, config: HeuristicConfig | None = None) -> SentimentScores:
    """Score one text; unknown tokens are neutral, empty text scores all zeros."""
    cfg = config or _DEFAULT_HEURISTICS
    known = _TOKENS.get
    tokens = [known(t) or _token(t) for t in text.split()]
    lowered = list(map(_WORD, tokens))
    if not all(lowered):
        tokens = [t for t in tokens if t is not _EMPTY]
        if not tokens:
            return SentimentScores(0.0, 0.0, 0.0, 0.0)
        lowered = list(map(_WORD, tokens))

    # Only lexicon hits (tokens with a nonzero valence) carry valence; every
    # other token scores 0.0 and adds nothing to the sums below, so the
    # heuristics run at the hits alone.
    scored = list(map(lexicon.get, lowered))
    hits = list(compress(count(), scored))
    # caps emphasis only applies when the text is mixed-case (not shouting
    # throughout): some token with a letter is not all caps
    mixed_case = bool(hits) and any(map(_MIXED, tokens))

    caps_boost, increment, window = cfg.caps_boost, cfg.degree_increment, cfg.negation_window
    valences = []
    for i in hits:
        v = scored[i]
        sign = 1.0 if v > 0 else -1.0
        if mixed_case and tokens[i][1]:
            v += sign * caps_boost
        # degree modifiers in the few tokens before this one
        for dist in range(1, i + 1 if i < 3 else 4):
            booster = _DEGREE.get(lowered[i - dist])
            if booster is None:
                continue
            scalar = increment if booster else -increment
            if scalar != 0.0:
                scalar *= _DISTANCE_DECAY[dist - 1]
                if mixed_case and tokens[i - dist][1]:
                    scalar += math.copysign(caps_boost * 0.25, scalar)
                v += sign * scalar
        # negation within the window before this token
        if not _NEGATIONS.isdisjoint(lowered[i - window if i > window else 0:i]):
            v *= cfg.negation_factor
        valences.append(v)

    if "but" in lowered:
        pivot = lowered.index("but")
        valences = [
            v * (cfg.but_weight_before if i < pivot else cfg.but_weight_after if i > pivot else 1.0)
            for i, v in zip(hits, valences)
        ]

    total = sum(valences)
    emphasis = _punctuation_emphasis(text, cfg)
    if total > 0:
        total += emphasis
    elif total < 0:
        total -= emphasis

    compound = normalize_valence_sum(total, cfg.alpha)

    # proportions: each token contributes mass |v| + 1 to its pole, neutral
    # tokens mass 1; punctuation emphasis is credited to the dominant pole.
    # sum() adds up each pole: since Python 3.12 it compensates for rounding,
    # which a running += would not
    pos, neg, zeros = [], [], 0
    for v in valences:
        if v > 0:
            pos.append(v + 1.0)
        elif v < 0:
            neg.append(-v + 1.0)
        else:
            zeros += 1
    pos_mass = sum(pos)
    neg_mass = sum(neg)
    neu_mass = float(len(tokens) - len(valences) + zeros)
    if total > 0:
        pos_mass += emphasis
    elif total < 0:
        neg_mass += emphasis
    denom = pos_mass + neg_mass + neu_mass
    if denom == 0:
        return SentimentScores(0.0, 0.0, 0.0, compound)
    return SentimentScores(pos_mass / denom, neu_mass / denom, neg_mass / denom, compound)
