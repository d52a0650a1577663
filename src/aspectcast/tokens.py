"""One table of the whitespace tokens of review text, read by sentiment
scoring and aspect matching both.

A block of texts is split once and each token looked up once; the table
holds what scoring needs of a token (its cleaned lowered word and flag bits)
and what matching needs (its atoms, the ``[a-z0-9]+`` runs of the lowered
token), each worked out the first time a block holds the token.
"""

from __future__ import annotations

import re
from itertools import chain

import numpy as np

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
_NEGATIONS = {
    "not", "no", "never", "none", "neither", "nor", "cannot", "cant",
    "dont", "doesnt", "didnt", "isnt", "wasnt", "arent", "werent", "wont",
    "wouldnt", "couldnt", "shouldnt", "aint", "without", "lack", "lacking",
}
# A token's flag bits: all caps; has a letter and is not all caps (a vote for
# mixed case); and what its lowered word is
_CAPS, _MIXED, _BOOSTER, _DAMPENER, _NEGATION, _BUT = (1 << i for i in range(6))
_WORD_FLAGS = {
    **dict.fromkeys(_NEGATIONS, _NEGATION),
    **dict.fromkeys(_DAMPENERS, _DAMPENER),
    **dict.fromkeys(_BOOSTERS, _BOOSTER),
    "but": _BUT,
}

_WORD_CLEAN_RE = re.compile(r"^\W+|\W+$")


def _clean(token: str) -> str:
    return _WORD_CLEAN_RE.sub("", token).replace("'", "")


def _atoms(text: str) -> list[str]:
    """The ``[a-z0-9]+`` runs of the lowered ``text``."""
    return re.findall(r"[a-z0-9]+", text.lower())


class _TokenTable(dict):
    """Raw whitespace token -> token id, each token cleaned, case-folded,
    flagged and split into atoms the first time a block holds it.

    Id 0 stands for every token that cleans to nothing. For every other id,
    ``word_ids`` holds the id of its lowered cleaned word, which "Good",
    "good." and "GOOD!" share (``words`` maps each word to its id, in id
    order), and ``flags`` its flag bits. Token ``i``'s atoms have the ids
    ``atom_ids[atom_starts[i]:][:atom_counts[i]]`` (``atoms`` maps each atom
    to its id, in id order).

    A text's atoms are its whitespace tokens' atoms end to end: lowering is
    per character (but for the final sigma, which is not ASCII), whitespace
    is no atom, and no ``\\W`` character lowers to an atom, so the tokens
    that clean to nothing hold none. The facts depend on the token's
    characters alone, so one table serves every lexicon, config and
    vocabulary. ``token_ids`` clears it before a block once it holds
    ``_TOKEN_TABLE_CAP`` tokens; a block's own new tokens stay until the
    next block.
    """

    def __init__(self):
        super().__init__()
        self.clear()

    def clear(self):
        super().clear()
        self.words: dict[str, int] = {}
        self.atoms: dict[str, int] = {}
        self.word_ids = np.zeros(1, np.intp)
        self.flags = np.zeros(1, np.uint8)
        self.atom_starts = np.zeros(1, np.intp)
        self.atom_counts = np.zeros(1, np.intp)
        self.atom_ids = np.zeros(0, np.intp)
        # of the ids not yet in the arrays
        self._new_word_ids: list[int] = []
        self._new_flags: list[int] = []
        self._new_atom_counts: list[int] = []
        self._new_atom_ids: list[int] = []

    def __missing__(self, token: str) -> int:
        word = _clean(token)
        if not word:
            self[token] = 0
            return 0
        upper = word.isupper()
        alpha = any(c.isalpha() for c in word)
        lowered = word.lower()
        self._new_word_ids.append(self.words.setdefault(lowered, len(self.words)))
        self._new_flags.append((_CAPS if upper and alpha else 0) | (_MIXED if alpha and not upper else 0)
                               | _WORD_FLAGS.get(lowered, 0))
        atoms = _atoms(token)
        self._new_atom_counts.append(len(atoms))
        self._new_atom_ids += [self.atoms.setdefault(atom, len(self.atoms)) for atom in atoms]
        token_id = self[token] = len(self.flags) + len(self._new_flags) - 1
        return token_id

    def _grow(self) -> None:
        """Grow the per-id arrays to hold every id given so far."""
        if not self._new_flags:
            return
        self.word_ids = np.concatenate((self.word_ids, self._new_word_ids))
        self.flags = np.concatenate((self.flags, np.array(self._new_flags, np.uint8)))
        counts = np.array(self._new_atom_counts, np.intp)
        starts = np.cumsum(counts) - counts + len(self.atom_ids)
        self.atom_starts = np.concatenate((self.atom_starts, starts))
        self.atom_counts = np.concatenate((self.atom_counts, counts))
        self.atom_ids = np.concatenate((self.atom_ids, np.array(self._new_atom_ids, np.intp)))
        for pending in (self._new_word_ids, self._new_flags, self._new_atom_counts, self._new_atom_ids):
            pending.clear()


_TABLE = _TokenTable()
_TOKEN_TABLE_CAP = 2**14


def token_ids(texts) -> tuple[np.ndarray, np.ndarray]:
    """The ids of the tokens of ``texts`` that clean to a word, in order, and
    each text's count of them.

    The ids index ``_TABLE`` and its per-id arrays, grown to hold them,
    until the next call, which may clear it.
    """
    if len(_TABLE) >= _TOKEN_TABLE_CAP:
        _TABLE.clear()
    counts = []

    def split(text):  # one text's tokens at a time, counted
        tokens = text.split()
        counts.append(len(tokens))
        return tokens

    ids = np.fromiter(map(_TABLE.__getitem__, chain.from_iterable(map(split, texts))), np.intp)
    _TABLE._grow()
    counts = np.array(counts, np.intp)
    dropped = np.flatnonzero(ids == 0)  # tokens that clean to nothing hold no position
    if dropped.size:
        counts -= np.bincount(text_of(np.cumsum(counts), dropped), minlength=len(counts))
        ids = ids[ids != 0]
    return ids, counts


def text_of(ends: np.ndarray, positions: np.ndarray) -> np.ndarray:
    """The text holding each of ``positions``, the texts ending at ``ends``."""
    return np.searchsorted(ends, positions, "right")

