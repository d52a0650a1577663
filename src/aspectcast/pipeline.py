"""End-to-end orchestration: ingest -> sentiment -> features -> fit -> evaluate."""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import MISSING, dataclass, replace
from functools import partial
from importlib import resources
from itertools import compress, islice
from pathlib import Path

import numpy as np

from . import aspects as aspects_mod
from . import corpus as corpus_mod
from . import features as features_mod
from . import sentiment as sentiment_mod
from . import tokens as tokens_mod
from .evaluation import EvalRow, backtest
from .features import SPLIT_RATIO, FeatureMatrix, GrowthSeries
from .models import SPECS, ForecasterSpec
from .schema import Key, json_object, key, keys, validate

__all__ = ["PipelineConfig", "StageError", "stage", "read_input", "load_inputs", "score_reviews",
           "build_perceptions", "build_features", "build_matrix", "model_run", "run_pipeline",
           "DEFAULT_MODELS"]


class StageError(RuntimeError):
    """Failure attributed to one named pipeline stage."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"[{stage}] {message}")


# Table-3-shaped default: the objective baseline plus each subjective model
# on the 13- and 16-aspect sets.
DEFAULT_MODELS = (
    {"kind": "arima", "label": "ARIMA", "orders": [1, 0, 0]},
    {"kind": "lr", "label": "LR-13", "aspects": 13},
    {"kind": "lr", "label": "LR-16", "aspects": 16},
    {"kind": "mlp", "label": "ANN-13", "aspects": 13},
    {"kind": "mlp", "label": "ANN-16", "aspects": 16},
    {"kind": "svr", "label": "SVM-13", "aspects": 13},
    {"kind": "svr", "label": "SVM-16", "aspects": 16},
)


# an input path key -> the bundled file (under data/) that a null value means
BUNDLED = {"reviews": "synthetic/reviews.jsonl", "revenue": "synthetic/revenue.csv",
           "vocabulary": "default_vocabulary.json", "lexicon": "sentiment_lexicon.txt", "heuristics": None}


@dataclass
class PipelineConfig:
    """A run's settings, one field per config key; a null input path means the bundled default."""

    reviews: Path | None = key(None, "path")
    revenue: Path | None = key(None, "path")
    vocabulary: Path | None = key(None, "path")
    lexicon: Path | None = key(None, "path")
    heuristics: Path | None = key(None, "path")
    aspects: tuple = key(16, "aspects")  # loaded as the tuple of ids it names
    include_lag: bool = key(True, "bool")
    split_ratio: tuple = SPLIT_RATIO.as_field()
    seed: int = key(0, "int", low=0)
    models: list = key(DEFAULT_MODELS, "models")  # loaded as model_run's (spec, aspect ids) pairs
    out: Path = key("out", "path")

    @classmethod
    def from_file(cls, path, overrides: dict | None = None) -> "PipelineConfig":
        obj = read_input("config", path, partial(json_object, what="config"))
        return cls.from_dict(obj, overrides, base=Path(path).parent)

    @classmethod
    def from_dict(cls, obj: dict, overrides: dict | None = None, base: Path | None = None) -> "PipelineConfig":
        merged = dict(obj)
        for name, value in (overrides or {}).items():
            if value is not None:
                merged[name] = value
        values = validate(keys(cls), merged, partial(StageError, "config"))
        values["aspects"] = resolve_aspects(values["aspects"])
        values["models"] = [model_run(entry, values["aspects"], values["seed"]) for entry in values["models"]]
        labels = [spec.label for spec, _ in values["models"]]
        duplicate = sorted({label for label in labels if labels.count(label) > 1})
        if duplicate:
            raise StageError("config", f"duplicate model labels: {duplicate}")
        for name, bundled in BUNDLED.items():  # an input path is relative to the config file
            if values[name] is not None:
                values[name] = Path(base or "", values[name])
            elif bundled:
                values[name] = Path(str(resources.files("aspectcast").joinpath(f"data/{bundled}")))
        values["split_ratio"] = tuple(values["split_ratio"])
        values["out"] = Path(values["out"])
        return cls(**values)

    @classmethod
    def defaults(cls, **overrides) -> "PipelineConfig":
        return cls.from_dict({}, overrides)


# a models entry's keys besides its kind's params; aspects and seed default to the config's
MODEL_ENTRY_KEYS = (
    Key("string", choices=tuple(SPECS), name="kind"),
    Key("string", name="label"),
    *(replace(k, default=MISSING) for k in keys(PipelineConfig) if k.name in ("aspects", "seed")),
)


def resolve_aspects(value, of: str = "") -> tuple:
    """The aspect ids a valid ``aspects`` value names; an id outside the 16, or named twice, fails ``config``."""
    if value in (13, "13"):
        return tuple(aspects_mod.ASPECT_SET_13)
    if value in (16, "16"):
        return tuple(aspects_mod.ASPECT_SET_16)
    unknown = [a for a in value if a not in aspects_mod.ASPECT_SET_16]
    if unknown:
        raise StageError("config", f"unknown aspect ids: {unknown}{of}")
    duplicate = sorted({a for a in value if value.count(a) > 1})
    if duplicate:
        raise StageError("config", f"duplicate aspect ids: {duplicate}{of}")
    return tuple(value)


def model_run(entry, aspect_ids: tuple, seed: int) -> tuple[ForecasterSpec, tuple]:
    """The spec and aspect ids of one ``models`` entry, its params' defaults filled in.

    The entry's ``aspects`` and ``seed`` default to ``aspect_ids`` and
    ``seed``, the config's, and its ``label`` to its kind. A bad entry fails
    ``config``, naming the model. A config load reads each entry here, once.
    """
    if not isinstance(entry, dict) or entry.get("kind") not in SPECS:
        raise StageError("config", f"model entry needs a kind out of {list(SPECS)}: {entry!r}")
    of = f" of model {entry.get('label', entry['kind'])!r}"
    params = validate(MODEL_ENTRY_KEYS + keys(SPECS[entry["kind"]]), entry, partial(StageError, "config"), of)
    if "aspects" in params:
        aspect_ids = resolve_aspects(params.pop("aspects"), of)
    spec = ForecasterSpec(params.pop("kind"), label=params.pop("label", ""), seed=params.pop("seed", seed),
                          params=params)
    return spec, aspect_ids


@contextmanager
def stage(name: str, subject: str = ""):
    """An ``OSError`` or ``ValueError`` inside fails stage ``name``, its message after ``subject``.

    Any other exception is a program fault and propagates as it is.
    """
    try:
        yield
    except UnicodeDecodeError as e:
        raise StageError(name, f"{subject}not valid UTF-8 ({e.reason})") from None
    except (OSError, ValueError) as e:
        raise StageError(name, f"{subject}{e}") from None
    except RecursionError:  # json's decoders are the only recursion in the program
        raise StageError(name, f"{subject}nested too deeply to parse") from None


def read_input(name: str, path, parse):
    """``parse`` of the bytes of the file at ``path``.

    A file that cannot be read, is not UTF-8 or does not parse fails stage
    ``name`` with an error that names ``path``.
    """
    with stage(name, f"{path}: "):
        return parse(Path(path).read_bytes())


class _ReviewStream:
    """The reviews of an open file, parsed as a single pass reads them.

    The pass closes the file, at its end or at the first error, which fails
    ``ingest`` as ``read_input`` would; ``close`` closes it unread.
    """

    def __init__(self, file, path, format):
        self._file, self._path, self._format = file, path, format

    def __iter__(self):
        with self._file, stage("ingest", f"{self._path}: "):
            yield from corpus_mod.iter_reviews(self._file, self._format)

    def close(self):
        self._file.close()


def load_inputs(cfg: PipelineConfig):
    """Reviews, revenue, vocabulary, lexicon, and heuristics per config.

    The reviews come as a one-pass stream over the open reviews file, parsed
    as they are read (``list`` it to keep them): a reviews file that cannot
    be opened fails here, before any other input is read, but a bad record
    fails ``ingest`` only when the stream reaches it. The other inputs are
    read and parsed here. A reviews path ending in ``.csv`` is read as CSV,
    any other as JSONL.
    """
    with stage("ingest", f"{cfg.reviews}: "):
        reviews_file = Path(cfg.reviews).open("rb")
    try:
        revenue = read_input("ingest", cfg.revenue, corpus_mod.parse_revenue)
        vocab = read_input("ingest", cfg.vocabulary, aspects_mod.load_vocabulary)
        lexicon = read_input("ingest", cfg.lexicon, sentiment_mod.load_lexicon)
        heuristics = (read_input("ingest", cfg.heuristics, sentiment_mod.HeuristicConfig.from_json)
                      if cfg.heuristics else sentiment_mod.HeuristicConfig())
    except BaseException:
        reviews_file.close()
        raise
    reviews_format = "csv" if Path(cfg.reviews).suffix == ".csv" else "jsonl"
    reviews = _ReviewStream(reviews_file, cfg.reviews, reviews_format)
    return reviews, revenue, vocab, lexicon, heuristics


# Reviews are read, matched and scored this many at a time. Parsing a block,
# then scoring it, takes less CPU than parsing and scoring one review at a
# time: on a 2-vCPU virtual machine, alternating made `aspectcast pipeline` on
# 20,000 generated reviews 5-10% slower. Scoring a block with one
# ``analyze_many`` call spreads its NumPy passes over the block's texts.
READ_AHEAD = 256


def _blocks(reviews):
    """``reviews`` as lists of at most ``READ_AHEAD``, in order."""
    reviews = iter(reviews)
    while block := list(islice(reviews, READ_AHEAD)):
        yield block


def score_reviews(reviews, lexicon, heuristics):
    """Sentiment scores of every review, in input order (``aspectcast sentiment``)."""
    scores = []
    for block in _blocks(reviews):
        columns = sentiment_mod.analyze_many([r.text for r in block], lexicon, heuristics)
        scores += map(sentiment_mod.SentimentScores, *(c.tolist() for c in columns))
    return scores


def build_perceptions(reviews, vocab, lexicon, heuristics):
    """Per-(aspect, quarter) perception records over the matched reviews.

    A block's texts are split and looked up once, for matching and scoring
    both, and a review is scored only when it matches an aspect, because no
    other review reaches a perception.
    """
    aspect_bits = 1 << vocab.phrase_table.aspect  # each phrase's aspect, as a bit
    quarters: dict = {}  # quarter -> its id, in order of first appearance
    kept = []  # per block, of the matched reviews: quarter ids, aspect bits, compounds
    for block in _blocks(reviews):
        texts = [r.text for r in block]
        ids, counts = tokens_mod.token_ids(texts)
        text, phrase = aspects_mod.match_block(ids, counts, vocab)
        aspects = np.zeros(len(block), np.intp)
        np.bitwise_or.at(aspects, text, aspect_bits[phrase])
        matched = aspects != 0
        rows = matched.tolist()
        compounds = sentiment_mod.score_ids(ids[np.repeat(matched, counts)], counts[matched],
                                            list(compress(texts, rows)), lexicon, heuristics)[3]
        quarter = np.fromiter((quarters.setdefault(r.quarter, len(quarters)) for r in compress(block, rows)),
                              np.intp, len(compounds))
        kept.append((quarter, aspects[matched], compounds))
    if not kept:
        return []
    quarter, aspects, compounds = (np.concatenate(column) for column in zip(*kept))
    by_id = list(quarters)
    rank = np.argsort([quarters[q] for q in sorted(quarters)])[quarter]  # each review's quarter, in order
    records = []
    for aspect_id in sorted(aspects_mod.ASPECT_SET_16):
        rows = np.flatnonzero(aspects & (1 << aspects_mod.ASPECT_SET_16.index(aspect_id)))
        rows = rows[np.argsort(rank[rows], kind="stable")]  # a cell's compounds stay in review order
        for cell in np.split(rows, np.flatnonzero(np.diff(rank[rows])) + 1):
            if cell.size:
                records.append(features_mod.perception(aspect_id, by_id[quarter[cell[0]]],
                                                       compounds[cell].tolist()))
    return records


def build_features(reviews, revenue, vocab, lexicon, heuristics):
    """Revenue growth and per-(aspect, quarter) perceptions: every text stage, run once.

    Takes ``load_inputs``'s tuple; any aspect set's matrix is assembled from
    the result by ``build_matrix``.
    """
    with stage("features"):
        # reviews first: a stream's errors come before the revenue's, and it is
        # never left unread
        perceptions = build_perceptions(reviews, vocab, lexicon, heuristics)
        growth = features_mod.revenue_growth(revenue)
    return growth, perceptions


def build_matrix(cfg: PipelineConfig, growth: GrowthSeries, perceptions,
                 aspect_ids=None) -> FeatureMatrix:
    """The design matrix of ``aspect_ids`` (default ``cfg.aspects``; ``()`` is lag only)."""
    with stage("features"):
        return features_mod.assemble(perceptions, growth, cfg.aspects if aspect_ids is None else aspect_ids,
                                     cfg.include_lag)


def run_pipeline(cfg: PipelineConfig) -> list[EvalRow]:
    """Full experiment: every configured model backtested on the same split, one row each."""
    growth, perceptions = build_features(*load_inputs(cfg))
    matrices: dict = {}  # one per aspect set: assembling is not free
    rows = []
    for spec, aspect_ids in cfg.models:
        if aspect_ids not in matrices:
            matrices[aspect_ids] = build_matrix(cfg, growth, perceptions, aspect_ids)
        with stage("fit", f"model {spec.label!r}: "):  # backtest's errors do not name the model
            rows.append(backtest(spec, matrices[aspect_ids], cfg.split_ratio, growth=growth))
    return rows
