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
from .evaluation import EvalReport, backtest
from .features import SPLIT_RATIO, FeatureMatrix, GrowthSeries
from .models import SPECS, ForecasterSpec
from .schema import Key, json_object, key, keys, validate

__all__ = ["PipelineConfig", "StageError", "read_input", "load_inputs", "score_reviews",
           "build_perceptions", "build_features", "build_matrix", "run_pipeline",
           "DEFAULT_MODELS"]


class StageError(RuntimeError):
    """Failure attributed to one named pipeline stage."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"[{stage}] {message}")
        self.stage = stage


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


@dataclass
class PipelineConfig:
    """A run's settings, one config key per field; a null input path means the bundled default."""

    reviews_path: Path | None = key(None, "path", name="reviews")
    revenue_path: Path | None = key(None, "path", name="revenue")
    vocabulary_path: Path | None = key(None, "path", name="vocabulary")
    lexicon_path: Path | None = key(None, "path", name="lexicon")
    heuristics_path: Path | None = key(None, "path", name="heuristics")
    aspect_set: object = key(16, "aspects", name="aspects")
    include_lag: bool = key(True, "bool")
    split_ratio: tuple = SPLIT_RATIO.as_field()
    seed: int = key(0, "int")
    models: list = key(DEFAULT_MODELS, "models")
    out_dir: Path = key("out", "path", name="out")

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
        error = partial(StageError, "config")
        values = validate(keys(cls), merged, error)
        resolve_aspect_set(values["aspects"])
        for entry in values["models"]:
            if not isinstance(entry, dict) or entry.get("kind") not in SPECS:
                raise error(f"model entry needs a kind out of {list(SPECS)}: {entry!r}")
            of = f" of model {entry.get('label', entry['kind'])!r}"
            validate(MODEL_ENTRY_KEYS + keys(SPECS[entry["kind"]]), entry, error, of)
            if "aspects" in entry:
                resolve_aspect_set(entry["aspects"], of)

        def resolve(name, bundled=None):  # an input path is relative to the config file
            if values[name] is None:
                return bundled and Path(str(resources.files("aspectcast").joinpath(f"data/{bundled}")))
            p = Path(values[name])
            return base / p if base is not None and not p.is_absolute() else p

        return cls(
            reviews_path=resolve("reviews", "synthetic/reviews.jsonl"),
            revenue_path=resolve("revenue", "synthetic/revenue.csv"),
            vocabulary_path=resolve("vocabulary", "default_vocabulary.json"),
            lexicon_path=resolve("lexicon", "sentiment_lexicon.txt"),
            heuristics_path=resolve("heuristics"),
            aspect_set=values["aspects"],
            include_lag=values["include_lag"],
            split_ratio=tuple(values["split_ratio"]),
            seed=values["seed"],
            models=[dict(m) for m in values["models"]],
            out_dir=Path(values["out"]),
        )

    @classmethod
    def defaults(cls, **overrides) -> "PipelineConfig":
        return cls.from_dict({}, overrides)


# a models entry's keys besides its kind's params; aspects and seed default to the config's
MODEL_ENTRY_KEYS = (
    Key("string", choices=tuple(SPECS), name="kind"),
    Key("string", name="label"),
    *(replace(k, default=MISSING) for k in keys(PipelineConfig) if k.name in ("aspects", "seed")),
)


def resolve_aspect_set(value, of: str = "") -> list:
    """The aspect ids an ``aspects`` value names; an id outside the 16, or named twice, fails ``config``."""
    if value in (13, "13"):
        return list(aspects_mod.ASPECT_SET_13)
    if value in (16, "16"):
        return list(aspects_mod.ASPECT_SET_16)
    if isinstance(value, (list, tuple)):
        unknown = [a for a in value if a not in aspects_mod.ASPECT_SET_16]
        if unknown:
            raise StageError("config", f"unknown aspect ids: {unknown}{of}")
        duplicate = sorted({a for a in value if value.count(a) > 1})
        if duplicate:
            raise StageError("config", f"duplicate aspect ids: {duplicate}{of}")
        return list(value)
    raise StageError("config", f"bad aspect set: {value!r}")


@contextmanager
def _input_errors(stage: str, path):
    """Reading or parsing the file at ``path`` fails ``stage`` naming ``path``."""
    try:
        yield
    except UnicodeDecodeError as e:
        raise StageError(stage, f"{path}: not valid UTF-8 ({e.reason})") from None
    except (OSError, ValueError) as e:
        raise StageError(stage, f"{path}: {e}") from None
    except RecursionError:  # json's decoders recurse once per level of nesting
        raise StageError(stage, f"{path}: nested too deeply to parse") from None


def read_input(stage: str, path, parse):
    """``parse`` of the bytes of the file at ``path``.

    A file that cannot be read, is not UTF-8 or does not parse fails
    ``stage`` with an error that names ``path``.
    """
    with _input_errors(stage, path):
        return parse(Path(path).read_bytes())


class _ReviewStream:
    """The reviews of an open file, parsed as a single pass reads them.

    The pass closes the file, at its end or at the first error, which fails
    ``ingest`` as ``read_input`` would; ``close`` closes it unread.
    """

    def __init__(self, file, path, format):
        self._file, self._path, self._format = file, path, format

    def __iter__(self):
        with self._file, _input_errors("ingest", self._path):
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
    with _input_errors("ingest", cfg.reviews_path):
        reviews_file = Path(cfg.reviews_path).open("rb")
    try:
        revenue = read_input("ingest", cfg.revenue_path, corpus_mod.parse_revenue)
        vocab = read_input("ingest", cfg.vocabulary_path, aspects_mod.load_vocabulary)
        lexicon = read_input("ingest", cfg.lexicon_path, sentiment_mod.load_lexicon)
        heuristics = (read_input("ingest", cfg.heuristics_path, sentiment_mod.HeuristicConfig.from_json)
                      if cfg.heuristics_path else sentiment_mod.HeuristicConfig())
    except BaseException:
        reviews_file.close()
        raise
    reviews_format = "csv" if Path(cfg.reviews_path).suffix == ".csv" else "jsonl"
    reviews = _ReviewStream(reviews_file, cfg.reviews_path, reviews_format)
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
    try:
        # reviews first: a stream's errors come before the revenue's, and it is
        # never left unread
        perceptions = build_perceptions(reviews, vocab, lexicon, heuristics)
        growth = features_mod.revenue_growth(revenue)
    except ValueError as e:  # FeatureError included
        raise StageError("features", str(e)) from None
    return growth, perceptions


def build_matrix(cfg: PipelineConfig, growth: GrowthSeries, perceptions,
                 aspect_set=None) -> FeatureMatrix:
    """The design matrix of ``aspect_set`` (default ``cfg.aspect_set``)."""
    aspect_ids = resolve_aspect_set(aspect_set if aspect_set is not None else cfg.aspect_set)
    try:
        return features_mod.assemble(perceptions, growth, aspect_ids, cfg.include_lag)
    except ValueError as e:
        raise StageError("features", str(e)) from None


def run_pipeline(cfg: PipelineConfig) -> EvalReport:
    """Full experiment: every configured model backtested on the same split."""
    growth, perceptions = build_features(*load_inputs(cfg))
    matrices: dict = {}  # one per aspect set: assembling is not free
    report = EvalReport()
    for entry in cfg.models:
        entry = dict(entry)
        kind = entry.pop("kind")
        label = entry.pop("label", kind)
        aspect_ids = tuple(resolve_aspect_set(entry.pop("aspects", cfg.aspect_set)))
        seed = entry.pop("seed", cfg.seed)
        spec = ForecasterSpec.make(kind, label=label, seed=seed, **entry)
        if aspect_ids not in matrices:
            matrices[aspect_ids] = build_matrix(cfg, growth, perceptions, aspect_ids)
        try:
            row = backtest(spec, matrices[aspect_ids], cfg.split_ratio, growth=growth)
        except Exception as e:  # backtest's errors do not name the model
            raise StageError("fit", f"model {label!r}: {e}") from None
        report.rows.append(row)
    return report
