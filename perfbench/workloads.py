"""The two benchmark workloads: their seeded inputs, the model-sweep spec
grid and the staged CLI command list.

Inputs are written as files into a work directory; the program under test
only ever sees those files. Only ``text-unique`` depends on the seed:
``model-sweep`` runs the bundled corpus, so the seed changes nothing there
and run-to-run spread is measurement noise alone.
"""

from __future__ import annotations

import json
import random
import shutil
from pathlib import Path

WORKLOADS = ("text-unique", "model-sweep")

WHY = {
    "text-unique": "20,000 distinct seeded reviews: no work is shared between reviews, so only "
                   "per-token and per-phrase gains in the text stages show and caching cannot help",
    "model-sweep": "86 model specs, then the 16 staged CLI commands, on the bundled corpus: models, "
                   "optimize, evaluation and the CLI do the work, so a text-stage change should not "
                   "move it",
}

UNIQUE_REVIEWS = 20_000
# text-unique corpora whose report digests pins.json holds: seeds 0..PINNED_SEEDS-1
# and the held-out seed, which is reserved for checking claims and never used
# while tuning the benchmark or a change. Any other seed runs the corpus of
# ``seed % PINNED_SEEDS``, so every run's reports are checked against a pin.
PINNED_SEEDS = 64
HELD_OUT_SEED = 4099

# Data files of the package, relative to the checkout root.
DATA = Path("src/aspectcast/data")
BUNDLED_REVIEWS = DATA / "synthetic" / "reviews.jsonl"
BUNDLED_REVENUE = DATA / "synthetic" / "revenue.csv"
LEXICON = DATA / "sentiment_lexicon.txt"
VOCABULARY = DATA / "default_vocabulary.json"

KINDS = ("lr", "mlp", "svr", "arima")


def sweep_specs() -> list[dict]:
    """The 86 model-sweep specs, in report order."""
    specs = []
    for p in range(4):
        for d in range(2):
            for q in range(3):
                specs.append({"kind": "arima", "label": f"ARIMA({p},{d},{q})", "orders": [p, d, q]})
    for selection in ("all", "backward_stepwise"):
        for aspects in (13, 16):
            specs.append({"kind": "lr", "label": f"LR-{selection}-{aspects}",
                          "selection": selection, "aspects": aspects})
    for hidden in (2, 5, 10, 20):
        for seed in range(5):
            for aspects in (13, 16):
                specs.append({"kind": "mlp", "label": f"ANN-h{hidden}-s{seed}-{aspects}",
                              "hidden_size": hidden, "seed": seed, "aspects": aspects})
    for gamma in (0.05, 0.5, 5.0):
        for nu in (0.2, 0.5, 0.8):
            for aspects in (13, 16):
                specs.append({"kind": "svr", "label": f"SVM-g{gamma}-nu{nu}-{aspects}",
                              "gamma": gamma, "nu": nu, "aspects": aspects})
    return specs


def cli_commands() -> list[list[str]]:
    """The 16 staged CLI commands of ``model-sweep``; ``{config}`` and ``{out}`` are filled in per run."""
    features = "{out}/features/features.csv"
    commands = [
        ["ingest", "--config", "{config}", "--out", "{out}/ingest"],
        ["sentiment", "--config", "{config}", "--out", "{out}/sentiment"],
        ["features", "--config", "{config}", "--out", "{out}/features"],
    ]
    for kind in KINDS:
        out = "{out}/" + kind
        commands += [
            ["fit", "--config", "{config}", "--features", features, "--kind", kind, "--out", out],
            ["predict", "--config", "{config}", "--model", f"{out}/model_{kind}.json",
             "--features", features, "--out", out],
            ["evaluate", "--config", "{config}", "--features", features,
             "--predictions", f"{out}/predictions.csv", "--label", kind, "--out", out],
        ]
    commands.append(["pipeline", "--config", "{config}", "--out", "{out}/pipeline"])
    return commands


# --- text-unique generator -------------------------------------------------

_BOOSTERS = ["very", "really", "extremely", "absolutely", "incredibly", "totally",
             "highly", "truly", "so", "especially"]
_DAMPENERS = ["slightly", "somewhat", "barely", "hardly", "fairly", "moderately", "partly"]
_NEGATIONS = ["not", "never", "no", "don't", "isn't", "without", "cannot", "wasn't"]
_FILLER = """
we our team company department group they it this that the a an of to in on for with
from at by as after before during since while about over under again each every other
new old last next first second third week month year quarter day morning evening time
platform cloud provider system application project region account server network database
storage cluster instance engineer manager user tenant vendor contract plan tier team's
workloads pipeline deployment environment stack tooling api portal ticket request report
review meeting call email office site datacenter rack machine host container image job
batch queue stream file bucket key token policy role group project's process rollout
moved ran used tried tested checked opened closed noticed found saw called asked told
wrote read built shipped planned started finished kept made took gave got put set
is was are were has have had will would could should might may can do does did been
some many most few all both either several any much more less enough quite rather
here there now then today yesterday tomorrow later soon often usually always sometimes
""".split()


def _phrase_tokens(phrases) -> set[str]:
    tokens = set()
    for phrase in phrases:
        for part in phrase.replace("-", " ").split():
            tokens.add(part)
    return tokens


def _load_lexicon(root: Path) -> dict[str, float]:
    lexicon = {}
    for line in (root / LEXICON).read_text("utf-8").splitlines():
        if line.strip():
            token, valence = line.split("\t")[:2]
            lexicon[token.strip().lower()] = float(valence)
    return lexicon


def _growth_by_quarter(revenue_csv: str) -> dict[str, float]:
    rows = [line.split(",") for line in revenue_csv.strip().splitlines()[1:]]
    values = [(q, float(v)) for q, v in rows]
    return {q: (cur - prev) / prev for (_, prev), (q, cur) in zip(values, values[1:])}


def _unique_texts(rng: random.Random, root: Path, quarters: list[str],
                  growth: dict[str, float]) -> list[tuple[str, str]]:
    lexicon = _load_lexicon(root)
    vocab = json.loads((root / VOCABULARY).read_text("utf-8"))
    phrases = sorted({p for entries in vocab.values() for p in entries})
    reserved = _phrase_tokens(phrases) | set(lexicon) | {"but"}
    filler = sorted({w for w in _FILLER if w not in reserved})
    positive = sorted(w for w, v in lexicon.items() if v > 0 and w not in _phrase_tokens(phrases))
    negative = sorted(w for w, v in lexicon.items() if v < 0 and w not in _phrase_tokens(phrases))
    mean_growth = sum(growth.values()) / len(growth)

    def word(tone_positive: float) -> list[str]:
        out = []
        roll = rng.random()
        if roll < 0.2:
            out.append(rng.choice(_BOOSTERS))
        elif roll < 0.3:
            out.append(rng.choice(_DAMPENERS))
        if rng.random() < 0.15:
            out.insert(0, rng.choice(_NEGATIONS))
        out.append(rng.choice(positive if rng.random() < tone_positive else negative))
        return out

    def sentence(n_tokens: int, tone_positive: float, phrase_list: list[str]) -> str:
        tokens = [rng.choice(filler) for _ in range(n_tokens)]
        for _ in range(rng.randint(1, 2)):
            pos = rng.randrange(len(tokens) + 1)
            tokens[pos:pos] = word(tone_positive)
        for phrase in phrase_list:
            pos = rng.randrange(len(tokens) + 1)
            tokens[pos:pos] = phrase.split()
        for i, token in enumerate(tokens):
            if rng.random() < 0.03:
                tokens[i] = token.upper()
        tokens[0] = tokens[0][:1].upper() + tokens[0][1:]
        end = rng.random()
        mark = "!" * rng.randint(1, 3) if end < 0.15 else "?" * rng.randint(1, 2) if end < 0.25 else "."
        return " ".join(tokens) + mark

    texts: list[tuple[str, str]] = []
    seen: set[str] = set()
    per_quarter = UNIQUE_REVIEWS // len(quarters)
    for quarter in quarters:
        tone = min(0.85, max(0.15, 0.55 + 4.0 * (growth[quarter] - mean_growth)))
        made = 0
        while made < per_quarter:
            n_sentences = rng.randint(2, 5)
            n_phrases = rng.choices((0, 1, 2, 3), weights=(15, 40, 30, 15))[0]
            slots = [[] for _ in range(n_sentences)]
            for phrase in rng.sample(phrases, n_phrases):
                slots[rng.randrange(n_sentences)].append(phrase)
            budget = rng.randint(20, 30)
            sizes = [max(2, budget // n_sentences) for _ in range(n_sentences)]
            parts = [sentence(size, tone, slot) for size, slot in zip(sizes, slots)]
            if rng.random() < 0.25:
                i = rng.randrange(1, n_sentences)
                parts[i] = "But " + parts[i][:1].lower() + parts[i][1:]
            text = " ".join(parts)
            if text in seen:
                continue
            seen.add(text)
            texts.append((quarter, text))
            made += 1
    return texts


# --- input files ------------------------------------------------------------

def corpus_seed(seed: int) -> int:
    """The pinned text-unique corpus that ``--seed`` selects."""
    return seed if seed == HELD_OUT_SEED else seed % PINNED_SEEDS


def _write_jsonl(path: Path, records: list[dict]) -> None:
    path.write_text("".join(json.dumps(r) + "\n" for r in records), "utf-8")


def generate(workload: str, seed: int, root: Path, inputs: Path) -> dict:
    """Write the workload's input files into ``inputs``; return its input properties."""
    if inputs.exists():
        shutil.rmtree(inputs)
    inputs.mkdir(parents=True)
    revenue_csv = (root / BUNDLED_REVENUE).read_text("utf-8")
    (inputs / "revenue.csv").write_text(revenue_csv, "utf-8")
    bundled = [json.loads(line) for line in (root / BUNDLED_REVIEWS).read_text("utf-8").splitlines()
               if line.strip()]
    config: dict = {"reviews": "reviews.jsonl", "revenue": "revenue.csv"}
    specs = 7  # the default models of `aspectcast pipeline`

    if workload == "text-unique":
        growth = _growth_by_quarter(revenue_csv)
        texts = _unique_texts(random.Random(corpus_seed(seed)), root, sorted(growth), growth)
        records = [{"id": f"u{i:05d}", "quarter": q, "text": t} for i, (q, t) in enumerate(texts)]
    elif workload == "model-sweep":
        records = bundled
        # the staged commands run the default models, so they get a config of their own
        (inputs / "staged.json").write_text(json.dumps(config, indent=1), "utf-8")
        config["models"] = sweep_specs()
        # the sweep's rows, then the staged pipeline's default models and one staged fit per kind
        specs = len(config["models"]) + specs + len(KINDS)
    else:
        raise ValueError(f"unknown workload: {workload!r}")

    _write_jsonl(inputs / "reviews.jsonl", records)
    (inputs / "config.json").write_text(json.dumps(config, indent=1), "utf-8")
    texts = [r["text"] for r in records]
    return {
        "reviews": len(records),
        "distinct_texts": len(set(texts)),
        "mean_tokens_per_review": sum(len(t.split()) for t in texts) / len(texts),
        "quarters": len({r["quarter"] for r in records}),
        "specs": specs,
    }
