import csv
import hashlib
import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

import aspectcast
from aspectcast import cli, pipeline
from aspectcast.cli import build_parser, main
from aspectcast.corpus import parse_reviews
from aspectcast.pipeline import PipelineConfig

REPORT_FILES = ("report.csv", "report.json", "plot_data.csv")

# sha256 of the default `aspectcast pipeline` reports on the bundled corpus
BUNDLED_DIGESTS = {
    "report.csv": "8387b0498b26b7afee5bd4c587c64fb556a04413af581d97ad50ccdbdac5413b",
    "report.json": "fd9fb4e40b745640e3c21db8939e2c6f7937a7ec49266fe155b5aaca1e42cd2c",
    "plot_data.csv": "1f99e9d061b49a3f4d4780fa7df3c1e592c0844017ba73926867fba91a049bb6",
}
# sha256 of each kind's `aspectcast fit` model file, default params, on the
# bundled corpus's `aspectcast features` matrix
MODEL_DIGESTS = {
    "lr": "5b35f1edb87630753e821e8923a8f81e30ba192dc14f60c9bf5b7650b373327e",
    "mlp": "036acb1522be13f3ed1883c5319a154ee77e305909669d85d63bd20982571a64",
    "svr": "c455f6a4f5ed731ded6a2b18a16444384d6934e39c9fe2b27570a57b5a2bc086",
    "arima": "d109836b4329c7000e432d79145992ec13be434a27edd45cb7d070a5fde29768",
}
# sha256 of every file the staged commands write on the bundled corpus: ingest,
# sentiment and features, then per kind (under <kind>/) predict and evaluate
# with a default-params model fitted on that `features.csv`
STAGED_DIGESTS = {
    "reviews.jsonl": "c712ba69c37011eb29ceb4166b9ce1568a05f1c733e7abc71da55ce0c3ad0369",
    "revenue.csv": "c6ab3bde875955d6f3b7ce0e276e0b4aea7199550a274ddb93752387a347e86c",
    "sentiment.csv": "acc6bca1ec586162d8a6bae0390a6785980cfc0d1e20a3e8ce57e1bdf18bfb19",
    "features.csv": "1f961b33f406ea3deffb4716354ebf561002c1e37315d1e2b576af083a4cfbf2",
    "lr/predictions.csv": "362744768c0f5d6e1845592468e8bed3ea1ab28c728c27e3cc778541c96af6e4",
    "lr/report.csv": "8c6a99980289b056331c1bad0f7ba9ac8d7c82aa688b5cf34c6e3cc878ab7c11",
    "lr/report.json": "2f827429c31e430102e12c160f81b885a13a0d10accab64395a50335ca204478",
    "mlp/predictions.csv": "4aa1b393449591323cc6ca5420d912c044e959d8fa87ff1f8826803fa3a259a5",
    "mlp/report.csv": "7b4abe171619afd69a1b73c521c1c5246a18ed4d2cbba561b8ef9b54aaa99b7e",
    "mlp/report.json": "2a37708e9a74eaba676beb4e80ffe19890b1f7622a5c521e2ef46a610398912a",
    "svr/predictions.csv": "2f4c3326c30679297e8c364425bc8b419f5f45a818610dfbd6aab92043c55059",
    "svr/report.csv": "20afed623463338c857d50b656ab4cf9dd8c02a8bf58e5b2fb638a67db347054",
    "svr/report.json": "a4af5a073a3e16945f2db27a6a86894cb3b9f2e0d941d132fdbadc5fd88359eb",
    "arima/predictions.csv": "74c32a6dc789b7058d9debe14ee2d21adc125006fcbf4d91c32dcb277f19cfcc",
    "arima/report.csv": "dcfe697b6a87f3f27ecdc466e793b6e9bfff68b964ec0017c46ca06d39020c6c",
    "arima/report.json": "dc38b53a4517a4a4d6069d547d60bb44f02e51e4f234d4dd355735e0e9315bbe",
}

# a param of the wrong type or out of range, and the key its error names
BAD_PARAMS = [
    ("mlp", {"hidden_size": "10"}, "hidden_size"),
    ("mlp", {"max_epochs": 2.5}, "max_epochs"),
    ("mlp", {"validation_patience": -3}, "validation_patience"),
    ("arima", {"orders": [1, 0]}, "orders"),
    ("arima", {"orders": [True, 0, 0]}, "orders"),
    ("svr", {"gamma": "5"}, "gamma"),
    ("svr", {"gamma": float("inf")}, "gamma"),
    ("svr", {"C": float("nan")}, "C"),
    ("svr", {"nu": True}, "nu"),
    ("lr", {"selection": "all", "threshold": "x"}, "threshold"),
    ("mlp", {"lambda0": 1e13}, "lambda0"),  # above lm_step's largest damping, no step is taken
]


def write_small_corpus(tmp_path, quarters=8):
    """A tiny but valid corpus: 2 reviews per quarter plus a revenue series."""
    texts = [
        "Great cost savings and lower cost, really happy with the price.",
        "Security concerns remain, the data protection felt weak and risky.",
    ]
    lines = []
    year, qi = 2016, 1
    for i in range(quarters):
        for j, text in enumerate(texts):
            lines.append(json.dumps({"id": f"r{i}-{j}", "quarter": f"{year}Q{qi}", "text": text}))
        qi += 1
        if qi == 5:
            year, qi = year + 1, 1
    reviews = tmp_path / "reviews.jsonl"
    reviews.write_text("\n".join(lines) + "\n")

    revenue = tmp_path / "revenue.csv"
    rows = ["quarter,revenue"]
    year, qi, value = 2016, 1, 100.0
    for i in range(quarters):
        rows.append(f"{year}Q{qi},{value}")
        value *= 1.0 + 0.02 * ((-1) ** i)
        qi += 1
        if qi == 5:
            year, qi = year + 1, 1
    revenue.write_text("\n".join(rows) + "\n")

    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "reviews": "reviews.jsonl",
        "revenue": "revenue.csv",
        "models": [{"kind": "arima", "label": "ARIMA", "orders": [1, 0, 0]}],
    }))
    return config


class TestStages:
    def test_ingest(self, tmp_path):
        config = write_small_corpus(tmp_path)
        out = tmp_path / "out"
        assert main(["ingest", "--config", str(config), "--out", str(out)]) == 0
        assert (out / "reviews.jsonl").exists()
        assert (out / "revenue.csv").read_text().splitlines()[0] == "quarter,revenue"

    def test_sentiment(self, tmp_path):
        config = write_small_corpus(tmp_path)
        out = tmp_path / "out"
        assert main(["sentiment", "--config", str(config), "--out", str(out)]) == 0
        lines = (out / "sentiment.csv").read_text().splitlines()
        assert lines[0] == "id,quarter,pos,neu,neg,compound"
        assert len(lines) == 17  # header + 16 reviews

    def test_features(self, tmp_path):
        config = write_small_corpus(tmp_path)
        out = tmp_path / "out"
        assert main(["features", "--config", str(config), "--out", str(out)]) == 0
        lines = (out / "features.csv").read_text().splitlines()
        header = lines[0].split(",")
        assert header[0] == "quarter"
        assert header[-1] == "target_growth"
        assert "lagged_growth" in header
        # 8 quarters -> 7 growth values -> 6 rows once the lag drops the first
        assert len(lines) == 7

    def test_features_of_an_aspect_id_list(self, tmp_path):
        config = write_small_corpus(tmp_path)
        aspects = ["security_concerns", "cost_savings"]
        config.write_text(json.dumps(dict(json.loads(config.read_text()), aspects=aspects)))
        out = tmp_path / "out"
        assert main(["features", "--config", str(config), "--out", str(out)]) == 0
        lines = (out / "features.csv").read_text().splitlines()
        assert lines[0] == "quarter,security_concerns,cost_savings,lagged_growth,target_growth"
        assert all(float(row.split(",")[2]) > 0 for row in lines[1:])  # each quarter praises cost

    def test_parser_reuse_leaks_no_flags(self, tmp_path):
        out = tmp_path / "out"
        assert main(["features", "--no-lag", "--aspects", "13", "--out", str(out / "13")]) == 0
        assert main(["features", "--out", str(out / "16")]) == 0
        assert build_parser() is build_parser()
        narrow = (out / "13" / "features.csv").read_text().splitlines()[0].split(",")
        header = (out / "16" / "features.csv").read_text().splitlines()[0].split(",")
        assert "lagged_growth" not in narrow and "after_sales_experience" not in narrow
        assert "lagged_growth" in header and "after_sales_experience" in header
        assert len(header) == 1 + 16 + 1 + 1  # quarter, aspects, lag, target

    def test_each_command_takes_only_the_overrides_it_reads(self):
        (commands,) = (a.choices for a in build_parser()._actions if a.dest == "command")
        flags = {name: [a.option_strings[-1] for a in p._actions if a.dest != "help" and a.option_strings]
                 for name, p in commands.items()}
        assert flags == {
            "ingest": ["--config", "--out"],
            "sentiment": ["--config", "--out"],
            "features": ["--config", "--out", "--aspects", "--no-lag"],
            "pipeline": ["--config", "--out", "--seed", "--aspects", "--no-lag"],
            "fit": ["--config", "--out", "--seed", "--features", "--kind", "--params"],
            "predict": ["--config", "--out", "--model", "--features"],
            "evaluate": ["--config", "--out", "--features", "--predictions", "--label"],
        }
        assert sum(map(len, flags.values())) == 28

    @pytest.mark.parametrize("command, flag", [
        *((command, flag) for command in ("ingest", "sentiment", "predict", "evaluate")
          for flag in ("--seed=1", "--aspects=13", "--no-lag")),
        ("features", "--seed=1"), ("fit", "--aspects=13"), ("fit", "--no-lag"),
    ])
    def test_flag_the_command_does_not_read(self, tmp_path, capsys, command, flag):
        required = {
            "fit": ["--features", "f.csv", "--kind", "lr"],
            "predict": ["--model", "m.json", "--features", "f.csv"],
            "evaluate": ["--features", "f.csv", "--predictions", "p.csv"],
        }.get(command, [])
        with pytest.raises(SystemExit) as exited:
            main([command, *required, flag, "--out", str(tmp_path / "out")])
        assert exited.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, marked", [
        ("fit", "features"), ("predict", "features"), ("evaluate", "predictions"),
    ])
    def test_input_with_byte_order_mark(self, tmp_path, command, marked):
        # a spreadsheet "CSV UTF-8" export opens with one; it is dropped
        config = write_small_corpus(tmp_path)
        out = tmp_path / "out"
        main(["features", "--config", str(config), "--out", str(out)])
        inputs = {"features": out / "features.csv", "predictions": out / "predictions.csv"}
        assert main(["fit", "--features", str(inputs["features"]), "--kind", "svr", "--out", str(out)]) == 0
        assert main(["predict", "--model", str(out / "model_svr.json"), "--features", str(inputs["features"]),
                     "--out", str(out)]) == 0

        def written(name):
            args = {
                "fit": ["--kind", "svr"],
                "predict": ["--model", str(out / "model_svr.json")],
                "evaluate": ["--predictions", str(inputs["predictions"])],
            }[command]
            assert main([command, "--features", str(inputs["features"]), *args,
                         "--out", str(tmp_path / name)]) == 0
            return {path.name: path.read_bytes() for path in (tmp_path / name).iterdir()}

        plain = written("plain")
        inputs[marked] = tmp_path / "marked.csv"
        inputs[marked].write_bytes(b"\xef\xbb\xbf" + (out / f"{marked}.csv").read_bytes())
        assert written("marked") == plain

    @pytest.mark.parametrize("marked", ["config", "vocabulary", "lexicon", "heuristics", "model"])
    def test_json_input_or_lexicon_with_byte_order_mark(self, tmp_path, marked):
        # an editor may save one; it is dropped, as from the CSV inputs
        config = write_small_corpus(tmp_path)
        bundled = resources.files("aspectcast").joinpath("data")
        files = {"config": config, "vocabulary": tmp_path / "vocabulary.json",
                 "lexicon": tmp_path / "lexicon.txt", "heuristics": tmp_path / "heuristics.json",
                 "model": tmp_path / "out" / "model_svr.json"}
        files["vocabulary"].write_bytes(bundled.joinpath("default_vocabulary.json").read_bytes())
        files["lexicon"].write_bytes(bundled.joinpath("sentiment_lexicon.txt").read_bytes())
        files["heuristics"].write_text('{"caps_boost": 0.5}')
        config.write_text(json.dumps(dict(json.loads(config.read_text()), vocabulary="vocabulary.json",
                                          lexicon="lexicon.txt", heuristics="heuristics.json")))
        features = tmp_path / "out" / "features.csv"
        assert main(["features", "--config", str(config), "--out", str(features.parent)]) == 0
        assert main(["fit", "--features", str(features), "--kind", "svr", "--out", str(features.parent)]) == 0

        def written(name):
            args = (["predict", "--model", str(files["model"]), "--features", str(features)]
                    if marked == "model" else ["features", "--config", str(config)])
            assert main([*args, "--out", str(tmp_path / name)]) == 0
            return {path.name: path.read_bytes() for path in (tmp_path / name).iterdir()}

        plain = written("plain")
        files[marked].write_bytes(b"\xef\xbb\xbf" + files[marked].read_bytes())
        assert written("marked") == plain

    def test_fit_predict_evaluate(self, tmp_path):
        config = write_small_corpus(tmp_path)
        out = tmp_path / "out"
        main(["features", "--config", str(config), "--out", str(out)])
        features = out / "features.csv"
        assert main([
            "fit", "--features", str(features), "--kind", "svr",
            "--params", '{"gamma": 1.0, "nu": 0.5, "C": 1.0}', "--out", str(out),
        ]) == 0
        model = out / "model_svr.json"
        assert model.exists()
        assert main([
            "predict", "--model", str(model), "--features", str(features), "--out", str(out),
        ]) == 0
        predictions = out / "predictions.csv"
        assert predictions.read_text().splitlines()[0] == "quarter,predicted"
        assert main([
            "evaluate", "--features", str(features), "--predictions", str(predictions),
            "--label", "SVM", "--out", str(out),
        ]) == 0
        report = (out / "report.csv").read_text().splitlines()
        assert report[0] == "model,mse,rmse,theils_u"
        assert report[1].startswith("SVM,")

    def test_ingest_keeps_unicode_line_separators_in_text(self, tmp_path):
        config = write_small_corpus(tmp_path)
        texts = [f"Great cost savings{sep}and a fast network" for sep in ("\u2028", "\u2029", "\x85")]
        (tmp_path / "reviews.jsonl").write_text("".join(
            json.dumps({"id": f"r{i}", "quarter": "2016Q1", "text": t}, ensure_ascii=False) + "\n"
            for i, t in enumerate(texts)), "utf-8")
        out = tmp_path / "out"
        assert main(["ingest", "--config", str(config), "--out", str(out)]) == 0
        written = parse_reviews((out / "reviews.jsonl").read_bytes(), "jsonl")
        assert [r.text for r in written] == texts

    def test_null_input_path_is_the_default(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"reviews": None, "revenue": None, "lexicon": None}))
        assert main(["ingest", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
        assert len((tmp_path / "out" / "reviews.jsonl").read_text("utf-8").splitlines()) == 224

    def test_pipeline_small(self, tmp_path):
        config = write_small_corpus(tmp_path)
        out = tmp_path / "out"
        assert main(["pipeline", "--config", str(config), "--out", str(out)]) == 0
        report = (out / "report.csv").read_text().splitlines()
        assert report[0] == "model,mse,rmse,theils_u"
        assert report[1].startswith("ARIMA,")
        assert (out / "report.json").exists()
        assert (out / "plot_data.csv").exists()


class TestBundledReports:
    def test_pinned_digests(self, tmp_path):
        assert main(["pipeline", "--out", str(tmp_path)]) == 0
        digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                   for name in REPORT_FILES}
        assert digests == BUNDLED_DIGESTS

    def test_pinned_model_files(self, tmp_path):
        # the report digests see only predictions; these pin every byte of a model file
        assert main(["features", "--out", str(tmp_path)]) == 0
        digests = {}
        for kind in MODEL_DIGESTS:
            assert main(["fit", "--features", str(tmp_path / "features.csv"), "--kind", kind,
                         "--out", str(tmp_path)]) == 0
            digests[kind] = hashlib.sha256((tmp_path / f"model_{kind}.json").read_bytes()).hexdigest()
        assert digests == MODEL_DIGESTS

    def test_pinned_staged_artifacts(self, tmp_path):
        for command in ("ingest", "sentiment", "features"):
            assert main([command, "--out", str(tmp_path)]) == 0
        features = str(tmp_path / "features.csv")
        for kind in MODEL_DIGESTS:
            out = tmp_path / kind
            assert main(["fit", "--features", features, "--kind", kind, "--out", str(out)]) == 0
            assert main(["predict", "--model", str(out / f"model_{kind}.json"),
                         "--features", features, "--out", str(out)]) == 0
            assert main(["evaluate", "--features", features, "--predictions",
                         str(out / "predictions.csv"), "--label", kind, "--out", str(out)]) == 0
        digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                   for name in STAGED_DIGESTS}
        assert digests == STAGED_DIGESTS

    def test_csv_corpus_matches_jsonl(self, tmp_path):
        data = resources.files("aspectcast").joinpath("data/synthetic/reviews.jsonl").read_text("utf-8")
        records = [json.loads(line) for line in data.splitlines() if line.strip()]
        with open(tmp_path / "reviews.csv", "w", encoding="utf-8", newline="") as fh:
            writer = csv.DictWriter(fh, ["id", "quarter", "text", "source"])
            writer.writeheader()
            writer.writerows(records)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"reviews": "reviews.csv"}))
        assert main(["pipeline", "--config", str(config), "--out", str(tmp_path / "csv")]) == 0
        assert main(["pipeline", "--out", str(tmp_path / "jsonl")]) == 0
        for name in REPORT_FILES:
            assert (tmp_path / "csv" / name).read_bytes() == (tmp_path / "jsonl" / name).read_bytes()


# Fits LR with backward stepwise selection as a pipeline model would, then runs
# `aspectcast features` and a stepwise `aspectcast fit`, printing the SciPy
# modules loaded by then and how many features each fit kept of how many.
COLD_START = """
import json, sys, tempfile
from pathlib import Path
from aspectcast import cli
from aspectcast.features import chronological_split
from aspectcast.models import fit_lr
from aspectcast.pipeline import PipelineConfig, build_features, build_matrix, load_inputs
cfg = PipelineConfig.defaults()
train = chronological_split(build_matrix(cfg, *build_features(*load_inputs(cfg))))[0]
kept = [[len(fit_lr(train, selection="backward_stepwise").selected_features), len(train.columns)]]
with tempfile.TemporaryDirectory() as out:
    assert cli.main(["features", "--out", out]) == 0
    assert cli.main(["fit", "--features", f"{out}/features.csv", "--kind", "lr",
                     "--params", '{"selection": "backward_stepwise"}', "--out", out]) == 0
    model = json.loads(Path(out, "model_lr.json").read_text())
    columns = Path(out, "features.csv").read_text().splitlines()[0].split(",")[1:-1]
    kept.append([len(model["selected_features"]), len(columns)])
print(json.dumps([sorted(m for m in sys.modules if m.split(".")[0] == "scipy"), kept]))
"""


# Fits LR with every feature as the default models do, then runs the default
# pipeline, printing the SciPy modules loaded by then.
COLD_START_DEFAULT = """
import json, sys, tempfile
from aspectcast import cli
from aspectcast.features import chronological_split
from aspectcast.models import fit_lr
from aspectcast.pipeline import PipelineConfig, build_features, build_matrix, load_inputs
cfg = PipelineConfig.defaults()
matrix = build_matrix(cfg, *build_features(*load_inputs(cfg)))
fit_lr(chronological_split(matrix)[0], selection="all")
with tempfile.TemporaryDirectory() as out:
    assert cli.main(["pipeline", "--out", out]) == 0
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""

PACKAGE_ROOT = """
import json
import aspectcast
print(json.dumps(sorted(n for n in vars(aspectcast) if not n.startswith("_") or n == "__version__")))
"""

# Runs the default pipeline on the bundled corpus, whose ANN rows draw their
# seeded split and weights, printing the numpy.random and secrets modules
# loaded by then.
PIPELINE_RANDOM = """
import json, sys, tempfile
from aspectcast import cli
with tempfile.TemporaryDirectory() as out:
    assert cli.main(["pipeline", "--out", out]) == 0
print(json.dumps(sorted(m for m in sys.modules if m == "secrets" or m.split(".")[:2] == ["numpy", "random"])))
"""


def run_fresh(code: str):
    """The JSON that ``code`` prints, run in a fresh interpreter that imports this aspectcast."""
    src = str(Path(aspectcast.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=120, check=True)
    return json.loads(done.stdout)


class TestColdStart:
    def test_stepwise_fit_never_loads_scipy(self):
        loaded, kept = run_fresh(COLD_START)
        # the p-values come from the standard library: importing scipy.special
        # would cost about 24 MiB of resident memory
        assert loaded == []
        # both selections dropped features, so both read p-values
        assert all(0 < n < total for n, total in kept), kept

    def test_default_path_never_loads_scipy(self):
        # only stepwise selection reads p-values, and no default model selects
        assert run_fresh(COLD_START_DEFAULT) == []

    def test_package_root_holds_only_the_version(self):
        # each name has one import path, its own submodule's
        assert run_fresh(PACKAGE_ROOT) == ["__version__"]

    def test_pipeline_never_loads_numpy_random(self):
        # fit_mlp makes its own draws: numpy.random would cost about 6 MiB of
        # resident memory and pull in secrets, hmac and base64
        assert run_fresh(PIPELINE_RANDOM) == []


class TestErrors:
    def test_missing_reviews_file(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"reviews": "nope.jsonl"}))
        assert main(["ingest", "--config", str(config), "--out", str(tmp_path / "out")]) == 1
        assert "error [ingest]" in capsys.readouterr().err

    def test_malformed_config(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text("{not json")
        assert main(["pipeline", "--config", str(config)]) == 1
        assert "error [config]" in capsys.readouterr().err

    def test_config_not_utf8(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_bytes(b"\xff{}")
        assert main(["features", "--config", str(config), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert f"error [config] {config}: not valid UTF-8 (invalid start byte)" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("rows, problem", [
        ("revenue,quarter\n110\n", "line 2: 1 fields, header has 2"),
        ("quarter,revenue\n2020Q4,100\n2020Q5,110\n", "line 3: invalid quarter label: '2020Q5'"),
        ("when,revenue\n2020Q4,100\n", "line 1: missing columns ['quarter']"),
        ("quarter,revenue\n2020Q4,1e2\n2021Q1,lots\n",
         "line 3: could not convert string to float: 'lots' in column 'revenue'"),
        ("quarter,revenue\n2020Q4,100\n2021Q1,110\n2020Q4,100\n", "line 4: duplicate quarter 2020Q4"),
        ("quarter,revenue,revenue\n2020Q4,100,110\n", "line 1: duplicate columns ['revenue']"),
    ])
    def test_bad_revenue_quarter(self, tmp_path, capsys, rows, problem):
        config = write_small_corpus(tmp_path)
        (tmp_path / "revenue.csv").write_text(rows)
        assert main(["ingest", "--config", str(config), "--out", str(tmp_path / "out")]) == 1
        assert f"error [ingest] {tmp_path / 'revenue.csv'}: {problem}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_lexicon_token_that_can_never_match(self, tmp_path, capsys):
        config = write_small_corpus(tmp_path)
        lexicon = tmp_path / "lexicon.txt"
        lexicon.write_text("good\t1.9\ncan't\t-2\n")
        config.write_text(json.dumps(dict(json.loads(config.read_text()), lexicon="lexicon.txt")))
        assert main(["ingest", "--config", str(config), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert f"error [ingest] {lexicon}: line 2: token \"can't\" can never match a scored word" in err
        assert not (tmp_path / "out").exists()

    def test_revenue_error_names_the_physical_line(self, tmp_path, capsys):
        config = write_small_corpus(tmp_path)
        (tmp_path / "revenue.csv").write_text("quarter,revenue\n\n2020Q1,100\n2020Q5,110\n")
        assert main(["ingest", "--config", str(config), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert f"error [ingest] {tmp_path / 'revenue.csv'}: line 4: invalid quarter label: '2020Q5'" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["ingest", "fit", "evaluate"])
    def test_csv_field_over_size_limit(self, tmp_path, capsys, command):
        config = write_small_corpus(tmp_path)
        out = tmp_path / "out"
        assert main(["features", "--config", str(config), "--out", str(out)]) == 0
        huge = "1" * (csv.field_size_limit() + 1)
        bad = tmp_path / "bad.csv"
        if command == "ingest":  # revenue.csv
            bad.write_text(f"quarter,revenue\n2016Q1,100\n2016Q2,{huge}\n")
            config.write_text(json.dumps({**json.loads(config.read_text()), "revenue": "bad.csv"}))
            args = ["--config", str(config)]
        elif command == "fit":  # features.csv
            bad.write_text(f"quarter,a,target_growth\n2016Q2,0.5,0.1\n2016Q3,{huge},0.2\n")
            args = ["--features", str(bad), "--kind", "lr"]
        else:  # predictions.csv
            bad.write_text(f"quarter,predicted\n2016Q3,0.01\n2016Q4,{huge}\n")
            args = ["--features", str(out / "features.csv"), "--predictions", str(bad)]
        assert main([command, *args, "--out", str(tmp_path / "out2")]) == 1
        err = capsys.readouterr().err
        assert (f"error [{command}] {bad}: line 3: malformed CSV "
                f"(field larger than field limit ({csv.field_size_limit()}))") in err
        assert not (tmp_path / "out2").exists()

    def test_unknown_config_key(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"aspect": 13}))
        assert main(["pipeline", "--config", str(config), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert "error [config]" in err and "'aspect'" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("value", ["false", 0, 1, None])
    def test_include_lag_not_a_boolean(self, tmp_path, capsys, value):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"include_lag": value}))
        assert main(["features", "--config", str(config), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert f"error [config] include_lag must be true or false, got {value!r}" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("value", [5, [2], [2, 1, 1], [2, 0], [-2, 1], ["2", "1"], [True, 1],
                                       "21", None])
    def test_split_ratio_not_two_positive_numbers(self, tmp_path, capsys, value):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"split_ratio": value}))
        assert main(["pipeline", "--config", str(config), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert f"error [config] split_ratio must be two positive numbers, got {value!r}" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("row, problem", [
        ("2016Q3,1.0", "2 fields, header has 3"),
        ("2016Q3,1.0,0.5,0.2", "4 fields, header has 3"),
        ("2016Q3,abc,0.5", "could not convert string to float: 'abc' in column 'a'"),
        ("2016Q9,1.0,0.5", "invalid quarter label: '2016Q9'"),
        ("2016Q3,nan,0.5", "non-finite value 'nan' in column 'a'"),
        ("2016Q3,1.0,-inf", "non-finite value '-inf' in column 'target_growth'"),
        ("2016Q2,1.0,0.5", "duplicate quarter 2016Q2"),
        ("2016Q1,1.0,0.5", "quarters must strictly ascend: 2016Q1 follows 2016Q2"),  # no line: the whole matrix
    ])
    @pytest.mark.parametrize("command", ["fit", "predict", "evaluate"])
    def test_features_row_does_not_match_header(self, tmp_path, capsys, command, row, problem):
        config = write_small_corpus(tmp_path)
        out = tmp_path / "out"
        main(["features", "--config", str(config), "--out", str(out)])
        assert main(["fit", "--features", str(out / "features.csv"), "--kind", "arima",
                     "--out", str(out)]) == 0
        features = tmp_path / "bad.csv"
        features.write_text(f"quarter,a,target_growth\n2016Q2,0.5,0.1\n{row}\n")
        args = {
            "fit": ["--kind", "lr"],
            "predict": ["--model", str(out / "model_arima.json")],
            "evaluate": ["--predictions", str(tmp_path / "predictions.csv")],
        }[command]
        assert main([command, "--features", str(features), *args,
                     "--out", str(tmp_path / "out2")]) == 1
        err = capsys.readouterr().err
        where = "" if "ascend" in problem else "line 3: "
        assert f"error [{command}] {features}: {where}{problem}" in err
        assert not (tmp_path / "out2").exists()

    @pytest.mark.parametrize("value", [2.9, True, "3", None, -1])
    @pytest.mark.parametrize("where", ["config", "model"])
    def test_seed_not_an_integer(self, tmp_path, capsys, value, where):
        config = tmp_path / "config.json"
        if where == "config":
            config.write_text(json.dumps({"seed": value}))
            named = f"seed must be an integer >= 0, got {value!r}"
        else:
            config.write_text(json.dumps({"models": [{"kind": "mlp", "label": "ANN", "seed": value}]}))
            named = f"seed of model 'ANN' must be an integer >= 0, got {value!r}"
        assert main(["features", "--config", str(config), "--out", str(tmp_path / "out")]) == 1
        assert f"error [config] {named}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key, value", [
        *[(key, bad) for key in ("reviews", "revenue", "vocabulary", "lexicon", "heuristics", "out")
          for bad in (5, ["a.jsonl"], True)],
        ("out", None),
    ])
    def test_path_not_a_string(self, tmp_path, capsys, key, value):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({key: value}))
        args = [] if key == "out" else ["--out", str(tmp_path / "out")]
        assert main(["features", "--config", str(config), *args]) == 1
        assert f"error [config] {key} must be a path string, got {value!r}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_path_objects_are_paths(self, tmp_path):
        cfg = PipelineConfig.defaults(out=tmp_path, reviews=tmp_path / "r.jsonl")
        assert cfg.out == tmp_path and cfg.reviews == tmp_path / "r.jsonl"

    @pytest.mark.parametrize("lambda0", ["0", "-1", "0.0", "Infinity", "NaN", "true"])
    def test_mlp_lambda0_not_positive(self, tmp_path, lambda0):
        config = write_small_corpus(tmp_path)
        out = tmp_path / "out"
        main(["features", "--config", str(config), "--out", str(out)])
        src = str(Path(aspectcast.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        # a zero damping never grows, so a fit that accepts it retries forever
        done = subprocess.run(
            [sys.executable, "-m", "aspectcast.cli", "fit", "--features", str(out / "features.csv"),
             "--kind", "mlp", "--params", f'{{"lambda0": {lambda0}}}', "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == 1
        assert "error [fit] lambda0 must be in (0, 1e+12], got " in done.stderr
        assert not (out / "model_mlp.json").exists()

    @pytest.mark.parametrize("name, data", [
        ("reviews.jsonl", b'{"id": "a", "quarter": "2016Q1", "text": "caf\xe9"}\n'),
        ("reviews.csv", b"id,quarter,text\na,2016Q1,caf\xe9\n"),
    ])
    @pytest.mark.parametrize("command", ["ingest", "pipeline"])
    def test_reviews_not_utf8(self, tmp_path, capsys, name, data, command):
        (tmp_path / name).write_bytes(data)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"reviews": name}))
        assert main([command, "--config", str(config), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert f"error [ingest] {tmp_path / name}: not valid UTF-8" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key", ["revenue", "vocabulary", "lexicon", "heuristics"])
    def test_input_not_utf8(self, tmp_path, capsys, key):
        (tmp_path / "bad").write_bytes(b"\xff\xfe")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({key: "bad"}))
        assert main(["pipeline", "--config", str(config), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert f"error [ingest] {tmp_path / 'bad'}: not valid UTF-8 (invalid start byte)" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, option", [
        ("fit", "--features"), ("predict", "--features"), ("predict", "--model"),
        ("evaluate", "--features"), ("evaluate", "--predictions"),
    ])
    def test_command_input_not_utf8(self, tmp_path, capsys, command, option):
        config = write_small_corpus(tmp_path)
        out = tmp_path / "out"
        main(["features", "--config", str(config), "--out", str(out)])
        main(["fit", "--features", str(out / "features.csv"), "--kind", "arima", "--out", str(out)])
        main(["predict", "--model", str(out / "model_arima.json"),
              "--features", str(out / "features.csv"), "--out", str(out)])
        args = {
            "fit": {"--features": out / "features.csv", "--kind": "arima"},
            "predict": {"--model": out / "model_arima.json", "--features": out / "features.csv"},
            "evaluate": {"--features": out / "features.csv", "--predictions": out / "predictions.csv"},
        }[command]
        bad = tmp_path / "bad"
        bad.write_bytes(b"\xff\xfe")
        args[option] = bad
        argv = [command, *(str(x) for pair in args.items() for x in pair)]
        assert main([*argv, "--out", str(tmp_path / "out2")]) == 1
        err = capsys.readouterr().err
        assert f"error [{command}] {bad}: not valid UTF-8 (invalid start byte)" in err
        assert not (tmp_path / "out2").exists()

    def test_byte_order_mark_after_the_start_is_a_character(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_bytes(b"\xef\xbb\xbf\xef\xbb\xbf{}")
        assert main(["features", "--config", str(config), "--out", str(tmp_path / "out")]) == 1
        assert f"error [config] {config}: Unexpected UTF-8 BOM" in capsys.readouterr().err

    @pytest.mark.parametrize("where", ["reviews", "config", "vocabulary", "heuristics", "params"])
    def test_deeply_nested_json(self, tmp_path, capsys, where):
        deep = "[" * 100_000 + "]" * 100_000
        config = write_small_corpus(tmp_path)
        out = tmp_path / "out"
        argv = ["ingest", "--config", str(config), "--out", str(out)]
        if where == "reviews":  # after the small corpus's 16 lines
            with (tmp_path / "reviews.jsonl").open("a") as f:
                f.write(f'{{"id": "x", "quarter": "2016Q1", "text": {deep}}}\n')
            expected = f"error [ingest] {tmp_path / 'reviews.jsonl'}: line 17: malformed JSON (nested too deeply)"
        elif where == "config":
            config.write_text(f'{{"seed": {deep}}}')
            expected = f"error [config] {config}: nested too deeply to parse"
        elif where == "params":
            assert main(["features", "--config", str(config), "--out", str(tmp_path)]) == 0
            argv = ["fit", "--features", str(tmp_path / "features.csv"), "--kind", "lr", "--params", deep,
                    "--out", str(out)]
            expected = "error [fit] --params nested too deeply to parse"
        else:
            (tmp_path / f"{where}.json").write_text(f'{{"x": {deep}}}')
            config.write_text(json.dumps(dict(json.loads(config.read_text()), **{where: f"{where}.json"})))
            expected = f"error [ingest] {tmp_path / f'{where}.json'}: nested too deeply to parse"
        assert main(argv) == 1
        assert expected in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", [5, None, {"kind": "lr"}, "lr"])
    def test_models_not_a_list(self, tmp_path, capsys, value):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"models": value}))
        assert main(["features", "--config", str(config), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert f"error [config] models must be a list of model entries, got {value!r}" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("entry, named", [
        ({"kind": "svr", "label": "SVM", "gama": 5}, "'gama'"),
        ({"kind": "arima", "order": [1, 0, 0]}, "'order'"),
        ({"kind": "svm"}, "needs a kind"),
        ({"label": "LR"}, "needs a kind"),
    ])
    def test_unknown_model_entry_key(self, tmp_path, capsys, entry, named):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"models": [entry]}))
        assert main(["pipeline", "--config", str(config), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert "error [config]" in err and named in err

    def test_unknown_fit_param(self, tmp_path, capsys):
        config = write_small_corpus(tmp_path)
        out = tmp_path / "out"
        main(["features", "--config", str(config), "--out", str(out)])
        assert main([
            "fit", "--features", str(out / "features.csv"), "--kind", "svr",
            "--params", '{"gama": 5}', "--out", str(out),
        ]) == 1
        err = capsys.readouterr().err
        assert "error [fit]" in err and "'gama'" in err
        assert not (out / "model_svr.json").exists()

    @pytest.mark.parametrize("name", ["seed", "label", "kind"])
    def test_fit_param_named_like_a_spec_field(self, tmp_path, capsys, name):
        config = write_small_corpus(tmp_path)
        out = tmp_path / "out"
        main(["features", "--config", str(config), "--out", str(out)])
        assert main([
            "fit", "--features", str(out / "features.csv"), "--kind", "lr",
            "--params", json.dumps({name: 3}), "--out", str(out),
        ]) == 1
        err = capsys.readouterr().err
        assert f"error [fit] unknown keys ['{name}']; it takes ['selection', 'threshold']" in err
        assert not (out / "model_lr.json").exists()

    @pytest.mark.parametrize("kind", ["lr", "mlp", "svr"])
    def test_predict_missing_feature(self, tmp_path, capsys, kind):
        out = tmp_path / "out"
        main(["features", "--out", str(out / "16")])
        main(["features", "--aspects", "13", "--out", str(out / "13")])
        main(["fit", "--features", str(out / "16" / "features.csv"), "--kind", kind, "--out", str(out)])
        assert main([
            "predict", "--model", str(out / f"model_{kind}.json"),
            "--features", str(out / "13" / "features.csv"), "--out", str(out),
        ]) == 1
        # the first of the 16 aspects the 13 leave out
        assert "error [predict] missing feature: 'after_sales_experience'" in capsys.readouterr().err
        assert not (out / "predictions.csv").exists()

    @pytest.mark.parametrize("kind, params, named", BAD_PARAMS)
    def test_bad_fit_param(self, tmp_path, capsys, kind, params, named):
        config = write_small_corpus(tmp_path)
        out = tmp_path / "out"
        main(["features", "--config", str(config), "--out", str(out)])
        assert main([
            "fit", "--features", str(out / "features.csv"), "--kind", kind,
            "--params", json.dumps(params), "--out", str(out),
        ]) == 1
        assert f"error [fit] {named} must be " in capsys.readouterr().err
        assert not (out / f"model_{kind}.json").exists()

    @pytest.mark.parametrize("kind, params, named", BAD_PARAMS)
    def test_bad_model_entry_param(self, tmp_path, capsys, kind, params, named):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"models": [{"kind": kind, **params}]}))
        assert main(["pipeline", "--config", str(config), "--out", str(tmp_path / "out")]) == 1
        assert f"error [config] {named} of model '{kind}' must be " in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("heuristics, named", [
        ("5", "heuristics must be a JSON object"),
        ('{"alpha": "x"}', "alpha must be > 0, got 'x'"),
        ('{"negation_window": 2.5}', "negation_window must be an integer >= 1, got 2.5"),
        ('{"alpha": NaN}', "alpha must be > 0, got nan"),
    ])
    def test_bad_heuristics_file(self, tmp_path, capsys, heuristics, named):
        (tmp_path / "heuristics.json").write_text(heuristics)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"heuristics": "heuristics.json"}))
        assert main(["features", "--config", str(config), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert f"error [ingest] {tmp_path / 'heuristics.json'}: {named}" in err
        assert not (tmp_path / "out").exists()

    def test_fit_failure_names_the_model_once(self, tmp_path, capsys):
        config = write_small_corpus(tmp_path)
        # 4 training rows cannot fit 17 LR coefficients
        config.write_text(json.dumps({"reviews": "reviews.jsonl", "revenue": "revenue.csv",
                                      "models": [{"kind": "lr", "label": "LR"}]}))
        assert main(["pipeline", "--config", str(config), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert "error [fit] model 'LR': too few rows" in err
        assert err.count("'LR'") == 1

    @pytest.mark.parametrize("command, module, name", [("pipeline", pipeline, "backtest"), ("fit", cli, "fit_spec")])
    def test_program_fault_propagates(self, tmp_path, monkeypatch, command, module, name):
        # only an OSError or ValueError becomes an `error [stage]` line; any
        # other exception is a fault of the program and keeps its traceback
        config = write_small_corpus(tmp_path)
        out = tmp_path / "out"
        if command == "pipeline":
            args = ["pipeline", "--config", str(config)]
        else:
            main(["features", "--config", str(config), "--out", str(out)])
            args = ["fit", "--features", str(out / "features.csv"), "--kind", "lr"]

        def fault(*_, **__):
            raise RuntimeError("boom")

        monkeypatch.setattr(module, name, fault)
        with pytest.raises(RuntimeError, match="^boom$"):
            main([*args, "--out", str(out)])

    @pytest.mark.parametrize("command", ["pipeline", "fit"])
    def test_svr_C_too_small_for_the_rows(self, tmp_path, capsys, command):
        # at C / rows <= 2e-10 every dual variable can sit within nu-SVR's 1e-10
        # bound tolerance of both bounds, which leaves the bias undefined
        config = write_small_corpus(tmp_path)
        out = tmp_path / "out"
        if command == "pipeline":
            config.write_text(json.dumps({"reviews": "reviews.jsonl", "revenue": "revenue.csv", "models": [
                {"kind": "svr", "label": "SVM-tiny", "C": 1e-12}]}))
            args, named = ["pipeline", "--config", str(config)], "model 'SVM-tiny': "
        else:
            main(["features", "--config", str(config), "--out", str(out)])
            args, named = ["fit", "--features", str(out / "features.csv"), "--kind", "svr",
                           "--params", '{"C": 1e-12}'], ""
        assert main([*args, "--out", str(out)]) == 1
        rows = 4 if command == "pipeline" else 6  # the 2:1 split's training rows, or every row
        assert (f"error [fit] {named}C = 1e-12 is too small for {rows} rows: C / rows must exceed 2e-10"
                in capsys.readouterr().err)
        assert not (out / "report.csv").exists() and not (out / "model_svr.json").exists()

    @pytest.mark.parametrize("params", ["[1]", '"gamma"', "5", "null", "{bad", '{"\udcff": 1}'])
    def test_fit_params_not_an_object(self, tmp_path, capsys, params):
        config = write_small_corpus(tmp_path)
        out = tmp_path / "out"
        main(["features", "--config", str(config), "--out", str(out)])
        assert main([
            "fit", "--features", str(out / "features.csv"), "--kind", "svr",
            "--params", params, "--out", str(out),
        ]) == 1
        why = {"{bad": "--params: malformed JSON (Expecting property name enclosed in double quotes: "
                       "line 1 column 2 (char 1))",
               # an argument that is not UTF-8 holds a lone surrogate
               '{"\udcff": 1}': "--params: malformed JSON ('utf-8' codec can't encode character '\\udcff' "
                                 "in position 2: surrogates not allowed)"}.get(params, "--params must be a JSON object")
        assert f"error [fit] {why}" in capsys.readouterr().err
        assert not (out / "model_svr.json").exists()

    @pytest.mark.parametrize("top", [["x"], [], "reviews.jsonl", 3])
    def test_config_not_an_object(self, tmp_path, capsys, top):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(top))
        assert main(["pipeline", "--config", str(config), "--out", str(tmp_path / "out")]) == 1
        assert "error [config]" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("header, named", [
        ("quarter,value", "['predicted']"),
        ("when,predicted", "['quarter']"),
        ("", "['quarter', 'predicted']"),
    ])
    def test_predictions_missing_column(self, tmp_path, capsys, header, named):
        config = write_small_corpus(tmp_path)
        out = tmp_path / "out"
        main(["features", "--config", str(config), "--out", str(out)])
        predictions = tmp_path / "predictions.csv"
        predictions.write_text(header + "\n2016Q3,0.01\n" if header else "")
        assert main([
            "evaluate", "--features", str(out / "features.csv"),
            "--predictions", str(predictions), "--out", str(out),
        ]) == 1
        err = capsys.readouterr().err
        assert "error [evaluate]" in err and f"missing columns {named}" in err
        assert not (out / "report.csv").exists()

    @pytest.mark.parametrize("header, named", [
        ("quarter,predicted,predicted", "['predicted']"),
        ("quarter,predicted,quarter", "['quarter']"),
    ])
    def test_predictions_duplicate_column(self, tmp_path, capsys, header, named):
        config = write_small_corpus(tmp_path)
        out = tmp_path / "out"
        main(["features", "--config", str(config), "--out", str(out)])
        predictions = tmp_path / "predictions.csv"
        predictions.write_text(header + "\n2016Q3,0.01,0.02\n")
        assert main([
            "evaluate", "--features", str(out / "features.csv"),
            "--predictions", str(predictions), "--out", str(out),
        ]) == 1
        assert f"error [evaluate] {predictions}: line 1: duplicate columns {named}\n" in capsys.readouterr().err
        assert not (out / "report.csv").exists()

    def test_predictions_value_not_a_number(self, tmp_path, capsys):
        config = write_small_corpus(tmp_path)
        out = tmp_path / "out"
        main(["features", "--config", str(config), "--out", str(out)])
        predictions = tmp_path / "predictions.csv"
        predictions.write_text("quarter,predicted\n2016Q3,0.01\n2016Q4,abc\n")
        assert main([
            "evaluate", "--features", str(out / "features.csv"),
            "--predictions", str(predictions), "--out", str(out),
        ]) == 1
        err = capsys.readouterr().err
        assert (f"error [evaluate] {predictions}: line 3: could not convert string to float: 'abc' "
                "in column 'predicted'") in err
        assert not (out / "report.csv").exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "-Infinity"])
    def test_predictions_value_not_finite(self, tmp_path, capsys, value):
        config = write_small_corpus(tmp_path)
        out = tmp_path / "out"
        main(["features", "--config", str(config), "--out", str(out)])
        predictions = tmp_path / "predictions.csv"
        predictions.write_text(f"quarter,predicted\n2016Q3,0.01\n2016Q4,{value}\n")
        assert main([
            "evaluate", "--features", str(out / "features.csv"),
            "--predictions", str(predictions), "--out", str(out),
        ]) == 1
        err = capsys.readouterr().err
        assert f"error [evaluate] {predictions}: line 3: non-finite value {value!r} in column 'predicted'" in err
        assert not (out / "report.csv").exists()

    def test_predictions_duplicate_quarter(self, tmp_path, capsys):
        config = write_small_corpus(tmp_path)
        out = tmp_path / "out"
        main(["features", "--config", str(config), "--out", str(out)])
        features = out / "features.csv"
        assert main(["fit", "--features", str(features), "--kind", "arima", "--out", str(out)]) == 0
        assert main(["predict", "--model", str(out / "model_arima.json"), "--features", str(features),
                     "--out", str(out)]) == 0
        predictions = out / "predictions.csv"
        lines = predictions.read_text().splitlines()
        first = lines[1].split(",")[0]
        predictions.write_text("\n".join(lines + [f" {first} ,5.0"]) + "\n")  # the same quarter, padded
        assert main([
            "evaluate", "--features", str(features), "--predictions", str(predictions),
            "--out", str(out),
        ]) == 1
        err = capsys.readouterr().err
        assert f"error [evaluate] {predictions}: line {len(lines) + 1}: duplicate quarter {first}" in err
        assert not (out / "report.csv").exists()

    def test_predictions_missing_a_quarter(self, tmp_path, capsys):
        config = write_small_corpus(tmp_path)
        out = tmp_path / "out"
        main(["features", "--config", str(config), "--out", str(out)])
        predictions = tmp_path / "predictions.csv"
        for rows, problem in [
            # a padded label names its quarter, so only the four after 2016Q4 are missing
            (" 2016Q3 ,0.01\n2016Q4 ,0.02\n",
             "predictions missing quarters: ['2017Q1', '2017Q2', '2017Q3', '2017Q4']"),
            # a label that names no quarter is refused, not passed over
            ("2016Q3,0.01\n2016Q4,0.02\n2019Q5,0.03\n", f"{predictions}: line 4: invalid quarter label: '2019Q5'"),
        ]:
            predictions.write_text("quarter,predicted\n" + rows)
            assert main([
                "evaluate", "--features", str(out / "features.csv"),
                "--predictions", str(predictions), "--out", str(out),
            ]) == 1
            assert f"error [evaluate] {problem}" in capsys.readouterr().err
            assert not (out / "report.csv").exists()

    def test_out_is_a_file(self, tmp_path, capsys):
        out = tmp_path / "out"
        out.write_text("")
        assert main(["ingest", "--out", str(out)]) == 1
        assert f"error [ingest] [Errno 17] File exists: {str(out)!r}" in capsys.readouterr().err
        assert out.read_text() == ""

    def test_predictions_row_shorter_than_header(self, tmp_path, capsys):
        config = write_small_corpus(tmp_path)
        out = tmp_path / "out"
        main(["features", "--config", str(config), "--out", str(out)])
        predictions = tmp_path / "predictions.csv"
        predictions.write_text("quarter,predicted\n2016Q3,0.01\n2016Q4\n")
        assert main([
            "evaluate", "--features", str(out / "features.csv"),
            "--predictions", str(predictions), "--out", str(out),
        ]) == 1
        err = capsys.readouterr().err
        assert f"error [evaluate] {predictions}: line 3: 1 fields, header has 2" in err
        assert not (out / "report.csv").exists()

    @pytest.mark.parametrize("model, named", [
        ([1], "model must be a JSON object"),
        ("lr", "model must be a JSON object"),
        ({"kind": "lr"}, "lr model is missing field 'intercept'"),
        ({"kind": "arima", "orders": [1, 0, 0]}, "arima model is missing field 'constant'"),
        ({"kind": "lr", "intercept": 0.1, "coefficients": 5, "selected_features": []},
         "malformed lr model"),
        ({"kind": "naive"}, "unknown model kind"),
    ])
    def test_bad_model_file(self, tmp_path, capsys, model, named):
        config = write_small_corpus(tmp_path)
        out = tmp_path / "out"
        main(["features", "--config", str(config), "--out", str(out)])
        path = tmp_path / "model.json"
        path.write_text(json.dumps(model))
        assert main([
            "predict", "--model", str(path), "--features", str(out / "features.csv"),
            "--out", str(out),
        ]) == 1
        err = capsys.readouterr().err
        assert "error [predict]" in err and named in err
        assert not (out / "predictions.csv").exists()

    @pytest.mark.parametrize("command", ["features", "pipeline"])
    def test_one_revenue_quarter_is_a_features_error(self, tmp_path, capsys, command):
        config = write_small_corpus(tmp_path)
        out = tmp_path / "out"
        for rows, problem in [
            ("2016Q1,100.0\n", "revenue series needs at least 2 quarters"),
            # one growth quarter, which the lag column drops
            ("2016Q1,100.0\n2016Q2,102.0\n", "not enough growth quarters to assemble features"),
        ]:
            (tmp_path / "revenue.csv").write_text("quarter,revenue\n" + rows)
            assert main([command, "--config", str(config), "--out", str(out)]) == 1
            assert f"error [features] {problem}" in capsys.readouterr().err
            assert not out.exists()

    @pytest.mark.parametrize("command", ["features", "pipeline"])
    def test_growth_not_finite(self, tmp_path, capsys, command):
        config = write_small_corpus(tmp_path)
        revenue = tmp_path / "revenue.csv"
        # a positive revenue so small that the next quarter's growth overflows
        revenue.write_text(revenue.read_text().replace("2016Q1,100.0", "2016Q1,1e-320"))
        out = tmp_path / "out"
        assert main([command, "--config", str(config), "--out", str(out)]) == 1
        assert "error [features] growth of 2016Q2 is not finite: inf" in capsys.readouterr().err
        assert not out.exists()

    def test_metric_not_finite(self, tmp_path, capsys):
        config = write_small_corpus(tmp_path)
        out = tmp_path / "out"
        main(["features", "--config", str(config), "--out", str(out)])
        predictions = tmp_path / "predictions.csv"
        quarters = [line.split(",")[0] for line in (out / "features.csv").read_text().splitlines()[1:]]
        predictions.write_text("quarter,predicted\n" + "".join(f"{q},1e200\n" for q in quarters))
        assert main(["evaluate", "--features", str(out / "features.csv"),
                     "--predictions", str(predictions), "--out", str(out)]) == 1
        assert "error [evaluate] model: mse is not finite: inf" in capsys.readouterr().err
        assert not (out / "report.json").exists()

    def test_malformed_reviews(self, tmp_path, capsys):
        bad = tmp_path / "reviews.jsonl"
        bad.write_text('{"id": "a", "quarter": "2016Q9", "text": "hi"}\n')
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"reviews": "reviews.jsonl"}))
        assert main(["ingest", "--config", str(config), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert "error [ingest]" in err and "line 1" in err

    @pytest.mark.parametrize("name, last, problem", [
        ("reviews.jsonl", b'{"id": "z", "quarter": "2016Q1", "text": ', "line 17: malformed JSON"),
        ("reviews.jsonl", b'{"id": "z", "quarter": "2016Q9", "text": "hi"}\n',
         "line 17: invalid quarter label: '2016Q9'"),
        ("reviews.jsonl", b'{"id": "z", "quarter": "2016Q1", "text": "caf\xe9"}\n',
         "not valid UTF-8 (invalid continuation byte)"),
        ("reviews.csv", b"z,2016Q1,\n", "line 18: empty text for review 'z'"),
        ("reviews.csv", b"z,2016Q1,caf\xe9\n", "not valid UTF-8 (invalid continuation byte)"),
    ])
    @pytest.mark.parametrize("command", ["features", "pipeline"])
    def test_bad_last_review(self, tmp_path, capsys, command, name, last, problem):
        config = write_small_corpus(tmp_path)
        reviews = tmp_path / name
        if name.endswith(".csv"):
            records = [json.loads(line) for line in (tmp_path / "reviews.jsonl").read_text().splitlines()]
            with open(reviews, "w", encoding="utf-8", newline="") as fh:
                writer = csv.DictWriter(fh, ["id", "quarter", "text"], lineterminator="\n")
                writer.writeheader()
                writer.writerows(records)
            config.write_text(json.dumps({**json.loads(config.read_text()), "reviews": name}))
        with open(reviews, "ab") as fh:
            fh.write(last)
        out = tmp_path / "out"
        assert main([command, "--config", str(config), "--out", str(out)]) == 1
        assert f"error [ingest] {reviews}: {problem}" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_reviews_file_fails_first(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"reviews": "nope.jsonl", "revenue": "nope.csv"}))
        assert main(["pipeline", "--config", str(config), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert f"error [ingest] {tmp_path / 'nope.jsonl'}: " in err and "nope.csv" not in err

    def test_bad_review_is_read_after_other_inputs(self, tmp_path, capsys):
        # the reviews are parsed as they stream into the text stages, after
        # every other input has been read
        config = write_small_corpus(tmp_path)
        (tmp_path / "reviews.jsonl").write_text('{"id": "z", "quarter": "2016Q9", "text": "hi"}\n')
        (tmp_path / "revenue.csv").write_text("quarter,revenue\n2016Q1,-1\n")
        assert main(["ingest", "--config", str(config), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert f"error [ingest] {tmp_path / 'revenue.csv'}: line 2: non-positive revenue" in err
        assert "reviews.jsonl" not in err

    @pytest.mark.parametrize("what", ["config", "vocabulary", "heuristics", "model"])
    @pytest.mark.parametrize("text, problem", [
        ("{bad", "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
        ("[1]", "{what} must be a JSON object"),
    ], ids=["malformed", "not-an-object"])
    def test_json_object_input(self, tmp_path, capsys, what, text, problem):
        # every JSON-object input fails alike, naming its file and keeping the position
        config = write_small_corpus(tmp_path)
        path = tmp_path / f"{what}.json"
        stage, argv = "ingest", ["ingest", "--config", str(config)]
        if what == "config":
            stage, path = "config", config
        elif what == "model":
            assert main(["features", "--config", str(config), "--out", str(tmp_path)]) == 0
            stage, argv = "predict", ["predict", "--model", str(path), "--features", str(tmp_path / "features.csv")]
        else:
            config.write_text(json.dumps(dict(json.loads(config.read_text()), **{what: path.name})))
        path.write_text(text)
        out = tmp_path / "out"
        assert main(argv + ["--out", str(out)]) == 1
        assert f"error [{stage}] {path}: {problem.format(what=what)}\n" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("models", [None, [{"kind": "lr", "label": "LR", "aspects": ["bogus"]}]])
    @pytest.mark.parametrize("command", ["ingest", "sentiment", "features", "pipeline"])
    def test_unknown_aspect_ids(self, tmp_path, capsys, command, models):
        config = tmp_path / "config.json"
        if models is None:
            config.write_text(json.dumps({"aspects": ["cost_savings", "bogus"]}))
            named = "unknown aspect ids: ['bogus']"
        else:
            config.write_text(json.dumps({"models": models}))
            named = "unknown aspect ids: ['bogus'] of model 'LR'"
        assert main([command, "--config", str(config), "--out", str(tmp_path / "out")]) == 1
        assert f"error [config] {named}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("entry", [None, {"kind": "lr", "label": "LR"}, {"kind": "svr", "label": "SVM"}])
    @pytest.mark.parametrize("command", ["features", "pipeline"])
    def test_duplicate_aspect_ids(self, tmp_path, capsys, command, entry):
        twice = ["cost_savings", "security_concerns", "cost_savings"]
        config = tmp_path / "config.json"
        if entry is None:
            config.write_text(json.dumps({"aspects": twice, "models": [{"kind": "lr"}]}))
            named = "duplicate aspect ids: ['cost_savings']"
        else:
            config.write_text(json.dumps({"models": [dict(entry, aspects=twice)]}))
            named = f"duplicate aspect ids: ['cost_savings'] of model {entry['label']!r}"
        assert main([command, "--config", str(config), "--out", str(tmp_path / "out")]) == 1
        assert f"error [config] {named}\n" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("models, named", [
        ([{"kind": "lr", "aspects": 13}, {"kind": "lr", "aspects": 16}], ["lr"]),
        ([{"kind": "svr", "label": "M"}, {"kind": "lr", "label": "M"}, {"kind": "mlp", "label": ""},
          {"kind": "mlp"}], ["M", "mlp"]),
    ])
    @pytest.mark.parametrize("command", ["features", "pipeline"])
    def test_duplicate_model_labels(self, tmp_path, capsys, command, models, named):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"models": models}))
        assert main([command, "--config", str(config), "--out", str(tmp_path / "out")]) == 1
        assert f"error [config] duplicate model labels: {named}\n" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("source", ["header-only features", "4-quarter revenue"])
    def test_arima_series_too_short(self, tmp_path, capsys, source):
        config = write_small_corpus(tmp_path, quarters=4)  # an ARIMA (1, 0, 0) model, orders as a list
        out = tmp_path / "out"
        if source == "header-only features":
            features = tmp_path / "features.csv"
            features.write_text("quarter,cost_savings,lagged_growth,target_growth\n")
            argv = ["fit", "--features", str(features), "--kind", "arima", "--params", '{"orders": [1, 0, 0]}']
            points = 0
        else:
            argv = ["pipeline", "--config", str(config)]
            points = 2  # 3 growth quarters, the first dropped for its lag
        assert main(argv + ["--out", str(out)]) == 1
        assert (f"series too short for ARIMA(1, 0, 0): {points} differenced points, need 3\n"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_model_file_with_unknown_field(self, tmp_path, capsys):
        assert main(["features", "--out", str(tmp_path)]) == 0
        features = str(tmp_path / "features.csv")
        assert main(["fit", "--features", features, "--kind", "arima", "--out", str(tmp_path)]) == 0
        obj = json.loads((tmp_path / "model_arima.json").read_text())
        obj["invertable"] = obj.pop("invertible")
        model = tmp_path / "misspelled.json"
        model.write_text(json.dumps(obj))
        out = tmp_path / "out"
        assert main(["predict", "--model", str(model), "--features", features, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"error [predict] {model}: unknown fields ['invertable'] in arima model" in err
        assert not out.exists()

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])
