"""scripts/make_synthetic_corpus.py still writes the bundled corpus, byte for byte."""

import importlib.util
from importlib import resources
from pathlib import Path

PATH = Path(__file__).resolve().parents[1] / "scripts" / "make_synthetic_corpus.py"
spec = importlib.util.spec_from_file_location("make_synthetic_corpus", PATH)
make_synthetic_corpus = importlib.util.module_from_spec(spec)
spec.loader.exec_module(make_synthetic_corpus)


def test_regenerates_the_bundled_corpus(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(make_synthetic_corpus, "OUT", tmp_path)
    make_synthetic_corpus.main()
    assert "wrote 224 reviews, 33 revenue quarters" in capsys.readouterr().out
    bundled = resources.files("aspectcast").joinpath("data/synthetic")
    for name in ("reviews.jsonl", "revenue.csv"):
        assert (tmp_path / name).read_bytes() == bundled.joinpath(name).read_bytes(), name
