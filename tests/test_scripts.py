"""The scripts under scripts/ import rentlab's public API; running a small
part of each keeps an API change from breaking them unnoticed."""

import csv
import hashlib
import importlib.util
import json
from pathlib import Path

import numpy as np

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_selection_experiment_builds_its_matrix():
    matrix = _load("selection_experiment").build_matrix(1)
    assert matrix.n_rows == 68 * 74  # every listing on every day of its date range
    assert "dist_" in " ".join(matrix.feature_names) and "Wifi" in matrix.feature_names
    assert np.isfinite(matrix.x).all() and np.isfinite(matrix.y).all()


def test_artifact_digests_lists_every_file_of_every_run(tmp_path, monkeypatch, capsys):
    script = _load("artifact_digests")
    generator = {"n_listings": 6, "date_range": ["2023-01-01", "2023-01-12"]}
    tiny = {**script.workloads.WORKLOADS["demo"], "generator": generator}
    example = json.loads((SCRIPTS.parent / "examples" / "demo.json").read_text(encoding="utf-8"))
    (tmp_path / "small.json").write_text(json.dumps({**example, "generator": generator}), encoding="utf-8")
    monkeypatch.setattr(script.workloads, "WORKLOADS", {"tiny": tiny})
    monkeypatch.setattr(script, "SEEDS", (3,))
    monkeypatch.setattr(script, "EXAMPLES", (tmp_path / "small.json",))
    listings = {}
    for run in ("a", "b"):
        assert script.main([str(tmp_path / run)]) == 0
        *lines, damaged = capsys.readouterr().out.splitlines()
        assert damaged == "exit 0  tiny-3-damaged"
        listings[run] = lines
        files = sorted(p for p in (tmp_path / run).rglob("*") if p.is_file())
        assert [line.split("  ")[1] for line in lines] == [p.relative_to(tmp_path / run).as_posix()
                                                            for p in files]
        assert [line.split("  ")[0] for line in lines] == [hashlib.sha256(p.read_bytes()).hexdigest()
                                                            for p in files]
    names = [line.split("  ")[1] for line in listings["a"]]
    for name in ("tiny-3/inputs/calendar.csv", "tiny-3/out/features.csv", "examples-small/listings.csv",
                 "examples-small/model.json", "tiny-3-damaged/out/features.csv"):
        assert name in names
    # the damaged case: the same inputs, with cells blank or garbled in every column, and a gap
    changed = []
    for table in ("listings", "calendar", "reviews"):
        clean, damaged = ([*csv.reader((tmp_path / "a" / run / "inputs" / f"{table}.csv").read_text(
                          encoding="utf-8").splitlines())] for run in ("tiny-3", "tiny-3-damaged"))
        assert clean[0] == damaged[0] and len(clean) == len(damaged)
        changed += [b for ra, rb in zip(clean, damaged) for a, b in zip(ra, rb) if a != b]
    assert changed and set(changed) <= set(script.DAMAGED_CELLS)
    report = (tmp_path / "a" / "tiny-3-damaged" / "out" / "wrangle_report.csv").read_text(encoding="utf-8")
    assert "fill_calendar_gap,price," in report
    assert listings["a"] == listings["b"]
    assert script.main([str(tmp_path / "a")]) == 2  # an OUT_DIR that is not empty


def test_stage_memory_prints_every_stage(tmp_path, capsys):
    example = json.loads((SCRIPTS.parent / "examples" / "demo.json").read_text(encoding="utf-8"))
    doc = {**example, "output_dir": str(tmp_path / "out"),
           "generator": {"n_listings": 6, "date_range": ["2023-01-01", "2023-01-12"]}}
    (tmp_path / "config.json").write_text(json.dumps(doc), encoding="utf-8")
    assert _load("stage_memory").main([str(tmp_path / "config.json")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == [
        "wrangle", "sentiment", "featurize", "select", "evaluate", "train", "explain"]
    for line in lines:
        stage, _, peak, mb, ratio, _, rss, _ = line.split()
        assert float(peak) > 0 and mb == "MB" and float(rss) > 0
        assert ratio == "-" if stage in ("wrangle", "sentiment") else float(ratio[1:]) > 0
    assert (tmp_path / "out" / "model.json").is_file()
