import datetime as dt
import importlib.util
import json
import os
import re
import shlex
import subprocess
import sys
import warnings
from dataclasses import is_dataclass
from pathlib import Path
from typing import get_type_hints

import numpy as np
import pytest

from conftest import run_cli_with_blas_threads
from rentlab import __version__
from rentlab.cli import (
    ConfigError,
    Eval,
    Explain,
    Features,
    Models,
    PipelineConfig,
    Selection,
    Sentiment,
    Wrangle,
    _from_flags,
    build_parser,
    main,
    stage_explain,
    stage_wrangle,
)
from rentlab.evaluation import _derived_seed
from rentlab.features import matrix_from_csv
from rentlab.models import FAMILIES, load_model
from rentlab.synthgen import GenConfig
from rentlab.tabular import CALENDAR_SCHEMA, LISTINGS_SCHEMA, Column, read_csv, write_csv

REPO = Path(__file__).resolve().parents[1]

BASE_CONFIG = {
    "version": 1,
    "seed": 13,
    "generator": {
        "n_listings": 18,
        "date_range": ["2023-01-01", "2023-01-14"],
        "noise_std": 6.0,
        "outlier_fraction": 0.01,
        "missing_fraction": 0.01,
    },
    "wrangle": {"multiplier": 0.5, "knn_k": 5},
    "features": {"amenity_k": 8, "standardize": False},
    "selection": {"mode": "none"},
    "models": {
        "families": ["lasso", "ridge", "elastic", "forest", "gbm"],
        "hyperparams": {"n_trees": 8, "n_rounds": 10, "max_depth": 5},
    },
    "eval": {"train_fraction": 0.8, "cv_k": 3, "search_samples": 0},
    "explain": {"top": 10, "rows": 4},
}


def _write_config(tmp_path, overrides=None, name="config.json"):
    doc = json.loads(json.dumps(BASE_CONFIG))
    doc["output_dir"] = str(tmp_path / "out")
    for key, value in (overrides or {}).items():
        if isinstance(value, dict):
            doc.setdefault(key, {}).update(value)
        else:
            doc[key] = value
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path, doc["output_dir"]


class TestGenCommand:
    def test_writes_three_csvs(self, tmp_path, capsys):
        status = main(
            ["gen", "--seed", "7", "--listings", "50", "--start", "2023-01-01",
             "--end", "2023-01-07", "--out-dir", str(tmp_path)]
        )
        assert status == 0
        for name in ("listings.csv", "calendar.csv", "reviews.csv"):
            assert (tmp_path / name).is_file()

    def test_config_file_drives_generation(self, tmp_path):
        cfg_path = tmp_path / "gen.json"
        cfg_path.write_text(
            json.dumps({"n_listings": 5, "date_range": ["2023-02-01", "2023-02-03"], "seed": 3}),
            encoding="utf-8",
        )
        status = main(["gen", "--config", str(cfg_path), "--out-dir", str(tmp_path)])
        assert status == 0
        text = (tmp_path / "calendar.csv").read_text()
        assert text.count("\n") == 16  # header + 5*3 rows

    def test_zero_reviews_per_listing_writes_a_header_only_reviews_csv(self, tmp_path):
        cfg_path = tmp_path / "gen.json"
        cfg_path.write_text(json.dumps({"n_listings": 4, "max_reviews_per_listing": 0}),
                            encoding="utf-8")
        assert main(["gen", "--config", str(cfg_path), "--out-dir", str(tmp_path)]) == 0
        assert (tmp_path / "reviews.csv").read_text().count("\n") == 1


    def test_absent_flags_keep_the_generator_defaults(self, tmp_path, monkeypatch):
        import rentlab.cli

        configs = []
        monkeypatch.setattr(rentlab.cli, "stage_gen", lambda cfg, out_dir: configs.append(cfg) or {})
        assert main(["gen", "--out-dir", str(tmp_path)]) == 0
        assert main(["gen", "--end", "2023-04-02", "--out-dir", str(tmp_path)]) == 0
        assert configs[0] == GenConfig()
        assert configs[1] == GenConfig(date_range=(GenConfig().date_range[0], dt.date(2023, 4, 2)))

    @pytest.mark.parametrize("argv, doc, name", [
        (["--start", "2023-02-30"], None, "generator.date_range[0]"),
        (["--listings", "0"], None, "generator.n_listings"),
        ([], {"n_listings": 2.5}, "generator.n_listings"),
        ([], {"date_range": ["2023-02-30", "2023-03-02"]}, "generator.date_range[0]"),
        (["--seed", "-1"], None, "generator.seed"),
        ([], {"max_reviews_per_listing": -1}, "generator.max_reviews_per_listing"),
    ])
    def test_bad_value_exits_2_before_writing(self, tmp_path, capsys, argv, doc, name):
        if doc is not None:
            (tmp_path / "gen.json").write_text(json.dumps(doc), encoding="utf-8")
            argv = ["--config", str(tmp_path / "gen.json")]
        out_dir = tmp_path / "out"
        assert main(["gen", *argv, "--out-dir", str(out_dir)]) == 2
        assert f"config error: {name} " in capsys.readouterr().err
        assert not out_dir.exists()


class TestSentimentCommand:
    def test_appends_five_columns(self, tmp_path):
        main(["gen", "--seed", "5", "--listings", "12", "--start", "2023-01-01",
              "--end", "2023-01-05", "--out-dir", str(tmp_path)])
        out = tmp_path / "scored.csv"
        status = main(["sentiment", str(tmp_path / "reviews.csv"), "--out", str(out)])
        assert status == 0
        header = out.read_text().splitlines()[0].split(",")
        for col in ("pos", "neg", "neu", "compound", "label"):
            assert col in header

    def test_report_counts_bad_review_date(self, tmp_path):
        main(["gen", "--seed", "5", "--listings", "12", "--start", "2023-01-01",
              "--end", "2023-01-05", "--out-dir", str(tmp_path)])
        lines = (tmp_path / "reviews.csv").read_text(encoding="utf-8").splitlines(keepends=True)
        listing_id, review_id, _, rest = lines[1].split(",", 3)
        lines[1] = ",".join([listing_id, review_id, "2023-02-30", rest])
        (tmp_path / "reviews.csv").write_text("".join(lines), encoding="utf-8")
        out_dir = tmp_path / "scored"
        os.makedirs(out_dir)
        assert main(["sentiment", str(tmp_path / "reviews.csv"),
                     "--out", str(out_dir / "reviews_scored.csv")]) == 0
        report = (out_dir / "sentiment_report.csv").read_text().splitlines()
        assert report[0] == "operation,column,rows_affected,flags"
        assert report[1] == f"read_csv,reviews,{len(lines) - 1},coerced=1"
        assert [line.split(",")[0] for line in report[2:]] == [
            "score_reviews", "fill_missing_sentiment",
        ]

    def test_missing_lexicon_exits_2_naming_path(self, tmp_path, capsys):
        main(["gen", "--seed", "5", "--listings", "5", "--start", "2023-01-01",
              "--end", "2023-01-03", "--out-dir", str(tmp_path)])
        status = main(
            ["sentiment", str(tmp_path / "reviews.csv"), "--lexicon", "no/such/lex.tsv"]
        )
        assert status == 2
        assert "no/such/lex.tsv" in capsys.readouterr().err

    def test_malformed_lexicon_exits_1_naming_the_line(self, tmp_path, capsys):
        main(["gen", "--seed", "5", "--listings", "5", "--start", "2023-01-01",
              "--end", "2023-01-03", "--out-dir", str(tmp_path)])
        capsys.readouterr()
        (tmp_path / "lex.tsv").write_text("great\t3.1\nawful\tabc\n", encoding="utf-8")
        status = main(["sentiment", str(tmp_path / "reviews.csv"), "--lexicon",
                       str(tmp_path / "lex.tsv"), "--out", str(tmp_path / "scored.csv")])
        assert status == 1
        assert "lex.tsv: line 2, word 'awful': the valence 'abc'" in capsys.readouterr().err
        assert not (tmp_path / "scored.csv").exists()


class TestRunCommand:
    def test_full_run_exit_zero_with_five_model_rows(self, tmp_path, capsys):
        cfg_path, out_dir = _write_config(tmp_path)
        status = main(["run", "--config", str(cfg_path)])
        assert status == 0
        report = (tmp_path / "out" / "eval_report.csv").read_text().splitlines()
        header = report[0].split(",")
        assert header == ["Metric", "lasso", "ridge", "elastic", "forest", "gbm"]
        assert [row.split(",")[0] for row in report[1:]] == [
            "R-Squared",
            "Mean Absolute Error",
            "Root Mean Squared Error",
        ]
        for artifact in (
            "features.csv", "reviews_scored.csv", "model.json",
            "shap_ranking.csv", "shap_explanations.json",
            "wrangle_report.csv", "eval_report.json",
        ):
            assert (tmp_path / "out" / artifact).is_file()

    def test_linear_fits_on_raw_features_converge(self, tmp_path):
        # listing-level columns repeat over each listing's days, so the raw
        # matrix is rank-deficient: the exact solvers must still meet the KKT
        # conditions on every fit, the search's included
        cfg_path, out_dir = _write_config(tmp_path, {
            "models": {"families": ["lasso", "ridge", "elastic"]},
            "eval": {"search_samples": 2},
        })
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["run", "--config", str(cfg_path)]) == 0
        assert not [w for w in caught if "elastic net" in str(w.message)]
        doc = json.loads((Path(out_dir) / "eval_report.json").read_text())
        assert [rep["model_name"] for rep in doc["reports"]] == ["lasso", "ridge", "elastic"]
        assert all(rep["converged"] is True for rep in doc["reports"])
        features = matrix_from_csv(str(Path(out_dir) / "features.csv"))
        xc = features.x - features.x.mean(axis=0)
        assert np.linalg.matrix_rank(xc) < features.x.shape[1]

    def test_linear_winner_base_value_is_the_mean_written_prediction(self, tmp_path):
        # the explained rows are their own background, so base_value is the
        # mean of the very predictions written beside it; a linear model
        # predicts a row alone with other last bits than in a batch, which
        # this config shows
        cfg_path, out_dir = _write_config(tmp_path, {
            "features": {"standardize": True},
            "models": {"families": ["lasso"]},
        })
        assert main(["run", "--config", str(cfg_path)]) == 0
        assert json.loads((Path(out_dir) / "model.json").read_text())["family"] == "linear"
        docs = json.loads((Path(out_dir) / "shap_explanations.json").read_text())
        assert len(docs) == 4
        predictions = np.array([doc["prediction"] for doc in docs])
        assert all(doc["base_value"] == predictions.mean() for doc in docs)

    @pytest.mark.parametrize("overrides", [
        {
            "selection": {"mode": "kbest", "k": 10},
            "models": {"grids": {"lasso": {"alpha": [0.1]}, "forest": {"max_depth": [2, 3]},
                                 "gbm": {"n_rounds": [3, 5]}}},
            "eval": {"search_samples": 2},
        },
        # forward selection and OLS, the least-squares paths
        {"selection": {"mode": "forward"}, "models": {"families": ["ols", "lasso"]}},
    ], ids=["kbest_search", "forward_ols"])
    def test_run_loads_no_numpy_ma_scipy_or_hypothesis(self, tmp_path, overrides):
        # numpy.ma alone adds about 1 MB of peak RSS; the pipeline is numpy-only.
        # numpy.matrixlib always loads, so numpy.ma is checked by its exact name.
        cfg_path, _ = _write_config(tmp_path, {"generator": {"n_listings": 8}, **overrides})
        code = (
            "import json, sys\n"
            "from rentlab.cli import main\n"
            f"status = main(['run', '--config', {str(cfg_path)!r}])\n"
            "loaded = [m for m in ('numpy.ma', 'scipy', 'hypothesis') if m in sys.modules]\n"
            "print(json.dumps([status, loaded]))\n"
        )
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": str(REPO / "src")})
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout.splitlines()[-1]) == [0, []]

    def test_same_config_twice_byte_identical(self, tmp_path):
        cfg_path, out_dir = _write_config(tmp_path)
        main(["run", "--config", str(cfg_path)])
        first = (tmp_path / "out" / "eval_report.csv").read_bytes()
        first_shap = (tmp_path / "out" / "shap_ranking.csv").read_bytes()
        main(["run", "--config", str(cfg_path), "--out-dir", str(tmp_path / "out_b")])
        second = (tmp_path / "out_b" / "eval_report.csv").read_bytes()
        second_shap = (tmp_path / "out_b" / "shap_ranking.csv").read_bytes()
        assert first == second
        assert first_shap == second_shap

    def test_thread_env_does_not_change_outputs(self, tmp_path):
        cfg_path, _ = _write_config(tmp_path)
        for threads in (1, 2):
            run_cli_with_blas_threads(threads, "run", "--config", str(cfg_path),
                                      "--out-dir", str(tmp_path / f"t{threads}"))
        a = (tmp_path / "t1" / "eval_report.csv").read_bytes()
        b = (tmp_path / "t2" / "eval_report.csv").read_bytes()
        assert a == b

    def test_missing_lexicon_in_config_exits_2(self, tmp_path, capsys):
        cfg_path, _ = _write_config(
            tmp_path, {"sentiment": {"lexicon": "missing/lex.tsv"}}
        )
        status = main(["run", "--config", str(cfg_path)])
        assert status == 2
        assert "missing/lex.tsv" in capsys.readouterr().err

    def test_config_without_seed_exits_2(self, tmp_path, capsys):
        doc = json.loads(json.dumps(BASE_CONFIG))
        del doc["seed"]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["run", "--config", str(path)]) == 2
        assert "seed" in capsys.readouterr().err

    def test_invalid_json_exits_2(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        assert main(["run", "--config", str(path)]) == 2

    def test_run_reads_only_its_inputs(self, tmp_path, monkeypatch):
        import rentlab.cli

        cfg_path, out_dir = _write_config(tmp_path, {"selection": {"mode": "kbest", "k": 10}})
        read = []
        read_back = []
        real_read_csv = rentlab.cli.read_csv

        def recording_read_csv(path, schema):
            read.append(str(path))
            return real_read_csv(path, schema)

        def reader(name):
            def record(*args, **kwargs):
                read_back.append(name)
                raise AssertionError(f"run called {name}")
            return record

        monkeypatch.setattr(rentlab.cli, "read_csv", recording_read_csv)
        for name in ("matrix_from_csv", "load_model"):
            monkeypatch.setattr(rentlab.cli, name, reader(name))
        assert main(["run", "--config", str(cfg_path)]) == 0
        assert read_back == []
        inputs = [os.path.join(out_dir, f"{k}.csv") for k in ("listings", "calendar", "reviews")]
        assert sorted(read) == sorted(inputs)
        assert os.path.isfile(os.path.join(out_dir, "features_selected.csv"))
        assert os.path.isfile(os.path.join(out_dir, "sentiment_report.csv"))

    def test_empty_selection_exits_1(self, tmp_path, capsys):
        cfg_path, out_dir = _write_config(
            tmp_path, {"selection": {"mode": "forward", "min_rel_improvement": 10.0}}
        )
        assert main(["run", "--config", str(cfg_path)]) == 1
        assert "selection" in capsys.readouterr().err
        assert not os.path.exists(os.path.join(out_dir, "eval_report.csv"))

    def test_run_on_existing_input_csvs(self, tmp_path):
        data_dir = tmp_path / "data"
        main(["gen", "--seed", "21", "--listings", "14", "--start", "2023-01-01",
              "--end", "2023-01-10", "--out-dir", str(data_dir)])
        doc = json.loads(json.dumps(BASE_CONFIG))
        del doc["generator"]
        doc["inputs"] = {
            "listings": str(data_dir / "listings.csv"),
            "calendar": str(data_dir / "calendar.csv"),
            "reviews": str(data_dir / "reviews.csv"),
        }
        doc["output_dir"] = str(tmp_path / "out")
        cfg_path = tmp_path / "inputs.json"
        cfg_path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["run", "--config", str(cfg_path)]) == 0
        assert (tmp_path / "out" / "eval_report.csv").is_file()

    def test_run_on_ragged_input_csv_exits_1(self, tmp_path, capsys):
        data_dir = tmp_path / "data"
        main(["gen", "--seed", "21", "--listings", "6", "--start", "2023-01-01",
              "--end", "2023-01-05", "--out-dir", str(data_dir)])
        calendar = data_dir / "calendar.csv"
        lines = calendar.read_text(encoding="utf-8").splitlines()
        calendar.write_text("\n".join(lines + ["2,2023-01-02"]) + "\n", encoding="utf-8")
        doc = json.loads(json.dumps(BASE_CONFIG))
        del doc["generator"]
        doc["inputs"] = {k: str(data_dir / f"{k}.csv") for k in ("listings", "calendar", "reviews")}
        doc["output_dir"] = str(tmp_path / "out")
        cfg_path = tmp_path / "inputs.json"
        cfg_path.write_text(json.dumps(doc), encoding="utf-8")
        capsys.readouterr()
        assert main(["run", "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert f"calendar.csv: line {len(lines) + 1}: the row has 2 cells" in err

    def test_run_with_missing_input_csv_exits_2(self, tmp_path, capsys):
        doc = json.loads(json.dumps(BASE_CONFIG))
        del doc["generator"]
        doc["inputs"] = {
            "listings": str(tmp_path / "absent_listings.csv"),
            "calendar": str(tmp_path / "absent_calendar.csv"),
            "reviews": str(tmp_path / "absent_reviews.csv"),
        }
        doc["output_dir"] = str(tmp_path / "out")
        cfg_path = tmp_path / "inputs.json"
        cfg_path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["run", "--config", str(cfg_path)]) == 2
        assert "absent_listings.csv" in capsys.readouterr().err

    def test_wrangle_gap_flags_backfill_calendar(self, tmp_path):
        main(["gen", "--seed", "31", "--listings", "6", "--start", "2023-01-01",
              "--end", "2023-01-10", "--out-dir", str(tmp_path)])
        assert main(["wrangle", "--listings", str(tmp_path / "listings.csv"),
                     "--calendar", str(tmp_path / "calendar.csv"),
                     "--gap-start", "2023-02-01", "--gap-end", "2023-02-03",
                     "--out-dir", str(tmp_path)]) == 0
        cleaned = (tmp_path / "calendar_clean.csv").read_text().splitlines()[1:]
        gap_rows = [line for line in cleaned if ",2023-02-0" in line]
        # only listings whose history survived the outlier fences are backfilled
        survivors = {line.split(",")[0] for line in cleaned if ",2023-01-" in line}
        assert gap_rows
        assert len(gap_rows) == len(survivors) * 3
        report = (tmp_path / "wrangle_report.csv").read_text()
        assert "fill_calendar_gap" in report

    def test_selection_mode_kbest_writes_selection(self, tmp_path):
        cfg_path, out_dir = _write_config(
            tmp_path, {"selection": {"mode": "kbest", "k": 10}}
        )
        assert main(["run", "--config", str(cfg_path)]) == 0
        lines = (tmp_path / "out" / "selection.csv").read_text().splitlines()
        assert lines[0].startswith("feature,")
        assert len(lines) == 11


    def test_wrangle_gap_flag_without_other_end_exits_2(self, tmp_path, capsys):
        main(["gen", "--seed", "31", "--listings", "6", "--start", "2023-01-01",
              "--end", "2023-01-10", "--out-dir", str(tmp_path)])
        capsys.readouterr()
        assert main(["wrangle", "--listings", str(tmp_path / "listings.csv"),
                     "--calendar", str(tmp_path / "calendar.csv"),
                     "--gap-start", "2023-02-01", "--out-dir", str(tmp_path)]) == 2
        assert "wrangle.gap_end is missing" in capsys.readouterr().err
        assert not (tmp_path / "wrangle_report.csv").exists()


class TestStageComposition:
    def test_subcommands_reproduce_run_report(self, tmp_path):
        # defaults everywhere so stage flags can mirror the config exactly
        overrides = {
            "models": {"hyperparams": {}},
            "selection": {"mode": "kbest", "k": 10},
            "explain": {"top": 5, "rows": 3},
        }
        cfg_path, out_dir = _write_config(tmp_path, overrides)
        assert main(["run", "--config", str(cfg_path)]) == 0

        seed = BASE_CONFIG["seed"]
        stage_dir = tmp_path / "stages"
        os.makedirs(stage_dir)
        gen_doc = dict(BASE_CONFIG["generator"])
        gen_doc["seed"] = seed
        (stage_dir / "gen.json").write_text(json.dumps(gen_doc), encoding="utf-8")
        assert main(["gen", "--config", str(stage_dir / "gen.json"),
                     "--out-dir", str(stage_dir)]) == 0
        assert main(["wrangle", "--listings", str(stage_dir / "listings.csv"),
                     "--calendar", str(stage_dir / "calendar.csv"),
                     "--multiplier", "0.5", "--knn-k", "5",
                     "--out-dir", str(stage_dir)]) == 0
        assert main(["sentiment", str(stage_dir / "reviews.csv"),
                     "--listings", str(stage_dir / "listings_clean.csv"),
                     "--out", str(stage_dir / "reviews_scored.csv")]) == 0
        assert main(["featurize", "--listings", str(stage_dir / "listings_clean.csv"),
                     "--calendar", str(stage_dir / "calendar_clean.csv"),
                     "--reviews-scored", str(stage_dir / "reviews_scored.csv"),
                     "--amenity-k", "8",
                     "--out", str(stage_dir / "features.csv")]) == 0
        assert main(["select", "--features", str(stage_dir / "features.csv"),
                     "--mode", "kbest", "--k", "10", "--seed", str(seed),
                     "--out", str(stage_dir / "selection.csv")]) == 0
        # evaluate, train and explain read the restricted matrix select wrote
        selected = str(stage_dir / "features_selected.csv")
        assert main(["evaluate", "--features", selected,
                     "--families", "lasso", "ridge", "elastic", "forest", "gbm",
                     "--train-fraction", "0.8", "--cv-k", "3",
                     "--seed", str(seed),
                     "--out-dir", str(stage_dir)]) == 0

        # run refits the family with the best test R^2 on its chosen params
        reports = json.loads((stage_dir / "eval_report.json").read_text())["reports"]
        best = max(reports, key=lambda r: r["r_squared"])
        family = best["model_name"]
        (stage_dir / "params.json").write_text(json.dumps(best["config"]), encoding="utf-8")
        assert main(["train", "--features", selected,
                     "--family", family, "--params", str(stage_dir / "params.json"),
                     "--seed", str(_derived_seed(seed, FAMILIES.index(family), 1)),
                     "--out", str(stage_dir / "model.json")]) == 0
        assert main(["explain", "--model", str(stage_dir / "model.json"),
                     "--data", selected,
                     "--top", "5", "--rows", "3", "--seed", str(seed),
                     "--out", str(stage_dir / "shap_ranking.csv"),
                     "--explanations", str(stage_dir / "shap_explanations.json")]) == 0

        for artifact in (
            "listings_clean.csv", "calendar_clean.csv", "wrangle_report.csv",
            "reviews_scored.csv", "features.csv", "selection.csv", "features_selected.csv",
            "eval_report.csv", "eval_report.json", "model.json",
            "shap_ranking.csv", "shap_explanations.json",
        ):
            via_run = (tmp_path / "out" / artifact).read_bytes()
            via_stages = (stage_dir / artifact).read_bytes()
            assert via_run == via_stages, artifact


class TestListingPrice:
    def test_listings_own_price_is_not_a_feature(self, tmp_path):
        # a listings dump carries a nightly price of its own; joined to the
        # calendar it would be the target under the name price_r
        assert main(["gen", "--seed", "1", "--listings", "10", "--start", "2023-01-01",
                     "--end", "2023-01-10", "--out-dir", str(tmp_path)]) == 0
        listings, _ = read_csv(tmp_path / "listings.csv", LISTINGS_SCHEMA)
        price = Column.of("text", tuple(f"${100 + 7 * i}.00" for i in range(listings.n_rows)))
        write_csv(listings.with_column("price", price), tmp_path / "listings.csv")
        assert main(["wrangle", "--listings", str(tmp_path / "listings.csv"),
                     "--calendar", str(tmp_path / "calendar.csv"),
                     "--out-dir", str(tmp_path)]) == 0
        assert main(["featurize", "--listings", str(tmp_path / "listings_clean.csv"),
                     "--calendar", str(tmp_path / "calendar_clean.csv"),
                     "--out", str(tmp_path / "features.csv")]) == 0
        names = matrix_from_csv(str(tmp_path / "features.csv")).feature_names
        assert [n for n in names if "price" in n] == []


class TestWrangleAllMissing:
    # each once failed as "EmptyInputError: quantile of all-missing input"
    @pytest.mark.parametrize("table, column, step", [
        ("calendar", "price", "remove_outliers"),
        ("listings", "review_scores_rating", "impute_global_median"),
    ])
    def test_all_missing_column_exits_1_naming_column_and_step(self, tmp_path, capsys, table,
                                                                column, step):
        assert main(["gen", "--seed", "1", "--listings", "6", "--start", "2023-01-01",
                     "--end", "2023-01-03", "--out-dir", str(tmp_path)]) == 0
        schema = {"calendar": CALENDAR_SCHEMA, "listings": LISTINGS_SCHEMA}[table]
        path = tmp_path / f"{table}.csv"
        loaded, _ = read_csv(path, schema)
        empty = Column.of(loaded.column(column).kind, (None,) * loaded.n_rows)
        write_csv(loaded.with_column(column, empty), path)
        assert main(["wrangle", "--listings", str(tmp_path / "listings.csv"),
                     "--calendar", str(tmp_path / "calendar.csv"),
                     "--out-dir", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert f"{step}: {column!r} has no non-missing value" in err


class TestFeatureMatrixErrors:
    # line 3 of each file is bad; every subcommand reading a matrix exits 1
    # naming the file, the line and the column
    @pytest.mark.parametrize("bad_row, column", [
        ("4.0,5.0", "c"),  # ragged: the row stops before column c
        ("4.0,,6.0,7.0", "b"),  # an empty cell
        ("4.0,nan,6.0,7.0", "b"),  # a non-finite value
    ], ids=["ragged", "empty", "nan"])
    def test_bad_cell_exits_1_naming_file_line_and_column(self, tmp_path, capsys, bad_row, column):
        path = tmp_path / "features.csv"
        path.write_text(f"a,b,c,target\n1.0,2.0,3.0,4.0\n{bad_row}\n", encoding="utf-8")
        assert main(["train", "--features", str(path), "--family", "ols",
                     "--out", str(tmp_path / "model.json")]) == 1
        err = capsys.readouterr().err
        assert str(path) in err and "line 3" in err and repr(column) in err
        assert not (tmp_path / "model.json").exists()


class TestTrainSelectExplain:
    @pytest.fixture()
    def features_csv(self, tmp_path):
        main(["gen", "--seed", "3", "--listings", "15", "--start", "2023-01-01",
              "--end", "2023-01-10", "--out-dir", str(tmp_path)])
        main(["wrangle", "--listings", str(tmp_path / "listings.csv"),
              "--calendar", str(tmp_path / "calendar.csv"),
              "--out-dir", str(tmp_path)])
        main(["featurize", "--listings", str(tmp_path / "listings_clean.csv"),
              "--calendar", str(tmp_path / "calendar_clean.csv"),
              "--amenity-k", "6", "--out", str(tmp_path / "features.csv")])
        return tmp_path / "features.csv"

    def test_train_then_explain(self, tmp_path, features_csv):
        model_path = tmp_path / "model.json"
        assert main(["train", "--features", str(features_csv), "--family", "ridge",
                     "--out", str(model_path)]) == 0
        doc = json.loads(model_path.read_text())
        assert doc["family"] == "linear"

        ranking = tmp_path / "rank.csv"
        explanations = tmp_path / "expl.json"
        assert main(["explain", "--model", str(model_path), "--data", str(features_csv),
                     "--top", "5", "--rows", "3",
                     "--out", str(ranking), "--explanations", str(explanations)]) == 0
        lines = ranking.read_text().splitlines()
        assert lines[0] == "feature,mean_abs_shap"
        assert 1 < len(lines) <= 6
        docs = json.loads(explanations.read_text())
        assert len(docs) == 3
        for doc in docs:
            total = doc["base_value"] + sum(doc["values"].values())
            assert abs(total - doc["prediction"]) < 1e-6

    def test_explain_computes_each_row_once(self, tmp_path, features_csv, monkeypatch):
        import rentlab.cli
        import rentlab.select_explain

        calls = []
        real = rentlab.select_explain.shapley_values

        def counting(*args, **kwargs):
            calls.append(args[1])
            return real(*args, **kwargs)

        for module in (rentlab.cli, rentlab.select_explain):
            monkeypatch.setattr(module, "shapley_values", counting)
        model_path = tmp_path / "model.json"
        assert main(["train", "--features", str(features_csv), "--family", "gbm",
                     "--out", str(model_path)]) == 0
        ranking = tmp_path / "rank.csv"
        explanations = tmp_path / "expl.json"
        assert main(["explain", "--model", str(model_path), "--data", str(features_csv),
                     "--top", "50", "--rows", "3", "--seed", "4",
                     "--out", str(ranking), "--explanations", str(explanations)]) == 0
        assert len(calls) == 1 and calls[0].shape[0] == 3
        # the ranking is the mean |value| of the written explanations
        docs = json.loads(explanations.read_text())
        for line in ranking.read_text().splitlines()[1:]:
            name, value = line.split(",")
            total = 0.0
            for doc in docs:
                total += abs(doc["values"][name])
            assert float(value) == total / len(docs)

    def test_explain_on_header_only_features_exits_1(self, tmp_path, features_csv, capsys):
        model_path = tmp_path / "model.json"
        assert main(["train", "--features", str(features_csv), "--family", "ridge",
                     "--out", str(model_path)]) == 0
        empty = tmp_path / "empty.csv"
        empty.write_text(features_csv.read_text().splitlines()[0] + "\n", encoding="utf-8")
        capsys.readouterr()
        assert main(["explain", "--model", str(model_path), "--data", str(empty),
                     "--out", str(tmp_path / "rank.csv")]) == 1
        assert "no explained rows" in capsys.readouterr().err
        assert not (tmp_path / "rank.csv").exists()

    def test_evaluate_with_random_search(self, tmp_path, features_csv):
        assert main(["evaluate", "--features", str(features_csv),
                     "--families", "lasso", "forest",
                     "--cv-k", "3", "--search-samples", "2", "--seed", "5",
                     "--out-dir", str(tmp_path / "ev")]) == 0
        doc = json.loads((tmp_path / "ev" / "eval_report.json").read_text())
        assert set(doc["search"]) == {"lasso", "forest"}
        for meta in doc["search"].values():
            assert meta["n_trials"] == 2
            assert "cv_score" in meta

    def test_eval_report_records_cd_diagnostics(self, tmp_path, features_csv):
        from rentlab.evaluation import train_test_split
        from rentlab.features import matrix_from_csv
        from rentlab.models import HyperParams, fit_family

        assert main(["evaluate", "--features", str(features_csv),
                     "--families", "lasso", "ridge", "elastic", "forest", "gbm",
                     "--seed", "2", "--out-dir", str(tmp_path / "ev")]) == 0
        doc = json.loads((tmp_path / "ev" / "eval_report.json").read_text())
        matrix = matrix_from_csv(str(features_csv))
        train = matrix.take(train_test_split(matrix.n_rows, 0.8, 2)[0])
        for rep in doc["reports"]:
            family = rep["model_name"]
            if family in ("lasso", "ridge", "elastic"):
                model = fit_family(family, train, HyperParams())
                assert rep["converged"] is model.converged
                assert type(rep["n_iter"]) is int
                assert rep["n_iter"] == model.n_iter >= 1
            else:
                assert "converged" not in rep and "n_iter" not in rep
        header = (tmp_path / "ev" / "eval_report.csv").read_text().splitlines()[0]
        assert header == "Metric,lasso,ridge,elastic,forest,gbm"

    def test_select_forward_writes_ordered_list(self, tmp_path, features_csv):
        out = tmp_path / "sel.csv"
        assert main(["select", "--features", str(features_csv), "--mode", "forward",
                     "--max-features", "5", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "feature,order"
        assert len(lines) >= 2

    def test_seed_zero_runs_every_seeded_stage(self, tmp_path, features_csv):
        sel, model_path = tmp_path / "sel.csv", tmp_path / "model.json"
        selected = tmp_path / "features_selected.csv"
        assert main(["select", "--features", str(features_csv), "--mode", "forward",
                     "--max-features", "4", "--seed", "0", "--out", str(sel)]) == 0
        assert main(["train", "--features", str(selected), "--family", "gbm",
                     "--seed", "0", "--out", str(model_path)]) == 0
        assert main(["evaluate", "--features", str(selected), "--families", "ols", "forest",
                     "--seed", "0", "--out-dir", str(tmp_path / "ev")]) == 0
        assert main(["explain", "--model", str(model_path), "--data", str(selected),
                     "--rows", "2", "--seed", "0", "--out", str(tmp_path / "rank.csv")]) == 0

    def test_train_on_selection(self, tmp_path, features_csv):
        sel = tmp_path / "sel.csv"
        assert main(["select", "--features", str(features_csv), "--mode", "kbest",
                     "--k", "5", "--out", str(sel)]) == 0
        chosen = [line.split(",")[0] for line in sel.read_text().splitlines()[1:]]
        selected = tmp_path / "features_selected.csv"
        assert selected.read_text().splitlines()[0].split(",") == chosen + ["target"]
        model_path = tmp_path / "model.json"
        assert main(["train", "--features", str(selected), "--family", "ols",
                     "--out", str(model_path)]) == 0
        doc = json.loads(model_path.read_text())
        assert len(doc["coefficients"]) == 5
        assert doc["feature_names"] == chosen

    def test_empty_selection_exits_1(self, tmp_path, features_csv, capsys):
        sel = tmp_path / "sel.csv"
        assert main(["select", "--features", str(features_csv), "--mode", "forward",
                     "--min-rel-improvement", "10.0", "--out", str(sel)]) == 1
        assert "selection chose no features" in capsys.readouterr().err
        assert sel.read_text().splitlines() == ["feature,order"]
        assert not (tmp_path / "features_selected.csv").exists()

    def test_explain_has_no_budget_flag(self, tmp_path, features_csv, capsys):
        # Shapley values are exact, so there is no permutation budget to set
        with pytest.raises(SystemExit) as exc:
            main(["explain", "--model", str(tmp_path / "model.json"), "--data", str(features_csv),
                  "--budget", "5"])
        assert exc.value.code == 2
        assert "--budget" in capsys.readouterr().err

    def test_explain_on_other_columns_exits_1_naming_them(self, tmp_path, features_csv, capsys):
        sel = tmp_path / "sel.csv"
        assert main(["select", "--features", str(features_csv), "--mode", "kbest",
                     "--k", "4", "--out", str(sel)]) == 0
        model_path = tmp_path / "model.json"
        assert main(["train", "--features", str(tmp_path / "features_selected.csv"),
                     "--family", "gbm", "--out", str(model_path)]) == 0
        capsys.readouterr()
        assert main(["explain", "--model", str(model_path), "--data", str(features_csv),
                     "--rows", "2",
                     "--out", str(tmp_path / "rank.csv")]) == 1
        err = capsys.readouterr().err
        chosen = {line.split(",")[0] for line in sel.read_text().splitlines()[1:]}
        header = features_csv.read_text().splitlines()[0].split(",")[:-1]
        assert "unexpected" in err and "missing" not in err
        for name in header:
            assert (repr(name) in err) == (name not in chosen)
        assert not (tmp_path / "rank.csv").exists()

    def test_stage_explain_checks_columns_first(self, tmp_path, features_csv):
        model_path = tmp_path / "model.json"
        assert main(["train", "--features", str(features_csv), "--family", "ridge",
                     "--out", str(model_path)]) == 0
        full = matrix_from_csv(str(features_csv))
        names = list(full.feature_names)
        dropped = full.select(names[1:])
        with pytest.raises(ValueError, match=re.escape(f"missing [{names[0]!r}]")):
            stage_explain(load_model(str(model_path)), dropped, str(tmp_path / "rank.csv"))
        reordered = full.select(names[1:] + names[:1])
        with pytest.raises(ValueError, match="order"):
            stage_explain(load_model(str(model_path)), reordered, str(tmp_path / "rank.csv"))
        assert not (tmp_path / "rank.csv").exists()

    def test_train_and_evaluate_take_no_selection(self, capsys):
        for command in ("train", "evaluate"):
            with pytest.raises(SystemExit) as excinfo:
                main([command, "--help"])
            assert excinfo.value.code == 0
            assert "selection" not in capsys.readouterr().out

    def test_params_with_mistyped_value_exits_2(self, tmp_path, features_csv, capsys):
        params = tmp_path / "params.json"
        params.write_text(json.dumps({"max_depth": "3"}), encoding="utf-8")
        assert main(["train", "--features", str(features_csv), "--family", "gbm",
                     "--params", str(params), "--out", str(tmp_path / "model.json")]) == 2
        assert "params.max_depth is not a JSON int: '3'" in capsys.readouterr().err
        assert not (tmp_path / "model.json").exists()

    def test_params_with_unknown_key_exits_2(self, tmp_path, features_csv, capsys):
        params = tmp_path / "params.json"
        params.write_text(json.dumps({"max_depht": 3}), encoding="utf-8")
        assert main(["train", "--features", str(features_csv), "--family", "gbm",
                     "--params", str(params), "--out", str(tmp_path / "model.json")]) == 2
        assert "max_depht" in capsys.readouterr().err
        assert not (tmp_path / "model.json").exists()


class TestUsageErrors:
    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code == 2

    def test_no_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["select", "--features", "f.csv", "--mode", "forward"],
        ["train", "--features", "f.csv", "--family", "gbm"],
        ["evaluate", "--features", "f.csv"],
        ["explain", "--model", "m.json", "--data", "f.csv"],
    ])
    def test_negative_seed_exits_2_naming_the_flag(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([*argv, "--seed", "-1"])
        assert excinfo.value.code == 2
        assert "argument --seed: expected a non-negative integer" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["select", "--features", "f.csv", "--k", "0"], "selection.k must be >= "),
        (["select", "--features", "f.csv", "--mode", "forward", "--max-features", "0"],
         "selection.max_features must be >= "),
        (["wrangle", "--listings", "l.csv", "--calendar", "c.csv", "--multiplier", "-1"],
         "wrangle.multiplier must be >= "),
        # argparse reads nan and inf as floats; these once ran and exited 0
        (["gen", "--noise-std", "nan"], "generator.noise_std is not a finite number: nan"),
        (["wrangle", "--listings", "l.csv", "--calendar", "c.csv", "--multiplier", "inf"],
         "wrangle.multiplier is not a finite number: inf"),
    ])
    def test_out_of_range_flag_exits_2_naming_it(self, argv, message, tmp_path, monkeypatch,
                                                 capsys):
        monkeypatch.chdir(tmp_path)  # gen and wrangle write to the working directory
        assert main(argv) == 2
        assert f"config error: {message}" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_python_dash_m_runs_the_cli(self):
        done = subprocess.run([sys.executable, "-m", "rentlab", "--version"], capture_output=True,
                              text=True, env={**os.environ, "PYTHONPATH": str(REPO / "src")})
        assert (done.returncode, done.stdout) == (0, f"rentlab {__version__}\n")

    def test_missing_features_file_exits_2(self, capsys):
        assert main(["train", "--features", "nope.csv", "--family", "ols"]) == 2
        assert "nope.csv" in capsys.readouterr().err


class TestConfigKeys:
    @pytest.mark.parametrize("overrides, name", [
        ({"selecton": {"mode": "kbest", "k": 5}}, "selecton"),
        ({"wrangle": {"multipler": 2.0}}, "multipler"),
        ({"explain": {"budgett": 3}}, "budgett"),
        ({"models": {"hyperparams": {"max_depht": 3}}}, "max_depht"),
        ({"models": {"grids": {"gbm": {"n_round": [5, 10]}}}}, "n_round"),
        ({"models": {"grids": {"gmb": {"n_rounds": [5, 10]}}}}, "gmb"),
        # generator keys that only fed an ordering check are gone
        ({"generator": {"q1": 100.0}}, "q1"),
        ({"generator": {"q3_weekday": 260.0}}, "q3_weekday"),
        ({"generator": {"q3_weekend": 290.0}}, "q3_weekend"),
    ])
    def test_unknown_key_exits_2_naming_it(self, tmp_path, capsys, overrides, name):
        cfg_path, out_dir = _write_config(tmp_path, overrides)
        doc = json.loads(cfg_path.read_text())
        with pytest.raises(ConfigError, match=name):
            PipelineConfig.from_doc(doc)
        assert main(["run", "--config", str(cfg_path)]) == 2
        assert name in capsys.readouterr().err
        assert not os.path.exists(out_dir)

    def test_benchmark_workload_configs_load(self, tmp_path):
        spec = importlib.util.spec_from_file_location("workloads", REPO / "bench" / "workloads.py")
        workloads = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
        inputs = {k: str(tmp_path / f"{k}.csv") for k in ("listings", "calendar", "reviews")}
        for name in workloads.WORKLOADS:
            cfg = PipelineConfig.from_doc(workloads.pipeline_doc(name, 1, inputs, str(tmp_path)))
            assert cfg.inputs == inputs



class TestConfigValues:
    @pytest.mark.parametrize("overrides, name", [
        ({"wrangle": {"knn_k": "ten"}}, "wrangle.knn_k"),
        ({"features": {"standardize": "false"}}, "features.standardize"),
        ({"selection": {"k": 40.7}}, "selection.k"),
        ({"seed": 7.9}, "seed"),
        ({"models": {"families": "lasso"}}, "models.families"),
        ({"models": {"families": []}}, "models.families"),
        ({"models": {"families": ["lasso", "lassoo"]}}, "models.families"),
        ({"models": {"families": ["lasso", "ridge", "lasso"]}}, "models.families"),
        ({"explain": {"rows": True}}, "explain.rows"),
        ({"models": {"hyperparams": {"max_depth": -1}}}, "models.hyperparams.max_depth"),
        ({"models": {"grids": {"gbm": {"learning_rate": [0.0]}}}},
         "models.grids.gbm.learning_rate"),
        ({"wrangle": {"gap_start": "2023-02-01"}}, "wrangle.gap_end"),
        ({"wrangle": {"gap_start": "2023-02-30", "gap_end": "2023-03-02"}}, "wrangle.gap_start"),
        # range checks
        ({"eval": {"train_fraction": 1.5}}, "eval.train_fraction"),
        ({"eval": {"train_fraction": 0}}, "eval.train_fraction"),
        ({"eval": {"cv_k": 1}}, "eval.cv_k"),
        ({"explain": {"rows": -1}}, "explain.rows"),
        ({"explain": {"budget": 0}}, "explain.budget"),
        ({"features": {"amenity_k": 0}}, "features.amenity_k"),
        ({"wrangle": {"knn_k": 0}}, "wrangle.knn_k"),
        ({"wrangle": {"multiplier": -1.0}}, "wrangle.multiplier"),
        # json reads NaN and Infinity: these once ran, fitting intercepts only, dropping
        # the noise or failing later as an empty join
        ({"wrangle": {"multiplier": float("nan")}}, "wrangle.multiplier"),
        ({"models": {"hyperparams": {"alpha": float("nan")}}}, "models.hyperparams.alpha"),
        ({"generator": {"noise_std": float("nan")}}, "generator.noise_std"),
        ({"selection": {"min_rel_improvement": float("nan")}}, "selection.min_rel_improvement"),
        ({"generator": {"true_coefficients": {"Pool": float("inf")}}},
         "generator.true_coefficients.Pool"),
        ({"models": {"grids": {"gbm": {"learning_rate": [0.1, float("inf")]}}}},
         "models.grids.gbm.learning_rate"),
        ({"selection": {"mode": "kbest", "k": 0}}, "selection.k"),
        ({"selection": {"mode": "forward", "max_features": 0}}, "selection.max_features"),
        ({"explain": {"top": 0}}, "explain.top"),
        ({"explain": {"top": -1}}, "explain.top"),
        ({"eval": {"search_samples": -3}}, "eval.search_samples"),
        ({"seed": -1}, "seed"),
        # once "[Errno 2] No such file or directory: ''"
        ({"output_dir": ""}, "output_dir"),
        # the generator section goes through the same loader
        ({"generator": {"n_listings": 2.5}}, "generator.n_listings"),
        ({"generator": {"n_listings": 0}}, "generator.n_listings"),
        # once numpy's bare "Maximum allowed dimension exceeded", exit 1
        ({"generator": {"n_listings": 10**19}}, "generator.n_listings"),
        ({"generator": {"date_range": ["2023-02-30", "2023-03-02"]}}, "generator.date_range[0]"),
        ({"generator": {"date_range": ["2023-01-01"]}}, "generator.date_range"),
        ({"generator": {"peak_months": [3, "oct"]}}, "generator.peak_months[1]"),
        ({"generator": {"true_coefficients": {"Pool": "15"}}}, "generator.true_coefficients.Pool"),
        ({"generator": {"seed": -1}}, "generator.seed"),
        ({"generator": {"max_reviews_per_listing": -1}}, "generator.max_reviews_per_listing"),
        ({"generator": {"weekday_median": 0}}, "generator.weekday_median"),
        ({"generator": {"weekend_median": -5.0}}, "generator.weekend_median"),
    ])
    def test_bad_value_exits_2_naming_it(self, tmp_path, capsys, overrides, name):
        cfg_path, out_dir = _write_config(tmp_path, overrides)
        doc = json.loads(cfg_path.read_text())
        with pytest.raises(ConfigError, match=rf"^{re.escape(name)} "):
            PipelineConfig.from_doc(doc)
        assert main(["run", "--config", str(cfg_path)]) == 2
        assert f"config error: {name} " in capsys.readouterr().err
        assert not os.path.exists(out_dir)

    def test_negative_seed_flag_exits_2_naming_it(self, tmp_path, capsys):
        cfg_path, out_dir = _write_config(tmp_path)
        assert main(["run", "--config", str(cfg_path), "--seed", "-1"]) == 2
        assert "config error: seed " in capsys.readouterr().err
        assert not os.path.exists(out_dir)

    def test_zero_reviews_per_listing_runs(self, tmp_path):
        cfg_path, out_dir = _write_config(tmp_path, {"generator": {"max_reviews_per_listing": 0}})
        assert main(["run", "--config", str(cfg_path)]) == 0
        assert (Path(out_dir) / "reviews.csv").read_text().count("\n") == 1  # header only
        assert (Path(out_dir) / "shap_ranking.csv").is_file()

    def test_int_for_float_field_cleans_alike(self, tmp_path):
        main(["gen", "--seed", "31", "--listings", "8", "--start", "2023-01-01",
              "--end", "2023-01-10", "--outlier-fraction", "0.05", "--out-dir", str(tmp_path)])
        reports = []
        for value in (1, 1.0):
            cfg_path, _ = _write_config(tmp_path, {"wrangle": {"multiplier": value}})
            opts = PipelineConfig.from_doc(json.loads(cfg_path.read_text())).wrangle
            assert type(opts.multiplier) is float
            out = tmp_path / f"wrangle_{value!r}"
            stage_wrangle(str(tmp_path / "listings.csv"), str(tmp_path / "calendar.csv"),
                          str(out), opts)
            reports.append((out / "wrangle_report.csv").read_bytes())
        assert reports[0] == reports[1]


class TestConfigFlags:
    # the subcommand whose flags set each section's fields
    COMMANDS = {
        Wrangle: "wrangle", Features: "featurize", Sentiment: "sentiment",
        Selection: "select", Models: "evaluate", Eval: "evaluate", Explain: "explain",
    }
    # JSON documents with no flag; `train --params` reads a hyperparams file
    JSON_ONLY = {(Models, "hyperparams"), (Models, "grids")}
    # loadable but without effect (Shapley values are exact), so no flag sets it
    INERT = {(Explain, "budget")}

    def _actions(self, command):
        subcommands = build_parser()._subparsers._group_actions[0].choices
        return {a.dest: a for a in subcommands[command]._actions}

    def test_sections_are_the_config_sections(self):
        hints = get_type_hints(PipelineConfig)
        assert {tp for tp in hints.values() if is_dataclass(tp)} == set(self.COMMANDS)

    def test_every_section_field_is_a_flag_of_the_same_name(self):
        for cls, command in self.COMMANDS.items():
            actions = self._actions(command)
            for name in cls.__dataclass_fields__:
                if (cls, name) in self.JSON_ONLY | self.INERT:
                    continue
                assert f"--{name.replace('_', '-')}" in actions[name].option_strings, (cls, name)

    def test_absent_flags_keep_the_section_defaults(self):
        required = {"wrangle": ["--listings", "l", "--calendar", "c"],
                    "featurize": ["--listings", "l", "--calendar", "c"],
                    "sentiment": ["r"], "select": ["--features", "f"],
                    "evaluate": ["--features", "f"],
                    "explain": ["--model", "m", "--data", "d"]}
        parser = build_parser()
        for cls, command in self.COMMANDS.items():
            args = parser.parse_args([command, *required[command]])
            expected = Selection(mode="kbest") if cls is Selection else cls()
            assert _from_flags(cls, args) == expected, command


def _readme_blocks(lang: str) -> list[str]:
    text = (REPO / "README.md").read_text(encoding="utf-8")
    return re.findall(rf"```{lang}\n(.*?)```", text, flags=re.S)


class TestReadme:
    def test_demo_config_is_the_readme_config(self):
        example = json.loads((REPO / "examples" / "demo.json").read_text(encoding="utf-8"))
        (block,) = [b for b in _readme_blocks("json") if '"generator"' in b]
        assert json.loads(block) == example
        assert "budget" not in example["explain"]
        assert any("rentlab run --config examples/demo.json" in b for b in _readme_blocks("sh"))

    def test_stage_by_stage_example_runs_verbatim(self, tmp_path):
        (block,) = [b for b in _readme_blocks("sh") if "rentlab gen " in b]
        lines = block.replace("\\\n", " ").splitlines()
        commands = [shlex.split(line)[1:] for line in lines if line.startswith("rentlab ")]
        assert [argv[0] for argv in commands] == [
            "gen", "wrangle", "sentiment", "featurize", "select", "evaluate", "train", "explain",
        ]
        for argv in commands:
            mapped = [
                str(tmp_path / arg[len("data/"):]) if arg.startswith("data/")
                else str(tmp_path) if arg == "data" else arg
                for arg in argv
            ]
            assert main(mapped) == 0, " ".join(argv)
        assert (tmp_path / "shap_ranking.csv").is_file()
