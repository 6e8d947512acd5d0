import importlib.util
import json
import os
import re
import shlex
from pathlib import Path

import pytest

from rentlab.cli import ConfigError, PipelineConfig, main, stage_explain
from rentlab.evaluation import _derived_seed
from rentlab.features import matrix_from_csv
from rentlab.models import FAMILIES, load_model

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
    "explain": {"top": 10, "budget": 20, "rows": 4},
}


def _write_config(tmp_path, overrides=None, name="config.json"):
    doc = json.loads(json.dumps(BASE_CONFIG))
    for key, value in (overrides or {}).items():
        if isinstance(value, dict):
            doc.setdefault(key, {}).update(value)
        else:
            doc[key] = value
    doc["output_dir"] = str(tmp_path / "out")
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

    def test_thread_env_does_not_change_outputs(self, tmp_path, monkeypatch):
        cfg_path, _ = _write_config(tmp_path)
        monkeypatch.setenv("RENTLAB_THREADS", "1")
        main(["run", "--config", str(cfg_path), "--out-dir", str(tmp_path / "t1")])
        monkeypatch.setenv("RENTLAB_THREADS", "4")
        main(["run", "--config", str(cfg_path), "--out-dir", str(tmp_path / "t4")])
        a = (tmp_path / "t1" / "eval_report.csv").read_bytes()
        b = (tmp_path / "t4" / "eval_report.csv").read_bytes()
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


class TestStageComposition:
    def test_subcommands_reproduce_run_report(self, tmp_path):
        # defaults everywhere so stage flags can mirror the config exactly
        overrides = {
            "models": {"hyperparams": {}},
            "selection": {"mode": "kbest", "k": 10},
            "explain": {"top": 5, "budget": 10, "rows": 3},
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
                     "--top", "5", "--budget", "10", "--rows", "3", "--seed", str(seed),
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
                     "--top", "5", "--budget", "15", "--rows", "3",
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
            calls.append(kwargs["seed"])
            return real(*args, **kwargs)

        for module in (rentlab.cli, rentlab.select_explain):
            monkeypatch.setattr(module, "shapley_values", counting)
        model_path = tmp_path / "model.json"
        assert main(["train", "--features", str(features_csv), "--family", "gbm",
                     "--out", str(model_path)]) == 0
        ranking = tmp_path / "rank.csv"
        explanations = tmp_path / "expl.json"
        assert main(["explain", "--model", str(model_path), "--data", str(features_csv),
                     "--top", "50", "--budget", "5", "--rows", "3", "--seed", "4",
                     "--out", str(ranking), "--explanations", str(explanations)]) == 0
        assert calls == [4, 5, 6]
        # the ranking is the mean |value| of the written explanations
        docs = json.loads(explanations.read_text())
        for line in ranking.read_text().splitlines()[1:]:
            name, value = line.split(",")
            total = 0.0
            for doc in docs:
                total += abs(doc["values"][name])
            assert float(value) == total / len(docs)

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
        train, _ = train_test_split(matrix_from_csv(str(features_csv)), 0.8, 2)
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

    def test_explain_on_other_columns_exits_1_naming_them(self, tmp_path, features_csv, capsys):
        sel = tmp_path / "sel.csv"
        assert main(["select", "--features", str(features_csv), "--mode", "kbest",
                     "--k", "4", "--out", str(sel)]) == 0
        model_path = tmp_path / "model.json"
        assert main(["train", "--features", str(tmp_path / "features_selected.csv"),
                     "--family", "gbm", "--out", str(model_path)]) == 0
        capsys.readouterr()
        assert main(["explain", "--model", str(model_path), "--data", str(features_csv),
                     "--budget", "2", "--rows", "2",
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


def _readme_blocks(lang: str) -> list[str]:
    text = (REPO / "README.md").read_text(encoding="utf-8")
    return re.findall(rf"```{lang}\n(.*?)```", text, flags=re.S)


class TestReadme:
    def test_demo_config_is_the_readme_config(self):
        example = json.loads((REPO / "examples" / "demo.json").read_text(encoding="utf-8"))
        (block,) = [b for b in _readme_blocks("json") if '"generator"' in b]
        assert json.loads(block) == example
        assert PipelineConfig.from_doc(example).explain_budget == 200
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
