"""Self-test of the output checks: each one passes on real artifacts and
rejects a deliberately corrupted copy.

    python3 bench/test_checks.py

Two small `rentlab run`s (a kbest/ols one and a forward/gbm one) are made
once in a scratch directory of the checkout; every test corrupts its own
copy of one of them.
"""

from __future__ import annotations

import csv
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from checks import CheckError, check_run  # noqa: E402
from run import WORK_ROOT, child_env, digest  # noqa: E402

GENERATOR = {"n_listings": 16, "date_range": ["2023-01-01", "2023-01-21"], "noise_std": 9.0,
             "outlier_fraction": 0.01, "seed": 3}
CONFIGS = {
    "ols": {
        "selection": {"mode": "kbest", "k": 6},
        "models": {"families": ["ols"]},
        "explain": {"top": 5, "budget": 2, "rows": 3},
    },
    "forward": {
        "selection": {"mode": "forward", "max_features": 5},
        "models": {"families": ["lasso", "gbm"],
                   "hyperparams": {"n_rounds": 5, "max_depth": 2, "learning_rate": 0.3}},
        "explain": {"top": 5, "budget": 2, "rows": 3},
    },
}


def _child(*argv: str) -> None:
    subprocess.run([sys.executable, os.path.join(HERE, "child.py"), *argv],
                   check=True, env=child_env(), stdout=subprocess.DEVNULL, timeout=120)


def read_rows(path: str) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def write_rows(path: str, rows: list[list[str]]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)


def edit_json(path: str, change) -> None:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    change(doc)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


class ChecksTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        os.makedirs(WORK_ROOT, exist_ok=True)
        cls.tmp = tempfile.mkdtemp(prefix="selftest-", dir=WORK_ROOT)
        with open(os.path.join(cls.tmp, "generator.json"), "w", encoding="utf-8") as fh:
            json.dump(GENERATOR, fh)
        inputs_dir = os.path.join(cls.tmp, "inputs")
        _child("gen", os.path.join(cls.tmp, "generator.json"), inputs_dir)
        inputs = {k: os.path.join(inputs_dir, f"{k}.csv") for k in ("listings", "calendar", "reviews")}
        cls.configs = {}
        for name, parts in CONFIGS.items():
            config = {"version": 1, "seed": 5, "inputs": inputs,
                      "output_dir": os.path.join(cls.tmp, name), **parts}
            path = os.path.join(cls.tmp, f"{name}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(config, fh)
            _child("run", path)
            cls.configs[name] = config

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.tmp, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass

    def copy(self, name: str) -> str:
        dst = tempfile.mkdtemp(prefix="case-", dir=self.tmp)
        shutil.copytree(self.configs[name]["output_dir"], dst, dirs_exist_ok=True)
        return dst

    def rejects(self, name: str, corrupt, message: str) -> None:
        out = self.copy(name)
        corrupt(out)
        with self.assertRaisesRegex(CheckError, message):
            check_run(out, self.configs[name])

    def test_clean_runs_pass(self):
        best = check_run(self.configs["ols"]["output_dir"], self.configs["ols"])
        self.assertEqual(best["family"], "ols")
        check_run(self.configs["forward"]["output_dir"], self.configs["forward"])

    def test_missing_artifact(self):
        self.rejects("ols", lambda d: os.remove(os.path.join(d, "shap_ranking.csv")), "missing")

    def test_empty_artifact(self):
        self.rejects("ols", lambda d: open(os.path.join(d, "wrangle_report.csv"), "w").close(), "empty")

    def test_non_finite_csv_cell(self):
        def corrupt(d):
            path = os.path.join(d, "calendar_clean.csv")
            rows = read_rows(path)
            rows[2][-1] = "nan"
            write_rows(path, rows)
        self.rejects("ols", corrupt, "non-finite cell")

    def test_non_finite_json_value(self):
        def corrupt(d):
            edit_json(os.path.join(d, "eval_report.json"),
                      lambda doc: doc["reports"][0].__setitem__("mae", float("inf")))
        self.rejects("ols", corrupt, "non-finite JSON constant")

    def test_shapley_efficiency(self):
        def corrupt(d):
            def change(doc):
                values = doc[1]["values"]
                values[next(iter(values))] += 0.5
            edit_json(os.path.join(d, "shap_explanations.json"), change)
        self.rejects("forward", corrupt, "efficiency residual")

    def test_shap_ranking(self):
        def corrupt(d):
            path = os.path.join(d, "shap_ranking.csv")
            rows = read_rows(path)
            rows[1][1] = repr(float(rows[1][1]) * 1.01)
            write_rows(path, rows)
        self.rejects("ols", corrupt, "explanations give")

    def test_kbest_set(self):
        def corrupt(d):
            names = read_rows(os.path.join(d, "features.csv"))[0][:-1]
            path = os.path.join(d, "selection.csv")
            rows = read_rows(path)
            chosen = {r[0] for r in rows[1:]}
            rows[-1][0] = next(n for n in names if n not in chosen)
            write_rows(path, rows)
        self.rejects("ols", corrupt, "selection.csv: picks")

    def test_kbest_score(self):
        def corrupt(d):
            path = os.path.join(d, "selection.csv")
            rows = read_rows(path)
            rows[1][1] = repr(float(rows[1][1]) * 1.001)
            write_rows(path, rows)
        self.rejects("ols", corrupt, "numpy gives")

    def test_forward_first_pick(self):
        def corrupt(d):
            path = os.path.join(d, "selection.csv")
            rows = read_rows(path)
            rows[1][0], rows[2][0] = rows[2][0], rows[1][0]
            write_rows(path, rows)
        self.rejects("forward", corrupt, "first pick")

    def test_rmse_below_mae(self):
        def corrupt(d):
            edit_json(os.path.join(d, "eval_report.json"),
                      lambda doc: doc["reports"][0].__setitem__("rmse", doc["reports"][0]["mae"] / 2))
        self.rejects("forward", corrupt, "< mae")

    def test_r_squared_above_one(self):
        def corrupt(d):
            edit_json(os.path.join(d, "eval_report.json"),
                      lambda doc: doc["reports"][0].__setitem__("r_squared", 1.5))
        self.rejects("forward", corrupt, "> 1")

    def test_best_not_below_constant_mean(self):
        def corrupt(d):
            def change(doc):
                best = max(doc["reports"], key=lambda r: r["r_squared"])
                best["rmse"] = best["mae"] = 1e6
            edit_json(os.path.join(d, "eval_report.json"), change)
        self.rejects("forward", corrupt, "constant-mean")

    def test_model_family(self):
        def corrupt(d):
            edit_json(os.path.join(d, "model.json"), lambda doc: doc.__setitem__("family", "forest"))
        self.rejects("ols", corrupt, "model.json: family")

    def test_ols_coefficients(self):
        def corrupt(d):
            def change(doc):
                doc["coefficients"][0] *= 1.001
            edit_json(os.path.join(d, "model.json"), change)
        self.rejects("ols", corrupt, "differ from lstsq")

    def test_rerun_digest_detects_change(self):
        out = self.copy("ols")
        names = ["features.csv", "model.json"]
        before = digest(out, names)
        edit_json(os.path.join(out, "model.json"), lambda doc: doc.__setitem__("intercept", 0.0))
        self.assertNotEqual(digest(out, names), before)


if __name__ == "__main__":
    unittest.main()
