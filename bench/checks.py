"""Output checks for one `rentlab run`, computed apart from rentlab.

Nothing here imports rentlab or compares against a stored copy of earlier
output. Each check either recomputes a quantity with numpy/scipy from the
artifacts (F-scores, least squares, the constant-mean predictor, the greedy
first pick of forward selection) or tests a property the method must have
(Shapley efficiency, rmse >= mae, R^2 <= 1). A failed check raises
CheckError naming the artifact and what is wrong.
"""

from __future__ import annotations

import csv
import json
import math
import os
import re

import numpy as np

TARGET = "target"
BASE_ARTIFACTS = (
    "listings_clean.csv",
    "calendar_clean.csv",
    "wrangle_report.csv",
    "reviews_scored.csv",
    "features.csv",
    "eval_report.csv",
    "eval_report.json",
    "model.json",
    "shap_ranking.csv",
    "shap_explanations.json",
)
SELECTION_ARTIFACTS = ("selection.csv", "features_selected.csv")

# a CSV cell that Python's float() reads as NaN or +-inf
_NON_FINITE_CELL = re.compile(
    rb'(?:^|,)"?\s*[-+]?(?:nan|inf|infinity)\s*"?(?=,|\r?$)', re.IGNORECASE | re.MULTILINE
)


class CheckError(AssertionError):
    """An artifact of the run is missing, malformed or wrong."""


def expected_artifacts(config: dict) -> list[str]:
    names = list(BASE_ARTIFACTS)
    if config.get("selection", {}).get("mode", "none") != "none":
        names += SELECTION_ARTIFACTS
    return names


def _reject_constant(name: str):
    raise CheckError(f"non-finite JSON constant {name}")


def load_json(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh, parse_constant=_reject_constant)


def read_matrix(path: str) -> tuple[list[str], np.ndarray, np.ndarray]:
    """(feature names, X, y) of a feature-matrix CSV."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        data = np.array([[float(c) for c in row] for row in reader if row], dtype=np.float64)
    if header[-1] != TARGET:
        raise CheckError(f"{path}: last column is {header[-1]!r}, not {TARGET!r}")
    if data.ndim != 2 or data.shape[1] != len(header):
        raise CheckError(f"{path}: ragged or empty matrix")
    return header[:-1], data[:, :-1], data[:, -1]


def read_column(path: str, column: str) -> list[str]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    if rows and column not in rows[0]:
        raise CheckError(f"{path}: no column {column!r}")
    return [r[column] for r in rows]


def check_artifacts(out_dir: str, names: list[str]) -> None:
    """Every artifact exists, is non-empty and holds no NaN/inf."""
    for name in names:
        path = os.path.join(out_dir, name)
        if not os.path.isfile(path):
            raise CheckError(f"{name}: missing")
        if os.path.getsize(path) == 0:
            raise CheckError(f"{name}: empty")
        if name.endswith(".json"):
            load_json(path)
            continue
        with open(path, "rb") as fh:
            text = fh.read()
        if text.count(b"\n") < 2:
            raise CheckError(f"{name}: header only")
        hit = _NON_FINITE_CELL.search(text)
        if hit:
            line = text.count(b"\n", 0, hit.start()) + 1
            raise CheckError(f"{name}: non-finite cell on line {line}")


def check_shapley_efficiency(explanations: list[dict], feature_names: list[str]) -> None:
    """prediction = base + sum(phi) for every explained row."""
    if not explanations:
        raise CheckError("shap_explanations.json: no rows")
    for i, row in enumerate(explanations):
        if sorted(row["values"]) != sorted(feature_names):
            raise CheckError(f"shap_explanations.json row {i}: features differ from the matrix")
        pred = float(row["prediction"])
        resid = pred - float(row["base_value"]) - math.fsum(row["values"].values())
        if not abs(resid) <= 1e-6 * (1.0 + abs(pred)):
            raise CheckError(f"shap_explanations.json row {i}: efficiency residual {resid!r}")


def check_shap_ranking(ranking_path: str, explanations: list[dict]) -> None:
    """shap_ranking.csv is sorted and equals the mean |phi| of the explanations."""
    names = read_column(ranking_path, "feature")
    values = [float(v) for v in read_column(ranking_path, "mean_abs_shap")]
    if not names:
        raise CheckError("shap_ranking.csv: no rows")
    if any(a < b for a, b in zip(values, values[1:])):
        raise CheckError("shap_ranking.csv: not sorted by mean |phi|")
    for name, value in zip(names, values):
        ref = float(np.mean([abs(row["values"][name]) for row in explanations]))
        if not abs(value - ref) <= 1e-9 * (1.0 + abs(ref)):
            raise CheckError(f"shap_ranking.csv: {name} has {value!r}, explanations give {ref!r}")


def f_statistics(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Univariate regression F-statistic of every column against y."""
    n = x.shape[0]
    xc = x - x.mean(axis=0)
    yc = y - y.mean()
    r = (xc.T @ yc) / (np.sqrt((xc * xc).sum(axis=0)) * math.sqrt(float(yc @ yc)))
    r2 = np.minimum(r * r, 1.0)
    with np.errstate(divide="ignore"):
        return np.where(r2 >= 1.0 - 1e-15, np.inf, r2 / (1.0 - r2) * (n - 2))


def check_kbest(selection_path: str, names: list[str], x: np.ndarray, y: np.ndarray, k: int) -> None:
    """selection.csv holds the k features of highest F, with their F and p."""
    from scipy import stats

    chosen = read_column(selection_path, "feature")
    f = f_statistics(x, y)
    k = min(k, len(names))
    order = sorted(range(len(names)), key=lambda j: (-f[j], names[j]))
    expect = {names[j] for j in order[:k]}
    if len(chosen) != k or len(set(chosen)) != k:
        raise CheckError(f"selection.csv: {len(chosen)} rows, expected {k} distinct features")
    if set(chosen) != expect:
        # only a tie at the k-th score may reorder the boundary
        kth = f[order[k - 1]]
        tol = 1e-9 * (1.0 + abs(kth))
        surely_in = {names[j] for j in order if f[j] > kth + tol}
        boundary = {names[j] for j in order if abs(f[j] - kth) <= tol}
        if not surely_in <= set(chosen) <= surely_in | boundary:
            raise CheckError(
                f"selection.csv: picks {sorted(set(chosen) - expect)} instead of "
                f"{sorted(expect - set(chosen))}"
            )
    scores = [float(v) for v in read_column(selection_path, "score")]
    p_values = [float(v) for v in read_column(selection_path, "p_value")]
    n = x.shape[0]
    for name, score, p in zip(chosen, scores, p_values):
        j = names.index(name)
        if not (score == f[j] or abs(score - f[j]) <= 1e-6 * (1.0 + abs(f[j]))):
            raise CheckError(f"selection.csv: F of {name} is {score!r}, numpy gives {f[j]!r}")
        ref_p = float(stats.f.sf(f[j], 1, n - 2))
        if not abs(p - ref_p) <= 1e-8 + 1e-6 * ref_p:
            raise CheckError(f"selection.csv: p of {name} is {p!r}, scipy gives {ref_p!r}")


def _split(n: int, fraction: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The documented train/test split: a seeded uniform shuffle, first
    round(n * fraction) rows train."""
    n_train = min(max(int(round(n * fraction)), 1), n - 1)
    perm = np.random.default_rng(seed).permutation(n)
    return perm[:n_train], perm[n_train:]


def check_forward_first(selection_path: str, names: list[str], x: np.ndarray, y: np.ndarray, seed: int) -> None:
    """Forward selection's first pick is the single feature whose least-squares
    fit on the internal 80/20 split has the lowest validation error."""
    chosen = read_column(selection_path, "feature")
    order = [int(v) for v in read_column(selection_path, "order")]
    if not chosen or order != list(range(1, len(chosen) + 1)) or len(set(chosen)) != len(chosen):
        raise CheckError("selection.csv: forward picks must be distinct and ordered 1..k")
    if not set(chosen) <= set(names):
        raise CheckError(f"selection.csv: unknown features {sorted(set(chosen) - set(names))}")
    train, val = _split(x.shape[0], 0.8, seed)
    errors = []
    for j in range(len(names)):
        a = np.column_stack([np.ones(train.size), x[train, j]])
        coef = np.linalg.lstsq(a, y[train], rcond=None)[0]
        err = coef[0] + coef[1] * x[val, j] - y[val]
        errors.append(float(err @ err) / val.size)
    best = min(errors)
    ties = {names[j] for j, e in enumerate(errors) if e <= best * (1.0 + 1e-9)}
    if chosen[0] not in ties:
        raise CheckError(f"selection.csv: first pick {chosen[0]!r}, least squares gives {sorted(ties)}")


def check_eval_report(doc: dict, y: np.ndarray, fraction: float, seed: int) -> dict:
    """Metric identities for every family; the best beats the constant mean."""
    reports = doc["reports"]
    if not reports:
        raise CheckError("eval_report.json: no reports")
    for rep in reports:
        r2, mae, rmse = rep["r_squared"], rep["mae"], rep["rmse"]
        if not all(math.isfinite(v) for v in (r2, mae, rmse)):
            raise CheckError(f"eval_report.json {rep['model_name']}: non-finite metric")
        if rmse < mae - 1e-9 * (1.0 + mae) or mae < 0:
            raise CheckError(f"eval_report.json {rep['model_name']}: rmse {rmse} < mae {mae}")
        if r2 > 1.0 + 1e-12:
            raise CheckError(f"eval_report.json {rep['model_name']}: R^2 {r2} > 1")
    train, test = _split(y.size, fraction, seed)
    if (doc["train_rows"], doc["test_rows"]) != (train.size, test.size):
        raise CheckError("eval_report.json: train/test row counts differ from the split")
    err = y[test] - y[train].mean()
    mean_rmse = math.sqrt(float(err @ err) / test.size)
    best = max(reports, key=lambda r: r["r_squared"])
    if not best["rmse"] < mean_rmse:
        raise CheckError(
            f"eval_report.json: best rmse {best['rmse']!r} not below the constant-mean "
            f"predictor's {mean_rmse!r}"
        )
    return {"family": best["model_name"], "rmse": best["rmse"]}


_MODEL_FAMILY = {"ols": ("linear", "none"), "lasso": ("linear", "l1"), "ridge": ("linear", "l2"),
                 "elastic": ("linear", "elastic"), "forest": ("forest", None), "gbm": ("gbm", None)}


def check_model(model: dict, best_family: str, names: list[str], x: np.ndarray, y: np.ndarray) -> None:
    """model.json is the best family; an OLS model matches numpy's lstsq."""
    family, penalty = _MODEL_FAMILY[best_family]
    if model.get("family") != family or (penalty and model.get("penalty") != penalty):
        raise CheckError(f"model.json: family {model.get('family')!r}, best was {best_family!r}")
    if model.get("feature_names") != names:
        raise CheckError("model.json: feature names differ from the explained matrix")
    if best_family != "ols":
        return
    a = np.column_stack([np.ones(x.shape[0]), x])
    ref = np.linalg.lstsq(a, y, rcond=None)[0]
    got = np.array([model["intercept"], *model["coefficients"]])
    # normal equations lose precision as cond(A)^2, lstsq only as cond(A)
    tol = np.linalg.cond(a) ** 2 * np.finfo(np.float64).eps
    gap = float(np.linalg.norm(got - ref) / np.linalg.norm(ref))
    if not gap <= max(tol, 1e-12):
        raise CheckError(f"model.json: OLS coefficients differ from lstsq by {gap:.3g} (allowed {tol:.3g})")
    rss_got = float(np.sum((a @ got - y) ** 2))
    rss_ref = float(np.sum((a @ ref - y) ** 2))
    if not rss_got <= rss_ref * (1.0 + 1e-9):
        raise CheckError(f"model.json: OLS residual sum of squares {rss_got!r} above lstsq's {rss_ref!r}")


def check_run(out_dir: str, config: dict) -> dict:
    """All checks for one run; returns the best family, its test RMSE and the
    number of features it was fit on."""
    check_artifacts(out_dir, expected_artifacts(config))
    names, x, y = read_matrix(os.path.join(out_dir, "features.csv"))
    seed = int(config["seed"])
    selection = config.get("selection", {})
    mode = selection.get("mode", "none")
    if mode == "kbest":
        check_kbest(os.path.join(out_dir, "selection.csv"), names, x, y, int(selection.get("k", 40)))
    elif mode == "forward":
        check_forward_first(os.path.join(out_dir, "selection.csv"), names, x, y, seed)
    if mode != "none":
        chosen = read_column(os.path.join(out_dir, "selection.csv"), "feature")
        sel_names, sel_x, sel_y = read_matrix(os.path.join(out_dir, "features_selected.csv"))
        if sel_names != [n for n in chosen if n in names]:
            raise CheckError("features_selected.csv: columns differ from selection.csv")
        if not (np.array_equal(sel_x, x[:, [names.index(n) for n in sel_names]]) and np.array_equal(sel_y, y)):
            raise CheckError("features_selected.csv: values differ from features.csv")
        names, x = sel_names, sel_x

    fraction = float(config.get("eval", {}).get("train_fraction", 0.8))
    best = check_eval_report(load_json(os.path.join(out_dir, "eval_report.json")), y, fraction, seed)
    check_model(load_json(os.path.join(out_dir, "model.json")), best["family"], names, x, y)
    explanations = load_json(os.path.join(out_dir, "shap_explanations.json"))
    rows = int(config.get("explain", {}).get("rows", 25))
    if len(explanations) != (min(rows, y.size) if rows else y.size):
        raise CheckError(f"shap_explanations.json: {len(explanations)} rows explained, expected {rows}")
    check_shapley_efficiency(explanations, names)
    check_shap_ranking(os.path.join(out_dir, "shap_ranking.csv"), explanations)
    return {**best, "n_features": len(names)}
