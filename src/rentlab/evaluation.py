"""Metrics, splits, k-fold cross-validation, and random hyperparameter search."""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import UndefinedMetricError
from .features import FeatureMatrix
from .models import FAMILIES, FittedModel, HyperParams, fit_family, fit_folds, predict
from .tabular import Table

METRIC_ROWS = ("R-Squared", "Mean Absolute Error", "Root Mean Squared Error")
# families fit by fit_elastic_net; their reports carry converged / n_iter
CD_FAMILIES = ("lasso", "ridge", "elastic")


def _paired(y, yhat) -> tuple[np.ndarray, np.ndarray]:
    a = np.asarray(y, dtype=np.float64).reshape(-1)
    b = np.asarray(yhat, dtype=np.float64).reshape(-1)
    if a.shape != b.shape:
        raise ValueError(f"length mismatch: {a.shape[0]} vs {b.shape[0]}")
    if a.size == 0:
        raise ValueError("metrics need at least one element")
    return a, b


def rmse(y, yhat) -> float:
    a, b = _paired(y, yhat)
    err = a - b
    return math.sqrt(float(err @ err) / a.size)


def mae(y, yhat) -> float:
    a, b = _paired(y, yhat)
    return float(np.abs(a - b).mean())


def r_squared(y, yhat) -> float:
    a, b = _paired(y, yhat)
    centered = a - a.mean()
    sst = float(centered @ centered)
    if sst == 0.0:
        raise UndefinedMetricError("R^2 undefined: target has zero variance")
    err = a - b
    return 1.0 - float(err @ err) / sst


@dataclass(frozen=True)
class EvalReport:
    model_name: str
    r_squared: float
    mae: float
    rmse: float
    config: HyperParams = field(default_factory=HyperParams)
    feature_set: tuple[str, ...] = ()
    converged: bool | None = None  # fit_elastic_net families only
    n_iter: int | None = None

    def __post_init__(self):
        if self.mae < 0 or self.rmse < 0:
            raise ValueError("errors cannot be negative")
        # power-mean inequality, with float slack
        if self.rmse < self.mae - 1e-9 * (1.0 + self.mae):
            raise ValueError(f"rmse {self.rmse} < mae {self.mae}")
        if self.r_squared > 1.0 + 1e-12:
            raise ValueError(f"r_squared {self.r_squared} > 1")


def train_test_split(
    n: int, train_fraction: float = 0.8, seed: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """The train and test rows of n: a uniform shuffle by seed, whose first
    round(n*fraction) rows train."""
    if not 0.0 < train_fraction < 1.0:
        raise ValueError(f"train_fraction must be in (0,1), got {train_fraction}")
    if n < 2:
        raise ValueError(f"need at least 2 rows to split, got {n}")
    n_train = int(round(n * train_fraction))
    n_train = min(max(n_train, 1), n - 1)
    perm = np.random.default_rng(seed).permutation(n)
    return perm[:n_train], perm[n_train:]


def kfold_plan(n: int, k: int, seed: int = 0) -> np.ndarray:
    """Each row's fold (int64): a seeded shuffle of the rows cut into k runs
    whose sizes differ by at most one, the larger runs first."""
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    if k > n:
        raise ValueError(f"k={k} exceeds n={n}")
    base, extra = divmod(n, k)
    sizes = base + (np.arange(k) < extra)
    fold = np.empty(n, dtype=np.int64)
    fold[np.random.default_rng(seed).permutation(n)] = np.repeat(np.arange(k), sizes)
    return fold


def _derived_seed(seed: int, *indices: int) -> int:
    ss = np.random.SeedSequence((seed, *indices))
    return int(ss.generate_state(1, dtype=np.uint64)[0] % (2**31))


def _score(family: str, hp: HyperParams, model: FittedModel, test: FeatureMatrix) -> EvalReport:
    """Score a fitted model's predictions on test."""
    yhat = predict(model, test)
    cd = family in CD_FAMILIES
    return EvalReport(
        family,
        r_squared(test.y, yhat),
        mae(test.y, yhat),
        rmse(test.y, yhat),
        hp,
        test.feature_names,
        converged=model.converged if cd else None,
        n_iter=model.n_iter if cd else None,
    )


def cross_validate(
    m: FeatureMatrix, family: str, hp: HyperParams, k: int = 5, seed: int = 0
) -> EvalReport:
    """Mean validation R^2/MAE/RMSE over k seeded folds."""
    fold = kfold_plan(m.n_rows, k, seed)
    models = fit_folds(family, m, hp, [np.flatnonzero(fold != f) for f in range(k)],
                       [_derived_seed(seed, f) for f in range(k)])
    folds = [_score(family, hp, model, m.take(np.flatnonzero(fold == f)))
             for f, model in enumerate(models)]
    return EvalReport(
        family,
        float(np.mean([r.r_squared for r in folds])),
        float(np.mean([r.mae for r in folds])),
        float(np.mean([r.rmse for r in folds])),
        hp,
        m.feature_names,
    )


def _grid_combo(grid: dict[str, list], index: int) -> dict:
    combo = {}
    for name in sorted(grid):
        values = grid[name]
        combo[name] = values[index % len(values)]
        index //= len(values)
    return combo


def random_search(
    m: FeatureMatrix,
    family: str,
    grid: dict[str, list],
    n_samples: int = 10,
    k: int = 5,
    seed: int = 0,
) -> tuple[HyperParams, float, list[EvalReport]]:
    """Sample hyperparameter combinations and score each by mean CV R^2.

    Sampling is without replacement when the grid is small (cardinality at
    most 10x n_samples, or n_samples covers it), with replacement otherwise.
    Winner is the highest mean R^2; ties break by lower RMSE, then sample
    order.
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    if not grid or any(not v for v in grid.values()):
        raise ValueError("grid must be non-empty with non-empty value lists")
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    size = 1
    for values in grid.values():
        size *= len(values)
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0x5EA)))
    if n_samples >= size:
        indices = np.arange(size)
    elif size <= 10 * n_samples:
        indices = rng.choice(size, size=n_samples, replace=False)
    else:
        indices = rng.integers(0, size, size=n_samples)

    trials: list[EvalReport] = []
    best: tuple[float, float, int] | None = None  # (-r2, rmse, order)
    best_hp = None
    for order, index in enumerate(indices):
        hp = HyperParams.from_dict(_grid_combo(grid, int(index)))
        report = cross_validate(m, family, hp, k=k, seed=_derived_seed(seed, order))
        trials.append(report)
        key = (-report.r_squared, report.rmse, order)
        if best is None or key < best:
            best = key
            best_hp = hp
    assert best_hp is not None
    return best_hp, -best[0], trials


@dataclass(frozen=True)
class ModelConfig:
    family: str
    params: HyperParams = field(default_factory=HyperParams)
    seed: int = 0


def compare_models(
    m: FeatureMatrix, train_rows, test_rows, configs: list[ModelConfig]
) -> list[EvalReport]:
    """Fit each configured family on the train rows of m and score
    R^2/MAE/RMSE on its test rows."""
    models = [fit_family(c.family, m, c.params, seed=c.seed, rows=train_rows) for c in configs]
    test = m.take(test_rows)  # after the fits, which need no copy of the train rows
    return [_score(c.family, c.params, model, test) for c, model in zip(configs, models)]


def reports_to_table(reports: list[EvalReport]) -> Table:
    """Rows = metrics, columns = model families."""
    data: dict[str, tuple[str, list]] = {"Metric": ("text", list(METRIC_ROWS))}
    for rep in reports:
        data[rep.model_name] = (
            "numeric",
            [rep.r_squared, rep.mae, rep.rmse],
        )
    return Table.from_dict(data)


def reports_to_doc(reports: list[EvalReport]) -> list[dict]:
    """Each report's fields, less those that are None."""
    return [{k: v for k, v in asdict(rep).items() if v is not None} for rep in reports]
