"""Feature selection (univariate F-scores, top-K, greedy forward selection)
and Shapley-value explanations.

Shapley values use the interventional value function: v(S) is the mean model
output over the background rows with the columns in S pinned to the explained
instance. Exact enumeration covers p <= 12; beyond that, marginal
contributions are averaged over seeded random permutations.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import EmptyInputError, RankDeficiencyError
from .features import FeatureMatrix
from .models import FittedModel, ForestModel, fit_ols, predict

EXACT_SHAPLEY_MAX_P = 12
DEFAULT_FORWARD_MAX = 85
DEFAULT_FORWARD_TOL = 1e-3


@dataclass(frozen=True)
class FeatureScore:
    feature: str
    score: float
    p_value: float
    flag: str = ""


@dataclass(frozen=True)
class ShapExplanation:
    base_value: float
    values: np.ndarray
    prediction: float

    def residual(self) -> float:
        """prediction - (base + sum of attributions); ~0 by efficiency."""
        return self.prediction - self.base_value - float(self.values.sum())


def _betacf(a: float, b: float, x: float, max_iter: int = 300, eps: float = 3e-14) -> float:
    """Continued fraction for the incomplete beta (modified Lentz)."""
    tiny = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, max_iter + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < eps:
            return h
    raise ArithmeticError(f"incomplete beta did not converge (a={a}, b={b}, x={x})")


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b), accurate to ~1e-10 over the fixture range."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_bt = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    bt = math.exp(ln_bt)
    if x < (a + 1.0) / (a + b + 2.0):
        return bt * _betacf(a, b, x) / a
    return 1.0 - bt * _betacf(b, a, 1.0 - x) / b


def f_survival(f_value: float, d1: float, d2: float) -> float:
    """P(F > f) for the F(d1, d2) distribution."""
    if f_value <= 0.0:
        return 1.0
    if math.isinf(f_value):
        return 0.0
    x = d2 / (d2 + d1 * f_value)
    return regularized_incomplete_beta(d2 / 2.0, d1 / 2.0, x)


def f_scores(m: FeatureMatrix) -> list[FeatureScore]:
    """Univariate regression F-statistic per feature.

    F = r^2/(1-r^2) * (n-2) from the Pearson correlation with the target;
    p-values come from the F(1, n-2) tail. Zero-variance features score 0
    (flagged); perfect correlation is flagged infinite and ranks first.
    """
    n = m.n_rows
    if n < 3:
        raise ValueError(f"f_scores needs n >= 3 rows, got {n}")
    y = m.y
    sy = y.std()
    if sy == 0.0:
        raise ValueError("target has zero variance")
    yc = y - y.mean()
    out = []
    for j, name in enumerate(m.feature_names):
        col = m.x[:, j]
        sx = col.std()
        if sx == 0.0:
            out.append(FeatureScore(name, 0.0, 1.0, "zero_variance"))
            continue
        r = float((col - col.mean()) @ yc) / (n * sx * sy)
        r2 = min(r * r, 1.0)
        if r2 >= 1.0 - 1e-15:
            out.append(FeatureScore(name, math.inf, 0.0, "perfect_correlation"))
            continue
        f_value = r2 / (1.0 - r2) * (n - 2)
        out.append(FeatureScore(name, f_value, f_survival(f_value, 1.0, n - 2.0)))
    return out


def select_k_best(scores: list[FeatureScore], k: int = 40) -> list[str]:
    """Top-k feature names by descending score, ties broken alphabetically."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if k > len(scores):
        warnings.warn(
            f"k={k} exceeds the {len(scores)} available features; taking all",
            stacklevel=2,
        )
        k = len(scores)
    ranked = sorted(scores, key=lambda s: (-s.score, s.feature))
    return [s.feature for s in ranked[:k]]


def _val_mse(train: FeatureMatrix, val: FeatureMatrix, cols: list[str]) -> float | None:
    try:
        model = fit_ols(train.select(cols))
    except RankDeficiencyError:
        return None
    err = val.select(cols).x @ model.coefficients + model.intercept - val.y
    return float(err @ err) / val.n_rows


def forward_select(
    m: FeatureMatrix,
    max_features: int = DEFAULT_FORWARD_MAX,
    min_rel_improvement: float = DEFAULT_FORWARD_TOL,
    seed: int = 0,
) -> list[str]:
    """Greedy forward selection on validation MSE.

    Uses a fixed, seeded 80/20 internal split. Each step fits OLS on the
    current set plus every remaining candidate and keeps the best; stops when
    the relative MSE improvement drops below min_rel_improvement or the
    feature budget is reached. Returns features in selection order.
    """
    from .evaluation import train_test_split

    if max_features < 1:
        raise ValueError(f"max_features must be >= 1, got {max_features}")
    train, val = train_test_split(m, 0.8, seed)
    atol = 1e-12 * max(1.0, float(val.y @ val.y) / val.n_rows)

    selected: list[str] = []
    remaining = list(m.feature_names)
    base_err = val.y - train.y.mean()
    prev_mse = float(base_err @ base_err) / val.n_rows
    while remaining and len(selected) < max_features:
        best_mse = None
        best_name = None
        for cand in remaining:
            mse = _val_mse(train, val, selected + [cand])
            if mse is None:
                continue
            if best_mse is None or mse < best_mse:
                best_mse, best_name = mse, cand
        if best_name is None or prev_mse <= 0.0:
            break
        improvement = (prev_mse - best_mse) / prev_mse
        if improvement < min_rel_improvement:
            break
        selected.append(best_name)
        remaining.remove(best_name)
        prev_mse = best_mse
        if prev_mse <= atol:
            break
    return selected


def _as_background(background) -> np.ndarray:
    bg = background.x if isinstance(background, FeatureMatrix) else np.atleast_2d(np.asarray(background, dtype=np.float64))
    if bg.shape[0] == 0:
        raise ValueError("background must be non-empty")
    return bg


class _ValueFunction:
    """v(S): mean prediction over the background with S pinned to the instance."""

    def __init__(self, model: FittedModel, instance: np.ndarray, background: np.ndarray):
        self.model = model
        self.instance = instance
        self.background = background
        self.p = instance.shape[0]
        self._cache: dict[int, float] = {}

    def __call__(self, mask: int) -> float:
        hit = self._cache.get(mask)
        if hit is not None:
            return hit
        composite = self.background.copy()
        for j in range(self.p):
            if mask >> j & 1:
                composite[:, j] = self.instance[j]
        value = float(predict(self.model, composite).mean())
        if self.p <= 20:
            self._cache[mask] = value
        return value


def shapley_values(
    model: FittedModel,
    instance,
    background,
    budget: int = 2000,
    seed: int = 0,
) -> ShapExplanation:
    """Shapley attribution of one prediction.

    Exact enumeration over all 2^p coalitions when p <= 12; otherwise
    `budget` random feature permutations with marginal-contribution
    averaging (telescoping keeps the efficiency identity exact either way).
    """
    inst = np.asarray(instance, dtype=np.float64).reshape(-1)
    bg = _as_background(background)
    if bg.shape[1] != inst.shape[0]:
        raise ValueError(f"instance has {inst.shape[0]} features, background {bg.shape[1]}")
    p = inst.shape[0]
    v = _ValueFunction(model, inst, bg)
    base = v(0)
    prediction = float(predict(model, inst.reshape(1, -1))[0])

    if p <= EXACT_SHAPLEY_MAX_P:
        values = _exact_shapley(v, p)
    else:
        values = _sampled_shapley(v, p, budget, seed)
    return ShapExplanation(base, values, prediction)


def _exact_shapley(v: _ValueFunction, p: int) -> np.ndarray:
    fact = [math.factorial(i) for i in range(p + 1)]
    weight = [fact[s] * fact[p - 1 - s] / fact[p] for s in range(p)]
    table = np.empty(1 << p)
    for mask in range(1 << p):
        table[mask] = v(mask)
    phi = np.zeros(p)
    for mask in range(1 << p):
        s = bin(mask).count("1")
        for j in range(p):
            bit = 1 << j
            if mask & bit:
                continue
            phi[j] += weight[s] * (table[mask | bit] - table[mask])
    return phi


def _sampled_shapley(v: _ValueFunction, p: int, budget: int, seed: int) -> np.ndarray:
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0x5A9)))
    phi = np.zeros(p)
    for _ in range(budget):
        order = rng.permutation(p)
        mask = 0
        prev = v(0)
        for j in order:
            mask |= 1 << int(j)
            cur = v(mask)
            phi[j] += cur - prev
            prev = cur
    return phi / budget


def mean_abs_ranking(
    names: tuple[str, ...], explanations: list[ShapExplanation]
) -> list[tuple[str, float]]:
    """Mean |Shapley value| per feature over the explanations, descending,
    ties by name."""
    if not explanations:
        raise EmptyInputError("no explained rows to rank features over")
    totals = np.zeros(len(names))
    for expl in explanations:
        totals += np.abs(expl.values)
    means = totals / len(explanations)
    ranked = sorted(zip(names, means), key=lambda kv: (-kv[1], kv[0]))
    return [(name, float(value)) for name, value in ranked]


def impurity_importance(forest: ForestModel) -> list[tuple[str, float]]:
    """Per-feature SSE reduction summed over splits, averaged over trees,
    normalized to total 1."""
    splits = [t.splits() for t in forest.trees]
    names = forest.feature_names or tuple(
        f"f{j}" for j in range(max((int(f.max()) for f, _ in splits if f.size), default=-1) + 1)
    )
    acc = np.zeros(len(names))
    for features, gains in splits:
        for j, gain in zip(features.tolist(), gains.tolist()):
            acc[j] += gain
    acc /= max(len(forest.trees), 1)
    total = acc.sum()
    if total > 0:
        acc = acc / total
    ranked = sorted(zip(names, acc), key=lambda kv: (-kv[1], kv[0]))
    return [(name, float(value)) for name, value in ranked]
