"""Feature selection (univariate F-scores, top-K, greedy forward selection)
and Shapley-value explanations.

Shapley values use the interventional value function (Lundberg & Lee, 2017):
v(S) is the mean model output over the background rows with the columns in S
pinned to the explained instance. A coalition is a row of a bool mask matrix,
and `_coalition_values` evaluates a whole matrix in a few batched predicts.
Exact enumeration passes all 2^p masks when p <= 12; beyond that, marginal
contributions are averaged over seeded random permutations (Strumbelj &
Kononenko, 2014), one batch of p+1 prefix masks per permutation.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import EmptyInputError, RankDeficiencyError
from .features import FeatureMatrix
from .models import FittedModel, fit_ols, predict

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


# A block of coalitions holds at most this many composite cells (1 MiB of
# float64), so batching stays small in memory: one permutation's (p+1)*B*p
# block over a 13.5k-row background would take ~460 MB. One coalition whose
# B*p cells exceed the cap is a block of its own.
_BLOCK_CELLS = 1 << 17


def _coalition_values(model: FittedModel, instance, background, masks) -> np.ndarray:
    """v(S) for each row S of the (m, p) bool masks: the mean prediction over
    the background rows with the columns in S pinned to the instance."""
    n_bg, p = background.shape
    step = max(1, _BLOCK_CELLS // max(1, n_bg * p))
    values = np.empty(masks.shape[0])
    for start in range(0, masks.shape[0], step):
        block = masks[start:start + step]
        composite = np.where(block[:, None, :], instance, background).reshape(-1, p)
        values[start:start + step] = predict(model, composite).reshape(-1, n_bg).mean(axis=1)
    return values


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
    Coalitions reach the model in blocks of at most _BLOCK_CELLS cells.
    """
    inst = np.asarray(instance, dtype=np.float64).reshape(-1)
    bg = _as_background(background)
    if bg.shape[1] != inst.shape[0]:
        raise ValueError(f"instance has {inst.shape[0]} features, background {bg.shape[1]}")
    if inst.shape[0] <= EXACT_SHAPLEY_MAX_P:
        base, values = _exact_shapley(model, inst, bg)
    else:
        base, values = _sampled_shapley(model, inst, bg, budget, seed)
    prediction = float(predict(model, inst.reshape(1, -1))[0])
    return ShapExplanation(base, values, prediction)


def _exact_shapley(model: FittedModel, inst, bg) -> tuple[float, np.ndarray]:
    """(v(empty), phi). Mask row k has bit j of k as feature j, so adding j
    to row k gives row k + 2^j; phi_j sums its terms in row order."""
    p = inst.shape[0]
    fact = [math.factorial(i) for i in range(p + 1)]
    weight = np.array([fact[s] * fact[p - 1 - s] / fact[p] for s in range(p)])
    masks = (np.arange(1 << p)[:, None] >> np.arange(p) & 1).astype(bool)
    table = _coalition_values(model, inst, bg, masks)
    size = masks.sum(axis=1)
    phi = np.zeros(p)
    for j in range(p):
        without = np.flatnonzero(~masks[:, j])
        terms = weight[size[without]] * (table[without + (1 << j)] - table[without])
        phi[j] = np.cumsum(terms)[-1]  # sequential, not pairwise, summation
    return float(table[0]), phi


def _sampled_shapley(model: FittedModel, inst, bg, budget: int, seed: int) -> tuple[float, np.ndarray]:
    """(v(empty), phi) over `budget` seeded permutations, each one batch of
    its p+1 prefix coalitions."""
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    p = inst.shape[0]
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0x5A9)))
    phi = np.zeros(p)
    rank = np.empty(p, dtype=np.intp)
    for _ in range(budget):
        order = rng.permutation(p)
        rank[order] = np.arange(p)
        v = _coalition_values(model, inst, bg, rank < np.arange(p + 1)[:, None])
        phi[order] += v[1:] - v[:-1]
    return float(v[0]), phi / budget


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
