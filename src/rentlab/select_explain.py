"""Feature selection (univariate F-scores, top-K, greedy forward selection)
and Shapley-value explanations.

Shapley values use the interventional value function (Lundberg & Lee, 2017):
v(S) is the mean model output over the background rows with the columns in S
pinned to the explained instance. They are exact for every model family, in
closed form: a linear model's from its coefficients, a tree model's from the
boxes its leaves cut out of feature space (interventional TreeSHAP).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import EmptyInputError
from .evaluation import train_test_split
from .features import FeatureMatrix
from .models import BoostedModel, FittedModel, ForestModel, LinearModel, Tree, predict
from .models.linear import _cholesky_solves, _NormalEquations

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
    base_value: float  # the mean prediction over the background
    values: np.ndarray  # (rows, features)
    predictions: np.ndarray  # (rows,)

    def residuals(self) -> np.ndarray:
        """prediction - (base + sum of attributions) per row; ~0 by efficiency."""
        return self.predictions - self.base_value - self.values.sum(axis=1)


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
    if np.ptp(y) == 0.0:
        raise ValueError("target has zero variance")
    sy = y.std()
    yc = y - y.mean()
    out = []
    for j, name in enumerate(m.feature_names):
        col = m.x[:, j]
        # a constant column's std need not round to 0 (0.1 seven times: 1.4e-17)
        if np.ptp(col) == 0.0:
            out.append(FeatureScore(name, 0.0, 1.0, "zero_variance"))
            continue
        sx = col.std()
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
    feature budget is reached. Returns features in selection order. Columns
    constant on the train rows, or equal to an earlier column, never enter.
    """
    if max_features < 1:
        raise ValueError(f"max_features must be >= 1, got {max_features}")
    train_rows, val_rows = train_test_split(m.n_rows, 0.8, seed)
    val = m.take(val_rows)
    atol = 1e-12 * max(1.0, float(val.y @ val.y) / val.n_rows)
    eq = _NormalEquations(m, train_rows)
    g, c = eq.gram(np.arange(m.n_features))
    val_xc, val_yc = val.x - eq.x_mean, val.y - eq.y_mean
    first: dict[int, int] = {}  # hash of a column's values -> first column with it
    remaining = []
    for j in np.flatnonzero(eq.spread > 0.0):
        i = first.setdefault(hash(m.x[:, j].tobytes()), j)
        if i == j or not np.array_equal(m.x[:, i], m.x[:, j]):
            remaining.append(j)
    selected: list[int] = []
    prev_mse = float(val_yc @ val_yc) / val.n_rows
    while remaining and len(selected) < max_features:
        best_mse = best = None
        # every candidate's columns: the selected ones, then the candidate
        cols = np.column_stack([np.tile(selected, (len(remaining), 1)).astype(np.intp), remaining])
        solved = _cholesky_solves(g[cols[:, :, None], cols[:, None, :]], c[cols])
        for cand, cand_cols, b in zip(remaining, cols, solved):
            if b is None:
                continue
            err = val_xc[:, cand_cols] @ b - val_yc
            mse = float(err @ err) / val.n_rows
            if best_mse is None or mse < best_mse:
                best_mse, best = mse, cand
        if best is None or prev_mse <= 0.0:
            break
        if (prev_mse - best_mse) / prev_mse < min_rel_improvement:
            break
        selected.append(best)
        remaining.remove(best)
        prev_mse = best_mse
        if prev_mse <= atol:
            break
    return [m.feature_names[j] for j in selected]


# Background rows go through in blocks of at most this many (row, path slot,
# leaf) cells, so the tree temporaries stay bounded whatever the background
# size; a tree whose leaves alone exceed it takes one row per block.
_LEAF_CELLS = 1 << 18


def _leaf_boxes(tree: Tree):
    """(feature, lo, hi) of each leaf, as (depth, leaves) slots: each feature
    on the leaf's path with the (lo, hi] interval the path allows it. A
    feature split twice on a path narrows one slot; a free slot is
    (-inf, inf] on feature 0. Every node learns its parent in one pass over
    the preorder arrays; then all leaves climb to the root together."""
    split = tree.feature >= 0
    parent = np.arange(tree.feature.size)  # the root is its own parent
    parent[tree.left[split]] = parent[tree.right[split]] = np.flatnonzero(split)
    child = np.flatnonzero(~split)
    feature = np.zeros((tree.depth, child.size), dtype=np.int64)
    lo = np.full((tree.depth, child.size), -np.inf)
    hi = np.full((tree.depth, child.size), np.inf)
    for k in range(tree.depth):
        node = parent[child]
        new = node != child  # False once a leaf's climb has reached the root
        is_left = tree.left[node] == child
        f, t = tree.feature[node], tree.threshold[node]
        for j in range(k):  # a feature already in a slot narrows that slot
            hit = new & (feature[j] == f)
            lo[j] = np.where(hit & ~is_left, np.maximum(lo[j], t), lo[j])
            hi[j] = np.where(hit & is_left, np.minimum(hi[j], t), hi[j])
            new &= ~hit
        feature[k] = np.where(new, f, 0)
        lo[k] = np.where(new & ~is_left, t, -np.inf)
        hi[k] = np.where(new & is_left, t, np.inf)
        child = node
    return feature, lo, hi


def _tree_shapley(tree: Tree, rows: np.ndarray, bg: np.ndarray) -> np.ndarray:
    """Interventional TreeSHAP (Lundberg et al., 2020) of each row x. Against
    background row z, the row that takes x on a coalition S and z elsewhere
    reaches a leaf iff S holds every path feature A that only x satisfies and
    none B that only z satisfies, so each j in A gains value*(|A|-1)!|B|!/(|A|+|B|)!
    and each j in B loses value*|A|!(|B|-1)!/(|A|+|B|)!; phi is the mean over z."""
    feature, lo, hi = _leaf_boxes(tree)
    value = tree.value[tree.feature < 0]
    depth = tree.depth
    # (a-1)! b! / (a+b)! = 1 / (a * C(a+b, a)); the loss weight is its transpose
    weight = np.array([[1.0 / (a * math.comb(a + b, a)) if a else 0.0 for b in range(depth + 1)]
                       for a in range(depth + 1)])
    by_x = (lo < rows[:, feature]) & (rows[:, feature] <= hi)  # (rows, depth, leaves)
    phi = np.zeros(rows.shape)
    step = max(1, _LEAF_CELLS // (max(1, depth) * value.size))
    for start in range(0, bg.shape[0], step):
        z = bg[start:start + step][:, feature]
        by_z = (lo < z) & (z <= hi)
        # each explained row adds the blocks in order, as it would alone
        for r, in_box in enumerate(by_x):
            # only the few (row, leaf) pairs whose hybrid rows reach the leaf add
            row, leaf = np.nonzero((in_box | by_z).all(axis=1))
            in_z, in_x = by_z[row, :, leaf], in_box[:, leaf].T
            only_x, only_z = in_x & ~in_z, in_z & ~in_x
            a, b, v = only_x.sum(axis=1), only_z.sum(axis=1), value[leaf]
            share = only_x * (v * weight[a, b])[:, None] - only_z * (v * weight[b, a])[:, None]
            phi[r] += np.bincount(feature[:, leaf].T.ravel(), share.ravel(), minlength=phi.shape[1])
    return phi / bg.shape[0]


def shapley_values(model: FittedModel, rows, background) -> ShapExplanation:
    """Exact interventional Shapley attribution of the predictions of a block
    of rows, each row's bit for bit as if explained alone. A linear model's
    is beta_j * (x_j - background mean of column j); a forest's or a gbm's
    sums its trees' TreeSHAP values as it sums their predictions."""
    rows = np.atleast_2d(np.asarray(rows, dtype=np.float64))
    bg = background.x if isinstance(background, FeatureMatrix) else np.atleast_2d(np.asarray(background, dtype=np.float64))
    if rows.shape[0] == 0:
        raise EmptyInputError("no explained rows")
    if bg.shape[0] == 0:
        raise ValueError("background must be non-empty")
    if bg.shape[1] != rows.shape[1]:
        raise ValueError(f"rows have {rows.shape[1]} features, background {bg.shape[1]}")
    # predict checks the model's input width
    base = float(predict(model, bg).mean())
    predictions = predict(model, rows)
    if isinstance(model, LinearModel):
        values = model.coefficients * (rows - bg.mean(axis=0))
    elif isinstance(model, Tree):
        values = _tree_shapley(model, rows, bg)
    elif isinstance(model, ForestModel):
        values = sum(_tree_shapley(t, rows, bg) for t in model.trees) / len(model.trees)
    elif isinstance(model, BoostedModel):
        values = sum(model.learning_rate * _tree_shapley(t, rows, bg) for t in model.trees)
    else:
        raise TypeError(f"no Shapley values for a {type(model).__name__}")
    return ShapExplanation(base, values, predictions)


def mean_abs_ranking(names: tuple[str, ...], values: np.ndarray) -> list[tuple[str, float]]:
    """Mean |Shapley value| per feature over the rows of values, descending,
    ties by name."""
    if values.shape[0] == 0:
        raise EmptyInputError("no explained rows to rank features over")
    # a reduction over axis 0 adds the rows in order
    means = np.abs(values).sum(axis=0) / values.shape[0]
    ranked = sorted(zip(names, means), key=lambda kv: (-kv[1], kv[0]))
    return [(name, float(value)) for name, value in ranked]
