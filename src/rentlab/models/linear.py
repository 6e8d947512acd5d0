"""Linear regression: OLS via normal equations and the Lasso/Ridge/ElasticNet
family via cyclic coordinate descent with soft-thresholding.

The penalized objective is

    (1/2n) ||y - X b - b0||^2 + alpha * (l1_ratio * ||b||_1
                                         + (1 - l1_ratio)/2 * ||b||_2^2)

with an unpenalized intercept; the 1/2n scaling makes alpha sample-size
independent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import EmptyInputError, RankDeficiencyError
from ..features import FeatureMatrix

DEFAULT_TOL = 1e-6
DEFAULT_MAX_ITER = 1000


@dataclass(frozen=True)
class LinearModel:
    intercept: float
    coefficients: np.ndarray
    penalty: str = "none"  # none | l1 | l2 | elastic
    alpha: float = 0.0
    l1_ratio: float = 0.0
    converged: bool = True
    n_iter: int = 0
    feature_names: tuple[str, ...] = ()

    def predict(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        if x.shape[1] != len(self.coefficients):
            raise ValueError(
                f"model has {len(self.coefficients)} coefficients, input has {x.shape[1]}"
            )
        return self.intercept + x @ self.coefficients


def soft_threshold(z: float, t: float) -> float:
    """S(z, t) = sign(z) * max(|z| - t, 0)."""
    if z > t:
        return z - t
    if z < -t:
        return z + t
    return 0.0


def _check_matrix(m: FeatureMatrix) -> tuple[np.ndarray, np.ndarray]:
    if m.n_rows == 0:
        raise EmptyInputError("cannot fit on an empty matrix")
    return np.asarray(m.x, dtype=np.float64), np.asarray(m.y, dtype=np.float64)


def fit_ols(m: FeatureMatrix, ridge: float = 0.0) -> LinearModel:
    """Least squares by normal equations with a Cholesky solve.

    A singular Gram matrix raises RankDeficiencyError; pass ridge > 0 to
    stabilize the solve instead.
    """
    x, y = _check_matrix(m)
    n, p = x.shape
    a = np.column_stack([np.ones(n), x])
    gram = a.T @ a
    if ridge > 0.0:
        gram = gram + ridge * np.eye(p + 1)
    try:
        chol = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        raise RankDeficiencyError(
            "singular design matrix (collinear or constant features); "
            "retry with ridge > 0 or drop redundant columns"
        ) from None
    rhs = a.T @ y
    z = np.linalg.solve(chol, rhs)
    beta = np.linalg.solve(chol.T, z)
    return LinearModel(float(beta[0]), beta[1:], feature_names=m.feature_names)


def fit_elastic_net(
    m: FeatureMatrix,
    alpha: float,
    l1_ratio: float = 0.5,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> LinearModel:
    """Cyclic coordinate descent with exact soft-threshold updates.

    Uses covariance updates (Friedman, Hastie & Tibshirani 2010, sec. 2.2):
    the Gram matrix is formed once, and the residual correlations
    corr[j] = xc[:, j] @ residual / n are kept current with one O(p) update
    per changed coefficient instead of two O(n) column passes.

    Converged when the largest coefficient change in a sweep drops below tol;
    hitting max_iter first is flagged on the model, not an error.
    """
    if alpha < 0.0:
        raise ValueError(f"alpha must be >= 0, got {alpha}")
    if not 0.0 <= l1_ratio <= 1.0:
        raise ValueError(f"l1_ratio must be in [0,1], got {l1_ratio}")
    x, y = _check_matrix(m)
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValueError("non-finite values in training data")
    n, p = x.shape

    x_mean = x.mean(axis=0)
    y_mean = float(y.mean())
    xc = x - x_mean
    yc = y - y_mean

    col_sq = (xc * xc).sum(axis=0) / n
    l1 = alpha * l1_ratio
    l2 = alpha * (1.0 - l1_ratio)

    gram_rows = list(xc.T @ xc / n)
    corr = xc.T @ yc / n
    active = [j for j in range(p) if col_sq[j] != 0.0]
    sq = col_sq.tolist()
    denom = [s + l2 for s in sq]

    beta = [0.0] * p
    n_iter = 0
    converged = False
    for n_iter in range(1, max_iter + 1):
        max_delta = 0.0
        for j in active:
            old = beta[j]
            rho = corr.item(j) + sq[j] * old
            new = soft_threshold(rho, l1) / denom[j]
            if new != old:
                corr -= gram_rows[j] * (new - old)
                beta[j] = new
                max_delta = max(max_delta, abs(new - old))
        if max_delta < tol:
            converged = True
            break

    beta = np.array(beta, dtype=np.float64)
    intercept = y_mean - float(x_mean @ beta)
    if l1_ratio == 0.0:
        penalty = "l2"
    elif l1_ratio == 1.0:
        penalty = "l1"
    else:
        penalty = "elastic"
    if alpha == 0.0:
        penalty = "none"
    return LinearModel(
        intercept,
        beta,
        penalty=penalty,
        alpha=alpha,
        l1_ratio=l1_ratio,
        converged=converged,
        n_iter=n_iter,
        feature_names=m.feature_names,
    )


def elastic_net_objective(
    m: FeatureMatrix, intercept: float, beta: np.ndarray, alpha: float, l1_ratio: float
) -> float:
    """The penalized loss; exposed so optimality can be probed directly."""
    x, y = _check_matrix(m)
    n = x.shape[0]
    resid = y - intercept - x @ beta
    loss = 0.5 * float(resid @ resid) / n
    pen = alpha * (
        l1_ratio * float(np.abs(beta).sum())
        + 0.5 * (1.0 - l1_ratio) * float(beta @ beta)
    )
    return loss + pen
