"""Linear regression on the centred normal equations, which leave the
intercept column and its conditioning out: OLS and ridge by one Cholesky
solve, lasso and elastic net by an active-set (feature-sign) search.

The penalized objective is

    (1/2n) ||y - X b - b0||^2 + alpha * (l1_ratio * ||b||_1
                                         + (1 - l1_ratio)/2 * ||b||_2^2)

with an unpenalized intercept; the 1/2n scaling makes alpha sample-size
independent.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from ..errors import EmptyInputError, RankDeficiencyError
from ..features import FeatureMatrix

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 1000
# a column counts as collinear with others when the part of its Gram diagonal
# entry they leave unexplained (its Cholesky pivot, or Schur complement) is
# below this share of the entry
_PIVOT_RCOND = 1e-13


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

    def __post_init__(self):
        if self.feature_names and len(self.feature_names) != len(self.coefficients):
            raise ValueError(f"feature_names: the model has {len(self.coefficients)} coefficients "
                             f"but {len(self.feature_names)} feature names")

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


# The rows of a fit go through in blocks of at most this many cells, copied
# into one buffer, so a fit adds a bounded amount to the matrix it reads
# whatever its size. A fit whose rows fit one block computes what the
# one-shot form x[rows].mean(axis=0), xc = x[rows][:, cols] - mean,
# xc.T @ xc gives, bit for bit.
_BLOCK_CELLS = 1 << 18
# A block is filled from row gathers of about this many cells each: whole
# rows copy fastest, and the temporary stays small.
_GATHER_CELLS = 1 << 13


def _row_blocks(x: np.ndarray, rows: np.ndarray, cols: np.ndarray, buf: np.ndarray, order: str):
    """Yield (start, block) for each run of at most len(buf) // len(cols)
    rows: block holds x[rows[start:start + len(block)]][:, cols] in buf, in
    C or F order (F is how numpy lays out x[:, cols], and the layout sets
    the bits of block.T @ block)."""
    k = len(cols)
    step = max(1, len(buf) // k) if k else len(rows)
    gather = max(1, _GATHER_CELLS // max(x.shape[1], 1))
    for start in range(0, len(rows), step):
        part = rows[start:start + step]
        cells = buf[:part.size * k]
        block = cells.reshape(part.size, k) if order == "C" else cells.reshape(k, part.size).T
        for i in range(0, part.size, gather):
            block[i:i + gather] = x[part[i:i + gather]][:, cols]
        yield start, block


class _NormalEquations:
    """The centred normal equations of a fit on rows of m (all when None),
    built in row blocks in one reused buffer, never from a copy of those
    rows: on construction each column's mean and range over the rows, then
    per gram call g = xc'xc/n and c = xc'yc/n over chosen columns, xc being
    the rows less the column means."""

    def __init__(self, m: FeatureMatrix, rows=None):
        if rows is None:
            rows, self.y = np.arange(m.n_rows), m.y
        else:
            rows = np.asarray(rows, dtype=np.intp)
            self.y = m.y[rows]
        if rows.size == 0:
            raise EmptyInputError("cannot fit on an empty matrix")
        self.x, self.rows, self.n = m.x, rows, rows.size
        p = m.n_features
        self._buf = np.empty(min(self.n, max(1, _BLOCK_CELLS // max(p, 1))) * p)
        total = lo = hi = None
        for start, block in _row_blocks(self.x, rows, np.arange(p), self._buf, "C"):
            parts = block.sum(axis=0), block.min(axis=0), block.max(axis=0)
            if start == 0:
                total, lo, hi = parts
            else:
                total += parts[0]
                np.minimum(lo, parts[1], out=lo)
                np.maximum(hi, parts[2], out=hi)
        self.x_mean = total / self.n
        self.spread = hi - lo
        self.y_mean = float(self.y.mean())
        # min and max carry a NaN through, and an infinity is one of them
        self.finite = bool(np.isfinite(lo).all() and np.isfinite(hi).all()
                           and np.isfinite(self.y).all())

    def gram(self, cols) -> tuple[np.ndarray, np.ndarray]:
        """(g, c) over the columns cols."""
        yc = self.y - self.y_mean
        for start, xc in _row_blocks(self.x, self.rows, cols, self._buf, "F"):
            xc -= self.x_mean[cols]
            if start == 0:
                g, c = xc.T @ xc, xc.T @ yc[:len(xc)]
            else:
                g += xc.T @ xc
                c += xc.T @ yc[start:start + len(xc)]
        return g / self.n, c / self.n


def fit_ols(m: FeatureMatrix, rows=None) -> LinearModel:
    """Least squares with an intercept on rows of m (all when None) by one
    Cholesky solve of the centred normal equations; a constant or collinear
    column raises RankDeficiencyError."""
    eq = _NormalEquations(m, rows)
    # a constant column's inexact mean leaves noise that passes the pivot test
    b = None if (eq.spread == 0.0).any() else _cholesky_solve(*eq.gram(np.arange(m.n_features)))
    if b is None:
        raise RankDeficiencyError(
            "singular design matrix (collinear or constant features); "
            "drop redundant columns"
        )
    return LinearModel(eq.y_mean - float(eq.x_mean @ b), b, feature_names=m.feature_names)


def fit_elastic_net(
    m: FeatureMatrix,
    alpha: float,
    l1_ratio: float = 0.5,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    rows=None,
) -> LinearModel:
    """Exact minimiser of the penalized objective over rows of m (all when
    None), found on the centred Gram form.

    With G = Xc'Xc/n, c = Xc'yc/n and H = G + l2*I over the columns that
    vary, the objective is 1/2 b'Hb - c'b + l1*||b||_1 plus a constant.
    Without an L1 part (ridge, or alpha = 0) that is one Cholesky solve of H
    (lstsq on the rows when H is singular); with one, a feature-sign search. A
    zero-variance column keeps a coefficient of exactly 0.

    tol bounds every KKT residual, relative to max(1, max|c|), plus the
    rounding of h @ b without an L1 part; max_iter caps the active-set
    steps, and n_iter counts them (1 without an L1 part). A fit left with a
    larger residual (max_iter reached, or rounding on a nearly singular
    problem) has converged False and raises a RuntimeWarning.
    """
    if alpha < 0.0:
        raise ValueError(f"alpha must be >= 0, got {alpha}")
    if not 0.0 <= l1_ratio <= 1.0:
        raise ValueError(f"l1_ratio must be in [0,1], got {l1_ratio}")
    eq = _NormalEquations(m, rows)
    if not eq.finite:
        raise ValueError("non-finite values in training data")

    live = np.flatnonzero(eq.spread > 0.0)
    h, c = eq.gram(live)
    l1 = alpha * l1_ratio
    l2 = alpha * (1.0 - l1_ratio)
    h[np.diag_indices_from(h)] += l2

    tol_abs = tol * max(1.0, float(np.abs(c).max(initial=0.0)))
    if l1 == 0.0:
        b = _cholesky_solve(h, c)
        if b is None:
            # collinear columns and a negligible ridge term: least squares on
            # the rows, stacked over sqrt(n*l2)*I, squares cond(H) no further
            xc = m.x[eq.rows][:, live] - eq.x_mean[live]
            ridge_rows = np.sqrt(eq.n * l2) * np.eye(len(live))
            b = np.linalg.lstsq(np.vstack([xc, ridge_rows]),
                                np.append(eq.y - eq.y_mean, np.zeros(len(live))), rcond=None)[0]
        n_iter = 1
        # allow for the rounding of h @ b, which exceeds tol when b is large
        rounding = len(b) * np.finfo(np.float64).eps * (np.abs(h) @ np.abs(b))
        converged = bool((np.abs(h @ b - c) <= tol_abs + rounding).all())
    else:
        b, n_iter, converged = _feature_sign(h, c, l1, tol_abs, max_iter)

    beta = np.zeros(m.n_features)
    beta[live] = b
    intercept = eq.y_mean - float(eq.x_mean @ beta)
    if l1_ratio == 0.0:
        penalty = "l2"
    elif l1_ratio == 1.0:
        penalty = "l1"
    else:
        penalty = "elastic"
    if alpha == 0.0:
        penalty = "none"
    if not converged:
        warnings.warn(
            f"elastic net (penalty {penalty}, alpha {alpha}, l1_ratio {l1_ratio}) missed "
            f"the KKT conditions by more than tol {tol} after {n_iter} step(s)",
            RuntimeWarning,
            stacklevel=2,
        )
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


def _cholesky_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray | None:
    """Solve a z = b for symmetric positive definite a; None when a is not
    numerically so: Cholesky fails, or a pivot keeps less than _PIVOT_RCOND
    of its diagonal entry."""
    try:
        chol = np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        return None
    if (np.diagonal(chol) ** 2 < _PIVOT_RCOND * np.diagonal(a)).any():
        return None
    return np.linalg.solve(chol.T, np.linalg.solve(chol, b))


def _cholesky_solves(a: np.ndarray, b: np.ndarray) -> list[np.ndarray | None]:
    """_cholesky_solve of each a[i], b[i] for a stack a of (k, k) matrices,
    bit for bit, by one stacked factorisation and solve; one call per matrix
    only when some matrix is not positive definite, which fails the stack."""
    try:
        chol = np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        return [_cholesky_solve(ai, bi) for ai, bi in zip(a, b)]
    pivots = np.diagonal(chol, axis1=1, axis2=2) ** 2
    weak = (pivots < _PIVOT_RCOND * np.diagonal(a, axis1=1, axis2=2)).any(axis=1)
    z = np.linalg.solve(chol.transpose(0, 2, 1), np.linalg.solve(chol, b[..., None]))[..., 0]
    return [None if w else zi for w, zi in zip(weak, z)]


def _feature_sign(
    h: np.ndarray, c: np.ndarray, l1: float, tol_abs: float, max_iter: int
) -> tuple[np.ndarray, int, bool]:
    """Feature-sign search (Lee, Battle, Raina & Ng, NIPS 2007) for
    1/2 b'hb - c'b + l1*||b||_1 with l1 > 0; returns (b, steps, converged).

    A step starts from the KKT conditions at b. While the active (nonzero)
    coordinates meet theirs, it adds the zero coordinate j with the largest
    violation |g_j| - l1, signed against its gradient; otherwise it keeps
    the active set. Either way it then solves h_AA b_A = c_A - l1*s_A with
    the signs s held fixed, and moves b toward that solution as far as
    _line_search says. The block is solved by LU, which also gives the
    Schur complement of an added column: numpy has no triangular solve, so
    a Cholesky solve would cost three factorizations. Every step that moves
    b lowers the objective, so no active set and sign pattern recurs and
    the search ends.

    When j's column is numerically collinear with the active ones (its
    Schur complement in the block keeps less than _PIVOT_RCOND of its
    diagonal entry), h_AA is singular and the objective falls linearly, at
    rate |g_j| - l1, along the direction that moves b_j by s_j and leaves
    hb unchanged. b slides along it until an active coordinate reaches zero
    and leaves in j's place. If none would, j is blocked until a coordinate
    leaves the active set.
    """
    b = np.zeros(len(c))
    signs = np.zeros(len(c))
    active = np.empty(0, dtype=np.intp)
    blocked: list[int] = []
    for step in range(1, max_iter + 1):
        g = h @ b - c
        worst_active = float(np.abs(g[active] + l1 * signs[active]).max(initial=0.0))
        excess = np.abs(g) - l1
        excess[active] = -np.inf
        if max(worst_active, float(excess.max())) <= tol_abs:
            return b, step, True
        if worst_active <= tol_abs:
            excess[blocked] = -np.inf
            j = int(np.argmax(excess))
            if excess[j] <= tol_abs:
                return b, step, False  # only blocked coordinates violate
            signs[j] = -np.sign(g[j])
            grown = np.append(active, j)
            block = h[grown][:, grown]
            rhs = np.zeros((len(grown), 2))
            rhs[:, 0] = c[grown] - l1 * signs[grown]
            rhs[-1, 1] = 1.0
            try:
                solved = np.linalg.solve(block, rhs)
            except np.linalg.LinAlgError:
                solved = np.full_like(rhs, np.nan)
            # j's Schur complement in the block is 1 / (block^-1)[-1, -1]
            if 0.0 < solved[-1, 1] * h[j, j] <= 1.0 / _PIVOT_RCOND:
                active = grown
                b[active] = _line_search(block, c[active], l1, b[active], solved[:, 0])
            else:
                slide = -signs[j] * np.linalg.solve(h[active][:, active], h[active, j])
                leaving = np.flatnonzero(b[active] * slide < 0.0)
                if leaving.size == 0:
                    signs[j] = 0.0
                    blocked.append(j)
                    continue
                at = -b[active[leaving]] / slide[leaving]
                b[active] += at.min() * slide
                b[active[leaving[at == at.min()]]] = 0.0
                b[j] = at.min() * signs[j]
                active = grown
        else:
            block = h[active][:, active]
            try:
                target = np.linalg.solve(block, c[active] - l1 * signs[active])
            except np.linalg.LinAlgError:
                return b, step, False
            b[active] = _line_search(block, c[active], l1, b[active], target)
        signs[active] = np.sign(b[active])
        kept = b[active] != 0.0
        if not kept.all():
            active = active[kept]
            blocked = []
    return b, max_iter, False


def _line_search(
    h: np.ndarray, c: np.ndarray, l1: float, start: np.ndarray, target: np.ndarray
) -> np.ndarray:
    """The point of the segment from start to target with the lowest
    objective among its end and the points where a coordinate changes sign;
    a coordinate that reaches zero at the chosen point is exactly 0 there.

    The objective agrees with the fixed-sign quadratic up to the first sign
    change, and that quadratic falls all the way to target, so the first
    sign-change point alone is already lower than start."""
    cross = np.flatnonzero(start * target < 0.0)
    if cross.size == 0:
        return target
    at = start[cross] / (start[cross] - target[cross])  # in (0, 1)
    points = start + np.append(at, 1.0)[:, None] * (target - start)
    points[:-1, cross] = np.where(at[:, None] == at[None, :], 0.0, points[:-1, cross])
    objective = 0.5 * ((points @ h) * points).sum(axis=1) - points @ c
    objective += l1 * np.abs(points).sum(axis=1)
    return points[int(np.argmin(objective))]


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
