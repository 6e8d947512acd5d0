"""CART regression trees: greedy SSE-reduction splits at midpoints between
sorted distinct values."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ..errors import EmptyInputError
from ..features import FeatureMatrix
from .hyperparams import HyperParams

MIN_GAIN = 1e-12
_FIELDS = ("feature", "threshold", "left", "right", "value", "n_samples", "gain")


class Tree:
    """A fitted tree as parallel node arrays in preorder; node 0 is the root.

    A split node has ``feature >= 0`` and sends ``x[feature] <= threshold``
    to ``left``; a leaf has ``feature == -1`` and is its own left and right
    child. Every node stores its training mean (``value``), row count and
    SSE reduction (``gain``, 0 at leaves).
    """

    def __init__(self, feature, threshold, left, right, value, n_samples, gain):
        self.feature = np.asarray(feature, dtype=np.int64)
        self.threshold = np.asarray(threshold, dtype=np.float64)
        self.left = np.asarray(left, dtype=np.int64)
        self.right = np.asarray(right, dtype=np.int64)
        self.value = np.asarray(value, dtype=np.float64)
        self.n_samples = np.asarray(n_samples, dtype=np.int64)
        self.gain = np.asarray(gain, dtype=np.float64)
        self._check()
        self.depth = self._depth()

    def _check(self) -> None:
        n = self.feature.size
        if n == 0 or any(getattr(self, f).shape != (n,) for f in _FIELDS):
            raise ValueError("tree arrays must be non-empty, one-dimensional and of equal length")
        nodes = np.arange(n)
        split = self.feature >= 0
        leaf_ok = (self.feature == -1) & (self.left == nodes) & (self.right == nodes)
        # children come after their parent in preorder, so routing ends
        split_ok = split & (self.left > nodes) & (self.right > nodes) & (self.left < n) & (self.right < n)
        if not np.all(leaf_ok | split_ok):
            raise ValueError("tree arrays are not a preorder binary tree")

    def _depth(self) -> int:
        depth, frontier = 0, np.zeros(1, dtype=np.int64)
        while True:
            frontier = frontier[self.feature[frontier] >= 0]
            if frontier.size == 0:
                return depth
            frontier = np.concatenate((self.left[frontier], self.right[frontier]))
            depth += 1

    def predict(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        rows = np.arange(x.shape[0])
        node = np.zeros(x.shape[0], dtype=np.int64)
        # leaves route to themselves, so `depth` steps put every row on its
        # leaf without testing which rows are already there
        for _ in range(self.depth):
            node = np.where(x[rows, self.feature[node]] <= self.threshold[node],
                            self.left[node], self.right[node])
        return self.value[node]

    def to_doc(self) -> dict:
        return {f: getattr(self, f).tolist() for f in _FIELDS}

    @staticmethod
    def from_doc(doc: dict) -> "Tree":
        missing = [f for f in _FIELDS if f not in doc]
        if missing:
            raise ValueError(
                f"tree document lacks the flat fields {missing}; "
                "nested tree documents are not read, refit the model"
            )
        return Tree(*(doc[f] for f in _FIELDS))


def _distinct(col: np.ndarray) -> np.ndarray:
    """The sorted distinct values of ``col``; like ``np.unique``, which
    imports ``numpy.ma`` (about 1 MB) on its first call."""
    col = np.sort(col)
    keep = np.ones(col.size, dtype=bool)
    np.not_equal(col[1:], col[:-1], out=keep[1:])
    return col[keep]


def code_columns(x: np.ndarray) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """Code each column of the (n, p) array ``x`` by its rank among the
    column's distinct values.

    Returns ``(codes, values)``: ``codes`` is (p, n), feature-major, and
    ``values[j]`` holds column j's sorted distinct values, so that
    ``values[j][codes[j, i]] == x[i, j]``. Floats that compare ``==`` share a
    code (``-0.0`` and ``0.0`` too) and the codes keep the floats' order, so
    a stable sort of a row of codes orders rows as a stable sort of the
    column would. The dtype is the narrowest unsigned one that holds every
    column's codes: uint8 up to 256 distinct values, where numpy's stable
    argsort is a radix sort."""
    x = np.asarray(x, dtype=np.float64)
    values = tuple(_distinct(col) for col in x.T)
    width = max((v.size for v in values), default=1)
    codes = np.empty((x.shape[1], x.shape[0]), dtype=np.min_scalar_type(max(width - 1, 0)))
    for j, v in enumerate(values):
        codes[j] = np.searchsorted(v, x[:, j])
    return codes, values


# A block of candidate features holds at most this many (feature, row) cells,
# so each node's split search makes a few numpy calls per block instead of a
# few per feature, and its temporaries stay near 128 KiB apiece. A node of
# more rows than this scores one feature per block.
_BLOCK_CELLS = 1 << 14


def _sort_block(codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's stable order of a (f, n) block of codes, and where the
    row's sorted codes change: ``cut[r, i]`` says sorted positions i and
    i + 1 of row r differ."""
    order = np.argsort(codes, axis=1, kind="stable")
    codes = np.sort(codes, axis=1, kind="stable")
    return order, codes[:, 1:] != codes[:, :-1]


class _RootOrder:
    """``_sort_block`` over every feature and all rows of a coded matrix:
    what a root node's split search sorts. A fit that grows many trees over
    the same rows (gbm) sorts them once; the orders take the narrowest
    unsigned dtype that indexes the rows."""

    def __init__(self, codes: np.ndarray):
        p, n = codes.shape
        self.order = np.empty((p, n), dtype=np.min_scalar_type(max(n - 1, 0)))
        self.cut = np.empty((p, max(n - 1, 0)), dtype=bool)
        step = max(1, _BLOCK_CELLS // max(n, 1))
        for start in range(0, p, step):
            block = slice(start, start + step)
            self.order[block], self.cut[block] = _sort_block(codes[block])


@dataclass(frozen=True, eq=False)
class _CodedMatrix:
    """Training rows coded for split search (see ``code_columns``), with
    their targets. ``fit_forest`` and ``fit_gbm`` code their matrix once and
    hand every tree's rows and targets to ``fit_tree`` in this form; ``root``
    caches the root node's sort when every tree starts from all the rows."""

    codes: np.ndarray
    values: tuple[np.ndarray, ...]
    y: np.ndarray
    root: _RootOrder | None = None

    @staticmethod
    def of(m: FeatureMatrix) -> "_CodedMatrix":
        codes, values = code_columns(m.x)
        return _CodedMatrix(codes, values, np.asarray(m.y, dtype=np.float64))

    @property
    def n_rows(self) -> int:
        return self.codes.shape[1]

    @property
    def n_features(self) -> int:
        return self.codes.shape[0]

    def take(self, rows: np.ndarray) -> "_CodedMatrix":
        """The given rows, repeats allowed, coded as before."""
        return _CodedMatrix(self.codes[:, rows], self.values, self.y[rows])

    def with_target(self, y: np.ndarray) -> "_CodedMatrix":
        return replace(self, y=y)

    def with_root_order(self) -> "_CodedMatrix":
        return replace(self, root=_RootOrder(self.codes))


def _best_split(coded, node_y, idx, features, root):
    """Scan the candidate ``features`` (ascending) of the rows ``idx``, whose
    targets are ``node_y``; return (gain, feature, threshold, left_rows,
    right_rows) or None. Ties keep the lowest feature index, then the lowest
    threshold. ``root`` is the matrix's ``_RootOrder`` when ``idx`` is all
    of its rows in order, else None.

    Each block of features is stably sorted by code and summed as one (f, n)
    array; the gain is evaluated only where a row's sorted code changes. The
    stable order of the codes is that of the floats, cumsum adds in sequence
    along a row and the gain keeps the per-feature expression's operation
    order, so every gain carries the same bits as a feature-at-a-time scan
    of the floats. One argmax over the (feature, position) candidates, in
    that order, keeps the tie order."""
    n = idx.size
    total_sum = node_y.sum()
    total_sq = float(node_y @ node_y)
    parent_sse = total_sq - total_sum * total_sum / n
    step = max(1, _BLOCK_CELLS // n)

    best = None
    for start in range(0, features.size, step):
        cols = features[start:start + step]
        if root is not None:
            order, cut = root.order[cols], root.cut[cols]
        else:
            order, cut = _sort_block(coded.codes[cols[:, None], idx])
        fi, pos = np.divmod(np.flatnonzero(cut), n - 1)
        if fi.size == 0:
            continue
        sy = node_y[order]
        csum = np.cumsum(sy, axis=1)[fi, pos]
        np.multiply(sy, sy, out=sy)
        csq = np.cumsum(sy, axis=1, out=sy)[fi, pos]
        k = pos + 1.0
        # left_sse = csq - csum * csum / k
        gains = np.multiply(csum, csum)
        gains /= k
        np.subtract(csq, gains, out=gains)
        # right_sse = (total_sq - csq) - (total_sum - csum) ** 2 / (n - k)
        sq = np.subtract(total_sum, csum, out=csum)
        np.multiply(sq, sq, out=sq)
        sq /= n - k
        right = np.subtract(total_sq, csq, out=csq)
        right -= sq
        # gain = parent_sse - left_sse - right_sse
        np.subtract(parent_sse, gains, out=gains)
        gains -= right
        # the first maximum is the lowest feature's lowest threshold; gains
        # <= MIN_GAIN (a constant target, say) split nothing
        i = int(gains.argmax())
        gain = float(gains[i])
        if gain <= MIN_GAIN or (best is not None and gain <= best[0]):
            continue
        f, p = int(fi[i]), int(pos[i])
        feature = int(cols[f])
        rows = idx[order[f]]
        column, values = coded.codes[feature], coded.values[feature]
        a, b = float(values[column[rows[p]]]), float(values[column[rows[p + 1]]])
        thr = (a + b) / 2.0
        if not (a <= thr < b):
            thr = a
        best = (gain, feature, thr, rows[: p + 1], rows[p + 1 :])
    return best


def _grow(nodes, coded, idx, depth, max_depth, min_samples_split, max_features, rng):
    """Append the subtree over rows `idx` to the node lists, in preorder."""
    node_y = coded.y[idx]
    n = idx.size
    node = len(nodes["value"])
    leaf = {"feature": -1, "threshold": 0.0, "left": node, "right": node,
            "value": float(node_y.mean()), "n_samples": n, "gain": 0.0}
    for f in _FIELDS:
        nodes[f].append(leaf[f])
    if (
        depth >= max_depth
        or n < min_samples_split
        or n < 2
        or float(node_y.min()) == float(node_y.max())
    ):
        return

    p = coded.n_features
    if max_features is not None and max_features < p:
        features = np.sort(rng.choice(p, size=max_features, replace=False))
    else:
        features = np.arange(p)

    # the root's rows are all of the matrix's, in order
    found = _best_split(coded, node_y, idx, features, coded.root if depth == 0 else None)
    if found is None:
        return
    gain, feature, thr, left_rows, right_rows = found
    nodes["feature"][node] = feature
    nodes["threshold"][node] = thr
    nodes["gain"][node] = gain
    for side, rows in (("left", left_rows), ("right", right_rows)):
        nodes[side][node] = len(nodes["value"])
        _grow(nodes, coded, rows, depth + 1, max_depth,
              min_samples_split, max_features, rng)


def fit_tree(
    m: FeatureMatrix | _CodedMatrix,
    hp: HyperParams = HyperParams(),
    max_features: int | None = None,
    rng: np.random.Generator | None = None,
) -> Tree:
    """Grow a regression tree to ``hp.max_depth``, splitting only nodes of at
    least ``hp.min_samples_split`` rows; leaves predict the node mean. Each
    split tries ``max_features`` features drawn from ``rng``, or all of them
    when None; ``hp.max_features`` is the forest's, which resolves it. ``m``
    may come coded already, as the forest and gbm pass it."""
    if m.n_rows == 0:
        raise EmptyInputError("cannot fit a tree on an empty matrix")
    coded = m if isinstance(m, _CodedMatrix) else _CodedMatrix.of(m)
    if rng is None:
        rng = np.random.default_rng(0)
    nodes = {f: [] for f in _FIELDS}
    _grow(nodes, coded, np.arange(coded.n_rows), 0, hp.max_depth, hp.min_samples_split,
          max_features, rng)
    return Tree(*(nodes[f] for f in _FIELDS))
