"""CART regression trees: greedy SSE-reduction splits at midpoints between
sorted distinct values."""

from __future__ import annotations

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


# A block of candidate features holds at most this many (feature, row) cells,
# so each node's split search makes a few numpy calls per block instead of a
# few per feature, and its temporaries stay near 64 KiB apiece. A node of more
# rows than this scores one feature per block.
_BLOCK_CELLS = 1 << 13


def _best_split(x, node_y, idx, features):
    """Scan the candidate ``features`` (ascending) of the rows ``idx``, whose
    targets are ``node_y``; return (gain, feature, threshold, left_rows,
    right_rows) or None. Ties keep the lowest feature index, then the lowest
    threshold.

    Each block of features is sorted, summed and scored as one (f, n) array.
    A stable row-wise argsort gives each feature's 1-D stable order, cumsum
    adds in sequence along a row, and the elementwise gain keeps the
    per-feature expression's operation order, so every gain carries the
    same bits as a feature-at-a-time scan."""
    n = idx.size
    total_sum = node_y.sum()
    total_sq = float(node_y @ node_y)
    parent_sse = total_sq - total_sum * total_sum / n
    k = np.arange(1, n, dtype=np.float64)
    n_right = n - k
    step = max(1, _BLOCK_CELLS // n)

    best = None
    for start in range(0, features.size, step):
        cols = features[start:start + step]
        sx = x.T[np.ix_(cols, idx)]
        order = np.argsort(sx, axis=1, kind="stable")
        sx = np.take_along_axis(sx, order, axis=1)
        sy = node_y[order]
        csum = np.cumsum(sy, axis=1)[:, :-1]
        np.multiply(sy, sy, out=sy)
        csq = np.cumsum(sy, axis=1, out=sy)[:, :-1]
        # left_sse = csq - csum * csum / k
        gains = np.multiply(csum, csum)
        gains /= k
        np.subtract(csq, gains, out=gains)
        # right_sse = (total_sq - csq) - (total_sum - csum) ** 2 / (n - k)
        sq = np.subtract(total_sum, csum, out=csum)
        np.multiply(sq, sq, out=sq)
        sq /= n_right
        right = np.subtract(total_sq, csq, out=csq)
        right -= sq
        # gain = parent_sse - left_sse - right_sse
        np.subtract(parent_sse, gains, out=gains)
        gains -= right
        np.copyto(gains, -np.inf, where=sx[:, 1:] == sx[:, :-1])
        pos = gains.argmax(axis=1)
        top = gains[np.arange(cols.size), pos]
        # a feature whose best gain is <= MIN_GAIN (all ties: a constant
        # column) is skipped; argmax keeps the first, lowest-index feature
        top[top <= MIN_GAIN] = -np.inf
        i = int(top.argmax())
        gain = float(top[i])
        if gain == -np.inf or (best is not None and gain <= best[0]):
            continue
        p = int(pos[i])
        a, b = float(sx[i, p]), float(sx[i, p + 1])
        thr = (a + b) / 2.0
        if not (a <= thr < b):
            thr = a
        best = (gain, int(cols[i]), thr, idx[order[i, : p + 1]], idx[order[i, p + 1 :]])
    return best


def _grow(nodes, x, y, idx, depth, max_depth, min_samples_split, max_features, rng):
    """Append the subtree over rows `idx` to the node lists, in preorder."""
    node_y = y[idx]
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

    p = x.shape[1]
    if max_features is not None and max_features < p:
        features = np.sort(rng.choice(p, size=max_features, replace=False))
    else:
        features = np.arange(p)

    found = _best_split(x, node_y, idx, features)
    if found is None:
        return
    gain, feature, thr, left_rows, right_rows = found
    nodes["feature"][node] = feature
    nodes["threshold"][node] = thr
    nodes["gain"][node] = gain
    for side, rows in (("left", left_rows), ("right", right_rows)):
        nodes[side][node] = len(nodes["value"])
        _grow(nodes, x, y, rows, depth + 1, max_depth,
              min_samples_split, max_features, rng)


def fit_tree(
    m: FeatureMatrix,
    hp: HyperParams = HyperParams(),
    max_features: int | None = None,
    rng: np.random.Generator | None = None,
) -> Tree:
    """Grow a regression tree to ``hp.max_depth``, splitting only nodes of at
    least ``hp.min_samples_split`` rows; leaves predict the node mean. Each
    split tries ``max_features`` features drawn from ``rng``, or all of them
    when None; ``hp.max_features`` is the forest's, which resolves it."""
    if m.n_rows == 0:
        raise EmptyInputError("cannot fit a tree on an empty matrix")
    x = np.asarray(m.x, dtype=np.float64)
    y = np.asarray(m.y, dtype=np.float64)
    if rng is None:
        rng = np.random.default_rng(0)
    nodes = {f: [] for f in _FIELDS}
    _grow(nodes, x, y, np.arange(m.n_rows), 0, hp.max_depth, hp.min_samples_split,
          max_features, rng)
    return Tree(*(nodes[f] for f in _FIELDS))
