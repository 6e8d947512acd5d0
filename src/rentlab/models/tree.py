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

    def splits(self) -> tuple[np.ndarray, np.ndarray]:
        """(feature, gain) of every split node, in preorder."""
        split = self.feature >= 0
        return self.feature[split], self.gain[split]

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


def _best_split(x, y, idx, features):
    """Scan candidate features; return (gain, feature, threshold, left_mask)
    or None. Ties keep the lowest feature index, then lowest threshold."""
    n = idx.size
    node_y = y[idx]
    total_sum = node_y.sum()
    total_sq = float(node_y @ node_y)
    parent_sse = total_sq - total_sum * total_sum / n

    best = None
    for j in features:
        xs = x[idx, j]
        order = np.argsort(xs, kind="stable")
        sx = xs[order]
        if sx[0] == sx[-1]:
            continue
        sy = node_y[order]
        csum = np.cumsum(sy)[:-1]
        csq = np.cumsum(sy * sy)[:-1]
        k = np.arange(1, n, dtype=np.float64)
        left_sse = csq - csum * csum / k
        right_sse = (total_sq - csq) - (total_sum - csum) ** 2 / (n - k)
        gains = parent_sse - left_sse - right_sse
        gains[sx[1:] == sx[:-1]] = -np.inf
        pos = int(np.argmax(gains))
        gain = float(gains[pos])
        if gain <= MIN_GAIN:
            continue
        if best is None or gain > best[0]:
            a, b = float(sx[pos]), float(sx[pos + 1])
            thr = (a + b) / 2.0
            if not (a <= thr < b):
                thr = a
            best = (gain, j, thr, order[: pos + 1], order[pos + 1 :])
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

    found = _best_split(x, y, idx, features)
    if found is None:
        return
    gain, feature, thr, left_order, right_order = found
    nodes["feature"][node] = int(feature)
    nodes["threshold"][node] = thr
    nodes["gain"][node] = gain
    for side, order in (("left", left_order), ("right", right_order)):
        nodes[side][node] = len(nodes["value"])
        _grow(nodes, x, y, idx[order], depth + 1, max_depth,
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
