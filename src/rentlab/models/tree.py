"""CART regression trees: greedy SSE-reduction splits at midpoints between
sorted distinct values, grown one level at a time from (node, bin)
histograms."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import EmptyInputError
from ..features import FeatureMatrix
from .hyperparams import HyperParams

# A split must cut its node's SSE by more than this fraction of it, so a
# tree's shape does not depend on the target's units.
MIN_GAIN = 1e-12


@dataclass(eq=False)
class Tree:
    """A fitted tree as three node arrays in preorder; node 0 is the root.

    A split node has ``feature >= 0`` and sends ``x[feature] <= threshold``
    to its left child, the next node; its right child follows the left
    child's subtree. A leaf has ``feature == -1``. Every node stores its
    training mean (``value``). ``left``, ``right`` (a leaf's are itself) and
    ``depth`` are derived. Trees compare and hash by identity, for weak caches.
    """

    feature: np.ndarray
    threshold: np.ndarray
    value: np.ndarray

    def __post_init__(self):
        feature = np.asarray(self.feature)
        with np.errstate(invalid="ignore"):  # NaN and inf cast to integers they differ from
            self.feature = feature.astype(np.int64, copy=False)
        bad = (self.feature != feature) | (self.feature < -1)
        if bad.any():
            raise ValueError(f"feature holds column indices and -1, not {feature[bad][0].item()!r}")
        self.threshold = np.asarray(self.threshold, dtype=np.float64)
        self.value = np.asarray(self.value, dtype=np.float64)
        if self.feature.ndim != 1 or not self.feature.shape == self.threshold.shape == self.value.shape:
            raise ValueError("feature, threshold and value must be 1-d and of equal length")
        self.left, self.right, self.depth = self._shape()

    def _shape(self) -> tuple[np.ndarray, np.ndarray, int]:
        """Each node's children and the tree's depth. With +1 at a split and
        -1 at a leaf, the marks are a full binary tree in preorder exactly
        when their prefix sums s stay >= 0 before the last node and end at
        -1. A split i's subtree then ends at the first j > i with s[j] =
        s[i] - 2, a leaf's at itself, and a node's depth counts the nodes
        before it whose subtrees have not ended."""
        n = self.feature.size
        split = self.feature >= 0
        s = np.cumsum(np.where(split, 1, -1))
        # s first takes its least value at the last node, and that is -1
        if n == 0 or s.argmin() != n - 1 or s[-1] != -1:
            raise ValueError("feature's split/leaf marks are not a binary tree in preorder")
        nodes = np.arange(n)
        # key s * n + i orders the nodes by s, then by index; i is key mod n
        key = s * n + nodes
        ordered = np.sort(key)
        end = ordered[ordered.searchsorted(key - 2 * n * split)] % n
        right = np.where(split, np.append(end[1:], 0) + 1, nodes)
        depth = nodes - np.sort(end).searchsorted(nodes)
        return nodes + split, right, int(depth.max())

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


def check_split_features(model) -> None:
    """Fail by name when one of ``model.trees`` splits past ``model.feature_names``."""
    names = model.feature_names
    top = max((int(t.feature.max()) for t in model.trees), default=-1)
    if names and top >= len(names):
        raise ValueError(f"feature_names has {len(names)} names, but a tree splits on column {top}")


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
    a threshold between two codes splits the rows as one between the two
    floats does. The dtype is the narrowest unsigned one that holds every
    column's codes."""
    x = np.asarray(x, dtype=np.float64)
    values = tuple(_distinct(col) for col in x.T)
    width = max((v.size for v in values), default=1)
    codes = np.empty((x.shape[1], x.shape[0]), dtype=np.min_scalar_type(max(width - 1, 0)))
    for j, v in enumerate(values):
        codes[j] = np.searchsorted(v, x[:, j])
    return codes, values


# A level builds keys for at most this many (feature, row) cells at once,
# or one feature's rows. A feature is histogrammed on a (node, bin) grid of
# at most this many cells or the level's rows, else from its rows' sorted
# keys; so a level's temporaries stay near the larger of 128 KiB and an
# array over its rows apiece, however many nodes it holds.
_BLOCK_CELLS = 1 << 14
# A level whose features all fit a grid keeps its histograms for its
# children's sibling subtraction while they hold at most this many cells,
# divided among the trees of its batch: small trees grown together gain
# little from subtraction, and their grids would hold many nodes' bins.
_KEPT_CELLS = 1 << 17
# Trees grow together in batches of at most this many (tree, row) pairs, or
# the matrix's rows: enough small trees to share each level's fixed cost,
# few enough that a level's state and grids stay within a few MB.
_BATCH_PAIRS = 1 << 13
# Gains within this fraction of the node's SSE of its best gain count as
# equal, so the sums' order of addition cannot pick the split.
_TIE = 1e-12


def _distinct_rows(codes: np.ndarray, widths) -> np.ndarray:
    """Number the rows of a matrix by its distinct rows, in order of first
    occurrence, from its (p, n) ``codes`` and each column's number of codes
    (``widths``): equal rows, and only they, share a number."""
    n = codes.shape[1]
    key, span = np.zeros(n, dtype=np.int64), 1
    for column, width in zip(codes, widths):
        if span * width >= 1 << 62:
            # rank the keys so far, which keeps the next product in range
            ranked = np.sort(key)
            key, span = np.searchsorted(ranked[_firsts(ranked)], key), n
        key *= width
        key += column
        span *= width
    order = key.argsort(kind="stable")
    start = _firsts(key[order])
    # each run of equal keys starts at its first row; number the runs in
    # the order of their first rows
    head = np.zeros(n, dtype=bool)
    head[order[start]] = True
    number = head.cumsum() - 1
    ids = np.empty(n, dtype=np.intp)
    ids[order] = number[order[start]][start.cumsum() - 1]
    return ids


@dataclass(frozen=True, eq=False)
class _CodedMatrix:
    """A matrix coded for split search (see ``code_columns``) by its
    distinct rows: row i is distinct row ``distinct[i]``, whose codes are
    ``codes[:, distinct[i]]``; distinct rows are numbered in order of first
    occurrence, so a matrix without repeated rows keeps its codes as they
    are. ``bins`` holds every column's sorted distinct values one column
    after another, column j's from ``offsets[j]``, so code c of column j is
    bin ``offsets[j] + c``. A fit codes its matrix once for all its trees."""

    codes: np.ndarray
    distinct: np.ndarray
    bins: np.ndarray
    offsets: np.ndarray

    @staticmethod
    def of(x: np.ndarray) -> "_CodedMatrix":
        codes, values = code_columns(x)
        widths = [v.size for v in values]
        distinct = _distinct_rows(codes, widths)
        offsets = np.zeros(len(values) + 1, dtype=np.intp)
        np.cumsum(widths, out=offsets[1:])
        bins = np.concatenate(values) if values else np.empty(0)
        n_distinct = int(distinct.max(initial=-1)) + 1
        if n_distinct < distinct.size:
            # repeats of a row write the same codes
            first = codes
            codes = np.empty((first.shape[0], n_distinct), dtype=first.dtype)
            codes[:, distinct] = first
        return _CodedMatrix(codes, distinct, bins, offsets)


def _firsts(keys: np.ndarray) -> np.ndarray:
    """Mark the first of each run of equal values in ``keys``."""
    first = np.ones(keys.size, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    return first


def _near_best(gain: np.ndarray, slot: np.ndarray, tol: np.ndarray) -> np.ndarray:
    """Mark each gain within ``tol[slot]`` of the largest gain of its slot;
    ``slot`` is sorted."""
    first = _firsts(slot)
    starts = first.nonzero()[0]
    best = np.maximum.reduceat(gain, starts)
    return gain >= (best - tol[slot[starts]])[first.cumsum() - 1]


def _merge_near_best(picks, tol):
    """Merge groups' (gain, slot, bin, next bin) thresholds in slot order,
    dropping one short of its slot's best gain by more than ``tol`` or no
    better than the one before it, which wins wherever it would."""
    gain, s, at, above = (np.concatenate(part) for part in zip(*picks))
    order = s.argsort(kind="stable")
    near = order[_near_best(gain[order], s[order], tol)]
    gain, s = gain[near], s[near]
    rises = np.ones(s.size, dtype=bool)
    rises[1:] = (s[1:] != s[:-1]) | (gain[1:] > gain[:-1])
    near = near[rises]
    return gain[rises], s[rises], at[near], above[near]


def _histogram(codes, offsets, j0, j1, rows, slot, weights, m) -> np.ndarray:
    """Sum each of ``weights`` over the ``rows``, by their ``slot`` and
    their bins of features j0 to j1: an array of shape (len(weights), m,
    bins), one ``bincount`` per weight and key block."""
    o0 = offsets[j0]
    hist = np.empty((len(weights), m, offsets[j1] - o0))
    step = max(1, _BLOCK_CELLS // rows.size)
    for ja in range(j0, j1, step):
        jb = min(ja + step, j1)
        sub = hist[:, :, offsets[ja] - o0:offsets[jb] - o0]
        width = sub.shape[2]
        keys = np.add(codes[ja:jb].take(rows, 1), (offsets[ja:jb] - offsets[ja])[:, None],
                      dtype=np.intp)
        keys += slot * width
        for q, w in enumerate(weights):
            w = w[None].repeat(jb - ja, 0).ravel()
            sub[q] = np.bincount(keys.ravel(), w, m * width).reshape(m, width)
    return hist


def _grid_cells(hist, o0):
    """The slots, bins and sums of the occupied cells of (2, m, bins)
    histograms from bin ``o0``, in slot then bin order."""
    nb = hist.shape[2]
    count, total = hist.reshape(2, -1)
    flat = count.nonzero()[0]
    return flat // nb, o0 + flat % nb, count[flat], total[flat]


def _sorted_cells(codes, offsets, j0, j1, rows, slot, weights, m):
    """``_grid_cells`` of the ``_histogram`` of features j0 to j1, from
    the ``rows``' keys sorted: a cell's rows add in the same order."""
    o0 = offsets[j0]
    width = int(offsets[j1] - o0)
    # a key holds its slot, then its bin in the group, in bit fields
    wbits, rbits = (width - 1).bit_length(), (rows.size - 1).bit_length()
    keys = codes[j0:j1].take(rows, 1).astype(np.int64)
    keys += (offsets[j0:j1] - o0)[:, None]
    keys += slot << wbits
    if m << (wbits + rbits) <= 1 << 63:
        # with its row in the low bits every key is distinct, so the
        # unstable sort orders them as a stable one does
        keys <<= rbits
        keys |= np.arange(rows.size)
        keys = np.sort(keys, axis=None)
        row = keys & ((1 << rbits) - 1)
        keys >>= rbits
    else:
        keys = keys.ravel()
        order = keys.argsort(kind="stable")
        keys, row = keys[order], order % rows.size
    first = _firsts(keys)
    cell, index = keys[first], first.cumsum() - 1
    return (cell >> wbits, o0 + (cell & ((1 << wbits) - 1)),
            *(np.bincount(index, w[row], cell.size) for w in weights))


def _candidates(s, at, count, total, bin_feature, totals, tol, floor, allowed):
    """Score the threshold after every occupied cell, given in slot then
    bin order with its weight ``count`` and weighted target ``total`` (both
    overwritten), from the nodes' (count, sum) ``totals``. Return the
    (gain, slot, bin, next occupied bin) of those within ``tol`` of their
    node's best gain here and above its ``floor``, or None when there are
    none."""
    feature = bin_feature[at]
    # the last cell of each (node, feature) segment
    last = np.ones(s.size, dtype=bool)
    np.not_equal(s[1:], s[:-1], out=last[:-1])
    last[:-1] |= feature[1:] != feature[:-1]
    ends = last.nonzero()[0]
    # less the node's totals at each segment's last cell, running sums end
    # every segment at zero: the count exactly (a threshold leaves rows on
    # its right where it is not 0), the sum to a rounding the next takes off
    count[ends] -= totals[0, s[ends]]
    total[ends] -= totals[1, s[ends]]
    k = np.cumsum(count, out=count)
    run = np.cumsum(total, out=total)
    starts = np.concatenate(([0], ends[:-1] + 1))
    run -= np.concatenate(([0.0], run[ends[:-1]])).repeat(ends + 1 - starts)
    i = k.nonzero()[0]
    if allowed is not None:
        i = i[allowed[s[i], feature[i]]]
    s, k, left = s[i], k[i], run[i]
    # the SSE reduction n / (k (n - k)) * (left - k * mean)^2
    n = totals[0, s]
    gain = left - k * (totals[1] / totals[0])[s]
    gain *= gain
    gain *= n / (k * (n - k))
    good = _near_best(gain, s, tol) & (gain > floor[s])
    if not good.any():
        return None
    i = i[good]
    return gain[good], s[good], at[i], at[i + 1]


def _best_splits(coded, bin_feature, pairs, m, scores, subtract, keep):
    """Each of a level's ``m`` open slots' first threshold near its best
    gain, from its (tree, distinct row) ``pairs``: their distinct rows,
    slots, weights and weighted targets. Returns the (slot, bin, next
    occupied bin) of the slots that split, and the level's (2, m, bins)
    histograms when ``keep`` asks for them and every feature fits a grid;
    or None when no slot splits. ``scores`` are ``_candidates``' node
    totals, tie tolerances, gain floors and allowed features. ``subtract``,
    when the parent level kept its histograms, holds the slots derived as
    their parent less their sibling, those siblings and the parents'
    histograms."""
    codes, offsets = coded.codes, coded.offsets
    p = codes.shape[0]
    widths = offsets[1:] - offsets[:-1]
    drows, slot, w, wy = pairs
    hpairs = drows, slot, (w, wy)
    if subtract is not None:
        derived, sibling, parent = subtract
        # the grids take the pairs of the slots not derived from their
        # parent's histograms
        direct = np.ones(m, dtype=bool)
        direct[derived] = False
        direct = direct[slot]
        hpairs = drows[direct], slot[direct], (w[direct], wy[direct])
    # a feature whose (node, bin) grid holds at most `cap` cells is
    # histogrammed on it, a wider one from its pairs' sorted keys
    cap = max(_BLOCK_CELLS, drows.size)
    dense = m * widths <= cap
    ends = np.concatenate(((dense[1:] != dense[:-1]).nonzero()[0] + 1, [p]))
    kept = np.empty((2, m, int(offsets[-1]))) if keep and dense.all() else None

    picks = []
    j1 = 0
    while j1 < p:
        j0, o0 = j1, offsets[j1]
        end = ends[ends.searchsorted(j0, "right")]
        if dense[j0]:
            # a group of at most `cap` (node, bin) cells, or one feature
            j1 = min(end, max(j0 + 1, int(offsets.searchsorted(o0 + cap // m, "right")) - 1))
            hist = _histogram(codes, offsets, j0, j1, *hpairs, m)
            if subtract is not None:
                hist[:, derived] = parent[:, :, o0:offsets[j1]] - hist[:, sibling]
            if kept is not None:
                kept[:, :, o0:offsets[j1]] = hist
            cells = _grid_cells(hist, o0)
        else:
            j1 = min(end, j0 + max(1, _BLOCK_CELLS // drows.size))
            cells = _sorted_cells(codes, offsets, j0, j1, drows, slot, (w, wy), m)
        found = _candidates(*cells, bin_feature, *scores)
        if found is not None:
            picks.append(found)
            if sum(part[0].size for part in picks) > _BLOCK_CELLS:
                picks = [_merge_near_best(picks, scores[1])]
    if not picks:
        return None
    # each slot's first threshold near its best (one group's are merged)
    _, s, at, above = picks[0] if len(picks) == 1 else _merge_near_best(picks, scores[1])
    first = _firsts(s)
    return s[first], at[first], above[first], kept


def _node_sums(raw, n_nodes, w, wy, wyy, target):
    """Each node's sums of its (tree, row) pairs' weights, weighted targets
    and weighted squared targets, added in row order, and whether its
    targets vary; ``raw`` holds each pair's node, n_nodes for none."""
    sums = [np.bincount(raw, v, n_nodes + 1)[:n_nodes] for v in (w, wy, wyy)]
    # a node's targets vary when one differs from one of them
    one = np.empty(n_nodes + 1)
    one[raw] = target
    return (*sums, np.bincount(raw, target != one[raw], n_nodes + 1)[:n_nodes] > 0)


def _grow_levels(coded: _CodedMatrix, hp: HyperParams, batch, max_features):
    """Grow a batch of trees together, one level at a time. ``batch`` holds
    each tree's (rows, weights, targets, rng): its rows in ascending order,
    their positive weights and their targets, and the generator of its
    ``max_features`` draws. A level numbers its nodes tree after tree, left
    to right; the first level holds the roots. Return each level's node
    ``value`` array and, for every level but the last, its splits: the
    nodes that split (``split``) with their ``feature`` and ``threshold``.
    Split i's children are nodes 2i and 2i + 1 of the next level. Also
    return the value of the leaf each (tree, row) pair reaches, tree after
    tree.

    A node's value, row count and SSE, and whether its targets vary, are
    summed over its (tree, row) pairs in row order, as a tree grown alone
    sums them. Its histograms read its (tree, distinct row) pairs instead,
    each carrying its rows' summed weight and weighted target, since equal
    rows go to the same child. Each level sums its open nodes' pairs into
    their occupied (node, bin) cells, from a grid or from sorted keys; of
    two open siblings whose parent's grids were kept, only the smaller is
    histogrammed, the larger being parent minus smaller. Running sums along
    each (node, feature) segment score every open node's thresholds at
    once; the first, by feature then threshold, within the tie tolerance of
    the node's best gain wins."""
    codes, offsets = coded.codes, coded.offsets
    p, n_distinct = codes.shape
    n_bins = int(offsets[-1])
    bin_feature = np.arange(p, dtype=np.min_scalar_type(p)).repeat(offsets[1:] - offsets[:-1])
    n_trees = len(batch)
    tree = np.arange(n_trees).repeat([len(spec[0]) for spec in batch])
    # each (tree, row) pair's (tree, distinct row) pair, numbered tree after tree
    key = coded.distinct[np.concatenate([spec[0] for spec in batch])]
    key += tree * n_distinct
    # a lone tree's weights and targets are used as given, not copied
    w, target = (part[0] if n_trees == 1 else np.concatenate(part) for part in tuple(zip(*batch))[1:3])
    # the sums run over the targets less their tree's mean, so that their
    # rounding follows the targets' spread, not their level
    mean = np.array([float(wt @ yt) / float(wt.sum()) for _, wt, yt, _ in batch])
    yr = target - mean[tree]
    wy = w * yr
    wyy = wy * yr
    # the level loop keeps only what it reads: here, none of the setup's
    # arrays over the pairs but their sums
    del tree, yr
    dw = np.bincount(key, w, n_trees * n_distinct)
    present = dw.nonzero()[0]
    pair = np.empty(dw.size, dtype=np.intp)
    pair[present] = np.arange(present.size)
    pair = pair[key]
    del key
    # the distinct pairs of the open nodes: their nodes, distinct rows,
    # weights, weighted targets and numbers
    node, drows = np.divmod(present, n_distinct)
    dw, dwy = dw[present], np.bincount(pair, wy, present.size)
    pos = np.arange(present.size)
    del present
    # every distinct pair's node, n_nodes once it has left the open nodes,
    # and the value of the last node it was in
    where, fitted = np.empty(pos.size, dtype=np.intp), np.empty(pos.size)
    node_tree = np.arange(n_trees)
    n_nodes, kept, parent = n_trees, None, None
    levels = []
    for depth in range(hp.max_depth + 1):
        where.fill(n_nodes)
        where[pos] = node
        count, total, squares, varied = _node_sums(where[pair], n_nodes, w, wy, wyy, target)
        value = mean[node_tree] + total / count
        levels.append({"value": value})
        fitted[pos] = value[node]
        if depth == hp.max_depth:
            break
        is_open = varied & (count >= hp.min_samples_split)
        slots = is_open.nonzero()[0]
        m = slots.size
        if m == 0:
            break

        # open nodes get slots 0..m-1 and the rest slot m; pairs of leaves drop out
        slot_of = np.full(n_nodes + 1, m)
        slot_of[slots] = np.arange(m)
        totals = np.array((count[slots], total[slots]))
        sse = np.maximum(squares[slots] - totals[1] * totals[1] / totals[0], 0.0)
        tol, floor = _TIE * sse, MIN_GAIN * sse
        slot = slot_of[node]
        if m < n_nodes:
            inside = slot < m
            pos, drows, dw, dwy, slot = pos[inside], drows[inside], dw[inside], dwy[inside], slot[inside]
        allowed = None
        if max_features is not None and max_features < p:
            allowed = np.zeros((m, p), dtype=bool)
            for s, t in enumerate(node_tree[slots]):
                allowed[s, batch[t][3].choice(p, size=max_features, replace=False)] = True

        subtract = None
        if kept is not None:
            twins = (is_open[0::2] & is_open[1::2]).nonzero()[0]
            larger = (count[2 * twins + 1] >= count[2 * twins]).astype(np.intp)
            subtract = (slot_of[2 * twins + larger], slot_of[2 * twins + 1 - larger],
                        kept[:, parent[twins]])
        keep = depth + 1 < hp.max_depth and m * n_bins * n_trees <= _KEPT_CELLS
        found = _best_splits(coded, bin_feature, (drows, slot, dw, dwy), m,
                             (totals, tol, floor, allowed), subtract, keep)
        if found is None:
            break
        split_slot, at, above, kept = found
        feature = bin_feature[at]
        a, b = coded.bins[at], coded.bins[above]
        with np.errstate(over="ignore"):
            thr = (a + b) / 2.0
        levels[-1].update(split=slots[split_slot], feature=feature,
                          threshold=np.where((a <= thr) & (thr < b), thr, a))

        # pairs of a split node (its rank is its slot if all split) go to its children:
        # right when their code passes the split's, its bin less its feature's offset
        r = slot
        if split_slot.size < m:
            rank = np.full(m, -1)
            rank[split_slot] = np.arange(split_slot.size)
            r = rank[slot]
            moving = r >= 0
            pos, drows, dw, dwy, r = pos[moving], drows[moving], dw[moving], dwy[moving], r[moving]
        node = 2 * r + (codes[feature[r], drows] > (at - offsets[feature])[r])
        node_tree = node_tree[slots[split_slot]].repeat(2)
        n_nodes = 2 * split_slot.size
        parent = split_slot
    return levels, fitted[pair]


def _preorder(levels: list[dict], n_trees: int) -> list[Tree]:
    """The trees of ``_grow_levels``'s levels, each with its nodes numbered
    in preorder: a split's left child follows it, and its right child
    follows the left child's subtree."""
    size = [np.ones(level["value"].size, dtype=np.int64) for level in levels]
    for d in range(len(levels) - 2, -1, -1):
        size[d][levels[d]["split"]] += size[d + 1][0::2] + size[d + 1][1::2]
    # the trees' nodes one tree after another; `here` places a level's nodes
    start = np.zeros(n_trees + 1, dtype=np.int64)
    np.cumsum(size[0], out=start[1:])
    n, here = int(start[-1]), start[:-1]
    nodes = {"feature": np.full(n, -1), "threshold": np.zeros(n), "value": np.empty(n)}
    for d, level in enumerate(levels):
        nodes["value"][here] = level["value"]
        if d + 1 < len(levels):
            at = here[level["split"]]
            for f in ("feature", "threshold"):
                nodes[f][at] = level[f]
            # split i's children are nodes 2i and 2i + 1 of the next level
            here = np.column_stack((at + 1, at + 1 + size[d + 1][0::2])).ravel()
    return [Tree(**{f: a[start[t]:start[t + 1]] for f, a in nodes.items()}) for t in range(n_trees)]


def _grow_batch(coded, hp, batch, max_features):
    """The trees of ``_grow_levels`` with the values their rows fit."""
    levels, fitted = _grow_levels(coded, hp, batch, max_features)
    ends = np.cumsum([len(rows) for rows, *_ in batch])[:-1]
    return zip(_preorder(levels, len(batch)), np.split(fitted, ends))


def grow_trees(coded: _CodedMatrix, hp: HyperParams, trees, max_features: int | None = None):
    """Grow each of ``trees``, given as its (rows, weights, targets, rng)
    (see ``_grow_levels``), and yield it with the values its rows fit, in
    order. Trees grow together in batches of at most the larger of
    ``_BATCH_PAIRS`` and the matrix's rows (tree, row) pairs, a tree
    counting its rows or, if more, the matrix's distinct rows."""
    n_distinct = coded.codes.shape[1]
    cap = max(_BATCH_PAIRS, coded.distinct.size)
    batch, size = [], 0
    for spec in trees:
        cost = max(len(spec[0]), n_distinct)
        if batch and size + cost > cap:
            yield from _grow_batch(coded, hp, batch, max_features)
            batch, size = [], 0
        batch.append(spec)
        size += cost
    if batch:
        yield from _grow_batch(coded, hp, batch, max_features)


def fit_tree(
    m: FeatureMatrix,
    hp: HyperParams = HyperParams(),
    max_features: int | None = None,
    rng: np.random.Generator | None = None,
) -> Tree:
    """Grow a regression tree to ``hp.max_depth``, splitting only nodes of at
    least ``hp.min_samples_split`` rows; leaves predict the node mean. Each
    split tries ``max_features`` features drawn from ``rng``, node by node in
    level order, or all of them when None; ``hp.max_features`` is the
    forest's, which resolves it."""
    if m.n_rows == 0:
        raise EmptyInputError("cannot fit a tree on an empty matrix")
    if rng is None and max_features is not None:
        rng = np.random.default_rng(0)
    spec = (np.arange(m.n_rows), np.ones(m.n_rows), np.ascontiguousarray(m.y, dtype=np.float64), rng)
    ((tree, _),) = grow_trees(_CodedMatrix.of(m.x), hp, [spec], max_features)
    return tree
