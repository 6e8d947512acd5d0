"""Slow Shapley oracles that the exact closed forms in select_explain are held
to: the interventional value function, one predict per coalition, its
enumeration over all 2^p coalitions, and the permutation sampler (Strumbelj &
Kononenko, 2014). A coalition is an int bitmask, bit j for feature j."""

import math

import numpy as np

from rentlab.models import predict


class ValueFunction:
    """v(S): mean prediction over the background with S pinned to the instance."""

    def __init__(self, model, instance: np.ndarray, background: np.ndarray):
        self.model = model
        self.instance = np.asarray(instance, dtype=np.float64).reshape(-1)
        self.background = np.asarray(background, dtype=np.float64)
        self.p = self.instance.shape[0]
        self._cache: dict[int, float] = {}

    def __call__(self, mask: int) -> float:
        hit = self._cache.get(mask)
        if hit is not None:
            return hit
        pinned = (mask >> np.arange(self.p)) & 1 == 1
        composite = np.where(pinned, self.instance, self.background)
        value = float(predict(self.model, composite).mean())
        if self.p <= 20 or mask == 0:
            self._cache[mask] = value
        return value

    def along(self, order: np.ndarray) -> np.ndarray:
        """v of every prefix of `order`, empty to full, with one predict."""
        rank = np.empty(self.p, dtype=np.intp)
        rank[order] = np.arange(self.p)
        pinned = np.arange(self.p + 1)[:, None] > rank  # row k pins the first k
        composite = np.where(pinned[:, None, :], self.instance, self.background)
        preds = predict(self.model, composite.reshape(-1, self.p))
        return preds.reshape(self.p + 1, -1).mean(axis=1)


def exact_shapley(v: ValueFunction) -> np.ndarray:
    """phi by enumerating every coalition with its Shapley weight."""
    p = v.p
    fact = [math.factorial(i) for i in range(p + 1)]
    weight = [fact[s] * fact[p - 1 - s] / fact[p] for s in range(p)]
    table = np.array([v(mask) for mask in range(1 << p)])
    phi = np.zeros(p)
    for mask in range(1 << p):
        s = bin(mask).count("1")
        for j in range(p):
            bit = 1 << j
            if mask & bit:
                continue
            phi[j] += weight[s] * (table[mask | bit] - table[mask])
    return phi


def sampled_shapley(v: ValueFunction, budget: int, seed: int) -> np.ndarray:
    """phi as the mean marginal contribution over `budget` seeded permutations."""
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0x5A9)))
    phi = np.zeros(v.p)
    for _ in range(budget):
        order = rng.permutation(v.p)
        phi[order] += np.diff(v.along(order))
    return phi / budget
