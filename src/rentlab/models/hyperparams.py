"""The hyperparameters of every model family: each one's only default and
only range check."""

from __future__ import annotations

from dataclasses import asdict, dataclass

from ..jsonfields import at_least, decode


@dataclass(frozen=True)
class HyperParams:
    """Settings shared by the families; each family reads only its own:

    - ``alpha``: lasso, ridge, elastic
    - ``l1_ratio``: elastic (lasso fixes 1, ridge 0)
    - ``n_trees``, ``max_features`` (0 = ceil(p/3)): forest
    - ``max_depth``, ``min_samples_split``: forest and gbm
    - ``n_rounds``, ``learning_rate``: gbm

    ols reads none.
    """

    alpha: float = 0.001
    l1_ratio: float = 0.5
    n_trees: int = 30
    max_depth: int = 8
    min_samples_split: int = 2
    max_features: int = 0
    learning_rate: float = 0.1
    n_rounds: int = 50

    def __post_init__(self):
        at_least(self, alpha=0, n_trees=1, max_depth=0, min_samples_split=2, max_features=0,
                 n_rounds=0)
        if not 0.0 <= self.l1_ratio <= 1.0:
            raise ValueError(f"l1_ratio must be in [0,1], got {self.l1_ratio}")
        if not 0.0 < self.learning_rate <= 1.0:
            raise ValueError(f"learning_rate must be in (0,1], got {self.learning_rate}")

    def to_dict(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_dict(values: dict) -> "HyperParams":
        return decode(HyperParams, values, "hyperparameters")
