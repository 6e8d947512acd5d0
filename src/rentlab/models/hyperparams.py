"""The hyperparameters of every model family: each one's only default and
only range check."""

from __future__ import annotations

from dataclasses import asdict, dataclass


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
        if self.alpha < 0:
            raise ValueError(f"alpha must be >= 0, got {self.alpha}")
        if not 0.0 <= self.l1_ratio <= 1.0:
            raise ValueError(f"l1_ratio must be in [0,1], got {self.l1_ratio}")
        if self.n_trees < 1:
            raise ValueError(f"n_trees must be >= 1, got {self.n_trees}")
        if self.max_depth < 0:
            raise ValueError(f"max_depth must be >= 0, got {self.max_depth}")
        if self.min_samples_split < 2:
            raise ValueError(f"min_samples_split must be >= 2, got {self.min_samples_split}")
        if self.max_features < 0:
            raise ValueError(f"max_features must be >= 0, got {self.max_features}")
        if not 0.0 < self.learning_rate <= 1.0:
            raise ValueError(f"learning_rate must be in (0,1], got {self.learning_rate}")
        if self.n_rounds < 0:
            raise ValueError(f"n_rounds must be >= 0, got {self.n_rounds}")

    def to_dict(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_dict(values: dict) -> "HyperParams":
        unknown = sorted(set(values) - set(HyperParams.__dataclass_fields__))
        if unknown:
            raise ValueError(f"unknown hyperparameters: {unknown}")
        return HyperParams(**values)
