"""The benchmark's workloads: generator settings for the input CSVs and the
`rentlab run` config that reads them. Both take their seed from --seed."""

from __future__ import annotations

# Each workload: generator fields (rentlab.synthgen.GenConfig) and the parts
# of the pipeline config other than seed, inputs and output_dir.
WORKLOADS = {
    # README demo config, shrunk in rows, trees and Shapley budget: time goes
    # to tree fitting and permutation Shapley sampling of a gbm/forest.
    "demo": {
        "generator": {
            "n_listings": 60,
            "date_range": ["2023-01-01", "2023-01-31"],
            "noise_std": 9.0,
            "outlier_fraction": 0.01,
        },
        "pipeline": {
            "wrangle": {"multiplier": 1.0, "knn_k": 10},
            "features": {"amenity_k": 30, "standardize": False},
            "selection": {"mode": "kbest", "k": 60},
            "models": {
                "families": ["lasso", "ridge", "elastic", "forest", "gbm"],
                "hyperparams": {"n_trees": 10, "n_rounds": 30, "max_depth": 4, "learning_rate": 0.3},
            },
            "eval": {"train_fraction": 0.8, "cv_k": 5, "search_samples": 0},
            "explain": {"top": 20, "budget": 2, "rows": 6},
        },
        "timeout_s": 60,
    },
    # A tall matrix: CSV parse/write, featurize, sentiment over many reviews
    # and coordinate descent; the explain budget is kept tiny.
    "wide": {
        "generator": {
            "n_listings": 120,
            "date_range": ["2023-01-01", "2023-04-30"],
            "noise_std": 9.0,
            "outlier_fraction": 0.01,
            "missing_fraction": 0.05,
            "max_reviews_per_listing": 60,
        },
        "pipeline": {
            "wrangle": {"multiplier": 1.0, "knn_k": 10},
            "features": {"amenity_k": 30, "standardize": False},
            "selection": {"mode": "none"},
            "models": {"families": ["ols", "lasso"]},
            "eval": {"train_fraction": 0.8, "cv_k": 5, "search_samples": 0},
            "explain": {"top": 20, "budget": 1, "rows": 2},
        },
        "timeout_s": 120,
    },
    # Small data, many small fits: forward selection, then random search with
    # k-fold CV over two linear and two tree families.
    "search": {
        "generator": {
            "n_listings": 24,
            "date_range": ["2023-01-01", "2023-02-28"],
            "noise_std": 9.0,
            "outlier_fraction": 0.01,
        },
        "pipeline": {
            "wrangle": {"multiplier": 1.0, "knn_k": 10},
            "features": {"amenity_k": 30, "standardize": True},
            "selection": {"mode": "forward", "max_features": 14},
            "models": {
                "families": ["lasso", "elastic", "forest", "gbm"],
                # at most four points per grid, so search_samples=4 tries every
                # point on every seed; the penalties are strong enough that
                # coordinate descent converges in a similar number of sweeps
                # on every seed (see README)
                "grids": {
                    "lasso": {"alpha": [10.0, 30.0]},
                    "elastic": {"alpha": [0.3, 1.0], "l1_ratio": [0.2, 0.5]},
                    "forest": {"n_trees": [5, 10], "max_depth": [3, 4]},
                    "gbm": {"n_rounds": [10, 20], "max_depth": [2, 3], "learning_rate": [0.3]},
                },
            },
            "eval": {"train_fraction": 0.8, "cv_k": 5, "search_samples": 4},
            "explain": {"top": 20, "budget": 2, "rows": 3},
        },
        "timeout_s": 60,
    },
}


def generator_doc(name: str, seed: int) -> dict:
    return {**WORKLOADS[name]["generator"], "seed": seed}


def pipeline_doc(name: str, seed: int, inputs: dict[str, str], output_dir: str) -> dict:
    return {
        "version": 1,
        "seed": seed,
        "output_dir": output_dir,
        "inputs": inputs,
        **WORKLOADS[name]["pipeline"],
    }
