"""The scripts under scripts/ import rentlab's public API; running a small
part of each keeps an API change from breaking them unnoticed."""

import importlib.util
from pathlib import Path

import numpy as np

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_selection_experiment_builds_its_matrix():
    matrix = _load("selection_experiment").build_matrix(1)
    assert matrix.n_rows == 68 * 74  # every listing on every day of its date range
    assert "dist_" in " ".join(matrix.feature_names) and "Wifi" in matrix.feature_names
    assert np.isfinite(matrix.x).all() and np.isfinite(matrix.y).all()
