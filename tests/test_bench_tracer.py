"""The benchmark's tracer (bench/tracer.py) wraps rentlab functions by name;
these tests fail when a refactor moves a traced function or routes explain's
predictions past the name the tracer wraps."""

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from rentlab.cli import Explain
from rentlab.features import FeatureMatrix
from rentlab.models import HyperParams, fit_tree

REPO = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", REPO / "bench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def installed(tracer):
    """A Tracer installed on every rentlab module, undone afterwards."""
    t = tracer.Tracer()
    modules = [m for k, m in list(sys.modules.items())
               if m is not None and (k == "rentlab" or k.startswith("rentlab."))]
    saved = [(m, dict(vars(m))) for m in modules]
    t.install()
    try:
        yield t
    finally:
        for module, attrs in saved:
            for name, value in attrs.items():
                if vars(module).get(name) is not value:
                    setattr(module, name, value)


def test_every_traced_name_resolves_to_a_callable(tracer):
    for module_name, func_name in tracer.TRACED:
        func = getattr(importlib.import_module(module_name), func_name, None)
        assert callable(func), f"{module_name}.{func_name}"


@pytest.mark.parametrize("p, rows", [(6, 1), (20, 3)])
def test_explain_predict_calls_are_counted(tmp_path, tracer, installed, p, rows):
    import rentlab.cli

    rng = np.random.default_rng(p)
    x = rng.normal(size=(30, p))
    m = FeatureMatrix(x, tuple(f"f{j}" for j in range(p)), x[:, 0] * x[:, 1] + x[:, 2])
    model = fit_tree(m, HyperParams(max_depth=4))
    rentlab.cli.stage_explain(model, m, str(tmp_path / "rank.csv"), Explain(rows=rows), seed=2)

    installed.dump(str(tmp_path / "spans.json"))
    spans = tracer.load_spans(str(tmp_path / "spans.json"))
    metrics = tracer.layer_metrics(spans)
    assert metrics["explain.shapley_values_calls"] == 1
    # one predict over the background (the explained rows) for the base
    # value and one of the explained rows, both through select_explain.predict
    assert metrics["explain.predict_calls"] == 2
    explain_rows = sum(s["counts"]["rows"] for s in spans if s["name"] == "models.predict")
    assert explain_rows == 2 * rows


@pytest.mark.parametrize("family", ["gbm", "forest"])
def test_ensembles_are_timed_by_their_own_spans(tmp_path, tracer, installed, family):
    # the forest and gbm grow their trees in batches, not through fit_tree,
    # so models.fit_tree_calls counts lone trees only and an ensemble's tree
    # time is in models.fit_forest_s or models.fit_gbm_s
    import rentlab.models.boosting
    import rentlab.models.forest
    import rentlab.models.tree

    rng = np.random.default_rng(3)
    x = rng.normal(size=(40, 5))
    m = FeatureMatrix(x, tuple(f"f{j}" for j in range(5)), x[:, 0] + x[:, 1] ** 2)
    hp = HyperParams(n_trees=4, n_rounds=6, max_depth=3)
    if family == "gbm":
        rentlab.models.boosting.fit_gbm(m, hp)
    else:
        rentlab.models.forest.fit_forest(m, hp, seed=1)
    rentlab.models.tree.fit_tree(m, hp)

    installed.dump(str(tmp_path / "spans.json"))
    metrics = tracer.layer_metrics(tracer.load_spans(str(tmp_path / "spans.json")))
    assert metrics["models.fit_tree_calls"] == 1
    assert metrics[f"models.fit_{family}_s"] > 0
