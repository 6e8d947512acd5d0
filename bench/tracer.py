"""In-memory call tracing of rentlab's public functions, from outside the package.

`install()` replaces each traced function by a wrapper in every loaded
``rentlab`` module that binds it, so calls made through ``from .x import f``
bindings are caught too. A wrapper records one span per call: the traced
name, start and end (``time.perf_counter``), the index of the enclosing
span, and a few counts read from the arguments or the result. Spans stay in
a list until `Tracer.dump` writes them as JSON at the end of the process.
`layer_metrics` turns a span list into the per-layer metrics.
"""

from __future__ import annotations

import json
import os
import sys
import time

# (module, function) pairs whose calls are recorded. The span name is
# "<module short name>.<function>".
TRACED = (
    ("rentlab.cli", "stage_wrangle"),
    ("rentlab.cli", "stage_sentiment"),
    ("rentlab.cli", "stage_featurize"),
    ("rentlab.cli", "stage_select"),
    ("rentlab.cli", "stage_evaluate"),
    ("rentlab.cli", "stage_train"),
    ("rentlab.cli", "stage_explain"),
    ("rentlab.tabular", "read_csv"),
    ("rentlab.tabular", "write_csv"),
    ("rentlab.tabular", "inner_join"),
    ("rentlab.features", "matrix_from_csv"),
    ("rentlab.features", "matrix_to_csv"),
    ("rentlab.features", "assemble_matrix"),
    ("rentlab.wrangle", "remove_outliers"),
    ("rentlab.wrangle", "knn_impute_geo"),
    ("rentlab.sentiment", "score_reviews"),
    ("rentlab.models.tree", "fit_tree"),
    ("rentlab.models.forest", "fit_forest"),
    ("rentlab.models.boosting", "fit_gbm"),
    ("rentlab.models.linear", "fit_elastic_net"),
    ("rentlab.models", "predict"),
    ("rentlab.models.serialize", "save_model"),
    ("rentlab.select_explain", "shapley_values"),
    ("rentlab.select_explain", "f_scores"),
    ("rentlab.select_explain", "forward_select"),
    ("rentlab.evaluation", "compare_models"),
    ("rentlab.evaluation", "random_search"),
    ("rentlab.evaluation", "cross_validate"),
    ("rentlab.synthgen", "generate"),
)


def _short(module: str, func: str) -> str:
    return f"{module.split('.')[-1]}.{func}"


def _rows(obj) -> int:
    """Row count of a Table, a FeatureMatrix, an array or a single row."""
    n = getattr(obj, "n_rows", None)
    if n is not None:
        return int(n)
    shape = getattr(obj, "shape", None)
    if shape is not None:
        return int(shape[0]) if len(shape) > 1 else 1
    return 0


def _counts(name: str, args, result) -> dict:
    """The counts a span carries besides its time."""
    if name == "tabular.read_csv":
        return {"rows": result[0].n_rows}
    if name == "sentiment.score_reviews":
        return {"rows": _rows(args[0])}
    if name == "linear.fit_elastic_net":
        return {"n_iter": int(result.n_iter), "unconverged": int(not result.converged)}
    if name == "models.predict":
        return {"rows": _rows(args[1])}
    if name == "serialize.save_model":
        return {"bytes": os.path.getsize(args[1])}
    return {}


class Tracer:
    """Holds the spans of one process."""

    def __init__(self) -> None:
        self.names: list[str] = []
        # [name index, start, end, parent span index or -1, counts]
        self.spans: list[list] = []
        self._stack: list[int] = []

    def _wrap(self, name: str, func):
        name_id = len(self.names)
        self.names.append(name)
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = [name_id, 0.0, 0.0, stack[-1] if stack else -1, None]
            index = len(spans)
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            span[4] = _counts(name, args, result)
            return result

        traced.__wrapped__ = func
        traced.__name__ = getattr(func, "__name__", name)
        return traced

    def install(self) -> None:
        """Wrap every TRACED function wherever a rentlab module binds it."""
        import rentlab.cli  # noqa: F401  (loads every rentlab module)

        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "rentlab" or k.startswith("rentlab."))]
        for module_name, func_name in TRACED:
            original = getattr(sys.modules[module_name], func_name)
            wrapper = self._wrap(_short(module_name, func_name), original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "spans": self.spans}, fh)


def load_spans(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    names = doc["names"]
    return [
        {"name": names[s[0]], "start": s[1], "end": s[2], "parent": s[3], "counts": s[4] or {}}
        for s in doc["spans"]
    ]


def _outermost(spans: list[dict], name: str) -> list[dict]:
    """Spans of `name` that no other span of the same name encloses."""
    out = []
    for span in spans:
        if span["name"] != name:
            continue
        parent = span["parent"]
        while parent >= 0 and spans[parent]["name"] != name:
            parent = spans[parent]["parent"]
        if parent < 0:
            out.append(span)
    return out


def _inside(spans: list[dict], span: dict, ancestor: str) -> bool:
    parent = span["parent"]
    while parent >= 0:
        if spans[parent]["name"] == ancestor:
            return True
        parent = spans[parent]["parent"]
    return False


# per-layer metric -> (unit, better); the order is the printing order
PER_LAYER = {
    "cli.wrangle_s": ("s", "lower"),
    "cli.sentiment_s": ("s", "lower"),
    "cli.featurize_s": ("s", "lower"),
    "cli.select_s": ("s", "lower"),
    "cli.evaluate_s": ("s", "lower"),
    "cli.train_s": ("s", "lower"),
    "cli.explain_s": ("s", "lower"),
    "tabular.read_csv_s": ("s", "lower"),
    "tabular.read_csv_rows": ("rows", "lower"),
    "tabular.write_csv_s": ("s", "lower"),
    "tabular.inner_join_s": ("s", "lower"),
    "features.matrix_from_csv_calls": ("count", "lower"),
    "features.matrix_from_csv_s": ("s", "lower"),
    "features.matrix_to_csv_s": ("s", "lower"),
    "features.assemble_matrix_s": ("s", "lower"),
    "wrangle.remove_outliers_s": ("s", "lower"),
    "wrangle.knn_impute_geo_s": ("s", "lower"),
    "sentiment.score_reviews_s": ("s", "lower"),
    "sentiment.reviews_per_s": ("1/s", "higher"),
    "models.fit_tree_calls": ("count", "lower"),
    "models.fit_tree_s": ("s", "lower"),
    "models.fit_forest_s": ("s", "lower"),
    "models.fit_gbm_s": ("s", "lower"),
    "models.fit_elastic_net_calls": ("count", "lower"),
    "models.fit_elastic_net_s": ("s", "lower"),
    "models.cd_sweeps": ("count", "lower"),
    "models.cd_unconverged": ("count", "lower"),
    "models.predict_calls": ("count", "lower"),
    "models.predict_rows": ("rows", "lower"),
    "models.predict_s": ("s", "lower"),
    "models.model_json_bytes": ("bytes", "lower"),
    "explain.shapley_values_calls": ("count", "lower"),
    "explain.predict_calls": ("count", "lower"),
    "explain.shapley_values_s": ("s", "lower"),
    "explain.s_per_row": ("s", "lower"),
    "select.f_scores_s": ("s", "lower"),
    "select.forward_select_s": ("s", "lower"),
    "evaluation.compare_models_s": ("s", "lower"),
    "evaluation.random_search_s": ("s", "lower"),
    "evaluation.cross_validate_calls": ("count", "lower"),
    "synthgen.generate_s": ("s", "lower"),
    "trace.run_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}

# metric suffix "_s" sums the time of the outermost spans of a traced name
_TIMES = {
    "cli.wrangle_s": "cli.stage_wrangle",
    "cli.sentiment_s": "cli.stage_sentiment",
    "cli.featurize_s": "cli.stage_featurize",
    "cli.select_s": "cli.stage_select",
    "cli.evaluate_s": "cli.stage_evaluate",
    "cli.train_s": "cli.stage_train",
    "cli.explain_s": "cli.stage_explain",
    "tabular.read_csv_s": "tabular.read_csv",
    "tabular.write_csv_s": "tabular.write_csv",
    "tabular.inner_join_s": "tabular.inner_join",
    "features.matrix_from_csv_s": "features.matrix_from_csv",
    "features.matrix_to_csv_s": "features.matrix_to_csv",
    "features.assemble_matrix_s": "features.assemble_matrix",
    "wrangle.remove_outliers_s": "wrangle.remove_outliers",
    "wrangle.knn_impute_geo_s": "wrangle.knn_impute_geo",
    "sentiment.score_reviews_s": "sentiment.score_reviews",
    "models.fit_tree_s": "tree.fit_tree",
    "models.fit_forest_s": "forest.fit_forest",
    "models.fit_gbm_s": "boosting.fit_gbm",
    "models.fit_elastic_net_s": "linear.fit_elastic_net",
    "models.predict_s": "models.predict",
    "explain.shapley_values_s": "select_explain.shapley_values",
    "select.f_scores_s": "select_explain.f_scores",
    "select.forward_select_s": "select_explain.forward_select",
    "evaluation.compare_models_s": "evaluation.compare_models",
    "evaluation.random_search_s": "evaluation.random_search",
}

_CALLS = {
    "features.matrix_from_csv_calls": "features.matrix_from_csv",
    "models.fit_tree_calls": "tree.fit_tree",
    "models.fit_elastic_net_calls": "linear.fit_elastic_net",
    "models.predict_calls": "models.predict",
    "explain.shapley_values_calls": "select_explain.shapley_values",
    "evaluation.cross_validate_calls": "evaluation.cross_validate",
}

# metric -> (traced name, count key) summed over every span of that name
_SUMS = {
    "tabular.read_csv_rows": ("tabular.read_csv", "rows"),
    "models.cd_sweeps": ("linear.fit_elastic_net", "n_iter"),
    "models.cd_unconverged": ("linear.fit_elastic_net", "unconverged"),
    "models.predict_rows": ("models.predict", "rows"),
    "models.model_json_bytes": ("serialize.save_model", "bytes"),
}


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced `rentlab run` (all but synthgen/trace)."""
    out: dict[str, float] = {}
    for metric, name in _TIMES.items():
        out[metric] = sum(s["end"] - s["start"] for s in _outermost(spans, name))
    for metric, name in _CALLS.items():
        out[metric] = sum(1 for s in spans if s["name"] == name)
    for metric, (name, key) in _SUMS.items():
        out[metric] = sum(s["counts"].get(key, 0) for s in spans if s["name"] == name)
    out["explain.predict_calls"] = sum(
        1 for s in spans if s["name"] == "models.predict" and _inside(spans, s, "cli.stage_explain")
    )
    reviews = sum(s["counts"].get("rows", 0) for s in spans if s["name"] == "sentiment.score_reviews")
    score_s = out["sentiment.score_reviews_s"]
    out["sentiment.reviews_per_s"] = reviews / score_s if score_s > 0 else 0.0
    calls = out["explain.shapley_values_calls"]
    out["explain.s_per_row"] = out["explain.shapley_values_s"] / calls if calls else 0.0
    return out


def generate_seconds(spans: list[dict]) -> float:
    return sum(s["end"] - s["start"] for s in _outermost(spans, "synthgen.generate"))
