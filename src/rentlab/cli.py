"""Batch pipeline runner.

Subcommands mirror the pipeline stages (gen, wrangle, sentiment, featurize,
select, train, evaluate, explain). Each stage writes its artifacts and hands
its result to the next as an object; `run` chains the stages in memory and
reads only its inputs, a subcommand reads its input files. `select` writes
the restricted matrix (features_selected.csv) that train, evaluate and
explain read. tests/test_cli.py::TestStageComposition is the contract: the
chain of subcommands reproduces every artifact of `run` byte for byte.
A stage takes its config section, a frozen dataclass whose fields are the
section's JSON keys and the subcommand's flags and hold the only defaults;
one typed loader reads a section from the config file or from the flags.
All randomness flows from the configured seed. Exit codes: 0 success, 1
pipeline/data error, 2 usage/config error (an unknown key, a mistyped value,
a bad hyperparameter or gap, a missing file; the message names section.key).
"""

from __future__ import annotations

import argparse
import datetime as _dt
import json
import os
import sys
import tempfile
from dataclasses import dataclass, field, replace

import numpy as np

from . import __version__
from .errors import PipelineError, SchemaError
from .evaluation import (
    EvalReport,
    ModelConfig,
    _derived_seed,
    compare_models,
    random_search,
    reports_to_doc,
    reports_to_table,
    train_test_split,
)
from .features import (
    FeatureMatrix,
    binarize_amenities,
    default_pois,
    expand_date,
    join_matrix,
    load_pois,
    matrix_from_csv,
    matrix_to_csv,
    one_hot,
    poi_distance_features,
    standardize,
    top_k_amenities,
)
from .jsonfields import at_least, check_keys, decode
from .models import FAMILIES, FittedModel, HyperParams, check_columns, fit_family, load_model, save_model
from .report import StageReport
from .select_explain import (
    DEFAULT_FORWARD_MAX, DEFAULT_FORWARD_TOL, f_scores, forward_select, mean_abs_ranking,
    select_k_best, shapley_values,
)
from .sentiment import default_lexicon, fill_missing_sentiment, load_lexicon, score_reviews
from .synthgen import GenConfig, generate
from .tabular import (
    CALENDAR_SCHEMA,
    LISTINGS_SCHEMA,
    REVIEWS_SCHEMA,
    Column,
    Schema,
    Table,
    drop_duplicates,
    group_means,
    inner_join,
    read_csv,
    shipped_file,
    write_csv,
)
from .wrangle import (
    DEFAULT_IQR_MULTIPLIER,
    DEFAULT_KNN_K,
    GapSpec,
    fill_calendar_gap,
    impute_global_median,
    impute_group_mean,
    knn_impute_geo,
    remove_outliers,
)

INPUT_NAMES = ("listings", "calendar", "reviews")
REVIEW_SCORE_COLUMNS = (
    "review_scores_rating",
    "review_scores_accuracy",
    "review_scores_cleanliness",
    "review_scores_checkin",
    "review_scores_communication",
    "review_scores_value",
    "reviews_per_month",
)

REVIEWS_SCORED_SCHEMA = Schema(
    "reviews_scored",
    {
        **REVIEWS_SCHEMA.fields,
        "host_id": "integer",
        "pos": "numeric",
        "neg": "numeric",
        "neu": "numeric",
        "compound": "numeric",
        "label": "text",
    },
    frozenset({"listing_id", "compound"}),
)


class ConfigError(ValueError):
    """Bad usage or configuration; maps to exit code 2."""


# ---------------------------------------------------------------------------
# atomic artifact writers


def _atomic_replace(path: str, write_fn) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    os.close(fd)
    try:
        write_fn(tmp)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def write_table(table: Table, path: str) -> None:
    _atomic_replace(path, lambda tmp: write_csv(table, tmp))


def write_matrix(m: FeatureMatrix, path: str) -> None:
    _atomic_replace(path, lambda tmp: matrix_to_csv(m, tmp))


def write_json_doc(doc, path: str) -> None:
    def _write(tmp: str) -> None:
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")

    _atomic_replace(path, _write)


def _require_file(path: str, what: str) -> str:
    if not os.path.isfile(path):
        raise ConfigError(f"{what} not found: {path}")
    return path


# ---------------------------------------------------------------------------
# pipeline configuration


def _section(tp, value, where: str):
    """value loaded as annotation tp, by the field rules of ``jsonfields``
    with unknown keys rejected; a failure is a ConfigError whose message
    starts with the path of the key (``wrangle.knn_k``)."""
    try:
        return decode(tp, value, where)
    except SchemaError as exc:
        raise ConfigError(str(exc)) from exc


def _file(tp, value, where: str) -> str | None:
    """A path field: None, or a string naming an existing file."""
    return None if value is None else _require_file(decode(str, value, where), where)


def _inputs(tp, doc, where: str) -> dict[str, str]:
    """inputs: the path of each input CSV by its name, every one given."""
    check_keys(doc, INPUT_NAMES, where)
    return {name: decode(str, doc.get(name), f"{where}.{name}") for name in INPUT_NAMES}


def _grids(tp, doc, where: str) -> dict | None:
    """models.grids: family -> hyperparameter -> non-empty list of its values."""
    if doc is None:
        return None
    grids = {}
    for fam, grid in check_keys(doc, FAMILIES, where).items():
        at = f"{where}.{fam}"
        grids[fam] = {}
        for name, values in check_keys(grid, HyperParams.__dataclass_fields__, at).items():
            if type(values) is not list or not values:
                raise SchemaError(f"{at}.{name} must be a non-empty list, got {values!r}")
            grids[fam][name] = [getattr(decode(HyperParams, {name: v}, at), name) for v in values]
    return grids


def gen_config_from_doc(doc: dict, seed: int | None = None) -> GenConfig:
    """The generator section; seed stands in for a missing "seed" key."""
    if seed is not None and isinstance(doc, dict):
        doc = {"seed": seed, **doc}
    return _section(GenConfig, doc, "generator")


# One frozen dataclass per config section: a field's name is its key in the
# section and its subcommand flag (knn_k, --knn-k), its default the only one.
@dataclass(frozen=True)
class Wrangle:
    multiplier: float = DEFAULT_IQR_MULTIPLIER
    knn_k: int = DEFAULT_KNN_K
    gap_start: _dt.date | None = None
    gap_end: _dt.date | None = None

    def __post_init__(self):
        at_least(self, multiplier=0, knn_k=1)
        if (self.gap_start is None) != (self.gap_end is None):
            missing = "gap_start" if self.gap_start is None else "gap_end"
            raise ValueError(f"{missing} is missing: give both gap ends or neither")
        self.gap  # raises when the gap ends before it starts

    @property
    def gap(self) -> GapSpec | None:
        """The calendar gap to backfill; None when neither end is given."""
        return None if self.gap_start is None else GapSpec(self.gap_start, self.gap_end)


@dataclass(frozen=True)
class Features:
    pois: str | None = field(default=None, metadata={"load": _file})  # None: shipped Austin set
    amenity_k: int = 30
    standardize: bool = False

    def __post_init__(self):
        at_least(self, amenity_k=1)


@dataclass(frozen=True)
class Sentiment:
    lexicon: str | None = field(default=None, metadata={"load": _file})  # None: shipped lexicon


@dataclass(frozen=True)
class Selection:
    mode: str = "none"  # none | kbest | forward
    k: int = 40
    max_features: int = DEFAULT_FORWARD_MAX
    min_rel_improvement: float = DEFAULT_FORWARD_TOL

    def __post_init__(self):
        if self.mode not in ("none", "kbest", "forward"):
            raise ValueError(f"mode: unknown selection mode {self.mode!r}")
        at_least(self, k=1, max_features=1)


@dataclass(frozen=True)
class Models:
    families: tuple[str, ...] = ("lasso", "ridge", "elastic", "forest", "gbm")
    hyperparams: HyperParams = HyperParams()
    grids: dict | None = field(default=None, metadata={"load": _grids})  # None = default_grids()

    def __post_init__(self):
        if (not self.families or not set(self.families) <= set(FAMILIES)
                or len(set(self.families)) != len(self.families)):
            raise ValueError(
                f"families must name one or more of {FAMILIES}, each once, got {self.families}"
            )


@dataclass(frozen=True)
class Eval:
    train_fraction: float = 0.8
    cv_k: int = 5
    search_samples: int = 0

    def __post_init__(self):
        if not 0.0 < self.train_fraction < 1.0:
            raise ValueError(f"train_fraction must be in (0, 1), got {self.train_fraction}")
        at_least(self, cv_k=2, search_samples=0)


@dataclass(frozen=True)
class Explain:
    top: int = 20
    # no effect: Shapley values are exact. Still loadable, because the
    # benchmark's workload configs set it.
    budget: int = 200
    rows: int = 25  # 0: every row

    def __post_init__(self):
        at_least(self, top=1, budget=1, rows=0)


@dataclass
class PipelineConfig:
    """A `rentlab run` config; its JSON document has these keys plus an
    optional "version" (1), and "generator" or "inputs"."""

    seed: int
    output_dir: str = "rentlab_out"
    generator: GenConfig | None = None
    inputs: dict[str, str] = field(default_factory=dict, metadata={"load": _inputs})
    wrangle: Wrangle = Wrangle()
    features: Features = Features()
    sentiment: Sentiment = Sentiment()
    selection: Selection = Selection()
    models: Models = Models()
    eval: Eval = Eval()
    explain: Explain = Explain()

    def __post_init__(self):
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if not self.output_dir:
            raise ConfigError("output_dir is empty: name the directory for the artifacts")

    @staticmethod
    def from_doc(doc: dict) -> "PipelineConfig":
        """The config in doc: its fields, "version" and "generator"."""
        if not isinstance(doc, dict):
            raise ConfigError("config must be a JSON object")
        if _section(int, doc.get("version", 1), "version") != 1:
            raise ConfigError(f"unsupported config version {doc['version']!r}")
        if "seed" not in doc:
            raise ConfigError("config field 'seed' is mandatory")
        if "generator" not in doc and "inputs" not in doc:
            raise ConfigError("config needs either 'generator' or 'inputs'")
        # seed is checked before the generator inherits it
        fields = {k: v for k, v in doc.items() if k not in ("version", "generator")}
        cfg = _section(PipelineConfig, fields, "")
        if "generator" in doc:  # the generator wins over inputs
            cfg.generator = gen_config_from_doc(doc["generator"], seed=cfg.seed)
        return cfg


def _read_json(path: str, what: str):
    with open(_require_file(path, what), encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{what} {path} is not valid JSON: {exc}") from exc


def default_grids() -> dict:
    with shipped_file("default_grids.json") as path, open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    doc.pop("_comment", None)
    return doc


# ---------------------------------------------------------------------------
# stages


def stage_gen(cfg: GenConfig, out_dir: str) -> dict[str, str]:
    os.makedirs(out_dir, exist_ok=True)
    paths = {name: os.path.join(out_dir, f"{name}.csv") for name in INPUT_NAMES}
    for name, table in zip(INPUT_NAMES, generate(cfg)):
        write_table(table, paths[name])
    return paths


def stage_wrangle(
    listings_path: str,
    calendar_path: str,
    out_dir: str,
    opts: Wrangle = Wrangle(),
) -> tuple[Table, Table]:
    """Clean the raw listings and calendar CSVs; write listings_clean.csv,
    calendar_clean.csv and wrangle_report.csv to out_dir and return the
    cleaned (listings, calendar)."""
    os.makedirs(out_dir, exist_ok=True)
    report = StageReport()
    listings, listings_load = read_csv(listings_path, LISTINGS_SCHEMA)
    calendar, calendar_load = read_csv(calendar_path, CALENDAR_SCHEMA)
    report.add("read_csv", "listings", listings.n_rows,
               f"coerced={listings_load.total_coerced}")
    report.add("read_csv", "calendar", calendar.n_rows,
               f"coerced={calendar_load.total_coerced}")

    calendar = drop_duplicates(calendar, ["listing_id", "date"])
    keep = [c for c in ("listing_id", "date", "price") if c in calendar]
    calendar = Table(
        tuple(keep), tuple(calendar.column(c) for c in keep)
    )
    n_before = calendar.n_rows
    priced = calendar.filter(~calendar.column("price").missing)
    report.add("drop_missing_rows", "price", n_before - priced.n_rows)
    calendar = remove_outliers(priced, "price", opts.multiplier, report=report)
    if opts.gap is not None:
        calendar = fill_calendar_gap(calendar, opts.gap, report=report)

    for col in REVIEW_SCORE_COLUMNS:
        if col in listings and listings.column(col).n_missing:
            listings = impute_group_mean(listings, col, "host_id", report=report)
            if listings.column(col).n_missing:
                listings = impute_global_median(listings, col, report=report)
    if "review_scores_location" in listings and listings.column("review_scores_location").n_missing:
        listings = knn_impute_geo(listings, "review_scores_location", k=opts.knn_k, report=report)

    write_table(listings, os.path.join(out_dir, "listings_clean.csv"))
    write_table(calendar, os.path.join(out_dir, "calendar_clean.csv"))
    write_table(report.to_table(), os.path.join(out_dir, "wrangle_report.csv"))
    return listings, calendar


def stage_sentiment(
    reviews_path: str,
    out_path: str,
    opts: Sentiment = Sentiment(),
    listings: Table | None = None,
) -> Table:
    """Score the raw reviews CSV; with the cleaned listings, keep only their
    reviews and fill missing scores per host. Write the scored table to
    out_path and sentiment_report.csv next to it; return the scored table."""
    lex = load_lexicon(opts.lexicon) if opts.lexicon else default_lexicon()
    reviews, load = read_csv(reviews_path, REVIEWS_SCHEMA)
    report = StageReport()
    report.add("read_csv", "reviews", reviews.n_rows, f"coerced={load.total_coerced}")
    host_col = "listing_id"
    if listings is not None:
        key_cols = Table(
            ("id", "host_id"),
            (listings.column("id"), listings.column("host_id")),
        )
        reviews = inner_join(reviews, key_cols, "listing_id", "id")
        host_col = "host_id"
    scored = score_reviews(reviews, lex, report=report)
    scored = fill_missing_sentiment(scored, host_col=host_col, report=report)
    write_table(scored, out_path)
    write_table(report.to_table(), os.path.join(os.path.dirname(out_path), "sentiment_report.csv"))
    return scored


def _one_hot_with_reference(table: Table, col: str) -> Table:
    categories = sorted(set(table.cells(col)) - {None})
    encoded = one_hot(table, col)
    if len(categories) > 1:
        encoded = encoded.without_columns([f"{col}_{categories[0]}"])
    return encoded


def stage_featurize(
    listings: Table,
    calendar: Table,
    out_path: str,
    opts: Features = Features(),
    scored: Table | None = None,
) -> FeatureMatrix:
    """Join the cleaned calendar and listings (plus the mean review sentiment
    per listing, given the scored reviews) into the design matrix; write it
    to out_path and return it."""
    pois = load_pois(opts.pois) if opts.pois else default_pois()

    listings, bad_rows = poi_distance_features(listings, pois)
    if bad_rows:
        listings = listings.take(np.delete(np.arange(listings.n_rows), bad_rows))
    top = top_k_amenities(listings, opts.amenity_k)
    if top:
        listings = binarize_amenities(listings, top)
    for col in ("room_type", "property_type"):
        if col in listings:
            listings = _one_hot_with_reference(listings, col)
    if scored is not None:  # a listing without scored reviews takes the mean of all
        means, overall = group_means(scored.cells("listing_id"), scored.column("compound"))
        fallback = 0.0 if overall is None else overall
        listings = listings.with_column(
            "listing_sentiment",
            Column.of("numeric", [means.get(lid, fallback) for lid in listings.cells("id")]),
        )

    calendar = expand_date(calendar, "date")
    # a listings dump's own price would join as price_r: the target renamed
    matrix = join_matrix(calendar, listings.without_columns(["price"]), "listing_id", "id", "price")
    if matrix.n_rows == 0:
        raise PipelineError("featurize: join of calendar and listings is empty")
    if opts.standardize:
        matrix = standardize(matrix)
    write_matrix(matrix, out_path)
    return matrix


def stage_select(
    matrix: FeatureMatrix, out_path: str, opts: Selection, seed: int = 0
) -> FeatureMatrix:
    """Choose features; write the choice to out_path and the matrix
    restricted to it as features_selected.csv next to it; return that
    matrix. An empty choice is written, then fails."""
    if opts.mode == "kbest":
        scores = f_scores(matrix)
        chosen = select_k_best(scores, min(opts.k, matrix.n_features))
        by_name = {s.feature: s for s in scores}
        table = Table.from_dict(
            {
                "feature": ("text", chosen),
                "score": ("numeric", [by_name[c].score for c in chosen]),
                "p_value": ("numeric", [by_name[c].p_value for c in chosen]),
            }
        )
    elif opts.mode == "forward":
        chosen = forward_select(matrix, opts.max_features, opts.min_rel_improvement, seed=seed)
        table = Table.from_dict(
            {
                "feature": ("text", chosen),
                "order": ("integer", list(range(1, len(chosen) + 1))),
            }
        )
    else:
        raise ConfigError(f"select needs mode kbest or forward, got {opts.mode!r}")
    write_table(table, out_path)
    if not chosen:
        raise PipelineError("selection chose no features")
    selected = matrix.select(chosen)
    write_matrix(selected, os.path.join(os.path.dirname(out_path), "features_selected.csv"))
    return selected


def stage_train(
    matrix: FeatureMatrix,
    out_path: str,
    family: str,
    hp: HyperParams,
    seed: int = 0,
) -> FittedModel:
    """Fit one family on the matrix, save it to out_path and return it."""
    model = fit_family(family, matrix, hp, seed=seed)
    _atomic_replace(out_path, lambda tmp: save_model(model, tmp))
    return model


def stage_evaluate(
    matrix: FeatureMatrix,
    out_dir: str,
    opts: Eval = Eval(),
    models: Models = Models(),
    seed: int = 0,
) -> tuple[list[EvalReport], dict[str, ModelConfig]]:
    """Compare the families on a seeded train/test split, each with its
    hyperparameters (searched when opts.search_samples > 0); write the eval
    report and return it with each family's config for its final fit."""
    os.makedirs(out_dir, exist_ok=True)
    train_rows, test_rows = train_test_split(matrix.n_rows, opts.train_fraction, seed)
    grids = models.grids if models.grids is not None else default_grids()

    search_meta: dict[str, dict] = {}
    configs: dict[str, ModelConfig] = {}
    train = None  # a copy of the train rows, for the searches only
    for fam in models.families:
        hp = models.hyperparams
        grid = grids.get(fam)
        if opts.search_samples > 0 and grid:
            if train is None:
                train = matrix.take(train_rows)
            hp, cv_score, trials = random_search(
                train, fam, grid, n_samples=opts.search_samples, k=opts.cv_k,
                seed=_derived_seed(seed, FAMILIES.index(fam)),
            )
            search_meta[fam] = {
                "cv_score": cv_score,
                "n_trials": len(trials),
                "best": hp.to_dict(),
            }
        configs[fam] = ModelConfig(fam, hp, seed=_derived_seed(seed, FAMILIES.index(fam), 1))

    del train
    # one report per listed family, in the listed order (a repeat exits 2 at load)
    reports = compare_models(matrix, train_rows, test_rows,
                             [configs[fam] for fam in models.families])
    write_table(reports_to_table(reports), os.path.join(out_dir, "eval_report.csv"))
    doc = {
        "reports": reports_to_doc(reports),
        "search": search_meta,
        "train_rows": len(train_rows),
        "test_rows": len(test_rows),
    }
    write_json_doc(doc, os.path.join(out_dir, "eval_report.json"))
    return reports, configs


def stage_explain(
    model: FittedModel,
    matrix: FeatureMatrix,
    out_path: str,
    opts: Explain = Explain(),
    seed: int = 0,
    explanations_path: str | None = None,
) -> None:
    """Write the top features by mean |Shapley value| to out_path and, given
    explanations_path, each explained row's base value, values and prediction
    as JSON. The explained rows, a seeded sample of opts.rows (0: every row),
    are their own background, so `rows: 0` costs time quadratic in the rows."""
    check_columns(model, matrix.feature_names)  # shapley_values passes arrays
    if opts.rows and matrix.n_rows > opts.rows:
        picks = np.random.default_rng(seed).choice(matrix.n_rows, size=opts.rows, replace=False)
        matrix = matrix.take(np.sort(picks))
    expl = shapley_values(model, matrix.x, matrix.x)
    ranking = mean_abs_ranking(matrix.feature_names, expl.values)
    table = Table.from_dict(
        {
            "feature": ("text", [name for name, _ in ranking[:opts.top]]),
            "mean_abs_shap": ("numeric", [value for _, value in ranking[:opts.top]]),
        }
    )
    write_table(table, out_path)
    if explanations_path:
        docs = [
            {
                "base_value": expl.base_value,
                "values": dict(zip(matrix.feature_names, values.tolist())),
                "prediction": prediction,
            }
            for values, prediction in zip(expl.values, expl.predictions.tolist())
        ]
        write_json_doc(docs, explanations_path)


def run_pipeline(cfg: PipelineConfig) -> int:
    out = cfg.output_dir
    os.makedirs(out, exist_ok=True)

    if cfg.generator is not None:
        raw = stage_gen(cfg.generator, out)
    else:
        raw = {
            key: _require_file(path, f"{key} CSV")
            for key, path in cfg.inputs.items()
        }

    listings, calendar = stage_wrangle(raw["listings"], raw["calendar"], out, cfg.wrangle)
    scored = stage_sentiment(
        raw["reviews"], os.path.join(out, "reviews_scored.csv"), cfg.sentiment, listings=listings,
    )
    matrix = stage_featurize(
        listings, calendar, os.path.join(out, "features.csv"), cfg.features, scored=scored,
    )
    del listings, calendar, scored  # free the tables before the model stages

    if cfg.selection.mode != "none":
        matrix = stage_select(
            matrix, os.path.join(out, "selection.csv"), cfg.selection, seed=cfg.seed
        )

    reports, configs = stage_evaluate(matrix, out, cfg.eval, cfg.models, seed=cfg.seed)
    best = configs[max(reports, key=lambda r: r.r_squared).model_name]
    model = stage_train(
        matrix, os.path.join(out, "model.json"), best.family, best.params, seed=best.seed
    )
    stage_explain(
        model, matrix, os.path.join(out, "shap_ranking.csv"), cfg.explain, seed=cfg.seed,
        explanations_path=os.path.join(out, "shap_explanations.json"),
    )
    return 0


# ---------------------------------------------------------------------------
# argument parsing; each subcommand loads its input files and calls its stage


def _read_table(path: str, what: str, schema: Schema) -> Table:
    table, _ = read_csv(_require_file(path, what), schema)
    return table


def _from_flags(cls, args):
    """Config section cls from the subcommand's flags; an absent flag keeps the default."""
    given = {k: v for k, v in vars(args).items() if k in cls.__dataclass_fields__ and v is not None}
    return _section(cls, given, cls.__name__.lower())


def _seed(text: str) -> int:
    """argparse type of the stage subcommands' --seed: a non-negative integer."""
    try:
        seed = int(text)
    except ValueError:
        seed = -1
    if seed < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return seed


def _add_gen(sub) -> None:
    p = sub.add_parser("gen", help="generate synthetic listings/calendar/reviews CSVs")
    p.add_argument("--config", help="GenConfig JSON file")
    p.add_argument("--seed", type=int)
    p.add_argument("--listings", type=int, dest="n_listings", help="number of listings")
    p.add_argument("--start", help="first date, ISO")
    p.add_argument("--end", help="last date, ISO")
    p.add_argument("--noise-std", type=float)
    p.add_argument("--outlier-fraction", type=float)
    p.add_argument("--missing-fraction", type=float)
    p.add_argument("--out-dir", default=".")


def _cmd_gen(args) -> int:
    if args.config:
        doc = _read_json(args.config, "generator config")
    else:
        doc = {k: v for k, v in vars(args).items()
               if k in GenConfig.__dataclass_fields__ and v is not None}
        if args.start or args.end:
            start, end = (day.isoformat() for day in GenConfig.date_range)
            doc["date_range"] = [args.start or start, args.end or end]
    paths = stage_gen(gen_config_from_doc(doc, seed=args.seed), args.out_dir)
    for name, path in paths.items():
        print(f"{name}: {path}")
    return 0


def _add_wrangle(sub) -> None:
    p = sub.add_parser("wrangle", help="outliers, imputation, calendar gap fill")
    p.add_argument("--listings", required=True)
    p.add_argument("--calendar", required=True)
    p.add_argument("--multiplier", type=float)
    p.add_argument("--knn-k", type=int)
    p.add_argument("--gap-start")
    p.add_argument("--gap-end")
    p.add_argument("--out-dir", default=".")


def _cmd_wrangle(args) -> int:
    opts = _from_flags(Wrangle, args)
    stage_wrangle(
        _require_file(args.listings, "listings CSV"),
        _require_file(args.calendar, "calendar CSV"),
        args.out_dir, opts,
    )
    print(f"artifacts in {args.out_dir}")
    return 0


def _add_sentiment(sub) -> None:
    p = sub.add_parser("sentiment", help="score review comments with the lexicon")
    p.add_argument("reviews", help="reviews CSV")
    p.add_argument("--lexicon", help="word<TAB>valence file (default: shipped)")
    p.add_argument("--listings", help="listings CSV for host-id fills")
    p.add_argument("--out", default="reviews_scored.csv")


def _cmd_sentiment(args) -> int:
    opts = _from_flags(Sentiment, args)
    listings = _read_table(args.listings, "listings CSV", LISTINGS_SCHEMA) if args.listings else None
    stage_sentiment(_require_file(args.reviews, "reviews CSV"), args.out, opts, listings=listings)
    print(args.out)
    return 0


def _add_featurize(sub) -> None:
    p = sub.add_parser("featurize", help="build the design matrix CSV")
    p.add_argument("--listings", required=True)
    p.add_argument("--calendar", required=True)
    p.add_argument("--reviews-scored")
    p.add_argument("--pois", help="POI CSV name,lat,lon (default: shipped Austin set)")
    p.add_argument("--amenity-k", type=int)
    p.add_argument("--standardize", action="store_true")
    p.add_argument("--out", default="features.csv")


def _cmd_featurize(args) -> int:
    stage_featurize(
        _read_table(args.listings, "listings CSV", LISTINGS_SCHEMA),
        _read_table(args.calendar, "calendar CSV", CALENDAR_SCHEMA),
        args.out, _from_flags(Features, args),
        scored=(
            _read_table(args.reviews_scored, "scored reviews CSV", REVIEWS_SCORED_SCHEMA)
            if args.reviews_scored else None
        ),
    )
    print(args.out)
    return 0


def _add_select(sub) -> None:
    p = sub.add_parser("select", help="feature selection (kbest or forward)")
    p.add_argument("--features", required=True)
    p.add_argument("--mode", choices=("kbest", "forward"), default="kbest")
    p.add_argument("--k", type=int)
    p.add_argument("--max-features", type=int)
    p.add_argument("--min-rel-improvement", type=float)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", default="selection.csv")


def _cmd_select(args) -> int:
    opts = _from_flags(Selection, args)
    selected = stage_select(
        matrix_from_csv(_require_file(args.features, "feature matrix CSV")), args.out, opts,
        seed=args.seed,
    )
    print(f"{selected.n_features} features -> {args.out}")
    return 0


def _add_train(sub) -> None:
    p = sub.add_parser("train", help="fit one model family on a feature matrix")
    p.add_argument("--features", required=True)
    p.add_argument("--family", choices=FAMILIES, required=True)
    p.add_argument("--params", help="HyperParams JSON file")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", default="model.json")


def _cmd_train(args) -> int:
    hp = HyperParams()
    if args.params:
        hp = _section(HyperParams, _read_json(args.params, "params file"), "params")
    matrix = matrix_from_csv(_require_file(args.features, "feature matrix CSV"))
    stage_train(matrix, args.out, args.family, hp, seed=args.seed)
    print(args.out)
    return 0


def _add_evaluate(sub) -> None:
    p = sub.add_parser("evaluate", help="train/test comparison of model families")
    p.add_argument("--features", required=True)
    p.add_argument("--families", nargs="+", choices=FAMILIES)
    p.add_argument("--train-fraction", type=float)
    p.add_argument("--cv-k", type=int)
    p.add_argument("--search-samples", type=int)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out-dir", default=".")


def _cmd_evaluate(args) -> int:
    reports, _ = stage_evaluate(
        matrix_from_csv(_require_file(args.features, "feature matrix CSV")), args.out_dir,
        _from_flags(Eval, args), _from_flags(Models, args), seed=args.seed,
    )
    for rep in reports:
        print(f"{rep.model_name}: r2={rep.r_squared:.4f} mae={rep.mae:.3f} rmse={rep.rmse:.3f}")
    return 0


def _add_explain(sub) -> None:
    p = sub.add_parser("explain", help="mean |Shapley| feature ranking for a model")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True, help="feature matrix CSV")
    p.add_argument("--top", type=int)
    p.add_argument("--rows", type=int, help="explained-row subsample")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", default="shap_ranking.csv")
    p.add_argument("--explanations", help="also write per-row explanations JSON here")


def _cmd_explain(args) -> int:
    model_path = _require_file(args.model, "model JSON")
    stage_explain(
        load_model(model_path), matrix_from_csv(_require_file(args.data, "feature matrix CSV")),
        args.out, _from_flags(Explain, args), seed=args.seed,
        explanations_path=args.explanations,
    )
    print(args.out)
    return 0


def _add_run(sub) -> None:
    p = sub.add_parser("run", help="run the whole pipeline from a JSON config")
    p.add_argument("--config", required=True)
    p.add_argument("--out-dir", help="override the config output_dir")
    p.add_argument("--seed", type=int, help="override the config seed")


def _cmd_run(args) -> int:
    cfg = PipelineConfig.from_doc(_read_json(args.config, "config file"))
    if args.out_dir:
        cfg.output_dir = args.out_dir
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)  # range-checked like the config's seed
        if cfg.generator is not None:
            cfg.generator = replace(cfg.generator, seed=args.seed)
    status = run_pipeline(cfg)
    print(f"artifacts in {cfg.output_dir}")
    return status


_COMMANDS = {
    "gen": (_add_gen, _cmd_gen),
    "wrangle": (_add_wrangle, _cmd_wrangle),
    "sentiment": (_add_sentiment, _cmd_sentiment),
    "featurize": (_add_featurize, _cmd_featurize),
    "select": (_add_select, _cmd_select),
    "train": (_add_train, _cmd_train),
    "evaluate": (_add_evaluate, _cmd_evaluate),
    "explain": (_add_explain, _cmd_explain),
    "run": (_add_run, _cmd_run),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rentlab",
        description="Short-term-rental price modeling pipeline",
    )
    parser.add_argument("--version", action="version", version=f"rentlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for add_parser, _ in _COMMANDS.values():
        add_parser(sub)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _, command = _COMMANDS[args.command]
    try:
        return command(args)
    except (ConfigError, FileNotFoundError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pipeline/data failure
        print(f"{args.command} failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
