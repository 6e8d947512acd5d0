"""Batch pipeline runner.

Subcommands mirror the pipeline stages (gen, wrangle, sentiment, featurize,
select, train, evaluate, explain). Each stage writes its artifacts and hands
its result (tables, feature matrix, fitted model) to the next as an object;
`run` chains the stages in memory and reads only its inputs. A subcommand
loads its input files, calls the stage and lets the stage write; `select`
writes the restricted matrix (features_selected.csv) that train, evaluate
and explain read. The contract is tests/test_cli.py::TestStageComposition:
the chain of subcommands reproduces every artifact of `run` byte for byte.
All randomness flows from the configured seed. Exit codes: 0 success, 1
pipeline/data error, 2 usage/config error (an unknown config key included).
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
from .errors import PipelineError
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
    assemble_matrix,
    binarize_amenities,
    default_pois,
    expand_date,
    load_pois,
    matrix_from_csv,
    matrix_to_csv,
    one_hot,
    poi_distance_features,
    standardize,
    top_k_amenities,
)
from .models import FAMILIES, FittedModel, HyperParams, check_columns, fit_family, load_model, save_model
from .report import StageReport
from .select_explain import f_scores, forward_select, mean_abs_ranking, select_k_best, shapley_values
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
    inner_join,
    read_csv,
    write_csv,
)
from .wrangle import (
    GapSpec,
    fill_calendar_gap,
    impute_global_median,
    impute_group_mean,
    knn_impute_geo,
    remove_outliers,
)

DEFAULT_FAMILIES = ("lasso", "ridge", "elastic", "forest", "gbm")
ID_COLUMNS = frozenset({"id", "listing_id", "host_id", "reviewer_id", "scrape_id"})
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


# the keys each config section may hold; any other key is a ConfigError
SECTION_KEYS = {
    "inputs": ("listings", "calendar", "reviews"),
    "wrangle": ("multiplier", "knn_k", "gap_start", "gap_end"),
    "features": ("pois", "amenity_k", "standardize"),
    "sentiment": ("lexicon",),
    "selection": ("mode", "k", "max_features", "min_rel_improvement"),
    "models": ("families", "hyperparams", "grids"),
    "eval": ("train_fraction", "cv_k", "search_samples"),
    "explain": ("top", "budget", "rows"),
}
TOP_LEVEL_KEYS = ("version", "seed", "output_dir", "generator", *SECTION_KEYS)


def _check_keys(doc, allowed, where: str) -> dict:
    if not isinstance(doc, dict):
        raise ConfigError(f"{where} must be a JSON object")
    unknown = sorted(set(doc) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {unknown}")
    return doc


def gen_config_from_doc(doc: dict, seed: int | None = None) -> GenConfig:
    doc = dict(_check_keys(doc, GenConfig.__dataclass_fields__, "generator"))
    if "date_range" in doc:
        start, end = doc["date_range"]
        doc["date_range"] = (_dt.date.fromisoformat(start), _dt.date.fromisoformat(end))
    if "peak_months" in doc:
        doc["peak_months"] = tuple(doc["peak_months"])
    if seed is not None and "seed" not in doc:
        doc["seed"] = seed
    try:
        return GenConfig(**doc)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad generator config: {exc}") from exc


@dataclass
class PipelineConfig:
    seed: int
    output_dir: str
    generator: GenConfig | None = None
    inputs: dict[str, str] = field(default_factory=dict)
    multiplier: float = 0.5
    knn_k: int = 10
    gap: GapSpec | None = None
    pois_path: str | None = None
    amenity_k: int = 30
    standardize: bool = False
    lexicon_path: str | None = None
    selection_mode: str = "none"  # none | kbest | forward
    selection_k: int = 40
    selection_max: int = 85
    selection_tol: float = 1e-3
    families: tuple[str, ...] = DEFAULT_FAMILIES
    hyperparams: dict = field(default_factory=dict)
    grids: dict | None = None
    train_fraction: float = 0.8
    cv_k: int = 5
    search_samples: int = 0
    explain_top: int = 20
    explain_budget: int = 200
    explain_rows: int = 25

    @staticmethod
    def from_doc(doc: dict) -> "PipelineConfig":
        _check_keys(doc, TOP_LEVEL_KEYS, "config")
        if doc.get("version") not in (None, 1):
            raise ConfigError(f"unsupported config version {doc.get('version')!r}")
        for section in SECTION_KEYS:
            _check_keys(doc.get(section, {}), SECTION_KEYS[section], section)
        if "seed" not in doc:
            raise ConfigError("config field 'seed' is mandatory")
        seed = int(doc["seed"])
        out_dir = doc.get("output_dir", "rentlab_out")

        cfg = PipelineConfig(seed=seed, output_dir=out_dir)
        if "generator" in doc:
            cfg.generator = gen_config_from_doc(doc["generator"], seed=seed)
        elif "inputs" in doc:
            inputs = doc["inputs"]
            for key in ("listings", "calendar", "reviews"):
                if key not in inputs:
                    raise ConfigError(f"inputs must name a {key} CSV")
            cfg.inputs = dict(inputs)
        else:
            raise ConfigError("config needs either 'generator' or 'inputs'")

        wrangle_doc = doc.get("wrangle", {})
        cfg.multiplier = float(wrangle_doc.get("multiplier", 0.5))
        cfg.knn_k = int(wrangle_doc.get("knn_k", 10))
        if wrangle_doc.get("gap_start") and wrangle_doc.get("gap_end"):
            cfg.gap = GapSpec(
                _dt.date.fromisoformat(wrangle_doc["gap_start"]),
                _dt.date.fromisoformat(wrangle_doc["gap_end"]),
            )

        feat = doc.get("features", {})
        cfg.pois_path = feat.get("pois")
        cfg.amenity_k = int(feat.get("amenity_k", 30))
        cfg.standardize = bool(feat.get("standardize", False))

        cfg.lexicon_path = doc.get("sentiment", {}).get("lexicon")

        sel = doc.get("selection", {})
        cfg.selection_mode = sel.get("mode", "none")
        if cfg.selection_mode not in ("none", "kbest", "forward"):
            raise ConfigError(f"unknown selection mode {cfg.selection_mode!r}")
        cfg.selection_k = int(sel.get("k", 40))
        cfg.selection_max = int(sel.get("max_features", 85))
        cfg.selection_tol = float(sel.get("min_rel_improvement", 1e-3))

        models_doc = doc.get("models", {})
        families = tuple(models_doc.get("families", DEFAULT_FAMILIES))
        for fam in families:
            if fam not in FAMILIES:
                raise ConfigError(f"unknown model family {fam!r}")
        cfg.families = families
        hp_names = HyperParams.__dataclass_fields__
        hyperparams = models_doc.get("hyperparams", {})
        cfg.hyperparams = dict(_check_keys(hyperparams, hp_names, "models.hyperparams"))
        cfg.grids = models_doc.get("grids")
        for fam, grid in _check_keys(cfg.grids or {}, FAMILIES, "models.grids").items():
            _check_keys(grid, hp_names, f"models.grids.{fam}")

        eval_doc = doc.get("eval", {})
        cfg.train_fraction = float(eval_doc.get("train_fraction", 0.8))
        cfg.cv_k = int(eval_doc.get("cv_k", 5))
        cfg.search_samples = int(eval_doc.get("search_samples", 0))

        explain_doc = doc.get("explain", {})
        cfg.explain_top = int(explain_doc.get("top", 20))
        cfg.explain_budget = int(explain_doc.get("budget", 200))
        cfg.explain_rows = int(explain_doc.get("rows", 25))
        return cfg


def load_pipeline_config(path: str) -> PipelineConfig:
    _require_file(path, "config file")
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return PipelineConfig.from_doc(doc)


def default_grids() -> dict:
    from importlib import resources

    ref = resources.files("rentlab.data").joinpath("default_grids.json")
    doc = json.loads(ref.read_text(encoding="utf-8"))
    doc.pop("_comment", None)
    return doc


# ---------------------------------------------------------------------------
# stages


def stage_gen(cfg: GenConfig, out_dir: str) -> dict[str, str]:
    os.makedirs(out_dir, exist_ok=True)
    listings, calendar, reviews = generate(cfg)
    paths = {
        "listings": os.path.join(out_dir, "listings.csv"),
        "calendar": os.path.join(out_dir, "calendar.csv"),
        "reviews": os.path.join(out_dir, "reviews.csv"),
    }
    write_table(listings, paths["listings"])
    write_table(calendar, paths["calendar"])
    write_table(reviews, paths["reviews"])
    return paths


def stage_wrangle(
    listings_path: str,
    calendar_path: str,
    out_dir: str,
    multiplier: float = 0.5,
    knn_k: int = 10,
    gap: GapSpec | None = None,
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
    priced = calendar.filter([v is not None for v in calendar.values("price")])
    report.add("drop_missing_rows", "price", n_before - priced.n_rows)
    calendar = remove_outliers(priced, "price", multiplier, report=report)
    if gap is not None:
        calendar = fill_calendar_gap(calendar, gap, report=report)

    for col in REVIEW_SCORE_COLUMNS:
        if col in listings and listings.column(col).n_missing:
            listings = impute_group_mean(listings, col, "host_id", report=report)
            if listings.column(col).n_missing:
                listings = impute_global_median(listings, col, report=report)
    if "review_scores_location" in listings and listings.column("review_scores_location").n_missing:
        listings = knn_impute_geo(listings, "review_scores_location", k=knn_k, report=report)

    write_table(listings, os.path.join(out_dir, "listings_clean.csv"))
    write_table(calendar, os.path.join(out_dir, "calendar_clean.csv"))
    write_table(report.to_table(), os.path.join(out_dir, "wrangle_report.csv"))
    return listings, calendar


def stage_sentiment(
    reviews_path: str,
    out_path: str,
    lexicon_path: str | None = None,
    listings: Table | None = None,
) -> Table:
    """Score the raw reviews CSV; with the cleaned listings, keep only their
    reviews and fill missing scores per host. Write the scored table to
    out_path and sentiment_report.csv next to it; return the scored table."""
    lex = load_lexicon(lexicon_path) if lexicon_path else default_lexicon()
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
    categories = sorted({v for v in table.values(col) if v is not None})
    encoded = one_hot(table, col)
    if len(categories) > 1:
        encoded = encoded.without_columns([f"{col}_{categories[0]}"])
    return encoded


def _listing_sentiment_column(scored: Table, listings: Table) -> list[float]:
    sums: dict = {}
    counts: dict = {}
    total, n = 0.0, 0
    for lid, c in zip(scored.values("listing_id"), scored.values("compound")):
        if c is None:
            continue
        total += c
        n += 1
        if lid is not None:
            sums[lid] = sums.get(lid, 0.0) + c
            counts[lid] = counts.get(lid, 0) + 1
    global_mean = total / n if n else 0.0
    return [
        sums[lid] / counts[lid] if counts.get(lid) else global_mean
        for lid in listings.values("id")
    ]


def stage_featurize(
    listings: Table,
    calendar: Table,
    out_path: str,
    pois_path: str | None = None,
    amenity_k: int = 30,
    standardize_flag: bool = False,
    scored: Table | None = None,
) -> FeatureMatrix:
    """Join the cleaned calendar and listings (plus the mean review sentiment
    per listing, given the scored reviews) into the design matrix; write it
    to out_path and return it."""
    pois = load_pois(pois_path) if pois_path else default_pois()

    listings, bad_rows = poi_distance_features(listings, pois)
    if bad_rows:
        bad = set(bad_rows)
        listings = listings.take([i for i in range(listings.n_rows) if i not in bad])
    top = top_k_amenities(listings, amenity_k)
    if top:
        listings = binarize_amenities(listings, top)
    for col in ("room_type", "property_type"):
        if col in listings:
            listings = _one_hot_with_reference(listings, col)
    if scored is not None:
        listings = listings.with_column(
            "listing_sentiment",
            Column("numeric", tuple(_listing_sentiment_column(scored, listings))),
        )

    calendar = expand_date(calendar, "date")
    joined = inner_join(calendar, listings, "listing_id", "id")
    if joined.n_rows == 0:
        raise PipelineError("featurize: join of calendar and listings is empty")

    feature_cols = []
    for name, col in zip(joined.names, joined.cols):
        if name == "price" or name in ID_COLUMNS:
            continue
        if col.kind not in ("numeric", "integer", "boolean"):
            continue
        if col.n_missing:
            continue
        distinct = {v for v in col.values}
        if len(distinct) < 2:
            continue  # constant columns collide with the intercept
        feature_cols.append(name)
    matrix = assemble_matrix(joined, "price", feature_cols)
    if standardize_flag:
        matrix = standardize(matrix)
    write_matrix(matrix, out_path)
    return matrix


def stage_select(
    matrix: FeatureMatrix,
    out_path: str,
    mode: str = "kbest",
    k: int = 40,
    max_features: int = 85,
    min_rel_improvement: float = 1e-3,
    seed: int = 0,
) -> FeatureMatrix:
    """Choose features; write the choice to out_path and the matrix
    restricted to it as features_selected.csv next to it; return that
    matrix. An empty choice is written, then fails."""
    if mode == "kbest":
        scores = f_scores(matrix)
        chosen = select_k_best(scores, min(k, matrix.n_features))
        by_name = {s.feature: s for s in scores}
        table = Table.from_dict(
            {
                "feature": ("text", chosen),
                "score": ("numeric", [by_name[c].score for c in chosen]),
                "p_value": ("numeric", [by_name[c].p_value for c in chosen]),
            }
        )
    elif mode == "forward":
        chosen = forward_select(matrix, max_features, min_rel_improvement, seed=seed)
        table = Table.from_dict(
            {
                "feature": ("text", chosen),
                "order": ("integer", list(range(1, len(chosen) + 1))),
            }
        )
    else:
        raise ConfigError(f"unknown selection mode {mode!r}")
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
    families: tuple[str, ...] = DEFAULT_FAMILIES,
    train_fraction: float = 0.8,
    cv_k: int = 5,
    search_samples: int = 0,
    seed: int = 0,
    grids: dict | None = None,
    hyperparams: dict | None = None,
) -> tuple[list[EvalReport], dict[str, HyperParams]]:
    os.makedirs(out_dir, exist_ok=True)
    train, test = train_test_split(matrix, train_fraction, seed)
    grids = grids if grids is not None else default_grids()

    chosen: dict[str, HyperParams] = {}
    search_meta: dict[str, dict] = {}
    configs = []
    for fam in families:
        base = HyperParams.from_dict(hyperparams or {})
        grid = grids.get(fam) or {}
        if search_samples > 0 and grid:
            hp, cv_score, trials = random_search(
                train, fam, grid, n_samples=search_samples, k=cv_k,
                seed=_derived_seed(seed, FAMILIES.index(fam)),
            )
            search_meta[fam] = {
                "cv_score": cv_score,
                "n_trials": len(trials),
                "best": hp.to_dict(),
            }
        else:
            hp = base
        chosen[fam] = hp
        configs.append(ModelConfig(fam, fam, hp, seed=_derived_seed(seed, FAMILIES.index(fam), 1)))

    reports = compare_models(train, test, configs)
    write_table(reports_to_table(reports), os.path.join(out_dir, "eval_report.csv"))
    doc = {
        "reports": reports_to_doc(reports),
        "search": search_meta,
        "train_rows": train.n_rows,
        "test_rows": test.n_rows,
    }
    write_json_doc(doc, os.path.join(out_dir, "eval_report.json"))
    return reports, chosen


def stage_explain(
    model: FittedModel,
    matrix: FeatureMatrix,
    out_path: str,
    top: int = 20,
    budget: int = 200,
    rows: int = 25,
    seed: int = 0,
    explanations_path: str | None = None,
) -> None:
    check_columns(model, matrix.feature_names)  # shapley_values passes arrays
    if rows and matrix.n_rows > rows:
        picks = np.random.default_rng(seed).choice(matrix.n_rows, size=rows, replace=False)
        matrix = matrix.take(np.sort(picks))
    explanations = [
        shapley_values(model, matrix.x[i], matrix, budget=budget, seed=seed + i)
        for i in range(matrix.n_rows)
    ]
    ranking = mean_abs_ranking(matrix.feature_names, explanations)
    table = Table.from_dict(
        {
            "feature": ("text", [name for name, _ in ranking[:top]]),
            "mean_abs_shap": ("numeric", [value for _, value in ranking[:top]]),
        }
    )
    write_table(table, out_path)
    if explanations_path:
        docs = [
            {
                "base_value": expl.base_value,
                "values": dict(zip(matrix.feature_names, (float(v) for v in expl.values))),
                "prediction": expl.prediction,
            }
            for expl in explanations
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
    if cfg.lexicon_path:
        _require_file(cfg.lexicon_path, "lexicon file")
    if cfg.pois_path:
        _require_file(cfg.pois_path, "POI file")

    listings, calendar = stage_wrangle(
        raw["listings"], raw["calendar"], out,
        multiplier=cfg.multiplier, knn_k=cfg.knn_k, gap=cfg.gap,
    )
    scored = stage_sentiment(
        raw["reviews"], os.path.join(out, "reviews_scored.csv"),
        lexicon_path=cfg.lexicon_path, listings=listings,
    )
    matrix = stage_featurize(
        listings, calendar, os.path.join(out, "features.csv"),
        pois_path=cfg.pois_path, amenity_k=cfg.amenity_k,
        standardize_flag=cfg.standardize, scored=scored,
    )
    del listings, calendar, scored  # free the tables before the model stages

    if cfg.selection_mode != "none":
        matrix = stage_select(
            matrix, os.path.join(out, "selection.csv"), mode=cfg.selection_mode,
            k=cfg.selection_k, max_features=cfg.selection_max,
            min_rel_improvement=cfg.selection_tol, seed=cfg.seed,
        )

    reports, chosen_hp = stage_evaluate(
        matrix, out, families=cfg.families,
        train_fraction=cfg.train_fraction, cv_k=cfg.cv_k,
        search_samples=cfg.search_samples, seed=cfg.seed,
        grids=cfg.grids, hyperparams=cfg.hyperparams,
    )

    best = max(reports, key=lambda r: r.r_squared)
    model = stage_train(
        matrix, os.path.join(out, "model.json"), best.model_name, chosen_hp[best.model_name],
        seed=_derived_seed(cfg.seed, FAMILIES.index(best.model_name), 1),
    )
    stage_explain(
        model, matrix, os.path.join(out, "shap_ranking.csv"),
        top=cfg.explain_top, budget=cfg.explain_budget,
        rows=cfg.explain_rows, seed=cfg.seed,
        explanations_path=os.path.join(out, "shap_explanations.json"),
    )
    return 0


# ---------------------------------------------------------------------------
# argument parsing; each subcommand loads its input files and calls its stage


def _read_table(path: str, what: str, schema: Schema) -> Table:
    table, _ = read_csv(_require_file(path, what), schema)
    return table


def _add_gen(sub) -> None:
    p = sub.add_parser("gen", help="generate synthetic listings/calendar/reviews CSVs")
    p.add_argument("--config", help="GenConfig JSON file")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--listings", type=int, default=100, help="number of listings")
    p.add_argument("--start", default="2023-01-01")
    p.add_argument("--end", default="2023-03-31")
    p.add_argument("--noise-std", type=float, default=10.0)
    p.add_argument("--outlier-fraction", type=float, default=0.0)
    p.add_argument("--missing-fraction", type=float, default=0.0)
    p.add_argument("--out-dir", default=".")


def _cmd_gen(args) -> int:
    if args.config:
        with open(_require_file(args.config, "generator config"), encoding="utf-8") as fh:
            cfg = gen_config_from_doc(json.load(fh), seed=args.seed)
    else:
        cfg = GenConfig(
            n_listings=args.listings,
            date_range=(_dt.date.fromisoformat(args.start), _dt.date.fromisoformat(args.end)),
            seed=args.seed,
            noise_std=args.noise_std,
            outlier_fraction=args.outlier_fraction,
            missing_fraction=args.missing_fraction,
        )
    paths = stage_gen(cfg, args.out_dir)
    for name, path in paths.items():
        print(f"{name}: {path}")
    return 0


def _add_wrangle(sub) -> None:
    p = sub.add_parser("wrangle", help="outliers, imputation, calendar gap fill")
    p.add_argument("--listings", required=True)
    p.add_argument("--calendar", required=True)
    p.add_argument("--multiplier", type=float, default=0.5)
    p.add_argument("--knn-k", type=int, default=10)
    p.add_argument("--gap-start")
    p.add_argument("--gap-end")
    p.add_argument("--out-dir", default=".")


def _cmd_wrangle(args) -> int:
    gap = None
    if args.gap_start and args.gap_end:
        gap = GapSpec(_dt.date.fromisoformat(args.gap_start), _dt.date.fromisoformat(args.gap_end))
    stage_wrangle(
        _require_file(args.listings, "listings CSV"),
        _require_file(args.calendar, "calendar CSV"),
        args.out_dir, multiplier=args.multiplier, knn_k=args.knn_k, gap=gap,
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
    lexicon = _require_file(args.lexicon, "lexicon file") if args.lexicon else None
    listings = _read_table(args.listings, "listings CSV", LISTINGS_SCHEMA) if args.listings else None
    stage_sentiment(
        _require_file(args.reviews, "reviews CSV"), args.out,
        lexicon_path=lexicon, listings=listings,
    )
    print(args.out)
    return 0


def _add_featurize(sub) -> None:
    p = sub.add_parser("featurize", help="build the design matrix CSV")
    p.add_argument("--listings", required=True)
    p.add_argument("--calendar", required=True)
    p.add_argument("--reviews-scored")
    p.add_argument("--pois", help="POI CSV name,lat,lon (default: shipped Austin set)")
    p.add_argument("--amenity-k", type=int, default=30)
    p.add_argument("--standardize", action="store_true")
    p.add_argument("--out", default="features.csv")


def _cmd_featurize(args) -> int:
    stage_featurize(
        _read_table(args.listings, "listings CSV", LISTINGS_SCHEMA),
        _read_table(args.calendar, "calendar CSV", CALENDAR_SCHEMA),
        args.out,
        pois_path=_require_file(args.pois, "POI file") if args.pois else None,
        amenity_k=args.amenity_k,
        standardize_flag=args.standardize,
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
    p.add_argument("--k", type=int, default=40)
    p.add_argument("--max-features", type=int, default=85)
    p.add_argument("--min-rel-improvement", type=float, default=1e-3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="selection.csv")


def _cmd_select(args) -> int:
    selected = stage_select(
        matrix_from_csv(_require_file(args.features, "feature matrix CSV")), args.out,
        mode=args.mode, k=args.k, max_features=args.max_features,
        min_rel_improvement=args.min_rel_improvement, seed=args.seed,
    )
    print(f"{selected.n_features} features -> {args.out}")
    return 0


def _add_train(sub) -> None:
    p = sub.add_parser("train", help="fit one model family on a feature matrix")
    p.add_argument("--features", required=True)
    p.add_argument("--family", choices=FAMILIES, required=True)
    p.add_argument("--params", help="HyperParams JSON file")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="model.json")


def _cmd_train(args) -> int:
    hp = HyperParams()
    if args.params:
        with open(_require_file(args.params, "params file"), encoding="utf-8") as fh:
            try:
                hp = HyperParams.from_dict(json.load(fh))
            except ValueError as exc:
                raise ConfigError(f"params file {args.params}: {exc}") from exc
    matrix = matrix_from_csv(_require_file(args.features, "feature matrix CSV"))
    stage_train(matrix, args.out, args.family, hp, seed=args.seed)
    print(args.out)
    return 0


def _add_evaluate(sub) -> None:
    p = sub.add_parser("evaluate", help="train/test comparison of model families")
    p.add_argument("--features", required=True)
    p.add_argument("--families", nargs="+", choices=FAMILIES, default=list(DEFAULT_FAMILIES))
    p.add_argument("--train-fraction", type=float, default=0.8)
    p.add_argument("--cv-k", type=int, default=5)
    p.add_argument("--search-samples", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", default=".")


def _cmd_evaluate(args) -> int:
    reports, _ = stage_evaluate(
        matrix_from_csv(_require_file(args.features, "feature matrix CSV")), args.out_dir,
        families=tuple(args.families), train_fraction=args.train_fraction,
        cv_k=args.cv_k, search_samples=args.search_samples, seed=args.seed,
    )
    for rep in reports:
        print(f"{rep.model_name}: r2={rep.r_squared:.4f} mae={rep.mae:.3f} rmse={rep.rmse:.3f}")
    return 0


def _add_explain(sub) -> None:
    p = sub.add_parser("explain", help="mean |Shapley| feature ranking for a model")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True, help="feature matrix CSV")
    p.add_argument("--top", type=int, default=20)
    p.add_argument("--budget", type=int, default=200)
    p.add_argument("--rows", type=int, default=25, help="explained-row subsample")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="shap_ranking.csv")
    p.add_argument("--explanations", help="also write per-row explanations JSON here")


def _cmd_explain(args) -> int:
    model_path = _require_file(args.model, "model JSON")
    stage_explain(
        load_model(model_path), matrix_from_csv(_require_file(args.data, "feature matrix CSV")),
        args.out, top=args.top, budget=args.budget, rows=args.rows, seed=args.seed,
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
    cfg = load_pipeline_config(args.config)
    if args.out_dir:
        cfg.output_dir = args.out_dir
    if args.seed is not None:
        cfg.seed = args.seed
        if cfg.generator is not None:
            cfg.generator = replace(cfg.generator, seed=args.seed)
    status = run_pipeline(cfg)
    print(f"artifacts in {cfg.output_dir}")
    return status


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rentlab",
        description="Short-term-rental price modeling pipeline",
    )
    parser.add_argument("--version", action="version", version=f"rentlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    _add_gen(sub)
    _add_wrangle(sub)
    _add_sentiment(sub)
    _add_featurize(sub)
    _add_select(sub)
    _add_train(sub)
    _add_evaluate(sub)
    _add_explain(sub)
    _add_run(sub)
    return parser


_COMMANDS = {
    "gen": _cmd_gen,
    "wrangle": _cmd_wrangle,
    "sentiment": _cmd_sentiment,
    "featurize": _cmd_featurize,
    "select": _cmd_select,
    "train": _cmd_train,
    "evaluate": _cmd_evaluate,
    "explain": _cmd_explain,
    "run": _cmd_run,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    command = _COMMANDS[args.command]
    try:
        return command(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pipeline/data failure
        print(f"{args.command} failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
