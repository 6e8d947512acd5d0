"""Lexicon-and-rule sentiment scoring of review text.

Valence lookup comes from a word->rating lexicon; rules adjust per-token
valence for boosters, negation, and ALL-CAPS emphasis, then the summed
valence is squashed to a compound score in [-1, 1]. The rule constants
below and the shipped emoji and contraction tables are fixed; only the
lexicon is replaceable.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass
from itertools import compress, count

import numpy as np

from .errors import SchemaError
from .report import StageReport
from .tabular import Column, Table, group_means, shipped_file

COMPOUND_ALPHA = 15.0
BOOSTER_INCREMENT = 0.293
NEGATION_FACTOR = -0.74
CAPS_INCREMENT = 0.733
EXCLAIM_INCREMENT = 0.292
MAX_EXCLAIM = 4
CONTEXT_WINDOW = 3

POSITIVE_THRESHOLD = 0.05
NEGATIVE_THRESHOLD = -0.05

# looks_english: a text of at least this many tokens needs this share of stop words.
ENGLISH_MIN_TOKENS = 5
ENGLISH_MIN_STOP_RATIO = 0.05

NEGATIONS = frozenset(
    """not cannot never no none neither nor nothing nobody nowhere without
    hardly scarcely rarely seldom lack lacks lacked lacking""".split()
)

_B = BOOSTER_INCREMENT
BOOSTERS = {
    "absolutely": _B, "amazingly": _B, "awfully": _B, "completely": _B,
    "considerably": _B, "decidedly": _B, "deeply": _B, "enormously": _B,
    "entirely": _B, "especially": _B, "exceptionally": _B, "extremely": _B,
    "fully": _B, "greatly": _B, "highly": _B, "hugely": _B, "incredibly": _B,
    "intensely": _B, "majorly": _B, "more": _B, "most": _B, "particularly": _B,
    "purely": _B, "quite": _B, "really": _B, "remarkably": _B, "so": _B,
    "substantially": _B, "thoroughly": _B, "totally": _B, "tremendously": _B,
    "unbelievably": _B, "unusually": _B, "utterly": _B, "very": _B,
    "almost": -_B, "barely": -_B, "kinda": -_B, "less": -_B, "little": -_B,
    "marginally": -_B, "occasionally": -_B, "partly": -_B, "slightly": -_B,
    "somewhat": -_B, "sorta": -_B,
}

# Frequent English function words; used only by the language heuristic.
STOP_WORDS = frozenset(
    """the a an and or but if then is are was were be been being to of in on
    at for with it this that these those we i you he she they my our your his
    her their its had has have having not no nor so very there here from by
    as me us him them what which who whom when where why how all any both
    each few many some such only own same than too just also would could
    should will shall can may might must do does did doing about into over
    under after before again further once during out off up down""".split()
)

_URL_RE = re.compile(r"(?:https?://|www\.)\S+", re.IGNORECASE)
_HTML_RE = re.compile(r"<[^>]+>")
_PUNCT_RUN_RE = re.compile(r"([!?.,;:])\1+")
_WS_RE = re.compile(r"\s+")
_EDGE_PUNCT = "!\"#$%&'()*+,-./:;<=>?@[\\]^_`{|}~"


@dataclass(frozen=True)
class Lexicon:
    """Word -> valence map; words are stored lowercase."""

    entries: dict[str, float]

    def __post_init__(self):
        for word, valence in self.entries.items():
            if word != word.lower():
                raise ValueError(f"lexicon word not lowercase: {word!r}")
            if not math.isfinite(valence):
                raise ValueError(f"non-finite valence for {word!r}")

    def __len__(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class SentimentScore:
    pos: float
    neg: float
    neu: float
    compound: float

    def __post_init__(self):
        if not -1.0 <= self.compound <= 1.0:
            raise ValueError(f"compound out of range: {self.compound}")


def _tsv_lines(path):
    """(line number, key, tab, value) of each line of a key<TAB>value file
    that has a key and is not a '#' comment; tab is "" on a line without one."""
    with open(path, encoding="utf-8") as fh:
        for number, line in enumerate(fh, 1):
            key, tab, value = line.rstrip("\n").partition("\t")
            if key and not key.startswith("#"):
                yield number, key, tab, value


def load_lexicon(path) -> Lexicon:
    """Read a word<TAB>valence file ('#' comments allowed). A line without a
    tab, or a valence that is not a finite number, raises SchemaError naming
    the file, the line and the word."""
    entries = {}
    for number, word, tab, valence in _tsv_lines(path):
        where = f"{path}: line {number}, word {word!r}"
        if not tab:
            raise SchemaError(f"{where}: no tab between the word and its valence")
        try:
            value = float(valence)
        except ValueError:
            value = math.nan
        if not math.isfinite(value):
            raise SchemaError(f"{where}: the valence {valence!r} is not a finite number")
        entries[word.lower()] = value
    return Lexicon(entries)


def default_lexicon() -> Lexicon:
    with shipped_file("lexicon.tsv") as path:
        return load_lexicon(path)


@functools.cache
def _shipped_map(name: str) -> dict[str, str]:
    with shipped_file(name) as path:
        return {key: value for _, key, _, value in _tsv_lines(path)}


def _trie_pattern(words) -> str:
    """A regex for the longest-first alternation of ``words`` as a character
    trie: each character is tried once per position, not once per word. A
    word that is a prefix of others ends before an optional group of their
    suffixes, which is greedy, so the longer words are tried first and the
    shorter one when they fail. A node's branches start with different
    characters, so at most one of them matches, even ignoring case, as long
    as no two words differ in case only."""
    trie: dict = {}
    for word in words:
        node = trie
        for ch in word:
            node = node.setdefault(ch, {})
        node[""] = {}

    def alternation(node: dict) -> str:
        branches = [re.escape(ch) + alternation(child) for ch, child in node.items() if ch]
        if not branches:
            return ""
        body = branches[0] if len(branches) == 1 else "(?:" + "|".join(branches) + ")"
        return f"(?:{body})?" if "" in node else body

    return alternation(trie)


@functools.cache
def _contraction_pattern() -> re.Pattern:
    """The shipped contractions as whole words, longest first, built once."""
    return re.compile(r"\b(" + _trie_pattern(_shipped_map("contractions.tsv")) + r")\b", re.IGNORECASE)


def _match_case(replacement: str, original: str) -> str:
    if original.isupper() and len(original) > 1:
        return replacement.upper()
    if original[:1].isupper():
        return replacement[:1].upper() + replacement[1:]
    return replacement


def clean_text(raw: str) -> str:
    """Normalize review text for scoring.

    URLs and HTML tags are removed, emojis become their textual aliases,
    contractions are expanded (case-preserving), runs of identical punctuation
    collapse to one, and whitespace is normalized to single spaces. The emoji
    and contraction maps are the fixed tables shipped in rentlab/data.
    """
    contractions = _shipped_map("contractions.tsv")
    text = _URL_RE.sub(" ", raw)
    text = _HTML_RE.sub(" ", text)
    for symbol, alias in _shipped_map("emoji.tsv").items():
        if symbol in text:
            text = text.replace(symbol, f" {alias} ")
    text = _contraction_pattern().sub(
        lambda m: _match_case(contractions[m.group(0).lower()], m.group(0)), text
    )
    text = _PUNCT_RUN_RE.sub(r"\1", text)
    text = _WS_RE.sub(" ", text)
    return text.strip()


def lexicon_lookup(word: str, lex: Lexicon) -> float | None:
    """Case-insensitive exact-match valence; None when unknown."""
    return lex.entries.get(word.lower())


def _tokenize(text: str) -> list[str]:
    tokens = []
    for chunk in text.split():
        stripped = chunk.strip(_EDGE_PUNCT)
        if stripped:
            tokens.append(stripped)
    return tokens


def _mixed_case(tokens: list[str]) -> bool:
    alpha = [t for t in tokens if any(ch.isalpha() for ch in t)]
    upper = sum(1 for t in alpha if t.isupper())
    return 0 < upper < len(alpha)


def score(text: str, lex: Lexicon) -> SentimentScore:
    """Score cleaned text; tokens are matched to the lexicon and adjusted by
    the booster/negation/caps window rules, then the sum is normalized to a
    compound score s/sqrt(s^2 + alpha)."""
    tokens = _tokenize(text)
    if not tokens:
        return SentimentScore(0.0, 0.0, 1.0, 0.0)
    mixed = _mixed_case(tokens)
    adjusted: list[float] = []
    neutral = 0
    for i, token in enumerate(tokens):
        valence = lexicon_lookup(token, lex)
        if valence is None or valence == 0.0:
            neutral += 1
            continue
        v = valence
        if mixed and token.isupper():
            v += CAPS_INCREMENT * (1.0 if v > 0 else -1.0)
        window = [t.lower() for t in tokens[max(0, i - CONTEXT_WINDOW) : i]]
        for prior in window:
            boost = BOOSTERS.get(prior)
            if boost is not None:
                v += boost * (1.0 if v > 0 else -1.0)
        if any(w in NEGATIONS for w in window):
            v *= NEGATION_FACTOR
        adjusted.append(v)

    total = sum(adjusted)
    if total != 0.0:
        emphasis = min(text.count("!"), MAX_EXCLAIM) * EXCLAIM_INCREMENT
        total += emphasis if total > 0 else -emphasis
    compound = total / math.sqrt(total * total + COMPOUND_ALPHA)
    compound = max(-1.0, min(1.0, compound))

    pos_mass = sum(v + 1.0 for v in adjusted if v > 0)
    neg_mass = sum(-v + 1.0 for v in adjusted if v < 0)
    zero_mass = float(neutral + sum(1 for v in adjusted if v == 0.0))
    mass = pos_mass + neg_mass + zero_mass
    if mass == 0.0:
        return SentimentScore(0.0, 0.0, 1.0, 0.0)
    return SentimentScore(pos_mass / mass, neg_mass / mass, zero_mass / mass, compound)


def classify_compound(compound: float) -> str:
    if compound >= POSITIVE_THRESHOLD:
        return "positive"
    if compound <= NEGATIVE_THRESHOLD:
        return "negative"
    return "neutral"


def classify(s: SentimentScore) -> str:
    """Map compound to positive/negative/neutral at the +-0.05 band edges."""
    return classify_compound(s.compound)


def looks_english(text: str) -> bool:
    """Stop-word-ratio heuristic; texts under ENGLISH_MIN_TOKENS tokens pass."""
    tokens = [t.lower() for t in _tokenize(text)]
    if len(tokens) < ENGLISH_MIN_TOKENS:
        return True
    hits = sum(1 for t in tokens if t in STOP_WORDS)
    return hits / len(tokens) >= ENGLISH_MIN_STOP_RATIO


def score_reviews(reviews: Table, lex: Lexicon, report: StageReport | None = None) -> Table:
    """Clean and score every "comments" cell, appending pos/neg/neu/compound/label.

    Rows failing the English heuristic are dropped (and counted in the
    report). Empty or missing comments get missing sentiment cells so the
    host-average fill can overwrite them. Each distinct comment is cleaned
    once, and each distinct cleaned text filtered and scored once.
    """
    comments = reviews.cells("comments")
    cleaned = {c: clean_text(c) if c is not None else "" for c in dict.fromkeys(comments)}
    texts = list(map(cleaned.__getitem__, comments))
    # each kept cleaned text's five cells; a text failing looks_english has none
    cells = {}
    for text in dict.fromkeys(texts):
        if not text:
            cells[text] = (None,) * 5
        elif looks_english(text):
            s = score(text, lex)
            cells[text] = (s.pos, s.neg, s.neu, s.compound, classify(s))
    keep = list(compress(count(), map(cells.__contains__, texts)))
    columns = list(zip(*[cells[t] for t in texts if t in cells])) or [()] * 5
    out = reviews.take(keep)
    for name, values in zip(("pos", "neg", "neu", "compound", "label"), columns):
        out = out.with_column(name, Column.of("text" if name == "label" else "numeric", values))
    if report is not None:
        report.add("score_reviews", "comments", len(keep) - texts.count(""),
                   f"dropped_non_english={len(texts) - len(keep)}")
    return out


def fill_missing_sentiment(
    table: Table,
    host_col: str = "host_id",
    report: StageReport | None = None,
) -> Table:
    """Replace missing compounds with the host's mean compound (global mean
    when the host has no scored reviews) and rebuild labels for filled rows."""
    compounds = table.column("compound")
    hosts = table.cells(host_col)
    host_means, overall = group_means(hosts, compounds)
    global_mean = 0.0 if overall is None else overall

    rows = np.flatnonzero(compounds.missing).tolist()
    fills = [max(-1.0, min(1.0, host_means.get(hosts[i], global_mean))) for i in rows]
    values = compounds.values.copy()
    values[rows] = fills
    out = table.with_column("compound", Column.of("numeric", values))
    if "label" in table:
        labels = table.column("label").values.copy()
        labels[rows] = list(map(classify_compound, fills))
        out = out.with_column("label", Column.of("text", labels))
    if report is not None:
        report.add("fill_missing_sentiment", "compound", len(rows), f"global_mean={global_mean!r}")
    return out
