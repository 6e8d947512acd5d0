import math
import os
import re
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rentlab import sentiment
from rentlab.errors import SchemaError
from rentlab.report import StageReport
from rentlab.sentiment import (
    COMPOUND_ALPHA,
    Lexicon,
    classify,
    classify_compound,
    clean_text,
    fill_missing_sentiment,
    lexicon_lookup,
    load_lexicon,
    looks_english,
    score,
    score_reviews,
)
from rentlab.tabular import Column, Table


def compound_of(total: float) -> float:
    return total / math.sqrt(total * total + COMPOUND_ALPHA)


class TestLexiconFixtures:
    """The six dictionary-subset ratings are mandatory fixtures."""

    @pytest.mark.parametrize(
        "word,valence",
        [
            ("Tragedy", -3.4),
            ("Insane", -1.7),
            ("Flattery", 0.4),
            ("Stealthily", 0.1),
            ("Awesome", 1.8),
            ("Amazing", 1.8),
        ],
    )
    def test_fixture_word(self, lexicon, word, valence):
        assert lexicon_lookup(word, lexicon) == valence

    def test_unknown_word_absent(self, lexicon):
        assert lexicon_lookup("xyzzy", lexicon) is None

    def test_lookup_case_insensitive(self, lexicon):
        assert lexicon_lookup("AWESOME", lexicon) == lexicon_lookup("awesome", lexicon)

    def test_lexicon_size(self, lexicon):
        assert len(lexicon) >= 1000

    def test_lowercase_enforced(self):
        with pytest.raises(ValueError):
            Lexicon({"Bad": 1.0})

    def test_finite_valence_enforced(self):
        with pytest.raises(ValueError):
            Lexicon({"bad": math.inf})

    @pytest.mark.parametrize("line, message", [
        # these once failed as a bare "could not convert string to float"
        ("awful\tabc", r"line 3, word 'awful': the valence 'abc' is not a finite number"),
        ("good", r"line 3, word 'good': no tab between the word and its valence"),
        ("awful\tnan", r"line 3, word 'awful': the valence 'nan' is not a finite number"),
    ], ids=["not_a_number", "no_tab", "nan"])
    def test_load_lexicon_bad_line_named(self, tmp_path, line, message):
        path = tmp_path / "lex.tsv"
        path.write_text(f"# word<TAB>valence\ngreat\t3.1\n{line}\n", encoding="utf-8")
        with pytest.raises(SchemaError, match=r"lex\.tsv: " + message):
            load_lexicon(path)


class TestCleanText:
    def test_url_and_punct_run(self):
        assert clean_text("Great stay!!! http://x.co") == "Great stay!"

    def test_contraction_expansion(self):
        assert clean_text("can't wait") == "cannot wait"

    def test_contraction_keeps_capitalization(self):
        assert clean_text("Can't wait") == "Cannot wait"

    def test_empty(self):
        assert clean_text("") == ""

    def test_html_tags_stripped(self):
        assert clean_text("nice <br/> place <b>really</b>") == "nice place really"

    def test_emoji_alias(self):
        out = clean_text("loved it \U0001f60d")
        assert "heart eyes" in out

    def test_whitespace_normalized(self):
        assert clean_text("a\t b\n\nc") == "a b c"

    def test_question_run_collapsed(self):
        assert clean_text("why??? how???") == "why? how?"

    def test_contraction_pattern_is_built_once(self, monkeypatch):
        sentiment._contraction_pattern.cache_clear()
        escaped = []
        real_escape = re.escape
        monkeypatch.setattr(re, "escape", lambda text: escaped.append(text) or real_escape(text))
        assert clean_text("Can't wait, it's great") == "Cannot wait, it is great"
        built = len(escaped)
        outputs = {clean_text("Can't wait, it's great") for _ in range(19)}
        assert outputs == {"Cannot wait, it is great"}
        assert built > 0 and len(escaped) == built


def _flat_contraction_pattern():
    """The contraction pattern the trie replaced: one alternative per
    contraction, longest first, each tried at every word boundary."""
    by_length = sorted(sentiment._shipped_map("contractions.tsv"), key=len, reverse=True)
    return re.compile(r"\b(" + "|".join(re.escape(c) for c in by_length) + r")\b", re.IGNORECASE)


_CONTRACTIONS = sorted(sentiment._shipped_map("contractions.tsv"))
# contractions that another one extends (can't, can't've), where the
# longest-first order decides the match
_NESTED = sorted({c for a in _CONTRACTIONS for b in _CONTRACTIONS if a != b and b.startswith(a)
                  for c in (a, b)})
# whole contractions, their prefixes and suffixes in any case, and the
# characters around a word boundary, so that a longer contraction starts
# where a shorter one ends (can't've, can't'v, can'tve, he'sx)
_FRAGMENTS = st.one_of(
    st.sampled_from(_CONTRACTIONS),
    st.sampled_from(_NESTED),
    st.tuples(st.sampled_from(_CONTRACTIONS), st.integers(1, 8)).map(lambda cw: cw[0][:cw[1]]),
    st.tuples(st.sampled_from(_CONTRACTIONS), st.integers(1, 8)).map(lambda cw: cw[0][cw[1]:]),
    st.sampled_from([" ", "'", "’", "'ve", "'s", "ve", "x", "_", "9", "-", "\u00e9", "\u0130", "K"]),
    st.text(max_size=2),
)


class TestContractionTrie:
    @settings(max_examples=400, deadline=None)
    @given(st.lists(st.tuples(_FRAGMENTS, st.booleans()), max_size=10))
    def test_matches_the_flat_alternation(self, parts):
        text = "".join(f.upper() if upper else f for f, upper in parts)
        mark = lambda m: f"<{m.group(0)}>"
        assert sentiment._contraction_pattern().sub(mark, text) == _flat_contraction_pattern().sub(mark, text)

    def test_prefers_the_longest_contraction_that_ends_a_word(self):
        mark = lambda m: f"<{m.group(0)}>"
        text = "can't've can't'ves Can't've? it'sx it's"
        assert sentiment._contraction_pattern().sub(mark, text) == "<can't've> <can't>'ves <Can't've>? it'sx <it's>"


class TestShippedTextTables:
    def test_loaders_and_globals_are_gone(self):
        for name in ("load_contractions", "load_emoji_map", "_contractions", "_emoji",
                     "_CONTRACTIONS", "_EMOJI"):
            assert not hasattr(sentiment, name), name

    @pytest.mark.parametrize("call", [
        lambda: clean_text("x", {}),
        lambda: clean_text("x", contractions={}),
        lambda: clean_text("x", emoji_map={}),
        lambda: looks_english("x", 3),
        lambda: looks_english("x", min_tokens=3),
        lambda: looks_english("x", min_stop_ratio=0.5),
        lambda: score_reviews(_reviews(["x"]), Lexicon({}), comments_col="comments"),
    ], ids=["clean_text-positional", "clean_text-contractions", "clean_text-emoji_map",
            "looks_english-positional", "looks_english-min_tokens",
            "looks_english-min_stop_ratio", "score_reviews-comments_col"])
    def test_removed_parameters_raise_type_error(self, call):
        with pytest.raises(TypeError):
            call()

    def test_tables_load_on_first_use_not_on_import(self):
        code = (
            "import rentlab.cli, rentlab.sentiment as s\n"
            "assert s._shipped_map.cache_info().currsize == 0\n"
            "assert s._contraction_pattern.cache_info().currsize == 0\n"
            "s.clean_text('ok')\n"
            "assert s._shipped_map.cache_info().currsize == 2\n"
        )
        src = os.path.dirname(os.path.dirname(sentiment.__file__))
        subprocess.run([sys.executable, "-c", code], check=True, env={**os.environ, "PYTHONPATH": src})


class TestScore:
    def test_single_word_awesome(self, lexicon):
        s = score("awesome", lexicon)
        assert s.compound == pytest.approx(1.8 / math.sqrt(18.24), abs=1e-9)
        assert s.compound == pytest.approx(0.4215, abs=1e-3)

    def test_empty_text(self, lexicon):
        s = score("", lexicon)
        assert s.compound == 0.0
        assert s.neu == 1.0

    def test_all_unknown_text(self, lexicon):
        s = score("qwerty zxcvb plmokn", lexicon)
        assert s.compound == 0.0
        assert s.neu == 1.0

    def test_negation_flips_and_lowers(self, lexicon):
        plain = score("awesome", lexicon)
        negated = score("not awesome", lexicon)
        assert negated.compound < plain.compound
        assert negated.compound < 0 < plain.compound
        assert negated.compound == pytest.approx(compound_of(1.8 * -0.74), abs=1e-9)

    def test_booster_raises_magnitude(self, lexicon):
        plain = score("good", lexicon)
        boosted = score("very good", lexicon)
        assert boosted.compound > plain.compound

    def test_dampener_lowers_magnitude(self, lexicon):
        plain = score("good", lexicon)
        damped = score("slightly good", lexicon)
        assert 0 < damped.compound < plain.compound

    def test_caps_emphasis_amid_mixed_case(self, lexicon):
        plain = score("this was great honestly", lexicon)
        shouted = score("this was GREAT honestly", lexicon)
        assert shouted.compound > plain.compound

    def test_all_caps_text_gets_no_emphasis(self, lexicon):
        # no mixed-case differential -> no caps boost
        upper = score("GREAT STAY", lexicon)
        lower = score("great stay", lexicon)
        assert upper.compound == pytest.approx(lower.compound, abs=1e-12)

    def test_exclamations_amplify_up_to_four(self, lexicon):
        base = score("great", lexicon)
        one = score("great!", lexicon)
        four = score("great! ! ! !", lexicon)
        five = score("great! ! ! ! !", lexicon)
        assert base.compound < one.compound < four.compound
        assert five.compound == pytest.approx(four.compound, abs=1e-12)

    def test_hand_summed_phrase(self, lexicon):
        # great=3.1; recommend=1.9 boosted by "highly" (+0.293)
        s = score("great location, highly recommend", lexicon)
        expected = compound_of(3.1 + 1.9 + 0.293)
        assert s.compound == pytest.approx(expected, abs=1e-9)
        assert s.compound > 0.05

    def test_mass_proportions_sum_to_one(self, lexicon):
        s = score("great awful unknownword", lexicon)
        assert s.pos + s.neg + s.neu == pytest.approx(1.0, abs=1e-6)
        assert s.pos > 0 and s.neg > 0 and s.neu > 0

    def test_deterministic(self, lexicon):
        text = "really wonderful place, not cheap but SUPERB value!!"
        a = score(clean_text(text), lexicon)
        b = score(clean_text(text), lexicon)
        assert a == b


NON_MODIFIER_WORDS = ["place", "great", "awful", "house", "clean", "dirty", "stay", "room"]


@settings(max_examples=120, deadline=None)
@given(st.lists(st.sampled_from(NON_MODIFIER_WORDS), max_size=8))
def test_compound_bounded_and_positive_append_monotone(lexicon, words):
    text = " ".join(words)
    s = score(text, lexicon)
    assert -1.0 < s.compound < 1.0
    appended = score(text + (" " if text else "") + "great", lexicon)
    assert appended.compound >= s.compound - 1e-12


@settings(max_examples=80, deadline=None)
@given(st.lists(st.sampled_from(NON_MODIFIER_WORDS + ["not", "very"]), min_size=1, max_size=10))
def test_proportions_sum_to_one_when_matched(lexicon, words):
    s = score(" ".join(words), lexicon)
    if any(w in ("great", "awful", "clean", "dirty") for w in words):
        assert s.pos + s.neg + s.neu == pytest.approx(1.0, abs=1e-6)


class TestClassify:
    def test_zero_is_neutral(self):
        assert classify_compound(0.0) == "neutral"

    def test_positive_threshold(self):
        assert classify_compound(0.4215) == "positive"
        assert classify_compound(0.05) == "positive"
        assert classify_compound(0.049999) == "neutral"

    def test_negative_threshold(self):
        assert classify_compound(-0.34) == "negative"
        assert classify_compound(-0.05) == "negative"
        assert classify_compound(-0.049999) == "neutral"

    def test_classify_uses_compound_only(self, lexicon):
        s = score("awesome", lexicon)
        assert classify(s) == classify_compound(s.compound)


def _reviews(comments, hosts=None):
    data = {
        "listing_id": ("integer", list(range(1, len(comments) + 1))),
        "comments": ("text", comments),
    }
    if hosts is not None:
        data["host_id"] = ("integer", hosts)
    return Table.from_dict(data)


class TestScoreReviews:
    def test_positive_review_labeled(self, lexicon):
        out = score_reviews(_reviews(["great location, highly recommend"]), lexicon)
        assert out.cells("compound")[0] > 0.05
        assert out.cells("label")[0] == "positive"

    def test_five_columns_appended(self, lexicon):
        out = score_reviews(_reviews(["nice place"]), lexicon)
        for col in ("pos", "neg", "neu", "compound", "label"):
            assert col in out.names

    def test_non_english_dropped_and_counted(self, lexicon):
        report = StageReport()
        comments = [
            "great stay, we loved the house and the pool",
            "la casa estaba muy bonita cerca del centro excelente anfitrion gracias",
            "lovely spot, would happily stay again",
        ]
        out = score_reviews(_reviews(comments), lexicon, report=report)
        assert out.n_rows == 2
        assert any("dropped_non_english=1" in e.flags for e in report.entries)

    def test_empty_comment_has_missing_sentiment(self, lexicon):
        out = score_reviews(_reviews(["", "great spot"]), lexicon)
        assert out.cells("compound")[0] is None
        assert out.cells("compound")[1] is not None

    def test_row_count_never_grows(self, lexicon):
        out = score_reviews(_reviews(["a", "b", "c"]), lexicon)
        assert out.n_rows <= 3


def _reference_score_reviews(reviews, lex, report=None):
    """score_reviews as one clean_text, looks_english and score per row."""
    comments = reviews.cells("comments")
    keep, cleaned, dropped = [], [], 0
    for i, comment in enumerate(comments):
        text = clean_text(comment) if comment is not None else ""
        if text and not looks_english(text):
            dropped += 1
            continue
        keep.append(i)
        cleaned.append(text if text else None)
    out = reviews.take(keep)
    columns = {"pos": [], "neg": [], "neu": [], "compound": [], "label": []}
    scored = 0
    for text in cleaned:
        if text is None:
            for values in columns.values():
                values.append(None)
            continue
        s = score(text, lex)
        for name, value in zip(columns, (s.pos, s.neg, s.neu, s.compound, classify(s))):
            columns[name].append(value)
        scored += 1
    for name, values in columns.items():
        out = out.with_column(name, Column.of("text" if name == "label" else "numeric", tuple(values)))
    if report is not None:
        report.add("score_reviews", "comments", scored, f"dropped_non_english={dropped}")
    return out


# Two raw texts that clean to the same text, so one cleaned text has two raw forms.
_SAME_CLEANED = ["Nice   place,, really clean", "www.example.com Nice place, really <b>clean</b>"]
_REVIEW_POOL = [
    None, "", "   ",
    "la casa estaba muy bonita cerca del centro excelente anfitrion gracias",
    "Great stay \U0001F600 would return",
    "It wasn't bad, we can't complain",
    "The host was AMAZING and the view was GREAT",
    "Loved it!!!",
    *_SAME_CLEANED,
]


def _typed(values):
    # the value, its type and its repr: 1 == 1.0 == True, 0.0 == -0.0
    return [(type(v), repr(v)) for v in values]


def test_pool_texts_clean_alike():
    assert clean_text(_SAME_CLEANED[0]) == clean_text(_SAME_CLEANED[1]) == "Nice place, really clean"


@settings(max_examples=150, deadline=None)
@given(st.lists(st.sampled_from(_REVIEW_POOL), max_size=30))
def test_score_reviews_matches_per_row_scoring(lexicon, comments):
    reviews = _reviews(comments, hosts=[i % 3 for i in range(len(comments))])
    report, ref_report = StageReport(), StageReport()
    out = score_reviews(reviews, lexicon, report=report)
    ref = _reference_score_reviews(reviews, lexicon, report=ref_report)
    assert out.names == ref.names
    for col, ref_col in zip(out.cols, ref.cols):
        assert col.kind == ref_col.kind
        assert _typed(col.values) == _typed(ref_col.values)
    assert report.entries == ref_report.entries


class TestFillMissingSentiment:
    def _scored(self, hosts, compounds):
        return Table.from_dict(
            {
                "host_id": ("integer", hosts),
                "compound": ("numeric", compounds),
                "label": ("text", [None] * len(hosts)),
            }
        )

    def test_host_mean(self):
        t = self._scored([1, 1, 1], [0.2, 0.4, None])
        out = fill_missing_sentiment(t)
        assert out.cells("compound")[2] == pytest.approx(0.3, abs=1e-12)
        assert out.cells("label")[2] == "positive"

    def test_no_missing_identity(self):
        t = self._scored([1, 2], [0.1, -0.1])
        out = fill_missing_sentiment(t)
        assert out.cells("compound") == [0.1, -0.1]

    def test_unscored_host_gets_global_mean(self):
        t = self._scored([1, 1, 2], [0.2, 0.4, None])
        out = fill_missing_sentiment(t)
        assert out.cells("compound")[2] == pytest.approx(0.3, abs=1e-12)


class TestLanguageHeuristic:
    def test_short_text_passes(self):
        assert looks_english("ok")

    def test_english_passes(self):
        assert looks_english("the house was great and we loved it")

    def test_no_stopwords_fails(self):
        assert not looks_english("casa bonita centro excelente anfitrion gracias")
