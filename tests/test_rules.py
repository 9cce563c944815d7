from __future__ import annotations

import copy
import dataclasses
import itertools
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from translitnorm import (
    Candidate,
    CharRule,
    Formula,
    LengthRule,
    FormatError,
    RuleWeights,
    TermTooShortError,
    VocabTerm,
    Vocabulary,
    build_vocabulary,
    effective_length,
    last_consonant,
    levenshtein,
    load_corpus,
    load_gold_set,
    load_model_config,
    load_vocabulary,
    ModelConfig,
    model_config,
    normalize,
    normalize_many,
    save_vocabulary,
)
from translitnorm.rules import (
    _admission,
    _bucket_distances,
    _score_entry,
    _score_table,
)

from helpers import candidate_rows, naive_normalize, naive_normalize_many, random_vocabulary

M1 = model_config("m1")
M2 = model_config("m2")
M3 = model_config("m3")
M4 = model_config("m4")

DATA_DIR = Path(__file__).resolve().parent.parent / "data"


class TestEffectiveLength:
    def test_longest(self):
        assert effective_length(6, 5, LengthRule.LONGEST) == 6

    def test_average_is_exact(self):
        assert effective_length(6, 5, LengthRule.AVERAGE) == Fraction(11, 2)

    def test_vocab_longer(self):
        assert effective_length(6, 5, LengthRule.VOCAB_LONGER) == 6

    def test_vocab_longer_undefined_otherwise(self):
        with pytest.raises(ValueError):
            effective_length(5, 6, LengthRule.VOCAB_LONGER)
        with pytest.raises(ValueError):
            effective_length(5, 5, LengthRule.VOCAB_LONGER)

    @pytest.mark.parametrize(("l1", "l2"), [(1, 5), (5, 1), (0, 2)])
    def test_short_lengths_rejected(self, l1, l2):
        with pytest.raises(TermTooShortError):
            effective_length(l1, l2, LengthRule.LONGEST)


class TestAdmission:
    """_admission(vocab_len, query_len, rule) -> (largest admitted distance,
    effective length), or None when no distance is admitted."""

    def test_too_far(self):
        # phulen against fulaat, distance 4: the longest length 6 gives threshold 3
        assert _admission(6, 6, LengthRule.LONGEST) == (2, 6)

    def test_close_enough(self):
        # phule against phulen, distance 1
        assert _admission(6, 5, LengthRule.LONGEST) == (2, 6)

    def test_vocab_longer_requires_strictly_longer(self):
        assert _admission(5, 6, LengthRule.VOCAB_LONGER) is None
        assert _admission(5, 5, LengthRule.VOCAB_LONGER) is None
        assert _admission(6, 5, LengthRule.VOCAB_LONGER) == (2, 6)

    def test_single_letter_terms_never_qualify(self):
        assert _admission(5, 1, LengthRule.LONGEST) is None
        assert _admission(1, 5, LengthRule.LONGEST) is None

    def test_threshold_is_strict(self):
        # longest length 6 gives threshold 3: distance 3 is out, 2 is in
        assert _admission(6, 6, LengthRule.LONGEST)[0] == 2
        # longest length 7 gives threshold 3.5: distance 3 is in
        assert _admission(7, 7, LengthRule.LONGEST)[0] == 3

    def test_average_threshold_uses_exact_rationals(self):
        # lengths 6 and 5: effective length 11/2, threshold 11/4 = 2.75
        assert _admission(6, 5, LengthRule.AVERAGE) == (2, Fraction(11, 2))
        assert _admission(5, 6, LengthRule.AVERAGE) == (2, Fraction(11, 2))

    @pytest.mark.parametrize("rule", list(LengthRule))
    def test_every_length_pair(self, rule):
        for vocab_len, query_len in itertools.product(range(21), repeat=2):
            admission = _admission(vocab_len, query_len, rule)
            never = min(vocab_len, query_len) < 2 or (
                rule is LengthRule.VOCAB_LONGER and vocab_len <= query_len
            )
            assert (admission is None) == never, (vocab_len, query_len)
            if admission is not None:
                bound, eff = admission
                assert eff == effective_length(vocab_len, query_len, rule)
                assert Fraction(bound) < eff / 2 <= Fraction(bound + 1)


class TestLastConsonant:
    @pytest.mark.parametrize(
        ("term", "expected"),
        [("phule", "l"), ("phulen", "n"), ("aaee", None), ("b", "b"), ("ai", None)],
    )
    def test_values(self, term, expected):
        assert last_consonant(term) == expected

    def test_vowel_check_is_case_folded(self):
        assert last_consonant("phulE") == "l"


# (config, first-char, second-char and last-consonant outcomes, exact pruning
# weight): the float weights summed exactly, so 0.6 is Fraction(0.6), not 3/5
CUSTOM = model_config("m3", weights=RuleWeights(wt1=1.0, wt2=0.5, wt3=0.0, wt4=0.9, wt5=0.1))
PRUNING_CASES = [
    (M3, (True, True, False), Fraction(0.6) + Fraction(0.4) + Fraction(0.25)),  # phule, phulen
    (M2, (False, True, False), Fraction(0.4) + Fraction(0.4)),  # gaane, kaane
    (M1, (False, False, False), Fraction(1)),
    (M3, (True, False, False), Fraction(0.6) + Fraction(0.2) + Fraction(0.25)),  # aaee, aeae
    (CUSTOM, (True, True, False), Fraction(1.0) + Fraction(0.5) + Fraction(0.1)),  # phule, phulen
]
PRUNING_IDS = ["m3-phule-phulen", "m2-gaane-kaane", "m1", "m3-all-vowel", "custom-weights"]
OUTCOMES = list(itertools.product((False, True), repeat=3))


class TestPruningWeight:
    """_score_entry's pruning weight; at distance 0 under eq=1 or eq=3 the
    exact score is the pruning weight itself."""

    @pytest.mark.parametrize(("config", "outcomes", "prun"), PRUNING_CASES, ids=PRUNING_IDS)
    def test_examples(self, config, outcomes, prun):
        score, weight, eff, _ = _score_entry(config, *outcomes, 0, Fraction(6))
        assert (score, weight, eff) == (prun, float(prun), 6)

    def test_m1_is_one(self):
        for outcomes in OUTCOMES:
            assert _score_entry(M1, *outcomes, 0, Fraction(9))[0] == 1

    def test_m2_has_no_consonant_rule(self):
        assert _score_entry(M2, False, True, True, 0, Fraction(5))[0] == Fraction(0.4) + Fraction(0.4)

    def test_absent_consonants_count_as_mismatch(self):
        # both terms all-vowel: no last consonant on either side, so _rank keys a miss
        _score_table.cache_clear()
        [cand] = normalize("aaeeiioo", build_vocabulary(["aeeeiioo"]), M3)
        key = (True, False, False, 1, Fraction(8))
        assert _score_table(M3) == {key: _score_entry(M3, *key)}
        assert cand.pruning_weight == float(Fraction(0.6) + Fraction(0.2) + Fraction(0.25))

    def test_weights_validated(self):
        with pytest.raises(ValueError):
            RuleWeights(wt1=1.5)
        with pytest.raises(ValueError):
            RuleWeights(wt5=-0.1)


class TestProxyWeight:
    def test_unweighted(self):
        assert _score_entry(M1, False, False, False, 1, Fraction(6))[0] == Fraction(5, 6)

    def test_weighted_with_average_length(self):
        got = _score_entry(M3, True, True, False, 1, Fraction(11, 2))
        assert got[0] == Fraction(5, 4) - Fraction(2, 11)
        assert got[3] == float(got[0])

    @pytest.mark.parametrize(("config", "outcomes", "prun"), PRUNING_CASES, ids=PRUNING_IDS)
    def test_zero_distance_subtracts_nothing(self, config, outcomes, prun):
        for eff in (Fraction(9), Fraction(11, 2)):
            assert _score_entry(config, *outcomes, 0, eff)[0] == prun

    @pytest.mark.parametrize(
        ("config", "outcomes", "prun"),
        [case for case in PRUNING_CASES if case[0] is not M1],
        ids=[name for name in PRUNING_IDS if name != "m1"],
    )
    def test_smoothed_shifts_distance_by_one(self, config, outcomes, prun):
        smoothed = dataclasses.replace(config, formula=Formula.SMOOTHED)
        assert _score_entry(smoothed, *outcomes, 1, Fraction(7))[0] == prun

    @given(
        st.integers(min_value=0, max_value=6),
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=4, max_value=20),
        st.sampled_from([M1, M2, M3, M4, model_config("m3", formula=2), CUSTOM]),
        st.sampled_from(OUTCOMES),
    )
    def test_strictly_decreasing_in_distance(self, ed, step, length, config, outcomes):
        near = _score_entry(config, *outcomes, ed, Fraction(length))[0]
        far = _score_entry(config, *outcomes, ed + step, Fraction(length))[0]
        assert near > far


class TestModelConfig:
    def test_m1_shape(self):
        assert M1.length_rule is LengthRule.LONGEST
        assert M1.char_rules == frozenset()
        assert M1.formula is Formula.UNWEIGHTED

    def test_m2_shape(self):
        assert M2.length_rule is LengthRule.AVERAGE
        assert M2.char_rules == {CharRule.FIRST_CHAR, CharRule.SECOND_CHAR}
        assert M2.formula is Formula.WEIGHTED

    def test_m3_m4_shape(self):
        assert M3.length_rule is LengthRule.AVERAGE
        assert M3.char_rules == frozenset(CharRule)
        assert M4.length_rule is LengthRule.VOCAB_LONGER
        assert M4.char_rules == M3.char_rules

    def test_fields_are_what_varies(self):
        assert [f.name for f in dataclasses.fields(ModelConfig)] == ["model_id", "formula", "weights"]

    def test_rules_are_read_only(self):
        with pytest.raises(AttributeError):
            M3.length_rule = LengthRule.LONGEST
        with pytest.raises(AttributeError):
            M3.char_rules = frozenset()

    def test_replace_formula(self):
        smoothed = dataclasses.replace(M3, formula=Formula.SMOOTHED)
        assert smoothed == model_config("m3", formula=2)
        assert (smoothed.length_rule, smoothed.char_rules) == (M3.length_rule, M3.char_rules)
        with pytest.raises(ValueError, match="m3 admits only the weighted formulas"):
            dataclasses.replace(M3, formula=Formula.UNWEIGHTED)

    @pytest.mark.parametrize("extra", [(), (RuleWeights(),)], ids=["4-positional", "5-positional"])
    def test_old_positional_call_raises(self, extra):
        # (model_id, length_rule, char_rules, formula[, weights]) would misread
        # the length rule as the formula; it no longer fits the signature
        with pytest.raises(TypeError):
            ModelConfig("m3", LengthRule.AVERAGE, frozenset(CharRule), Formula.WEIGHTED, *extra)

    def test_rules_are_not_arguments(self):
        with pytest.raises(TypeError):
            ModelConfig("m3", Formula.WEIGHTED, length_rule=LengthRule.AVERAGE)

    def test_default_weights(self):
        assert M3.weights == RuleWeights(0.60, 0.40, 0.20, 0.75, 0.25)

    def test_formula_override(self):
        assert model_config("m2", formula=2).formula is Formula.SMOOTHED

    def test_m1_rejects_weighted_formulas(self):
        with pytest.raises(ValueError):
            model_config("m1", formula=1)

    def test_others_reject_unweighted(self):
        with pytest.raises(ValueError):
            model_config("m3", formula=3)

    def test_unknown_model(self):
        with pytest.raises(ValueError):
            model_config("m5")

    def test_unweighted_with_char_rules_is_refused(self):
        # scored prun - ed/len, not m1's 1 - ed/len: gaanee for gaane read 1.5682, not 0.8182
        with pytest.raises(ValueError, match="m3 admits only the weighted formulas"):
            ModelConfig("m3", Formula.UNWEIGHTED)

    _M1_ONLY = r"^m1 admits only the unweighted formula \(eq=3\)$"
    _WEIGHTED_ONLY = r"^{} admits only the weighted formulas \(eq=1 or eq=2\)$"

    # (model id, formula code, message; None where the config builds)
    @pytest.mark.parametrize(
        ("model_id", "formula", "message"),
        [
            ("m1", 1, _M1_ONLY),
            ("m1", 2, _M1_ONLY),
            ("m1", 3, None),
            ("m2", 1, None),
            ("m2", 2, None),
            ("m2", 3, _WEIGHTED_ONLY.format("m2")),
            ("m3", 1, None),
            ("m3", 2, None),
            ("m3", 3, _WEIGHTED_ONLY.format("m3")),
            ("m4", 1, None),
            ("m4", 2, None),
            ("m4", 3, _WEIGHTED_ONLY.format("m4")),
            ("m5", 1, r"^unknown model 'm5', expected one of "),
        ],
        ids=[f"{m}-eq{f}" for m in ("m1", "m2", "m3", "m4") for f in (1, 2, 3)] + ["unknown-id"],
    )
    def test_only_the_model_table_builds(self, model_id, formula, message):
        def build():
            return ModelConfig(model_id, Formula(formula))

        if message is None:
            assert build() == model_config(model_id, formula)
            return
        with pytest.raises(ValueError, match=message):
            build()
        with pytest.raises(ValueError, match=message):
            model_config(model_id, formula)

    def test_plain_int_formula_is_refused(self):
        # _score_entry would score an int 2 as the weighted formula
        with pytest.raises(ValueError, match=self._WEIGHTED_ONLY.format("m3")):
            ModelConfig("m3", 2)


class TestConfigFile:
    def test_overrides(self, tmp_path):
        path = tmp_path / "conf"
        path.write_text("# tuning\nmodel=m2\neq=2\nwt1=0.9\n\nwt5=0.0\n")
        config = load_model_config(path)
        assert config.model_id == "m2"
        assert config.formula is Formula.SMOOTHED
        assert config.weights.wt1 == 0.9
        assert config.weights.wt5 == 0.0
        assert config.weights.wt2 == 0.40  # untouched default

    def test_explicit_arguments_win(self, tmp_path):
        path = tmp_path / "conf"
        path.write_text("model=m2\neq=2\n")
        config = load_model_config(path, model="m4", formula=1)
        assert config.model_id == "m4"
        assert config.formula is Formula.WEIGHTED

    def test_defaults_to_m3(self):
        assert load_model_config(None).model_id == "m3"

    @pytest.mark.parametrize(
        "content",
        [
            "wt9=0.5", "model", "model=m7", "eq=5", "wt1=abc", "model=m2\nmodel=m3", "eq=2.5",
            # int() and float() read these as 2 and 0.9
            "eq=\u0662", "wt1=\u0660.\u0669",
            # int() reads these as 1; --eq takes ASCII digits only
            "eq=0_1", "eq=+1",
            # float() reads these as 0.1, 0.1, 0.5 and -0.0; a weight is digits and one "."
            "wt1=0.1_0", "wt1=1e-1", "wt1=+0.5", "wt1=-0",
        ],
    )
    def test_malformed(self, tmp_path, content):
        path = tmp_path / "conf"
        path.write_text(content, encoding="utf-8")
        with pytest.raises(FormatError):
            load_model_config(path)

    def test_m1_with_eq2_rejected(self, tmp_path):
        path = tmp_path / "conf"
        path.write_text("model=m1\neq=2\n")
        with pytest.raises(FormatError):
            load_model_config(path)


class TestNormalize:
    def test_m1_scores_exactly(self):
        vocab = build_vocabulary(["gaanee kaane"])
        rows = candidate_rows(normalize("gaane", vocab, M1))
        assert [(r[0], r[1]) for r in rows] == [("gaanee", 1), ("kaane", 1)]
        assert rows[0][3] == float(Fraction(5, 6))
        assert rows[1][3] == float(Fraction(4, 5))

    def test_first_letter_rule_separates_m2(self):
        vocab = build_vocabulary(["gaanee kaane"])
        rows = candidate_rows(normalize("gaane", vocab, M2))
        assert rows[0][0] == "gaanee"
        assert rows[0][2] == pytest.approx(1.0)  # both leading characters match
        assert rows[1][0] == "kaane"
        assert rows[1][2] == pytest.approx(0.8)
        assert rows[0][3] > rows[1][3]

    def test_exact_match_shortcut(self):
        vocab = build_vocabulary(["phule phulen"])
        out = normalize("phule", vocab, M3)
        assert len(out) == 1
        assert out[0].term == "phule"
        assert out[0].edit_distance == 0
        # maximum attainable score under m3: all three rules match, no penalty
        assert out[0].proxy_weight == pytest.approx(0.60 + 0.40 + 0.75)

    def test_exact_match_shortcut_folds_probe(self):
        vocab = build_vocabulary(["phule"])
        out = normalize("PHULE", vocab, M1)
        assert out[0].term == "phule"
        assert out[0].proxy_weight == 1.0

    def test_rule_one_violation(self):
        vocab = build_vocabulary(["phule"])
        with pytest.raises(TermTooShortError):
            normalize("x", vocab, M1)

    def test_top_k_validated(self):
        vocab = build_vocabulary(["phule"])
        with pytest.raises(ValueError):
            normalize("fule", vocab, M1, top_k=0)

    def test_top_k_truncates(self):
        vocab = build_vocabulary(["baad raat maat saat"])
        out = normalize("baat", vocab, M1, top_k=2)
        assert len(out) == 2

    def test_no_candidates(self):
        vocab = build_vocabulary(["lambaashabda"])
        assert normalize("go", vocab, M3) == []

    def test_m4_returns_only_longer_terms(self):
        vocab = build_vocabulary(["phule phulen phuleesha"])
        out = normalize("phulem", vocab, M4)
        assert out, "expected at least one longer candidate"
        assert all(len(c.term) > len("phulem") for c in out)
        assert "phule" not in [c.term for c in out]

    def test_lexicographic_tie_break(self):
        vocab = build_vocabulary(["baad raat"])
        out = normalize("baat", vocab, M1)
        assert [c.term for c in out] == ["baad", "raat"]
        assert out[0].proxy_weight == out[1].proxy_weight == pytest.approx(3 / 4)

    def test_tie_break_chain(self):
        # all three candidates score 2/3 under m1; order then falls back to
        # distance (2 beats 3), then frequency (3 beats 1), then the term
        vocab = build_vocabulary(["kemela", "kimela kimela kimela", "kamalaart"])
        out = normalize("kamala", vocab, M1)
        assert [c.term for c in out] == ["kimela", "kemela", "kamalaart"]
        assert {float(Fraction(2, 3))} == {c.proxy_weight for c in out}
        assert [c.edit_distance for c in out] == [2, 2, 3]

    def test_smoothed_formula_shifts_by_inverse_length(self):
        vocab = build_vocabulary(["baad baada"])
        weighted = normalize("baat", vocab, model_config("m2", formula=1))
        smoothed = normalize("baat", vocab, model_config("m2", formula=2))
        assert len(weighted) == len(smoothed) == 2
        assert [c.term for c in weighted] == [c.term for c in smoothed]
        for w, s in zip(weighted, smoothed):
            assert s.proxy_weight == pytest.approx(
                w.proxy_weight + float(1 / w.effective_length)
            )

    def test_candidates_always_qualify(self):
        rng = random.Random(11)
        vocab = random_vocabulary(rng, 300)
        for _ in range(20):
            term = "".join(rng.choice("abcdefgh") for _ in range(rng.randint(2, 9)))
            for config in (M1, M2, M3, M4):
                for cand in normalize(term, vocab, config):
                    bound, eff = _admission(len(cand.term), len(term), config.length_rule)
                    assert cand.edit_distance <= bound
                    assert cand.effective_length == eff
                    assert Fraction(cand.edit_distance) < cand.effective_length / 2

    def test_non_ascii_query_matches_reference(self):
        vocab = build_vocabulary(["naiive naive"])
        got = candidate_rows(normalize("naïve", vocab, M2))
        want = naive_normalize("naïve", vocab, M2)
        assert got == want


class TestScanAgainstReference:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_naive_scan(self, seed):
        rng = random.Random(seed)
        vocab = random_vocabulary(rng, 150 + seed * 40)
        configs = [M1, M2, M3, M4, model_config("m2", formula=2)]
        for trial in range(12):
            term = "".join(rng.choice("abcdefghij") for _ in range(rng.randint(2, 11)))
            config = configs[trial % len(configs)]
            got = candidate_rows(normalize(term, vocab, config))
            want = naive_normalize(term, vocab, config)
            assert got == want


class TestBundledVocabulary:
    """The bundled corpus holds every vowel, where random vocabularies draw
    from a-j only, so the last-consonant rule meets o and u here."""

    CONFIGS = [M2, M3, M4, *(model_config(m, formula=2) for m in ("m2", "m3", "m4"))]

    @pytest.fixture(scope="class")
    def vocab(self):
        return build_vocabulary(load_corpus(DATA_DIR / "corpus"))

    @pytest.mark.parametrize("gold", ["gold_small.tsv", "gold_large.tsv"])
    def test_matches_naive_scan(self, vocab, gold):
        for pair in load_gold_set(DATA_DIR / gold):
            got = normalize_many(pair.noisy, vocab, self.CONFIGS)
            want = naive_normalize_many(pair.noisy, vocab, self.CONFIGS)
            assert [candidate_rows(ranked) for ranked in got] == want, pair.noisy


class TestNormalizeMany:
    CONFIGS = [
        M1,
        M2,
        M3,
        M4,
        model_config("m2", formula=2),
        model_config("m3", formula=2),
        model_config("m4", formula=2),
        model_config("m3", weights=RuleWeights(0.9, 0.1, 0.05, 0.5, 0.3)),
    ]

    @staticmethod
    def _probes(rng, vocab):
        terms = vocab.terms()
        yield rng.choice(terms)  # in the vocabulary
        yield rng.choice(terms).upper()  # in the vocabulary once folded
        yield "".join(rng.choice("abcdefghij") for _ in range(2))
        for _ in range(6):
            yield "".join(rng.choice("abcdefghij") for _ in range(rng.randint(2, 12)))
        for letter in ("ï", "ā", "ṣ"):
            word = rng.choice(terms)
            pos = rng.randrange(len(word) + 1)
            yield word[:pos] + letter + word[pos:]
            yield word[:pos] + letter + word[pos + 1 :]

    def _check(self, vocab, probes):
        """normalize_many equals naive_normalize per config; returns the row count."""
        rows = 0
        for probe in probes:
            got = [candidate_rows(ranked) for ranked in normalize_many(probe, vocab, self.CONFIGS)]
            want = naive_normalize_many(probe, vocab, self.CONFIGS)
            assert got == want, probe
            rows += sum(map(len, got))
        return rows

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_naive_scan_per_config(self, seed):
        rng = random.Random(100 + seed)
        vocab = random_vocabulary(rng, 120 + seed * 60)
        self._check(vocab, self._probes(rng, vocab))

    # Edge cases a replacement scan kernel must keep: machine-word lengths,
    # probes that Unicode folding lengthens, one-row buckets and vocabularies
    # that keep case.

    def test_terms_and_probes_around_64_letters(self):
        rng = random.Random(64)
        words = {}
        for length in (63, 64, 65):
            base = "".join(rng.choice("abcd") for _ in range(length))
            words[base] = rng.randint(1, 9)
            for _ in range(2):  # near neighbours, so the bound admits rows
                pos = rng.randrange(length)
                words[base[:pos] + rng.choice("ef") + base[pos + 1 :]] = rng.randint(1, 9)
        vocab = Vocabulary((VocabTerm(w, f, 1) for w, f in words.items()), case_fold=True)
        probes = []
        for base in list(words)[::3]:
            pos = rng.randrange(len(base))
            probes.append(base[:pos] + "g" + base[pos + 1 :])  # same length
            probes.append(base[:pos] + base[pos + 1 :])  # one shorter
            probes.append(base[:pos] + "g" + base[pos:])  # one longer
        assert {len(p) for p in probes} >= {63, 64, 65}
        assert self._check(vocab, probes) > 0

    def test_probe_longer_once_folded(self):
        vocab = build_vocabulary(["iv ivu divu diivu dii istan istaan"])
        probes = ["İ", "İv", "İvu", "dİvu", "İSTAN", "İi"]
        assert all(len(p.lower()) == len(p) + 1 for p in probes)
        assert self._check(vocab, probes) > 0

    def test_one_row_bucket(self):
        vocab = build_vocabulary(["abcdefgh ab abc abd abe"])
        assert vocab.bucket(8) == ("abcdefgh",)
        assert self._check(vocab, ["abcdefgx", "abcdefg", "abcdefghi", "bacdefgh", "abcāefgh"]) > 0

    def test_case_preserving_vocabulary(self):
        vocab = build_vocabulary(["Raama raama RAAMA siitaa SiiTaa gaNesha ganesha"], case_fold=False)
        assert not vocab.case_fold
        probes = ["Raama", "raaMa", "RAAMa", "siItaa", "SIITAA", "GANESHA", "gaNesa", "İa", "GaṆesha"]
        assert self._check(vocab, probes) > 0

    def test_small_alphabet_keeps_bands_alive(self):
        rng = random.Random(24)
        vocab = random_vocabulary(rng, 300, min_len=24, max_len=24, alphabet="abc")
        probes = []
        for edits in (1, 2, 3, 5):
            word = rng.choice(vocab.terms())
            for _ in range(edits):
                pos = rng.randrange(len(word))
                word = word[:pos] + rng.choice(("", "a", "bc", "d")) + word[pos + 1 :]
            probes.append(word)
        assert self._check(vocab, probes) > 0

    def test_score_tables_shared_across_calls(self):
        """Calls with the configs in shuffled orders share one score table per
        config: equal configs built apart share theirs, and an in-vocabulary
        probe under m4, scored at its own length, which VOCAB_LONGER leaves
        undefined, meets entries other probes filled."""
        rng = random.Random(31)
        vocab = random_vocabulary(rng, 400)
        twin = model_config("m3", weights=RuleWeights(0.9, 0.1, 0.05, 0.5, 0.3))
        assert twin == self.CONFIGS[-1] and twin is not self.CONFIGS[-1]
        configs = [*self.CONFIGS, twin]
        in_vocab = [t for t in vocab.terms() if len(t) == 6][:3]
        assert len(in_vocab) == 3
        probes = ["".join(rng.choice("abcdefghij") for _ in range(6)) for _ in range(12)]
        probes[4:4] = in_vocab
        _score_table.cache_clear()
        for probe in probes:
            order = rng.sample(configs, len(configs))
            got = [candidate_rows(ranked) for ranked in normalize_many(probe, vocab, order)]
            assert got == naive_normalize_many(probe, vocab, order), probe
        assert _score_table.cache_info().currsize == len(self.CONFIGS)

    def test_score_table_bounded_by_keys_not_probes(self):
        rng = random.Random(32)
        vocab = random_vocabulary(rng, 400)
        _score_table.cache_clear()
        probes = {
            "".join(rng.choice("abcdefghij") for _ in range(rng.randint(5, 7))) for _ in range(600)
        }
        for probe in probes:
            normalize(probe, vocab, M3)
        # 8 rule outcomes times each (distance, effective length) a query length admits
        pairs = {
            (ed, admission[1])
            for query_len in (5, 6, 7)
            for n in vocab.bucket_lengths()
            if (admission := _admission(n, query_len, M3.length_rule)) is not None
            for ed in range(admission[0] + 1)
        }
        table = _score_table(M3)
        assert {key[3:] for key in table} <= pairs
        assert 0 < len(table) <= 8 * len(pairs) < len(probes)

    def test_equal_effective_lengths_share_an_entry(self):
        # m1's effective length is the longer length: 6 for a 5- or a 6-letter probe
        vocab = build_vocabulary(["abcdef"])
        _score_table.cache_clear()
        [short] = normalize("abcde", vocab, M1)
        [same] = normalize("abcdex", vocab, M1)
        assert (short.edit_distance, short.effective_length) == (1, 6)
        assert same == Candidate("abcdef", 1, 1.0, short.effective_length, 5 / 6)
        assert same.effective_length is short.effective_length
        key = (False, False, False, 1, Fraction(6))
        assert _score_table(M1) == {key: _score_entry(M1, *key)}

    def test_no_configs(self):
        vocab = build_vocabulary(["phule"])
        assert normalize_many("phul", vocab, []) == []

    @pytest.mark.parametrize("probe", ["phulan", "phulān"])
    def test_leaves_vocabulary_unchanged(self, tmp_path, probe):
        path = tmp_path / "vocab.tsv"
        save_vocabulary(build_vocabulary(["phule phulen phool phal raat raata"]), path)
        vocab = load_vocabulary(path)
        snapshot = copy.deepcopy(vars(vocab))
        assert normalize_many(probe, vocab, [M1, M2, M3, M4])[2]
        assert vars(vocab) == snapshot


class TestBatchDistances:
    @pytest.mark.parametrize("seed", range(4))
    def test_batch_agrees_with_banded_scalar(self, seed):
        from translitnorm.distance import levenshtein_bounded

        rng = random.Random(seed)
        vocab = random_vocabulary(rng, 250, min_len=2, max_len=9)
        for _ in range(25):
            probe = "".join(rng.choice("abcdefghij") for _ in range(rng.randint(2, 9)))
            length = rng.choice(vocab.bucket_lengths())
            bound = rng.randint(0, 5)
            want = []
            for term in vocab.bucket(length):
                ed = levenshtein_bounded(probe, term, bound)
                if ed is not None:
                    want.append((vocab.lookup(term), ed))
            assert _bucket_distances(vocab, length, probe, bound) == want


_SCAN_ROWS = (0, 1, 3, 63, 64, 65, 129)  # 0: a length with no terms


@st.composite
def _scan_cases(draw, rows, non_ascii):
    """A vocabulary over 2-4 letters, a bucket length of ``rows`` rows and a probe."""
    case_fold = draw(st.booleans())
    alphabet = draw(st.sampled_from(("ab", "abc", "abcd") if case_fold else ("aB", "AbC", "abCD")))
    if rows <= 3:
        length = draw(st.integers(2, 70))
    else:  # short terms keep the large buckets cheap; room for distinct rows
        shortest = next(n for n in range(2, 13) if len(alphabet) ** n >= 2 * rows)
        length = draw(st.integers(shortest, 12))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))

    def word(n):
        return "".join(rng.choice(alphabet) for _ in range(n))

    bucket = set()
    while len(bucket) < rows:
        bucket.add(word(length))
    neighbours = {word(n) for n in (length - 1, length + 1) if n >= 2 for _ in range(3)}
    vocab = Vocabulary(
        (VocabTerm(t, rng.randint(1, 9), 1) for t in bucket | neighbours), case_fold=case_fold
    )
    # the probe: a row or a random word, then a few edits that may bring in
    # upper-case letters, a letter outside the alphabet and non-ASCII letters
    if bucket and draw(st.booleans()):
        probe = rng.choice(sorted(bucket))
    else:
        probe = word(draw(st.integers(1, length + 4)))
    letters = alphabet + alphabet.swapcase() + "z"
    for _ in range(draw(st.integers(0, 4))):
        pos = rng.randrange(len(probe) + 1)
        op = rng.choice("ids" if len(probe) > 1 else "is")
        cut = pos + (op != "i")
        probe = probe[:pos] + ("" if op == "d" else rng.choice(letters)) + probe[cut:]
    if non_ascii:
        pos = rng.randrange(len(probe) + 1)
        probe = probe[:pos] + rng.choice("āİ") + probe[pos:]
    return vocab, length, probe


class TestBucketScan:
    """_bucket_distances against one full levenshtein per row, on buckets whose
    row counts sit at machine-word edges and whose small alphabets keep the
    band alive."""

    @staticmethod
    def _check(vocab, length, probe, bounds):
        distances = [(term, levenshtein(probe, term)) for term in vocab.bucket(length)]
        for bound in bounds:
            got = [(vt.term, ed) for vt, ed in _bucket_distances(vocab, length, probe, bound)]
            assert got == [(term, d) for term, d in distances if d <= bound], bound

    @pytest.mark.parametrize("rows", _SCAN_ROWS)
    @settings(max_examples=12, deadline=None)
    @given(data=st.data())
    def test_ascii_probe_every_bound(self, rows, data):
        vocab, length, probe = data.draw(_scan_cases(rows, non_ascii=False))
        assert probe.isascii()
        self._check(vocab, length, probe, range(length + len(probe) + 1))

    @pytest.mark.parametrize("rows", _SCAN_ROWS)
    @settings(max_examples=6, deadline=None)
    @given(data=st.data())
    def test_non_ascii_probe(self, rows, data):
        vocab, length, probe = data.draw(_scan_cases(rows, non_ascii=True))
        assert not probe.isascii()
        top = length + len(probe)
        bounds = {0, 1, abs(length - len(probe)) + 1, top // 2, top}
        self._check(vocab, length, probe, sorted(bounds))
