from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from translitnorm import (
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
    load_model_config,
    model_config,
    normalize,
    normalize_many,
    proxy_weight,
    pruning_weight,
    qualifies,
)
from translitnorm.rules import _bucket_distances, _max_qualifying_ed

from helpers import candidate_rows, naive_normalize, random_vocabulary

M1 = model_config("m1")
M2 = model_config("m2")
M3 = model_config("m3")
M4 = model_config("m4")


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


class TestQualifies:
    def test_too_far(self):
        assert not qualifies("phulen", "fulaat", 4, M1)  # threshold is 3

    def test_close_enough(self):
        assert qualifies("phule", "phulen", 1, M1)

    def test_vocab_longer_requires_strictly_longer(self):
        assert not qualifies("phulen", "phule", 1, M4)
        assert not qualifies("phule", "phule", 0, M4)
        assert qualifies("phule", "phulen", 1, M4)

    def test_single_letter_terms_never_qualify(self):
        assert not qualifies("a", "phule", 0, M1)
        assert not qualifies("phule", "b", 0, M1)

    def test_threshold_is_strict(self):
        # longest length 6 gives threshold 3: distance 3 is out, 2 is in
        assert not qualifies("abcdef", "uvwdef", 3, M1)
        assert qualifies("abcdef", "uvcdef", 2, M1)

    def test_average_threshold_uses_exact_rationals(self):
        # lengths 6 and 5: effective length 11/2, threshold 11/4 = 2.75
        assert qualifies("abcde", "abcdef", 2, M2)
        assert not qualifies("abcde", "vwxyzf", 3, M2)

    @given(
        st.integers(min_value=2, max_value=20),
        st.integers(min_value=2, max_value=20),
        st.sampled_from([LengthRule.LONGEST, LengthRule.AVERAGE, LengthRule.VOCAB_LONGER]),
    )
    def test_max_qualifying_ed_matches_fraction_threshold(self, l1, l2, rule):
        if rule is LengthRule.VOCAB_LONGER and l1 <= l2:
            return
        limit = _max_qualifying_ed(l1, l2, rule)
        half = effective_length(l1, l2, rule) / 2
        assert Fraction(limit) < half <= Fraction(limit + 1)


class TestLastConsonant:
    @pytest.mark.parametrize(
        ("term", "expected"),
        [("phule", "l"), ("phulen", "n"), ("aaee", None), ("b", "b"), ("ai", None)],
    )
    def test_values(self, term, expected):
        assert last_consonant(term) == expected

    def test_vowel_check_is_case_folded(self):
        assert last_consonant("phulE") == "l"


class TestPruningWeight:
    def test_m3_example(self):
        assert pruning_weight("phule", "phulen", M3) == pytest.approx(1.25)

    def test_m2_example(self):
        assert pruning_weight("gaane", "kaane", M2) == pytest.approx(0.80)

    def test_m1_is_one(self):
        assert pruning_weight("anything", "whatever", M1) == 1.0

    def test_absent_consonants_count_as_mismatch(self):
        # both terms all-vowel: no last consonant on either side
        assert pruning_weight("aaee", "aeae", M3) == pytest.approx(0.6 + 0.2 + 0.25)

    def test_short_terms_rejected(self):
        with pytest.raises(TermTooShortError):
            pruning_weight("a", "phule", M3)

    def test_custom_weights(self):
        weights = RuleWeights(wt1=1.0, wt2=0.5, wt3=0.0, wt4=0.9, wt5=0.1)
        config = model_config("m3", weights=weights)
        assert pruning_weight("phule", "phulen", config) == pytest.approx(1.0 + 0.5 + 0.1)

    def test_weights_validated(self):
        with pytest.raises(ValueError):
            RuleWeights(wt1=1.5)
        with pytest.raises(ValueError):
            RuleWeights(wt5=-0.1)


class TestProxyWeight:
    def test_unweighted(self):
        assert proxy_weight(1, 1, 6, Formula.UNWEIGHTED) == pytest.approx(5 / 6)

    def test_weighted_with_average_length(self):
        got = proxy_weight(1.25, 1, Fraction(11, 2), Formula.WEIGHTED)
        assert got == pytest.approx(1.25 - 2 / 11)

    def test_zero_distance_subtracts_nothing(self):
        for w in (0.3, 0.8, 1.75):
            assert proxy_weight(w, 0, 9, Formula.WEIGHTED) == pytest.approx(w)

    def test_smoothed_shifts_distance_by_one(self):
        for w in (0.3, 0.8, 1.75):
            assert proxy_weight(w, 1, 7, Formula.SMOOTHED) == pytest.approx(w)

    def test_positive_length_required(self):
        with pytest.raises(ValueError):
            proxy_weight(1.0, 1, 0, Formula.WEIGHTED)

    @given(
        st.integers(min_value=0, max_value=6),
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=4, max_value=20),
        st.sampled_from(list(Formula)),
    )
    def test_strictly_decreasing_in_distance(self, ed, step, length, formula):
        near = proxy_weight(1.0, ed, length, formula)
        far = proxy_weight(1.0, ed + step, length, formula)
        assert near > far


class TestModelConfig:
    def test_m1_shape(self):
        assert M1.length_rule is LengthRule.LONGEST
        assert M1.char_rules == frozenset()
        assert M1.formula is Formula.UNWEIGHTED

    def test_m2_shape(self):
        assert M2.length_rule is LengthRule.AVERAGE
        assert len(M2.char_rules) == 2
        assert M2.formula is Formula.WEIGHTED

    def test_m3_m4_shape(self):
        assert M3.length_rule is LengthRule.AVERAGE
        assert len(M3.char_rules) == 3
        assert M4.length_rule is LengthRule.VOCAB_LONGER
        assert M4.char_rules == M3.char_rules

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
                    assert qualifies(vocab.fold(term), cand.term, cand.edit_distance, config)
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


class TestNormalizeMany:
    CONFIGS = [
        M1,
        M2,
        M3,
        M4,
        model_config("m2", formula=2),
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
            want = [naive_normalize(probe, vocab, config) for config in self.CONFIGS]
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

    def test_no_configs(self):
        vocab = build_vocabulary(["phule"])
        assert normalize_many("phul", vocab, []) == []


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
