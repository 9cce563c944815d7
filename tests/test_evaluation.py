from __future__ import annotations

import random
from pathlib import Path

import pytest

from translitnorm import (
    Candidate,
    EmptyGoldSetError,
    FormatError,
    GoldPair,
    GoldTermMissingError,
    build_vocabulary,
    compare_models,
    evaluate_model,
    load_corpus,
    load_gold_set,
    model_config,
    render_report,
)
from translitnorm.evaluation import _gold_rank
from translitnorm.synthetic import gold_pairs

from helpers import random_vocabulary

M1 = model_config("m1")

DATA_DIR = Path(__file__).resolve().parent.parent / "data"


def _ranked(*terms: str) -> list[Candidate]:
    from fractions import Fraction

    return [
        Candidate(term, i, 1.0, Fraction(len(term)), 1.0 - i / 10)
        for i, term in enumerate(terms, 1)
    ]


class TestRankMeasures:
    """_gold_rank: the 1-based position behind both measures, 0 when absent."""

    def test_reciprocal_rank_positions(self):
        ranked = _ranked("ek", "don", "tin")
        assert [_gold_rank(ranked, gold) for gold in ("ek", "don", "tin", "chaar")] == [1, 2, 3, 0]
        assert _gold_rank([], "ek") == 0

    def test_success_at_k(self):
        ranked = _ranked("aa", "bb", "cc", "dd", "ee", "ff", "gg")
        assert _gold_rank(ranked, "aa") == 1
        assert 5 < _gold_rank(ranked, "gg") <= 10
        assert _gold_rank(ranked, "zz") == 0

    def test_rank_measures_agree(self):
        ranked = _ranked("aa", "bb", "cc")
        for gold in ("aa", "bb", "cc", "zz"):
            rank = _gold_rank(ranked, gold)
            assert 0 <= rank <= len(ranked)
            assert (rank > 0) == (gold != "zz")


class TestEvaluateModel:
    def _fixture(self):
        # rank 1: identity pair; rank 2: aac ties aab, loses alphabetically;
        # absent: zzz is too far from everything
        vocab = build_vocabulary(["aab aac zzz"])
        pairs = [
            GoldPair("aab", "aab"),
            GoldPair("aax", "aac"),
            GoldPair("axx", "zzz"),
        ]
        return vocab, pairs

    def test_three_pair_arithmetic(self):
        vocab, pairs = self._fixture()
        scores = evaluate_model(pairs, vocab, M1)
        assert scores.avg_mrr == pytest.approx(0.5)
        assert scores.avg_p1 == pytest.approx(1 / 3)
        assert scores.avg_p5 == pytest.approx(2 / 3)
        assert scores.avg_p10 == pytest.approx(2 / 3)
        assert scores.sample_count == 3

    def test_identity_pair_scores_one(self):
        vocab = build_vocabulary(["phule"])
        scores = evaluate_model([GoldPair("phule", "phule")], vocab, M1)
        assert (scores.avg_mrr, scores.avg_p1, scores.avg_p5, scores.avg_p10) == (
            1.0,
            1.0,
            1.0,
            1.0,
        )

    def test_empty_gold_set(self):
        vocab = build_vocabulary(["phule"])
        with pytest.raises(EmptyGoldSetError):
            evaluate_model([], vocab, M1)

    def test_missing_gold_terms_named(self):
        vocab = build_vocabulary(["phule"])
        pairs = [GoldPair("fule", "phule"), GoldPair("rxn", "ran")]
        with pytest.raises(GoldTermMissingError) as err:
            evaluate_model(pairs, vocab, M1)
        assert err.value.terms == ("ran",)

    def test_permutation_invariance(self):
        vocab, pairs = self._fixture()
        forward = evaluate_model(pairs, vocab, M1)
        backward = evaluate_model(list(reversed(pairs)), vocab, M1)
        assert forward == backward

    def test_report_invariants_on_generated_sets(self):
        rng = random.Random(31)
        vocab = random_vocabulary(rng, 400, min_len=4, max_len=10)
        for seed in (1, 2, 3):
            pairs = gold_pairs(vocab, 25, seed=seed)
            for model_id in ("m1", "m2", "m3", "m4"):
                s = evaluate_model(pairs, vocab, model_config(model_id))
                assert 0.0 <= s.avg_p1 <= s.avg_p5 <= s.avg_p10 <= 1.0
                assert s.avg_mrr >= s.avg_p1
                assert 0.0 <= s.avg_mrr <= 1.0


class TestCompareModels:
    def test_all_identity_gold(self):
        vocab = build_vocabulary(["phule gaana raama"])
        pairs = [GoldPair(t, t) for t in ("phule", "gaana", "raama")]
        report = compare_models(pairs, vocab)
        assert list(report.scores) == ["m1", "m2", "m3", "m4"]
        for scores in report.scores.values():
            assert (scores.avg_mrr, scores.avg_p1, scores.avg_p5, scores.avg_p10) == (
                1.0,
                1.0,
                1.0,
                1.0,
            )

    def test_shorter_gold_invisible_to_m4(self):
        # the gold term is shorter than the noisy term, which the
        # vocab-longer rule cannot admit; the unweighted model still can
        vocab = build_vocabulary(["phule"])
        pairs = [GoldPair("pphule", "phule")]
        report = compare_models(pairs, vocab)
        m4 = report.scores["m4"]
        assert (m4.avg_mrr, m4.avg_p1, m4.avg_p5, m4.avg_p10) == (0.0, 0.0, 0.0, 0.0)
        m1 = report.scores["m1"]
        assert m1.avg_mrr > 0.0
        assert m1.avg_p1 == 1.0

    def test_gold_set_checked(self):
        vocab = build_vocabulary(["phule"])
        with pytest.raises(EmptyGoldSetError):
            compare_models([], vocab)
        with pytest.raises(GoldTermMissingError) as err:
            compare_models([GoldPair("fule", "phule"), GoldPair("rxn", "ran")], vocab)
        assert err.value.terms == ("ran",)

    @staticmethod
    def _assert_matches_evaluate(pairs, vocab):
        report = compare_models(pairs, vocab)
        assert report.sample_count == len(pairs)
        for model_id in ("m1", "m2", "m3", "m4"):
            assert report.scores[model_id] == evaluate_model(pairs, vocab, model_config(model_id))

    def test_matches_one_model_at_a_time_on_bundled_gold(self):
        vocab = build_vocabulary(load_corpus(DATA_DIR / "corpus"))
        pairs = load_gold_set(DATA_DIR / "gold_large.tsv")
        self._assert_matches_evaluate(pairs, vocab)

    @pytest.mark.parametrize("seed", (1, 2, 3))
    def test_matches_one_model_at_a_time_on_generated_sets(self, seed):
        rng = random.Random(40 + seed)
        vocab = random_vocabulary(rng, 400, min_len=4, max_len=10)
        self._assert_matches_evaluate(gold_pairs(vocab, 25, seed=seed), vocab)


class TestRenderReport:
    def test_layout(self):
        vocab = build_vocabulary(["phule"])
        report = compare_models([GoldPair("phule", "phule")], vocab)
        text = render_report(report)
        lines = text.splitlines()
        assert lines[0] == "Measure\tM1\tM2\tM3\tM4"
        assert lines[1] == "Avg_MRR\t1.000000\t1.000000\t1.000000\t1.000000"
        assert [line.split("\t")[0] for line in lines[1:]] == [
            "Avg_MRR",
            "Avg_P@1",
            "Avg_P@5",
            "Avg_P@10",
        ]
        assert text.endswith("\n")

    def test_single_model_report(self):
        from translitnorm import EvalReport

        vocab = build_vocabulary(["phule"])
        scores = evaluate_model([GoldPair("phule", "phule")], vocab, M1)
        text = render_report(EvalReport({"m1": scores}, 1))
        assert text.splitlines()[0] == "Measure\tM1"


class TestLoadGoldSet:
    def test_reads_pairs_and_skips_comments(self, tmp_path):
        path = tmp_path / "gold.tsv"
        path.write_text("# header\nfule\tphule\n\nrxn\tran\n")
        pairs = load_gold_set(path)
        assert pairs == [GoldPair("fule", "phule"), GoldPair("rxn", "ran")]

    @pytest.mark.parametrize(
        "content",
        ["fule phule", "fule\tphule\textra", "f\tphule", "fule\tp"],
    )
    def test_malformed_lines(self, tmp_path, content):
        path = tmp_path / "gold.tsv"
        path.write_text(content + "\n")
        with pytest.raises(FormatError):
            load_gold_set(path)
