from __future__ import annotations

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from translitnorm import (
    EmptyCorpusError,
    FormatError,
    VocabTerm,
    Vocabulary,
    build_vocabulary,
    load_corpus,
    load_vocabulary,
    save_vocabulary,
    tokenize,
)


class TestTokenize:
    def test_whitespace_split(self):
        assert tokenize("phulen aalit ranat", case_fold=False) == [
            "phulen",
            "aalit",
            "ranat",
        ]

    def test_case_fold(self):
        assert tokenize("shrI gaNeshAya", case_fold=True) == ["shri", "ganeshaya"]

    def test_short_runs_dropped(self):
        assert tokenize("a b5c", case_fold=False) == []

    def test_markers_are_separators(self):
        assert tokenize("shrii~raama | 12 | .. dohaa ..") == [
            "shrii",
            "raama",
            "dohaa",
        ]

    def test_digits_split_runs(self):
        assert tokenize("ab12cd") == ["ab", "cd"]

    def test_preserve_case(self):
        assert tokenize("Ab CD", case_fold=False) == ["Ab", "CD"]


class TestBuildVocabulary:
    def test_counts(self):
        vocab = build_vocabulary(["phule phule", "phulen"], case_fold=False)
        assert vocab.lookup("phule") == VocabTerm("phule", 2, 1)
        assert vocab.lookup("phulen") == VocabTerm("phulen", 1, 1)
        assert len(vocab) == 2

    def test_empty_corpus(self):
        with pytest.raises(EmptyCorpusError):
            build_vocabulary([""], case_fold=False)

    def test_fold_merges(self):
        vocab = build_vocabulary(["ab AB"], case_fold=True)
        assert vocab.lookup("ab") == VocabTerm("ab", 2, 1)
        assert len(vocab) == 1

    def test_doc_count_across_documents(self):
        vocab = build_vocabulary(["ek do", "do tin", "do"], case_fold=True)
        assert vocab.lookup("do") == VocabTerm("do", 3, 3)
        assert vocab.lookup("ek").doc_count == 1

    def test_total_frequency_matches_token_count(self):
        docs = ["shrii raama raama", "siitaa raama | 5 |", "x yz"]
        vocab = build_vocabulary(docs)
        emitted = sum(len(tokenize(d)) for d in docs)
        assert sum(vt.frequency for vt in vocab.terms()) == emitted

    def test_every_token_is_contained(self):
        docs = ["gaNesha vandana", "shrI gaNesha"]
        vocab = build_vocabulary(docs)
        for doc in docs:
            for token in tokenize(doc):
                assert token in vocab


class TestContains:
    def test_member(self):
        vocab = build_vocabulary(["phule"])
        assert "phule" in vocab
        assert "fule" not in vocab

    def test_probe_is_folded(self):
        vocab = build_vocabulary(["ab"], case_fold=True)
        assert "AB" in vocab

    def test_preserved_case_is_exact(self):
        vocab = build_vocabulary(["Ab"], case_fold=False)
        assert "Ab" in vocab
        assert "ab" not in vocab


class TestLengthIndex:
    def test_buckets_partition_terms(self):
        rng = random.Random(4)
        words = {
            "".join(rng.choice("abcdef") for _ in range(rng.randint(2, 9)))
            for _ in range(300)
        }
        vocab = build_vocabulary([" ".join(words)])
        seen = []
        for length in vocab.bucket_lengths():
            for vt in vocab.bucket(length):
                assert len(vt.term) == length
                seen.append(vt.term)
        assert sorted(seen) == sorted(vt.term for vt in vocab.terms())

    @pytest.mark.parametrize("case_fold", [True, False])
    def test_canonical_order(self, case_fold):
        rng = random.Random(11)
        letters = "abcdef" if case_fold else "abcABC"
        words = {
            "".join(rng.choice(letters) for _ in range(rng.randint(2, 7)))
            for _ in range(400)
        }
        entries = []
        for word in words:
            docs = rng.randint(1, 3)
            entries.append(VocabTerm(word, docs + rng.randint(0, 3), docs))
        rng.shuffle(entries)
        vocab = Vocabulary(entries, case_fold=case_fold)
        expected = sorted(entries, key=lambda vt: (-vt.frequency, vt.term))
        assert vocab.terms() == expected
        assert vocab.bucket_lengths() == sorted({len(w) for w in words})
        for length in vocab.bucket_lengths():
            assert vocab.bucket(length) == [
                vt for vt in expected if len(vt.term) == length
            ]
        vocab.terms().clear()
        assert vocab.terms() == expected

    def test_term_matrix_mirrors_bucket(self):
        vocab = build_vocabulary(["abc abd xyz"])
        mat = vocab.term_matrix(3)
        decoded = ["".join(map(chr, row)) for row in mat]
        assert decoded == [vt.term for vt in vocab.bucket(3)]


class TestConstructionValidation:
    def test_duplicate_term(self):
        with pytest.raises(FormatError, match="duplicate"):
            Vocabulary([VocabTerm("ab", 1, 1), VocabTerm("ab", 2, 1)])

    def test_short_term(self):
        with pytest.raises(FormatError):
            Vocabulary([VocabTerm("a", 1, 1)])

    def test_non_alpha_term(self):
        with pytest.raises(FormatError):
            Vocabulary([VocabTerm("a1b", 1, 1)])

    def test_bad_counts(self):
        with pytest.raises(FormatError):
            Vocabulary([VocabTerm("ab", 1, 2)])
        with pytest.raises(FormatError):
            Vocabulary([VocabTerm("ab", 0, 0)])

    def test_uppercase_in_folded(self):
        with pytest.raises(FormatError):
            Vocabulary([VocabTerm("Ab", 1, 1)], case_fold=True)
        Vocabulary([VocabTerm("Ab", 1, 1)], case_fold=False)  # fine when preserved


class TestPersistence:
    def test_round_trip(self, tmp_path):
        vocab = build_vocabulary(["phule phule gaaNe", "phulen raana"], case_fold=True)
        path = tmp_path / "vocab.tsv"
        save_vocabulary(vocab, path)
        assert load_vocabulary(path) == vocab

    def test_round_trip_preserved_case(self, tmp_path):
        vocab = build_vocabulary(["shrI gaNeshAya namaH"], case_fold=False)
        path = tmp_path / "vocab.tsv"
        save_vocabulary(vocab, path)
        loaded = load_vocabulary(path)
        assert loaded == vocab
        assert loaded.case_fold is False

    def test_file_layout(self, tmp_path):
        vocab = build_vocabulary(["cd cd ab"], case_fold=True)
        path = tmp_path / "vocab.tsv"
        save_vocabulary(vocab, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "#translit-norm-vocab v1 case_fold=true"
        assert lines[1:] == ["cd\t2\t1", "ab\t1\t1"]

    @pytest.mark.parametrize(
        "content",
        [
            "",
            "no header\nab\t1\t1",
            "#translit-norm-vocab v2 case_fold=true\nab\t1\t1",
            "#translit-norm-vocab v1 case_fold=maybe\nab\t1\t1",
            "#translit-norm-vocab v1 case_fold=true\nab\tx\t1",
            "#translit-norm-vocab v1 case_fold=true\nab\t1\t-1",
            "#translit-norm-vocab v1 case_fold=true\nab\t1",
            "#translit-norm-vocab v1 case_fold=true\nab\t1\t1\nab\t2\t1",
            "#translit-norm-vocab v1 case_fold=true\na\t1\t1",
            "#translit-norm-vocab v1 case_fold=true\nab\t1\t2",
            "#translit-norm-vocab v1 case_fold=true\nab\t\u00b2\t1",
            "#translit-norm-vocab v1 case_fold=true\nab\t\u0661\u0662\t1",
        ],
    )
    def test_malformed_files(self, tmp_path, content):
        path = tmp_path / "vocab.tsv"
        path.write_text(content, encoding="utf-8")
        with pytest.raises(FormatError):
            load_vocabulary(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_vocabulary(tmp_path / "absent.tsv")

    @given(
        freqs=st.dictionaries(
            st.text(alphabet="abcdefgh", min_size=2, max_size=8),
            st.integers(min_value=1, max_value=50),
            min_size=1,
            max_size=30,
        )
    )
    def test_round_trip_random(self, tmp_path_factory, freqs):
        vocab = Vocabulary(
            (VocabTerm(t, f, 1) for t, f in freqs.items()), case_fold=True
        )
        path = tmp_path_factory.mktemp("rt") / "vocab.tsv"
        save_vocabulary(vocab, path)
        assert load_vocabulary(path) == vocab


class TestLoadCorpus:
    def test_reads_regular_files(self, tmp_path):
        (tmp_path / "b.txt").write_text("dusraa")
        (tmp_path / "a.txt").write_text("pahilaa")
        (tmp_path / "sub").mkdir()
        docs = load_corpus(tmp_path)
        assert docs == ["pahilaa", "dusraa"]

    def test_missing_directory(self, tmp_path):
        with pytest.raises(OSError):
            load_corpus(tmp_path / "nope")
