from __future__ import annotations

import gc
import random
import tracemalloc

import pytest
from hypothesis import example, given
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
    synthetic,
    tokenize,
    vocabulary,
)

from helpers import (
    MALFORMED_VOCABULARIES,
    UNUSUAL_VOCABULARIES,
    naive_check_terms,
    naive_load_vocabulary,
)


def _entries(vocab, terms):
    """The VocabTerm of each term, in the given order, through lookup()."""
    return [vocab.lookup(term) for term in terms]


# every line break str.splitlines knows; "\n" is drawn most often
_BREAKS = ["\n"] * 8 + ["\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
_FAULTS = [None] * 6 + [
    "duplicate", "capital", "short term", "digit in term", "zero doc_count",
    "frequency below doc_count", "two fields", "four fields", "empty count",
    "Unicode digit", "space", "tab in term", "accented letter",
]


# Mostly valid rows: terms of two or more letters, frequency >= doc_count >= 1.
# One draw in four takes a bad term, and one in four bad counts.
_vocab_terms = st.builds(
    lambda term, counts: VocabTerm(term, *counts),
    st.one_of(
        *[st.text("abAB", min_size=2, max_size=4)] * 3,
        st.sampled_from(["a", "b1", "", "a b", "ab\ncd", "\u00e9a", "\u0430b"]),
    ),
    st.one_of(
        *[st.tuples(st.integers(1, 3), st.integers(0, 2)).map(lambda d: (sum(d), d[0]))] * 3,
        st.tuples(st.integers(0, 2), st.integers(0, 3)),
    ),
)


@st.composite
def vocabulary_files(draw):
    """Text of a vocabulary file with at most one fault, and the fault's name.

    Rows are random terms with consistent counts, either in the canonical
    order save_vocabulary writes or unsorted; line breaks are drawn per
    line and the final one may be missing.
    """
    case_fold = draw(st.booleans())
    letters = "abcde" if case_fold else "abcDE"
    terms = draw(st.lists(st.text(letters, min_size=2, max_size=7), unique=True, max_size=30))
    rows = []
    for term in terms:
        docs = draw(st.integers(1, 3))
        rows.append([term, str(docs + draw(st.integers(0, 3))), str(docs)])
    if draw(st.booleans()):
        rows.sort(key=lambda row: (-int(row[1]), row[0]))
    fault = draw(st.sampled_from(_FAULTS)) if rows else None
    if fault == "duplicate":
        # a copy of an early row, placed far down the file
        source = rows[draw(st.integers(0, (len(rows) - 1) // 3))]
        rows.insert(draw(st.integers(len(rows) * 2 // 3, len(rows))), list(source))
    elif fault is not None:
        row = rows[draw(st.integers(0, len(rows) - 1))]
        if fault == "capital":
            row[0] = row[0][:-1] + row[0][-1].upper()
        elif fault == "short term":
            row[0] = row[0][0]
        elif fault == "digit in term":
            row[0] += "7"
        elif fault == "zero doc_count":
            row[2] = "0"
        elif fault == "frequency below doc_count":
            row[1], row[2] = "1", "2"
        elif fault == "two fields":
            del row[2]
        elif fault == "four fields":
            row.append("1")
        elif fault == "empty count":
            row[1] = ""
        elif fault == "Unicode digit":
            row[2] = "\u0661"
        elif fault == "space":
            row[0] = row[0][:1] + " " + row[0][1:]
        elif fault == "accented letter":
            row[0] = row[0][:1] + "\u00e9" + row[0][1:]
        else:
            row[0] = row[0][:1] + "\t" + row[0][1:]
    flag = "true" if case_fold else "false"
    lines = [f"#translit-norm-vocab v1 case_fold={flag}", *map("\t".join, rows)]
    breaks = draw(st.lists(st.sampled_from(_BREAKS), min_size=len(lines), max_size=len(lines)))
    if not draw(st.booleans()):
        breaks[-1] = ""
    return "".join(map("".join, zip(lines, breaks))), fault


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
        assert sum(vt.frequency for vt in _entries(vocab, vocab.terms())) == emitted
        assert vocab.total_frequency() == emitted

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
            for term in vocab.bucket(length):
                assert len(term) == length
                seen.append(term)
        assert sorted(seen) == sorted(vocab.terms())

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
        assert _entries(vocab, vocab.terms()) == expected
        assert vocab.bucket_lengths() == sorted({len(w) for w in words})
        for length in vocab.bucket_lengths():
            assert _entries(vocab, vocab.bucket(length)) == [
                vt for vt in expected if len(vt.term) == length
            ]

    def test_terms_and_bucket_are_stored_tuples(self):
        vocab = build_vocabulary(["abc abd xyz xyz"])
        assert vocab.terms() == ("xyz", "abc", "abd")
        assert vocab.bucket(3) == ("xyz", "abc", "abd")
        assert vocab.bucket(4) == ()
        assert vocab.terms() is vocab.terms()
        assert vocab.bucket(3) is vocab.bucket(3)
        assert all(type(term) is str for term in vocab.terms())

    def test_bucket_codes_mirror_bucket(self):
        vocab = build_vocabulary(["abc Abd xyz XYZ ab AB Ba abcdefg abcd ABCD"], case_fold=False)
        assert vocab.bucket_lengths() == [2, 3, 4, 7]
        for length in vocab.bucket_lengths():
            assert vocab.bucket_codes(length) == "".join(vocab.bucket(length)).encode()
        assert vocab.bucket_codes(5) == b""


# Term and frequency columns: mostly in canonical order, with few distinct
# frequencies so that runs of equal frequency are long; some have one adjacent
# pair swapped or one term repeated, some are left unsorted.
@st.composite
def _ordered_columns(draw):
    rows = draw(st.lists(st.tuples(st.integers(1, 3), st.text("abc", min_size=2, max_size=3)), max_size=40))
    kind = draw(st.sampled_from(["sorted", "swapped", "repeated", "unsorted"]))
    if kind != "unsorted":
        rows = sorted(set(rows), key=lambda row: (-row[0], row[1]))
    if kind == "swapped" and len(rows) > 1:
        k = draw(st.integers(0, len(rows) - 2))
        rows[k], rows[k + 1] = rows[k + 1], rows[k]
    elif kind == "repeated" and rows:
        k = draw(st.integers(0, len(rows) - 1))
        rows.insert(k, rows[k])
    return [term for _, term in rows], [freq for freq, _ in rows]


class TestCanonicalOrder:
    @given(columns=_ordered_columns())
    @example(columns=([], []))
    @example(columns=(["ab"], [1]))
    @example(columns=([f"a{c}" for c in "bcdefghijklmnopqrstuvwxyz"], [1] * 25))
    @example(columns=([f"a{c}" for c in "bcdefghijklmnopqrstuvwxzy"], [1] * 25))  # last pair of a long run
    @example(columns=(["zz", "ab", "ac", "ad"], [2, 1, 1, 1]))
    @example(columns=(["zz", "ab", "ad", "ac"], [2, 1, 1, 1]))  # the run at the end
    @example(columns=(["ab", "ac", "ac"], [2, 1, 1]))
    @example(columns=(["ac", "ab"], [2, 1]))
    @example(columns=(["ab", "ac"], [1, 2]))
    def test_matches_naive_rule(self, columns):
        terms, freqs = columns
        keys = [(-freq, term) for term, freq in zip(terms, freqs)]
        expected = all(a < b for a, b in zip(keys, keys[1:]))
        assert vocabulary._in_canonical_order(terms, freqs) is expected
        assert vocabulary._in_canonical_order(tuple(terms), freqs) is expected


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

    @given(rows=st.lists(_vocab_terms, max_size=20), case_fold=st.booleans())
    @example(rows=[VocabTerm("ab", 1, 1), VocabTerm("\u00e9a", 1, 1)], case_fold=True)
    @example(rows=[VocabTerm("\u0430b", 2, 1)], case_fold=False)
    @example(rows=[VocabTerm("ab\ncd", 1, 1)], case_fold=True)
    def test_matches_reference(self, rows, case_fold):
        try:
            expected = naive_check_terms(rows, case_fold)
        except FormatError as exc:
            with pytest.raises(FormatError) as err:
                Vocabulary(rows, case_fold)
            assert str(err.value) == str(exc)
            return
        vocab = Vocabulary(rows, case_fold)
        assert _entries(vocab, vocab.terms()) == expected
        for length in vocab.bucket_lengths():
            assert _entries(vocab, vocab.bucket(length)) == [
                vt for vt in expected if len(vt.term) == length
            ]


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

    @pytest.mark.parametrize("content", [content for content, _ in MALFORMED_VOCABULARIES])
    def test_malformed_files(self, tmp_path, content):
        path = tmp_path / "vocab.tsv"
        path.write_text(content, encoding="utf-8")
        with pytest.raises(FormatError):
            load_vocabulary(path)

    @given(drawn=vocabulary_files())
    @example(drawn=("#translit-norm-vocab v1 case_fold=true\n", None))
    @example(drawn=("#translit-norm-vocab v1 case_fold=false", None))
    @example(drawn=("#translit-norm-vocab v1 case_fold=true\r\nab\t2\t1\r\ncd\t2\t1\r\n", None))
    def test_load_matches_reference(self, tmp_path_factory, drawn):
        text, fault = drawn
        path = tmp_path_factory.mktemp("load") / "vocab.tsv"
        path.write_text(text, encoding="utf-8", newline="")
        try:
            case_fold, expected = naive_load_vocabulary(path)
        except FormatError as exc:
            with pytest.raises(FormatError) as err:
                load_vocabulary(path)
            assert str(err.value) == str(exc)
            return
        assert fault is None or (fault == "capital" and not case_fold)
        vocab = load_vocabulary(path)
        assert vocab.case_fold is case_fold
        assert len(vocab) == len(expected)
        assert _entries(vocab, vocab.terms()) == expected
        lengths = sorted({len(vt.term) for vt in expected})
        assert vocab.bucket_lengths() == lengths
        for length in lengths:
            assert _entries(vocab, vocab.bucket(length)) == [
                vt for vt in expected if len(vt.term) == length
            ]

    def test_no_vocab_terms_built(self, tmp_path, monkeypatch):
        # load, build, save, terms() and bucket() work on columns; only
        # lookup() makes a VocabTerm
        vocab = build_vocabulary(["phule phule gaaNe", "phulen raana"])
        path = tmp_path / "vocab.tsv"
        save_vocabulary(vocab, path)

        def refuse(*args):
            raise AssertionError("a VocabTerm was built")

        monkeypatch.setattr(vocabulary, "VocabTerm", refuse)
        assert load_vocabulary(path) == build_vocabulary(["phule phule gaaNe", "phulen raana"])
        save_vocabulary(load_vocabulary(path), tmp_path / "again.tsv")
        assert vocab.total_frequency() == 5
        assert vocab.terms() == ("phule", "gaane", "phulen", "raana")
        assert vocab.bucket(6) == ("phulen",)

    @pytest.mark.parametrize("content,expected", UNUSUAL_VOCABULARIES)
    def test_unusual_files(self, tmp_path, content, expected):
        path = tmp_path / "vocab.tsv"
        path.write_text(content, encoding="utf-8", newline="")
        if isinstance(expected, str):
            with pytest.raises(FormatError) as err:
                load_vocabulary(path)
            assert str(err.value) == expected
            return
        case_fold, rows = expected
        vocab = load_vocabulary(path)
        assert vocab.case_fold is case_fold
        assert _entries(vocab, vocab.terms()) == [VocabTerm(*row) for row in rows]
        assert naive_load_vocabulary(path) == (case_fold, [VocabTerm(*row) for row in rows])

    def test_load_peak_memory(self, tmp_path):
        # Peak traced memory as a multiple of what the vocabulary keeps: about
        # 1.17 for this load. A load that splits the file into lines first
        # reads 1.26 here and 1.23 on 50k terms, the bound; one that holds
        # the file text and a copy of its body together reads 1.25.
        path = tmp_path / "vocab.tsv"
        save_vocabulary(build_vocabulary(synthetic.corpus_documents(pool_size=20_000, seed=18)), path)
        gc.collect()
        tracemalloc.start()
        try:
            vocab = load_vocabulary(path)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(vocab) == 20_000
        assert peak <= 1.23 * retained

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
