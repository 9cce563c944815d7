from __future__ import annotations

import os
import random
import signal
import string
import subprocess
import sys
from pathlib import Path

import pytest

from translitnorm import build_vocabulary, load_corpus, load_gold_set
from translitnorm.synthetic import (
    corpus_documents,
    corrupt_term,
    gold_pairs,
    word_pool,
    write_dataset,
)

DATA_DIR = Path(__file__).resolve().parent.parent / "data"
SRC = Path(__file__).resolve().parent.parent / "src"


class TestGenerators:
    def test_word_pool_distinct_after_folding(self):
        pool = word_pool(seed=3, size=500)
        folded = [w.lower() for w in pool]
        assert len(set(folded)) == 500
        assert all(len(w) >= 2 for w in pool)

    def test_determinism(self):
        assert corpus_documents(pool_size=300, seed=5) == corpus_documents(pool_size=300, seed=5)
        assert word_pool(seed=9, size=50) != word_pool(seed=10, size=50)

    def test_corrupt_always_changes(self):
        rng = random.Random(17)
        for _ in range(500):
            term = random.Random(rng.random()).choice(word_pool(seed=2, size=40)).lower()
            noisy = corrupt_term(term, rng)
            assert noisy != term
            assert len(noisy) >= 2

    def test_gold_pairs_are_noisy_and_resolvable(self):
        docs = corpus_documents(pool_size=400, seed=21)
        vocab = build_vocabulary(docs)
        pairs = gold_pairs(vocab, 30, seed=4)
        assert len(pairs) == 30
        assert len({p.noisy for p in pairs}) == 30
        for pair in pairs:
            assert pair.noisy not in vocab
            assert pair.gold in vocab


class TestGoldPairsSupply:
    """A one-term vocabulary has a known, finite set of corruptions."""

    @staticmethod
    def _corruptions(term):
        letters = string.ascii_lowercase
        edits = {term[:i] + c + term[i + 1 :] for i in range(len(term)) for c in letters}
        edits |= {term[:i] + term[i + 1 :] for i in range(len(term))}
        edits |= {term[:i] + c + term[i:] for i in range(len(term) + 1) for c in letters}
        return edits - {term}

    @pytest.mark.parametrize("seed", range(3))
    def test_every_corruption_can_be_drawn(self, seed):
        vocab = build_vocabulary(["abcd"])
        want = self._corruptions("abcd")
        assert len(want) == 230  # 100 substitutions, 4 deletions, 126 insertions
        pairs = gold_pairs(vocab, 230, seed)
        assert {p.noisy for p in pairs} == want
        assert len(pairs) == 230 and {p.gold for p in pairs} == {"abcd"}

    def test_more_than_available_raises(self):
        def hang(signum, frame):
            raise TimeoutError("gold_pairs did not return")

        previous = signal.signal(signal.SIGALRM, hang)
        signal.alarm(10)
        try:
            with pytest.raises(ValueError, match="230 of 231"):
                gold_pairs(build_vocabulary(["abcd"]), 231, 0)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)


class TestBundledData:
    def test_corpus_size(self):
        docs = load_corpus(DATA_DIR / "corpus")
        assert len(docs) >= 50
        vocab = build_vocabulary(docs)
        assert len(vocab) >= 2000

    @pytest.mark.parametrize(("name", "expected"), [("gold_small.tsv", 56), ("gold_large.tsv", 68)])
    def test_gold_files(self, name, expected):
        vocab = build_vocabulary(load_corpus(DATA_DIR / "corpus"))
        pairs = load_gold_set(DATA_DIR / name)
        assert len(pairs) == expected
        assert all(p.noisy not in vocab and p.gold in vocab for p in pairs)

    def test_regeneration_is_byte_identical(self, tmp_path):
        write_dataset(tmp_path)
        names = sorted(p.name for p in (DATA_DIR / "corpus").iterdir())
        assert sorted(p.name for p in (tmp_path / "corpus").iterdir()) == names
        files = [f"corpus/{name}" for name in names]
        for rel in files + ["gold_small.tsv", "gold_large.tsv"]:
            assert (tmp_path / rel).read_bytes() == (DATA_DIR / rel).read_bytes(), rel


class TestCommandLine:
    @pytest.mark.parametrize(
        ("args", "dest_is_file"),
        [([], True)],
        ids=["dest-is-a-file"],
    )
    def test_bad_input_is_one_error_line(self, tmp_path, args, dest_is_file):
        dest = tmp_path / "out"
        if dest_is_file:
            dest.write_text("")
        path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-m", "translitnorm.synthetic", "--dest", str(dest), *args],
            env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 1
        assert done.stdout == ""
        assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1
        assert "Traceback" not in done.stderr
        assert dest.is_file() if dest_is_file else not dest.exists()  # nothing written
