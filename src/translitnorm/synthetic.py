"""Deterministic synthetic corpus and gold-set generation.

Produces transliteration-flavored pseudo-words (syllable = onset + vowel,
optionally a coda), assembles them into small documents with verse markers,
and derives gold pairs by corrupting vocabulary terms with the noise
classes seen in free-style romanization: character substitution, deletion,
insertion, vowel swaps and digraph swaps such as ph/f. Everything is driven
by explicit seeds, so the bundled data set is reproducible.

Regenerate the bundled data with ``python -m translitnorm.synthetic --dest data``.
"""

from __future__ import annotations

import argparse
import random
from pathlib import Path

from .evaluation import GoldPair
from .vocabulary import Vocabulary, build_vocabulary

__all__ = [
    "corpus_documents",
    "corrupt_term",
    "gold_pairs",
    "word_pool",
    "write_dataset",
]

_ONSETS = (
    "k kh g gh ch chh j jh T Th D Dh N t th d dh n p ph b bh m y r l v w s sh "
    "Sh h f kr pr tr shr sv dny gn"
).split()
_NUCLEI = "a aa A i ii I u uu U e ai o au".split()
_CODAS = ["", "", "", "", "n", "m", "r", "l", "t", "k", "sh", "nt", "nd"]

_LOWER = "abcdefghijklmnopqrstuvwxyz"
_VOWELS = "aeiou"
_DIGRAPH_SWAPS = (
    ("ph", "f"),
    ("f", "ph"),
    ("v", "w"),
    ("w", "v"),
    ("sh", "s"),
    ("s", "sh"),
)

DEFAULT_DOCS = 56
DEFAULT_POOL = 2600
CORPUS_SEED = 731
GOLD_SEED_SMALL = 1109
GOLD_SEED_LARGE = 2317


def _word(rng: random.Random) -> str:
    syllables = rng.choices((1, 2, 3), weights=(2, 5, 3))[0]
    parts = []
    for _ in range(syllables):
        parts.append(rng.choice(_ONSETS))
        parts.append(rng.choice(_NUCLEI))
    parts.append(rng.choice(_CODAS))
    return "".join(parts)


def word_pool(seed: int = CORPUS_SEED, size: int = DEFAULT_POOL) -> list[str]:
    """Distinct pseudo-words; distinct even after case folding."""
    rng = random.Random(seed)
    seen: set[str] = set()
    pool: list[str] = []
    while len(pool) < size:
        word = _word(rng)
        folded = word.lower()
        if folded not in seen:
            seen.add(folded)
            pool.append(word)
    return pool


def corpus_documents(
    n_docs: int = DEFAULT_DOCS,
    pool_size: int = DEFAULT_POOL,
    seed: int = CORPUS_SEED,
) -> list[str]:
    """Document texts covering the whole word pool, with skewed repetition."""
    pool = word_pool(seed, pool_size)
    rng = random.Random(seed + 1)
    weights = [1.0 / (rank + 1) for rank in range(pool_size)]
    per_doc = -(-pool_size // n_docs)  # ceiling: every pool word appears somewhere
    documents = []
    for doc_index in range(n_docs):
        words = pool[doc_index * per_doc : (doc_index + 1) * per_doc]
        words = words + rng.choices(pool, weights=weights, k=140)
        rng.shuffle(words)
        lines = []
        verse = 1
        for start in range(0, len(words), 6):
            lines.append(" ".join(words[start : start + 6]))
            if (start // 6) % 4 == 3:
                lines.append(f"|| {doc_index + 1}.{verse} ||")
                verse += 1
        documents.append("\n".join(lines) + "\n")
    return documents


def corrupt_term(term: str, rng: random.Random) -> str:
    """One random corruption of ``term``; always differs from the input."""
    while True:
        op = rng.choice(("substitute", "delete", "insert", "vowel", "digraph"))
        result = term
        if op == "substitute":
            pos = rng.randrange(len(term))
            repl = rng.choice(_LOWER)
            result = term[:pos] + repl + term[pos + 1 :]
        elif op == "delete" and len(term) > 2:
            pos = rng.randrange(len(term))
            result = term[:pos] + term[pos + 1 :]
        elif op == "insert":
            pos = rng.randrange(len(term) + 1)
            result = term[:pos] + rng.choice(_LOWER) + term[pos:]
        elif op == "vowel":
            spots = [i for i, ch in enumerate(term) if ch in _VOWELS]
            if spots:
                pos = rng.choice(spots)
                repl = rng.choice([v for v in _VOWELS if v != term[pos]])
                result = term[:pos] + repl + term[pos + 1 :]
        elif op == "digraph":
            options = [(a, b) for a, b in _DIGRAPH_SWAPS if a in term]
            if options:
                a, b = rng.choice(options)
                pos = rng.randrange(term.count(a))
                idx = -1
                for _ in range(pos + 1):
                    idx = term.index(a, idx + 1)
                result = term[:idx] + b + term[idx + len(a) :]
        if result != term and len(result) >= 2:
            return result


def gold_pairs(
    vocab: Vocabulary, count: int, seed: int, min_len: int = 4
) -> list[GoldPair]:
    """Seeded (noisy, gold) pairs whose noisy side is genuinely out of vocabulary."""
    rng = random.Random(seed)
    eligible = [term for term in vocab.terms() if len(term) >= min_len]
    if not eligible:
        raise ValueError("vocabulary holds no terms long enough to corrupt")
    pairs: list[GoldPair] = []
    seen_noisy: set[str] = set()
    while len(pairs) < count:
        gold = rng.choice(eligible)
        noisy = corrupt_term(gold, rng)
        if noisy in vocab or noisy in seen_noisy:
            continue
        seen_noisy.add(noisy)
        pairs.append(GoldPair(noisy, gold))
    return pairs


def write_dataset(dest: str | Path, n_docs: int = DEFAULT_DOCS, pool_size: int = DEFAULT_POOL) -> None:
    """Write the bundled corpus and the two gold files under ``dest``."""
    root = Path(dest)
    corpus_dir = root / "corpus"
    corpus_dir.mkdir(parents=True, exist_ok=True)
    documents = corpus_documents(n_docs, pool_size)
    for index, text in enumerate(documents):
        (corpus_dir / f"doc_{index:03d}.txt").write_text(text, encoding="utf-8")
    vocab = build_vocabulary(documents, case_fold=True)
    for name, count, seed in (
        ("gold_small.tsv", 56, GOLD_SEED_SMALL),
        ("gold_large.tsv", 68, GOLD_SEED_LARGE),
    ):
        lines = [f"# synthetic gold pairs: noisy<TAB>gold, seed={seed}"]
        lines.extend(f"{p.noisy}\t{p.gold}" for p in gold_pairs(vocab, count, seed))
        (root / name).write_text("\n".join(lines) + "\n", encoding="utf-8")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="regenerate the bundled data set")
    parser.add_argument("--dest", default="data")
    parser.add_argument("--docs", type=int, default=DEFAULT_DOCS)
    parser.add_argument("--pool", type=int, default=DEFAULT_POOL)
    args = parser.parse_args(argv)
    write_dataset(args.dest, args.docs, args.pool)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
