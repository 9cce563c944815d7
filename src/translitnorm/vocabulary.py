"""Corpus tokenization and the vocabulary of normal terms.

The vocabulary is immutable once built. Terms are indexed by length so that
a candidate scan can restrict itself to the few buckets a length rule can
admit instead of walking the whole term set.
"""

from __future__ import annotations

import re
from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass
from operator import attrgetter
from pathlib import Path

import numpy as np

from .errors import EmptyCorpusError, FormatError

__all__ = [
    "VocabTerm",
    "Vocabulary",
    "build_vocabulary",
    "load_corpus",
    "load_vocabulary",
    "save_vocabulary",
    "tokenize",
]

_TOKEN_RE = re.compile(r"[A-Za-z]{2,}")
_TERM_RE = re.compile(r"[A-Za-z]{2,}\Z")
_HEADER_RE = re.compile(r"#translit-norm-vocab v1 case_fold=(true|false)\Z")


def tokenize(text: str, case_fold: bool = True) -> list[str]:
    """Split ``text`` into ASCII-alphabetic runs of length >= 2.

    Digits, whitespace and punctuation (including transliteration markers
    such as ``~ ^ . |``) all act as separators; single letters are dropped.
    With ``case_fold`` every token is lowercased.
    """
    tokens = _TOKEN_RE.findall(text)
    if case_fold:
        return [t.lower() for t in tokens]
    return tokens


@dataclass(frozen=True, slots=True)
class VocabTerm:
    """A normal term with its corpus statistics."""

    term: str
    frequency: int
    doc_count: int


class Vocabulary:
    """Immutable set of normal terms with a length-bucket index."""

    def __init__(self, terms: Iterable[VocabTerm], case_fold: bool = True) -> None:
        by_term: dict[str, VocabTerm] = {}
        for vt in terms:
            if not _TERM_RE.match(vt.term):
                raise FormatError(f"invalid vocabulary term {vt.term!r}")
            if case_fold and not vt.term.islower():
                raise FormatError(
                    f"case-folded vocabulary holds non-lowercase term {vt.term!r}"
                )
            if vt.term in by_term:
                raise FormatError(f"duplicate vocabulary term {vt.term!r}")
            if vt.doc_count < 1 or vt.frequency < vt.doc_count:
                raise FormatError(
                    f"term {vt.term!r} needs frequency >= doc_count >= 1"
                )
            by_term[vt.term] = vt
        self.case_fold = case_fold
        self._terms = by_term
        # The canonical order, most frequent first, ties alphabetical, from two
        # stable sorts: a (-frequency, term) key tuple per term costs more,
        # mostly in garbage collection of the live key tuples.
        ordered = sorted(by_term.values(), key=attrgetter("term"))
        ordered.sort(key=attrgetter("frequency"), reverse=True)
        self._ordered = ordered
        buckets: dict[int, list[VocabTerm]] = {}
        for vt in ordered:
            buckets.setdefault(len(vt.term), []).append(vt)
        self._buckets = buckets
        self._matrices: dict[int, np.ndarray] = {}

    def __len__(self) -> int:
        return len(self._terms)

    def __contains__(self, term: str) -> bool:
        return self.fold(term) in self._terms

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Vocabulary):
            return NotImplemented
        return self.case_fold == other.case_fold and self._terms == other._terms

    __hash__ = None  # mutable-equality semantics, like a dict

    def fold(self, term: str) -> str:
        """Apply this vocabulary's case handling to a probe term."""
        return term.lower() if self.case_fold else term

    def lookup(self, term: str) -> VocabTerm | None:
        return self._terms.get(self.fold(term))

    def terms(self) -> list[VocabTerm]:
        """All terms, most frequent first, ties alphabetical."""
        return list(self._ordered)

    def bucket_lengths(self) -> list[int]:
        return sorted(self._buckets)

    def bucket(self, length: int) -> list[VocabTerm]:
        return self._buckets.get(length, [])

    def term_matrix(self, length: int) -> np.ndarray:
        """uint8 code matrix of the bucket, one row per term, cached.

        Rows follow bucket() order. Terms are ASCII by construction, so one
        byte per character is exact.
        """
        mat = self._matrices.get(length)
        if mat is None:
            bucket = self._buckets.get(length, [])
            data = "".join(vt.term for vt in bucket).encode("ascii")
            mat = np.frombuffer(data, dtype=np.uint8).reshape(len(bucket), length)
            self._matrices[length] = mat
        return mat


def build_vocabulary(documents: Iterable[str], case_fold: bool = True) -> Vocabulary:
    """Count every token of every document into a vocabulary.

    ``frequency`` is the total number of occurrences, ``doc_count`` the
    number of documents containing the term. Raises EmptyCorpusError when
    no token survives tokenization.
    """
    frequency: Counter[str] = Counter()
    doc_counts: Counter[str] = Counter()
    for text in documents:
        tokens = tokenize(text, case_fold)
        frequency.update(tokens)
        doc_counts.update(set(tokens))
    if not frequency:
        raise EmptyCorpusError("empty corpus: no tokens survived tokenization")
    return Vocabulary(
        (VocabTerm(t, n, doc_counts[t]) for t, n in frequency.items()), case_fold
    )


def load_corpus(directory: str | Path) -> list[str]:
    """Read every regular file of ``directory`` as one document."""
    root = Path(directory)
    if not root.is_dir():
        raise FileNotFoundError(f"corpus directory not found: {root}")
    return [
        path.read_text(encoding="utf-8", errors="replace")
        for path in sorted(root.iterdir())
        if path.is_file()
    ]


def save_vocabulary(vocab: Vocabulary, destination: str | Path) -> None:
    """Write the vocabulary file: header line, then term TAB freq TAB docs."""
    flag = "true" if vocab.case_fold else "false"
    lines = [f"#translit-norm-vocab v1 case_fold={flag}"]
    lines.extend(
        f"{vt.term}\t{vt.frequency}\t{vt.doc_count}" for vt in vocab.terms()
    )
    Path(destination).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_vocabulary(source: str | Path) -> Vocabulary:
    """Parse a vocabulary file written by save_vocabulary.

    Raises FormatError on a bad header, malformed lines, counts that are
    not ASCII decimal integers, duplicate terms or terms shorter than 2
    characters.
    """
    text = Path(source).read_text(encoding="utf-8")
    lines = text.splitlines()
    if not lines:
        raise FormatError("empty vocabulary file")
    header = _HEADER_RE.match(lines[0])
    if header is None:
        raise FormatError(f"bad vocabulary header: {lines[0]!r}")
    case_fold = header.group(1) == "true"
    terms = []
    for lineno, line in enumerate(lines[1:], 2):
        parts = line.split("\t")
        if len(parts) != 3:
            raise FormatError(f"line {lineno}: expected term, frequency, doc_count")
        term, freq_s, docs_s = parts
        # isdigit() alone admits non-ASCII digits, which int() rejects ("²") or reads ("١٢")
        if not (freq_s.isascii() and docs_s.isascii() and freq_s.isdigit() and docs_s.isdigit()):
            raise FormatError(f"line {lineno}: non-integer count")
        terms.append(VocabTerm(term, int(freq_s), int(docs_s)))
    return Vocabulary(terms, case_fold)
