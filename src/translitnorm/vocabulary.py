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
from itertools import compress
from operator import attrgetter, eq, ge, lt
from pathlib import Path

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
# A whole vocabulary file body, one row per line; the case of terms is left
# to the vocabulary's own checks. The possessive repeats keep no backtracking
# state: a greedy outer one holds about 13 MB for 50k rows.
_BODY_RE = re.compile(r"(?:[A-Za-z]{2,}+\t[0-9]++\t[0-9]++\n)*+")


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
    """Immutable set of normal terms with a length-bucket index.

    Terms are stored as columns in the canonical order (most frequent
    first, ties alphabetical): terms, frequencies and document counts, a
    ``term -> row`` dict, and per length one tuple of terms and the same
    terms joined into one ASCII byte string. ``terms()``, ``bucket()`` and
    ``bucket_codes()`` hand out the stored objects; ``lookup()`` builds the
    one ``VocabTerm`` that carries a term's counts. Everything is built in
    the constructor, and no method changes it.
    """

    def __init__(self, terms: Iterable[VocabTerm], case_fold: bool = True) -> None:
        items = list(terms)
        self._fill(
            list(map(attrgetter("term"), items)),
            list(map(attrgetter("frequency"), items)),
            list(map(attrgetter("doc_count"), items)),
            case_fold,
        )

    @classmethod
    def _from_columns(
        cls, terms: list[str], freqs: list[int], docs: list[int], case_fold: bool
    ) -> Vocabulary:
        vocab = cls.__new__(cls)
        vocab._fill(terms, freqs, docs, case_fold)
        return vocab

    def _fill(
        self, terms: list[str], freqs: list[int], docs: list[int], case_fold: bool
    ) -> None:
        # Every constructor ends here: whole-column checks that run in C, and
        # the per-term loop only to word the first error when one fails. Row
        # numbers, not (frequency, doc_count) tuples, keep the garbage
        # collector out of the load.
        size = len(terms)
        letters = "".join(terms)
        if not (
            letters.isascii()
            and letters.isalpha()
            # ASCII letters: one lower() pass, no per-character case lookups
            and (not case_fold or letters == letters.lower())
            and min(docs, default=1) >= 1
            and all(map(ge, freqs, docs))
        ):
            _check_terms(terms, freqs, docs, case_fold)
        columns = terms, freqs, docs
        if not _in_canonical_order(terms, freqs):
            # two stable sorts of row numbers: by term, then by descending frequency
            order = sorted(range(size), key=terms.__getitem__)
            order.sort(key=freqs.__getitem__, reverse=True)
            columns = [list(map(column.__getitem__, order)) for column in columns]
        rows = dict(zip(columns[0], range(size)))
        self._terms, self._freqs, self._docs = tuple(columns[0]), columns[1], columns[2]
        buckets: dict[int, list[str]] = {}
        for term in self._terms:
            buckets.setdefault(len(term), []).append(term)
        if len(rows) < size or min(buckets, default=2) < 2:
            _check_terms(terms, freqs, docs, case_fold)  # words the first duplicate or short term
        self.case_fold = case_fold
        self._rows = rows
        self._buckets = {length: tuple(b) for length, b in buckets.items()}
        # one byte per character is exact: every term is ASCII letters
        self._codes = {length: "".join(b).encode("ascii") for length, b in buckets.items()}

    def __len__(self) -> int:
        return len(self._terms)

    def __contains__(self, term: str) -> bool:
        return self.fold(term) in self._rows

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Vocabulary):
            return NotImplemented
        # the canonical order is a function of the term set, so equal
        # vocabularies have equal columns
        return (
            self.case_fold == other.case_fold
            and self._terms == other._terms
            and self._freqs == other._freqs
            and self._docs == other._docs
        )

    __hash__ = None  # mutable-equality semantics, like a dict

    def fold(self, term: str) -> str:
        """Apply this vocabulary's case handling to a probe term."""
        return term.lower() if self.case_fold else term

    def lookup(self, term: str) -> VocabTerm | None:
        row = self._rows.get(self.fold(term))
        if row is None:
            return None
        return VocabTerm(self._terms[row], self._freqs[row], self._docs[row])

    def terms(self) -> tuple[str, ...]:
        """All terms, most frequent first, ties alphabetical."""
        return self._terms

    def total_frequency(self) -> int:
        """Sum of all term frequencies: the number of tokens counted."""
        return sum(self._freqs)

    def bucket_lengths(self) -> list[int]:
        return sorted(self._buckets)

    def bucket(self, length: int) -> tuple[str, ...]:
        """The terms of one length, in the order of terms()."""
        return self._buckets.get(length, ())

    def bucket_codes(self, length: int) -> bytes:
        """The terms of bucket(length) joined into one ASCII byte string."""
        return self._codes.get(length, b"")


def _check_terms(
    terms: list[str], freqs: list[int], docs: list[int], case_fold: bool
) -> None:
    """Raise FormatError for the first invalid row, checks in row order."""
    seen = set()
    for term, freq, doc_count in zip(terms, freqs, docs):
        if not _TERM_RE.match(term):
            raise FormatError(f"invalid vocabulary term {term!r}")
        if case_fold and not term.islower():
            raise FormatError(
                f"case-folded vocabulary holds non-lowercase term {term!r}"
            )
        if term in seen:
            raise FormatError(f"duplicate vocabulary term {term!r}")
        if doc_count < 1 or freq < doc_count:
            raise FormatError(f"term {term!r} needs frequency >= doc_count >= 1")
        seen.add(term)


def _in_canonical_order(terms: list[str], freqs: list[int]) -> bool:
    """Most frequent first and, among equal frequencies, strictly alphabetical."""
    later = freqs[1:]
    ties = list(map(eq, freqs, later))
    return all(map(ge, freqs, later)) and all(
        map(lt, compress(terms, ties), compress(terms[1:], ties))
    )


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
    terms = list(frequency)
    freqs, docs = list(frequency.values()), list(map(doc_counts.__getitem__, terms))
    del frequency, doc_counts  # the counters go before the vocabulary is built
    return Vocabulary._from_columns(terms, freqs, docs, case_fold)


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
        f"{t}\t{f}\t{d}" for t, f, d in zip(vocab._terms, vocab._freqs, vocab._docs)
    )
    Path(destination).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_vocabulary(source: str | Path) -> Vocabulary:
    """Parse a vocabulary file written by save_vocabulary.

    Lines may end in any line break that str.splitlines knows, the last one
    may have none, and counts are ASCII decimal integers, leading zeros
    allowed. A file in the layout save_vocabulary writes, which read_text
    gives for lines that end in LF, CR LF or CR, is checked and split in one
    pass over its text. Any other is split line by line: on 50k terms that
    takes about 1.6 times as long, and its traced peak is 1.56 times the
    memory the vocabulary keeps, against 1.15 (see README).

    Raises FormatError on a bad header, malformed lines, counts that are
    not ASCII decimal integers or too long for int(), duplicate terms or
    terms shorter than 2 characters.
    """
    text = Path(source).read_text(encoding="utf-8")
    end = text.find("\n")
    # a match on the first line's copy: one on the text would keep the text alive
    header = _HEADER_RE.match(text[:end]) if end >= 0 else None
    if header is None or not _BODY_RE.fullmatch(text, end + 1):
        # another line break, no final one, or a fault to word
        lines = text.splitlines()
        del text
        if not lines:
            raise FormatError("empty vocabulary file")
        header = _HEADER_RE.match(lines[0])
        if header is None:
            raise FormatError(f"bad vocabulary header: {lines[0]!r}")
        return Vocabulary._from_columns(*_split_rows(lines[1:]), header.group(1) == "true")
    # Each copy of the file is let go before the next one is made, which
    # keeps the peak memory of a load near that of the finished vocabulary.
    fields = text.split()
    del text
    terms, freq_s, docs_s = fields[3::3], fields[4::3], fields[5::3]  # the header is three words
    del fields
    try:
        # A corpus's counts repeat (57 distinct strings among the 100k of a
        # 50k-term bench file), so each distinct string is read once. When
        # more than one in eight is distinct, the dict costs more than it saves.
        distinct = {*freq_s, *docs_s}
        read = int if 4 * len(distinct) > len(freq_s) else {s: int(s) for s in distinct}.__getitem__
        del distinct
        freqs, docs = list(map(read, freq_s)), list(map(read, docs_s))
    except ValueError:  # a count longer than int() takes; the loop names its line
        _split_rows(map("\t".join, zip(terms, freq_s, docs_s)))
        raise
    del freq_s, docs_s
    return Vocabulary._from_columns(terms, freqs, docs, header.group(1) == "true")


def _split_rows(rows: Iterable[str]) -> tuple[list[str], list[int], list[int]]:
    """Split file rows into columns, raising FormatError at the first bad line."""
    terms, freqs, docs = [], [], []
    for lineno, line in enumerate(rows, 2):
        parts = line.split("\t")
        if len(parts) != 3:
            raise FormatError(f"line {lineno}: expected term, frequency, doc_count")
        term, freq_s, docs_s = parts
        # isdigit() alone admits non-ASCII digits, which int() rejects ("²") or reads ("١٢")
        if not (freq_s.isascii() and docs_s.isascii() and freq_s.isdigit() and docs_s.isdigit()):
            raise FormatError(f"line {lineno}: non-integer count")
        try:
            freqs.append(int(freq_s))
            docs.append(int(docs_s))
        except ValueError:  # more digits than sys.get_int_max_str_digits() allows
            raise FormatError(f"line {lineno}: count too large") from None
        terms.append(term)
    return terms, freqs, docs
