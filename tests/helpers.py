"""Independent reference implementations used only by the test suite.

Nothing here shares scan, pruning or scoring code with the package paths
it checks: the oracle distance is the plain recursion on suffixes, and the
reference ranker walks the whole vocabulary with the unbounded distance
and re-derives thresholds and scores from first principles.
"""

from __future__ import annotations

import random
import re
import string
from fractions import Fraction
from pathlib import Path

from translitnorm import (
    CharRule,
    FormatError,
    Formula,
    LengthRule,
    ModelConfig,
    TermTooShortError,
    VocabTerm,
    Vocabulary,
    levenshtein,
)

_VOWELS = set("aeiou")


def recursive_distance(a: str, b: str, memo: dict | None = None) -> int:
    """Textbook recursion on string suffixes, memoized across calls.

    min(insert, delete, substitute) with unit costs; the memo may be
    shared between calls so exhaustive sweeps stay affordable.
    """
    if memo is None:
        memo = {}

    def rec(x: str, y: str) -> int:
        if not x:
            return len(y)
        if not y:
            return len(x)
        key = (x, y)
        hit = memo.get(key)
        if hit is not None:
            return hit
        value = min(
            rec(x[1:], y) + 1,
            rec(x, y[1:]) + 1,
            rec(x[1:], y[1:]) + (x[0] != y[0]),
        )
        memo[key] = value
        return value

    return rec(a, b)


def _reference_effective_length(vocab_len: int, query_len: int, rule: LengthRule) -> Fraction:
    if rule is LengthRule.LONGEST:
        return Fraction(max(vocab_len, query_len))
    if rule is LengthRule.AVERAGE:
        return Fraction(vocab_len + query_len, 2)
    return Fraction(vocab_len)


def _reference_last_consonant(term: str) -> str | None:
    for ch in reversed(term):
        if ch.lower() not in _VOWELS:
            return ch
    return None


def _reference_pruning(query: str, vocab_term: str, config: ModelConfig) -> Fraction:
    if not config.char_rules:
        return Fraction(1)
    w = config.weights
    total = Fraction(0)
    if CharRule.FIRST_CHAR in config.char_rules:
        total += Fraction(w.wt1) if query[0] == vocab_term[0] else Fraction(w.wt2)
    if CharRule.SECOND_CHAR in config.char_rules:
        total += Fraction(w.wt2) if query[1] == vocab_term[1] else Fraction(w.wt3)
    if CharRule.LAST_CONSONANT in config.char_rules:
        cq, cv = _reference_last_consonant(query), _reference_last_consonant(vocab_term)
        total += Fraction(w.wt4) if cq is not None and cq == cv else Fraction(w.wt5)
    return total


def _reference_score(prun: Fraction, ed: int, length: Fraction, formula: Formula) -> Fraction:
    if formula is Formula.UNWEIGHTED:
        return 1 - Fraction(ed) / length
    if formula is Formula.SMOOTHED:
        return prun - Fraction(ed - 1) / length
    return prun - Fraction(ed) / length


def naive_normalize(
    term: str, vocab: Vocabulary, config: ModelConfig, top_k: int = 10
) -> list[tuple[str, int, float, float, Fraction]]:
    """Full-vocabulary scan with unbounded distances; no prefilter, no band.

    Returns (term, edit_distance, pruning_weight, proxy_weight,
    effective_length) rows in ranked order, for comparison against the
    production path.
    """
    return naive_normalize_many(term, vocab, [config], top_k)[0]


def naive_normalize_many(
    term: str, vocab: Vocabulary, configs: list[ModelConfig], top_k: int = 10
) -> list[list[tuple[str, int, float, float, Fraction]]]:
    """naive_normalize once per config, with each distance computed once."""
    probe = vocab.fold(term)
    if len(probe) < 2:
        raise TermTooShortError(term)
    query_len = len(probe)
    if probe in vocab:
        length = Fraction(query_len)
        exact = []
        for config in configs:
            prun = _reference_pruning(probe, probe, config)
            score = _reference_score(prun, 0, length, config.formula)
            exact.append([(probe, 0, float(prun), float(score), length)])
        return exact
    distances = [(vocab_term, levenshtein(probe, vocab_term)) for vocab_term in vocab.terms()]
    ranked = []
    for config in configs:
        rule = config.length_rule
        lengths: dict[int, Fraction] = {}  # vocabulary term length -> effective length
        rows = []
        for vocab_term, ed in distances:
            vocab_len = len(vocab_term)
            if vocab_len <= 1 or query_len <= 1:
                continue
            if rule is LengthRule.VOCAB_LONGER and vocab_len <= query_len:
                continue
            if vocab_len not in lengths:
                lengths[vocab_len] = _reference_effective_length(vocab_len, query_len, rule)
            length = lengths[vocab_len]
            if 2 * ed >= length:
                continue
            prun = _reference_pruning(probe, vocab_term, config)
            score = _reference_score(prun, ed, length, config.formula)
            frequency = vocab.lookup(vocab_term).frequency
            rows.append((-score, ed, -frequency, vocab_term, prun, length))
        rows.sort(key=lambda row: row[:4])
        ranked.append([
            (term_, ed, float(prun), float(-neg), length)
            for neg, ed, _, term_, prun, length in rows[:top_k]
        ])
    return ranked


def candidate_rows(candidates) -> list[tuple[str, int, float, float, Fraction]]:
    """Project package Candidates onto the reference row shape."""
    return [
        (c.term, c.edit_distance, c.pruning_weight, c.proxy_weight, c.effective_length)
        for c in candidates
    ]


def random_vocabulary(
    rng: random.Random,
    size: int,
    min_len: int = 2,
    max_len: int = 12,
    alphabet: str = string.ascii_lowercase[:10],
) -> Vocabulary:
    """Random lowercase vocabulary with varied frequencies."""
    terms: dict[str, int] = {}
    while len(terms) < size:
        length = rng.randint(min_len, max_len)
        word = "".join(rng.choice(alphabet) for _ in range(length))
        if word not in terms:
            terms[word] = rng.randint(1, 40)
    return Vocabulary(
        (VocabTerm(w, f, 1) for w, f in terms.items()), case_fold=True
    )


def random_query(rng: random.Random, vocab: Vocabulary) -> str:
    """Either a light corruption of a vocabulary term or a random string."""
    if rng.random() < 0.7:
        base = rng.choice(vocab.terms())
        ops = rng.randint(1, 2)
        word = base
        for _ in range(ops):
            kind = rng.choice(("sub", "del", "ins"))
            pos = rng.randrange(len(word)) if word else 0
            ch = rng.choice("abcdefghij")
            if kind == "sub" and word:
                word = word[:pos] + ch + word[pos + 1 :]
            elif kind == "del" and len(word) > 2:
                word = word[:pos] + word[pos + 1 :]
            else:
                word = word[:pos] + ch + word[pos:]
        return word
    length = rng.randint(2, 12)
    return "".join(rng.choice("abcdefghij") for _ in range(length))


# Malformed vocabulary files and the FormatError message each one raises.
MALFORMED_VOCABULARIES = [
    ("", "empty vocabulary file"),
    ("no header\nab\t1\t1", "bad vocabulary header: 'no header'"),
    (
        "#translit-norm-vocab v2 case_fold=true\nab\t1\t1",
        "bad vocabulary header: '#translit-norm-vocab v2 case_fold=true'",
    ),
    (
        "#translit-norm-vocab v1 case_fold=maybe\nab\t1\t1",
        "bad vocabulary header: '#translit-norm-vocab v1 case_fold=maybe'",
    ),
    ("#translit-norm-vocab v1 case_fold=true\nab\tx\t1", "line 2: non-integer count"),
    ("#translit-norm-vocab v1 case_fold=true\nab\t1\t-1", "line 2: non-integer count"),
    (
        "#translit-norm-vocab v1 case_fold=true\nab\t1",
        "line 2: expected term, frequency, doc_count",
    ),
    (
        "#translit-norm-vocab v1 case_fold=true\nab\t1\t1\nab\t2\t1",
        "duplicate vocabulary term 'ab'",
    ),
    ("#translit-norm-vocab v1 case_fold=true\na\t1\t1", "invalid vocabulary term 'a'"),
    (
        "#translit-norm-vocab v1 case_fold=true\nab\t1\t2",
        "term 'ab' needs frequency >= doc_count >= 1",
    ),
    ("#translit-norm-vocab v1 case_fold=true\nab\t\u00b2\t1", "line 2: non-integer count"),
    ("#translit-norm-vocab v1 case_fold=true\nab\t\u0661\u0662\t1", "line 2: non-integer count"),
    # more digits than int() reads; the second file fails the one-pass check
    (f"#translit-norm-vocab v1 case_fold=true\nab\t{'9' * 5000}\t1", "line 2: count too large"),
    (
        f"#translit-norm-vocab v1 case_fold=true\nab\t1\t1\ncd\t1\t{'9' * 5000}\nef\tx\t1",
        "line 3: count too large",
    ),
]

_HEADER = "#translit-norm-vocab v1 case_fold=true"

# Files at the edges of the loader, and what each one loads as: (case_fold,
# rows in canonical order) or the FormatError message. Most are outside the
# exact layout save_vocabulary writes; the last two repeat their counts, so
# the loader reads them through one dict of the distinct count strings.
UNUSUAL_VOCABULARIES = [
    (f"{_HEADER}\r\nab\t1\t1\r\ncd\t2\t1\r\n", (True, [("cd", 2, 1), ("ab", 1, 1)])),
    (f"{_HEADER}\rab\t1\t1\rcd\t2\t1\r", (True, [("cd", 2, 1), ("ab", 1, 1)])),
    (f"{_HEADER}\u2028ab\t1\t1\u2028cd\t2\t1\u2028", (True, [("cd", 2, 1), ("ab", 1, 1)])),
    (
        "#translit-norm-vocab v1 case_fold=false\r\nAb\t1\t1\r\nab\t1\t1\r\n",
        (False, [("Ab", 1, 1), ("ab", 1, 1)]),
    ),
    (f"{_HEADER}\nab\t1\t1\ncd\t2\t1", (True, [("cd", 2, 1), ("ab", 1, 1)])),  # no final line break
    (f"{_HEADER}\nab\t1\t1\n\n", "line 3: expected term, frequency, doc_count"),  # trailing blank line
    (f"{_HEADER}\nab\t007\t01\ncd\t7\t007\n", (True, [("ab", 7, 1), ("cd", 7, 7)])),
    (f"{_HEADER}\n", (True, [])),
    (_HEADER, (True, [])),
    (f"{_HEADER}\r\n", (True, [])),
    (f"{_HEADER}\nab\t2\t1\ncd\t1\t{'9' * 5000}\n", "line 3: count too large"),
    (f"{_HEADER}\r\nab\t2\t1\r\ncd\t{'9' * 5000}\t1\r\n", "line 3: count too large"),
    (
        _HEADER + "\n" + "".join(f"a{c}\t{'07' if c < 'i' else '7'}\t01\n" for c in "abcdefghijklmnop"),
        (True, [(f"a{c}", 7, 1) for c in "abcdefghijklmnop"]),
    ),
    (
        _HEADER + "\n" + "".join(f"a{c}\t2\t1\n" for c in "abcdefghijklmnop") + f"zz\t{'9' * 5000}\t1\n",
        "line 18: count too large",
    ),
]

_NAIVE_TERM_RE = re.compile(r"[A-Za-z]{2,}\Z")
_NAIVE_HEADER_RE = re.compile(r"#translit-norm-vocab v1 case_fold=(true|false)\Z")


def naive_check_terms(rows: list[VocabTerm], case_fold: bool) -> list[VocabTerm]:
    """Validate rows one by one and return them in canonical order.

    The per-term checks of a vocabulary, in row order: a term of two or
    more ASCII letters, lowercase when case-folded, not seen before, and
    frequency >= doc_count >= 1. Raises FormatError at the first bad row.
    """
    seen = set()
    for vt in rows:
        if not _NAIVE_TERM_RE.match(vt.term):
            raise FormatError(f"invalid vocabulary term {vt.term!r}")
        if case_fold and not vt.term.islower():
            raise FormatError(f"case-folded vocabulary holds non-lowercase term {vt.term!r}")
        if vt.term in seen:
            raise FormatError(f"duplicate vocabulary term {vt.term!r}")
        if vt.doc_count < 1 or vt.frequency < vt.doc_count:
            raise FormatError(f"term {vt.term!r} needs frequency >= doc_count >= 1")
        seen.add(vt.term)
    return sorted(rows, key=lambda vt: (-vt.frequency, vt.term))


def naive_load_vocabulary(path: str | Path) -> tuple[bool, list[VocabTerm]]:
    """Line-by-line reference parse of a vocabulary file.

    Returns (case_fold, terms in canonical order) or raises the FormatError
    a line or a term check words first: every line is checked before any
    term, as the format's first parser did.
    """
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines:
        raise FormatError("empty vocabulary file")
    header = _NAIVE_HEADER_RE.match(lines[0])
    if header is None:
        raise FormatError(f"bad vocabulary header: {lines[0]!r}")
    case_fold = header.group(1) == "true"
    rows = []
    for lineno, line in enumerate(lines[1:], 2):
        parts = line.split("\t")
        if len(parts) != 3:
            raise FormatError(f"line {lineno}: expected term, frequency, doc_count")
        term, freq_s, docs_s = parts
        if not all(ch in string.digits for ch in freq_s + docs_s) or not (freq_s and docs_s):
            raise FormatError(f"line {lineno}: non-integer count")
        rows.append(VocabTerm(term, int(freq_s), int(docs_s)))
    return case_fold, naive_check_terms(rows, case_fold)
