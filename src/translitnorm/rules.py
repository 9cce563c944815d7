"""Candidate ranking rules and the four model configurations m1-m4.

A noisy query term is scored against vocabulary terms by a proxy weight:
a rule-derived pruning weight minus a length-normalized edit-distance
penalty. Threshold comparisons and scores are computed in exact rational
arithmetic and only converted to float on output, so ties and the strict
admission threshold are never at the mercy of rounding.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from enum import Enum, IntEnum
from fractions import Fraction
from pathlib import Path

import numpy as np

from .distance import levenshtein_bounded
from .errors import FormatError, TermTooShortError
from .vocabulary import Vocabulary, VocabTerm

__all__ = [
    "Candidate",
    "CharRule",
    "Formula",
    "LengthRule",
    "MODEL_IDS",
    "ModelConfig",
    "RuleWeights",
    "effective_length",
    "last_consonant",
    "load_model_config",
    "model_config",
    "normalize",
    "normalize_many",
    "proxy_weight",
    "pruning_weight",
    "qualifies",
]

VOWELS = frozenset("aeiou")

MODEL_IDS = ("m1", "m2", "m3", "m4")


class LengthRule(Enum):
    """How the length normalizer is derived from the two term lengths."""

    LONGEST = "longest"            # the longer of the two lengths
    AVERAGE = "average"            # exact arithmetic mean
    VOCAB_LONGER = "vocab-longer"  # vocabulary term length; it must be the longer one


class CharRule(Enum):
    FIRST_CHAR = "first-char"
    SECOND_CHAR = "second-char"
    LAST_CONSONANT = "last-consonant"


class Formula(IntEnum):
    """Scoring formula; the value is the code used in config files (eq=N)."""

    WEIGHTED = 1    # pruning weight minus ed/len
    SMOOTHED = 2    # pruning weight minus (ed - 1)/len, a zero-distance bonus
    UNWEIGHTED = 3  # 1 minus ed/len, ignores the pruning weight


@dataclass(frozen=True)
class RuleWeights:
    """The five tunable weights of the character-matching rules."""

    wt1: float = 0.60  # first characters match
    wt2: float = 0.40  # first characters differ / second characters match
    wt3: float = 0.20  # second characters differ
    wt4: float = 0.75  # last consonants match
    wt5: float = 0.25  # last consonants differ

    def __post_init__(self) -> None:
        for name in ("wt1", "wt2", "wt3", "wt4", "wt5"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {value}")


_CHAR_RULES_FIRST_TWO = frozenset({CharRule.FIRST_CHAR, CharRule.SECOND_CHAR})
_CHAR_RULES_ALL = frozenset(
    {CharRule.FIRST_CHAR, CharRule.SECOND_CHAR, CharRule.LAST_CONSONANT}
)

_MODEL_TABLE: dict[str, tuple[LengthRule, frozenset[CharRule], Formula]] = {
    "m1": (LengthRule.LONGEST, frozenset(), Formula.UNWEIGHTED),
    "m2": (LengthRule.AVERAGE, _CHAR_RULES_FIRST_TWO, Formula.WEIGHTED),
    "m3": (LengthRule.AVERAGE, _CHAR_RULES_ALL, Formula.WEIGHTED),
    "m4": (LengthRule.VOCAB_LONGER, _CHAR_RULES_ALL, Formula.WEIGHTED),
}


@dataclass(frozen=True)
class ModelConfig:
    """Fully determines ranking behavior: rules, formula and weights."""

    model_id: str
    length_rule: LengthRule
    char_rules: frozenset[CharRule]
    formula: Formula
    weights: RuleWeights = field(default_factory=RuleWeights)


def model_config(
    model_id: str,
    formula: Formula | int | None = None,
    weights: RuleWeights | None = None,
) -> ModelConfig:
    """Build one of the four standard model configurations.

    ``formula`` may override the scoring formula for m2-m4 (codes 1 or 2);
    m1 always uses the unweighted formula. ``weights`` replaces the default
    rule weights.
    """
    key = model_id.lower()
    if key not in _MODEL_TABLE:
        raise ValueError(f"unknown model {model_id!r}, expected one of {MODEL_IDS}")
    length_rule, char_rules, default_formula = _MODEL_TABLE[key]
    if formula is None:
        formula = default_formula
    else:
        formula = Formula(formula)
        if key == "m1" and formula is not Formula.UNWEIGHTED:
            raise ValueError("m1 admits only the unweighted formula (eq=3)")
        if key != "m1" and formula is Formula.UNWEIGHTED:
            raise ValueError(f"{key} admits only the weighted formulas (eq=1 or eq=2)")
    return ModelConfig(
        model_id=key,
        length_rule=length_rule,
        char_rules=char_rules,
        formula=formula,
        weights=weights if weights is not None else RuleWeights(),
    )


def last_consonant(term: str) -> str | None:
    """Last character that is not a vowel (a, e, i, o, u, case-folded).

    Returns None when every character is a vowel.
    """
    for ch in reversed(term):
        if ch.lower() not in VOWELS:
            return ch
    return None


def effective_length(vocab_len: int, query_len: int, rule: LengthRule) -> Fraction:
    """Length normalizer for a (vocabulary term, query term) pair.

    Both lengths must be at least 2. Under VOCAB_LONGER the value is only
    defined when the vocabulary term is strictly longer; other pairs are
    disqualified before this is ever needed (see qualifies).
    """
    if vocab_len <= 1 or query_len <= 1:
        raise TermTooShortError(
            f"term lengths must exceed 1, got {vocab_len} and {query_len}"
        )
    if rule is LengthRule.LONGEST:
        return Fraction(max(vocab_len, query_len))
    if rule is LengthRule.AVERAGE:
        return Fraction(vocab_len + query_len, 2)
    if vocab_len <= query_len:
        raise ValueError(
            "vocab-longer length is undefined unless the vocabulary term is longer"
        )
    return Fraction(vocab_len)


def _max_qualifying_ed(vocab_len: int, query_len: int, rule: LengthRule) -> int:
    # largest integer strictly below effective_length / 2
    eff = effective_length(vocab_len, query_len, rule)
    return (eff.numerator - 1) // (2 * eff.denominator)


def qualifies(query: str, vocab_term: str, ed: int, config: ModelConfig) -> bool:
    """Admission test: both terms longer than 1 character, the length rule's
    own precondition, and edit distance strictly below half the effective
    length (compared exactly)."""
    vocab_len, query_len = len(vocab_term), len(query)
    if vocab_len <= 1 or query_len <= 1:
        return False
    if config.length_rule is LengthRule.VOCAB_LONGER and vocab_len <= query_len:
        return False
    return ed <= _max_qualifying_ed(vocab_len, query_len, config.length_rule)


def _pruning_weight_exact(query: str, vocab_term: str, config: ModelConfig) -> Fraction:
    if not config.char_rules:
        return Fraction(1)
    w = config.weights
    total = Fraction(0)
    if CharRule.FIRST_CHAR in config.char_rules:
        total += Fraction(w.wt1 if query[0] == vocab_term[0] else w.wt2)
    if CharRule.SECOND_CHAR in config.char_rules:
        total += Fraction(w.wt2 if query[1] == vocab_term[1] else w.wt3)
    if CharRule.LAST_CONSONANT in config.char_rules:
        cq = last_consonant(query)
        cv = last_consonant(vocab_term)
        total += Fraction(w.wt4 if cq is not None and cq == cv else w.wt5)
    return total


def pruning_weight(query: str, vocab_term: str, config: ModelConfig) -> float:
    """Sum of the active character-rule contributions; 1 when none are active.

    Characters are compared exactly as given: fold both terms beforehand if
    the vocabulary was built case-folded (normalize does this itself).
    """
    if len(query) < 2 or len(vocab_term) < 2:
        raise TermTooShortError("pruning weight needs both terms of length >= 2")
    return float(_pruning_weight_exact(query, vocab_term, config))


def _proxy_exact(
    prun: Fraction, ed: int, length: Fraction, formula: Formula
) -> Fraction:
    if formula is Formula.UNWEIGHTED:
        return 1 - Fraction(ed) / length
    if formula is Formula.SMOOTHED:
        return prun - Fraction(ed - 1) / length
    return prun - Fraction(ed) / length


def proxy_weight(
    prun_wt: float | Fraction,
    ed: int,
    length: int | Fraction,
    formula: Formula,
) -> float:
    """Candidate score: pruning weight minus the length-normalized penalty."""
    length = Fraction(length)
    if length <= 0:
        raise ValueError("length must be positive")
    return float(_proxy_exact(Fraction(prun_wt), ed, length, formula))


@dataclass(frozen=True, slots=True)
class Candidate:
    """A vocabulary term scored against one noisy query term."""

    term: str
    edit_distance: int
    pruning_weight: float
    effective_length: Fraction
    proxy_weight: float


def _batch_bounded(query_codes: np.ndarray, matrix: np.ndarray, bound: int) -> np.ndarray:
    """Bounded distances from the query to every row of a code matrix.

    Same recurrence as levenshtein_bounded, evaluated for a whole
    same-length bucket at once; values above ``bound`` are clamped to
    bound + 1 (the clamp can never drag a true value below the bound).
    The insertion cascade along a row is resolved with a running minimum.
    """
    n, rows = matrix.shape
    width = query_codes.shape[0] + 1
    cap = bound + 1
    offsets = np.arange(width, dtype=np.int32)
    prev = np.minimum(offsets, cap)
    prev = np.repeat(prev[np.newaxis, :], n, axis=0)
    cur = np.empty_like(prev)
    query_row = query_codes[np.newaxis, :]
    for i in range(1, rows + 1):
        cost = matrix[:, i - 1 : i] != query_row
        cur[:, 0] = min(i, cap)
        np.minimum(prev[:, 1:] + 1, prev[:, :-1] + cost, out=cur[:, 1:])
        cur -= offsets
        np.minimum.accumulate(cur, axis=1, out=cur)
        cur += offsets
        np.minimum(cur, cap, out=cur)
        prev, cur = cur, prev
        if prev.min() > bound:
            return np.full(n, cap, dtype=np.int32)
    return prev[:, -1]


def _bucket_distances(
    vocab: Vocabulary, length: int, probe: str, bound: int
) -> list[tuple[VocabTerm, int]]:
    terms = vocab.bucket(length)
    if not terms:
        return []
    if probe.isascii():
        codes = np.frombuffer(probe.encode("ascii"), dtype=np.uint8)
        eds = _batch_bounded(codes, vocab.term_matrix(length), bound)
        hits = np.flatnonzero(eds <= bound)
        return [(vocab.lookup(terms[i]), int(eds[i])) for i in hits]
    pairs = []
    for term in terms:
        ed = levenshtein_bounded(probe, term, bound)
        if ed is not None:
            pairs.append((vocab.lookup(term), ed))
    return pairs


def normalize(
    term: str, vocab: Vocabulary, config: ModelConfig, top_k: int = 10
) -> list[Candidate]:
    """Rank vocabulary candidates for one query term (see normalize_many)."""
    return normalize_many(term, vocab, [config], top_k)[0]


def normalize_many(
    term: str, vocab: Vocabulary, configs: Sequence[ModelConfig], top_k: int = 10
) -> list[list[Candidate]]:
    """Rank vocabulary candidates for one query term, once per config.

    A term already in the vocabulary short-circuits to a single candidate
    at distance 0 carrying the maximum score each config can produce.
    Otherwise each length bucket some config's threshold can admit is
    scanned once, at the loosest admitting bound, and every config keeps
    the rows within its own bound. Ordering is proxy weight descending,
    then edit distance, then frequency descending, then the term itself.
    """
    if top_k < 1:
        raise ValueError("top_k must be >= 1")
    probe = vocab.fold(term)
    if len(probe) < 2:
        raise TermTooShortError(f"cannot normalize {term!r}: need at least 2 characters")
    if probe in vocab:
        length = Fraction(len(probe))
        exact = []
        for config in configs:
            prun = _pruning_weight_exact(probe, probe, config)
            score = _proxy_exact(prun, 0, length, config.formula)
            exact.append([Candidate(probe, 0, float(prun), length, float(score))])
        return exact

    query_len = len(probe)
    scored: list[list[tuple]] = [[] for _ in configs]
    for vocab_len in vocab.bucket_lengths():
        admitted = []  # (rows, config, distance bound, effective length)
        for rows, config in zip(scored, configs):
            rule = config.length_rule
            if rule is LengthRule.VOCAB_LONGER and vocab_len <= query_len:
                continue
            bound = _max_qualifying_ed(vocab_len, query_len, rule)
            # below the length gap, no edit script can both bridge it and qualify
            if bound >= abs(vocab_len - query_len):
                eff = effective_length(vocab_len, query_len, rule)
                admitted.append((rows, config, bound, eff))
        if not admitted:
            continue
        for vt, ed in _bucket_distances(vocab, vocab_len, probe, max(a[2] for a in admitted)):
            for rows, config, bound, eff in admitted:
                if ed <= bound:
                    prun = _pruning_weight_exact(probe, vt.term, config)
                    score = _proxy_exact(prun, ed, eff, config.formula)
                    rows.append((-score, ed, -vt.frequency, vt.term, prun, eff))
    # terms are unique, so whole rows sort by their first four fields alone
    return [
        [
            Candidate(term, ed, float(prun), eff, float(-neg_score))
            for neg_score, ed, _, term, prun, eff in sorted(rows)[:top_k]
        ]
        for rows in scored
    ]


_CONFIG_KEYS = ("model", "eq", "wt1", "wt2", "wt3", "wt4", "wt5")


def parse_config_text(text: str) -> dict[str, str]:
    """Parse key=value lines; blank lines and #-comments are skipped.

    Allowed keys: model, eq, wt1..wt5. Unknown or repeated keys raise
    FormatError.
    """
    entries: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not sep or not value or key not in _CONFIG_KEYS:
            raise FormatError(
                f"config line {lineno}: expected key=value with key in {_CONFIG_KEYS}"
            )
        if key in entries:
            raise FormatError(f"config line {lineno}: duplicate key {key!r}")
        entries[key] = value
    return entries


def _config_number(entries: dict[str, str], key: str, parse, kind: str):
    # int() and float() also read non-ASCII digits ("٢" is 2); values are ASCII
    value = entries[key]
    try:
        if value.isascii():
            return parse(value)
    except ValueError:
        pass
    raise FormatError(f"config: {key} must be {kind}, got {value!r}")


def load_model_config(
    path: str | Path | None,
    model: str | None = None,
    formula: int | None = None,
) -> ModelConfig:
    """Resolve a configuration from an optional file plus explicit overrides.

    Precedence: explicit arguments, then file entries, then the m3 default.
    """
    entries = parse_config_text(Path(path).read_text(encoding="utf-8")) if path else {}
    if model is None:
        model = entries.get("model", "m3")
    if formula is None and "eq" in entries:
        formula = _config_number(entries, "eq", int, "an integer")
        if formula not in (1, 2, 3):
            raise FormatError(f"config: eq must be 1, 2 or 3, got {formula}")
    overrides = {
        key: _config_number(entries, key, float, "a decimal")
        for key in ("wt1", "wt2", "wt3", "wt4", "wt5")
        if key in entries
    }
    try:
        weights = RuleWeights(**overrides) if overrides else None
        return model_config(model, formula=formula, weights=weights)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc
