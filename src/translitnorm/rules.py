"""Candidate ranking rules and the four model configurations m1-m4.

A noisy query term is scored against vocabulary terms by a proxy weight:
a rule-derived pruning weight minus a length-normalized edit-distance
penalty. Threshold comparisons and scores are exact rationals, so ties and
the strict admission threshold are never at the mercy of rounding. A score
depends only on the rule outcomes, the edit distance and the effective
length, so each config keeps one table keyed by them, each entry computed
from its key alone with its floats for output, and hits are ranked by
comparing small ints. A config holds its model id, formula and weights; its
length rule and char rules are read from the model table.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from enum import Enum, IntEnum
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

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
    UNWEIGHTED = 3  # m1's only formula: WEIGHTED, as its pruning weight is always 1


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

# per model: length rule, char rules and the admitted formulas, the default first
_MODEL_TABLE: dict[str, tuple[LengthRule, frozenset[CharRule], tuple[Formula, ...]]] = {
    "m1": (LengthRule.LONGEST, frozenset(), (Formula.UNWEIGHTED,)),
    "m2": (LengthRule.AVERAGE, _CHAR_RULES_FIRST_TWO, (Formula.WEIGHTED, Formula.SMOOTHED)),
    "m3": (LengthRule.AVERAGE, _CHAR_RULES_ALL, (Formula.WEIGHTED, Formula.SMOOTHED)),
    "m4": (LengthRule.VOCAB_LONGER, _CHAR_RULES_ALL, (Formula.WEIGHTED, Formula.SMOOTHED)),
}


@dataclass(frozen=True)
class ModelConfig:
    """A model's formula and weights; its length rule and char rules are the model table's."""

    model_id: str
    formula: Formula
    weights: RuleWeights = field(default_factory=RuleWeights)

    def __post_init__(self) -> None:
        if self.model_id not in _MODEL_TABLE:
            raise ValueError(f"unknown model {self.model_id!r}, expected one of {MODEL_IDS}")
        formulas = _MODEL_TABLE[self.model_id][2]
        # _score_entry tests the formula by identity, so a plain int is refused too
        if not isinstance(self.formula, Formula) or self.formula not in formulas:
            if self.model_id == "m1":
                raise ValueError("m1 admits only the unweighted formula (eq=3)")
            raise ValueError(f"{self.model_id} admits only the weighted formulas (eq=1 or eq=2)")

    @property
    def length_rule(self) -> LengthRule:
        return _MODEL_TABLE[self.model_id][0]

    @property
    def char_rules(self) -> frozenset[CharRule]:
        return _MODEL_TABLE[self.model_id][1]


def model_config(
    model_id: str,
    formula: Formula | int | None = None,
    weights: RuleWeights | None = None,
) -> ModelConfig:
    """Build one of the four standard model configurations.

    ``formula`` may override the scoring formula for m2-m4 (codes 1 or 2);
    m1 always uses the unweighted formula. ``weights`` replaces the default
    rule weights. ModelConfig rejects any other id or formula.
    """
    key = model_id.lower()
    if key not in _MODEL_TABLE:
        raise ValueError(f"unknown model {model_id!r}, expected one of {MODEL_IDS}")
    return ModelConfig(
        key,
        _MODEL_TABLE[key][2][0] if formula is None else Formula(formula),
        weights if weights is not None else RuleWeights(),
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
    defined when the vocabulary term is strictly longer. Either failure
    raises a ValueError, which _admission reads as "no distance admitted".
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


def _admission(vocab_len: int, query_len: int, rule: LengthRule) -> tuple[int, Fraction] | None:
    """The largest edit distance strictly below half the effective length,
    and that length; None when no distance is admitted: a term shorter than 2,
    or under VOCAB_LONGER a vocabulary term that is not strictly longer."""
    try:
        eff = effective_length(vocab_len, query_len, rule)
    except ValueError:
        return None
    return (eff.numerator - 1) // (2 * eff.denominator), eff


@dataclass(frozen=True, slots=True)
class Candidate:
    """A vocabulary term scored against one noisy query term."""

    term: str
    edit_distance: int
    pruning_weight: float
    effective_length: Fraction
    proxy_weight: float


def _batch_bounded(probe: str, codes: bytes, length: int, bound: int) -> list[tuple[int, int]]:
    """(row, distance) for each term of a bucket within ``bound`` of an ASCII probe.

    ``codes`` is the bucket's Vocabulary.bucket_codes: ``length`` bytes per term.

    The Levenshtein DP recurrence, evaluated for a whole same-length
    bucket at once; values above ``bound`` are clamped to bound + 1 (the
    clamp can never drag a true value below the bound). The insertion
    cascade along a row is resolved with a running minimum.
    """
    # Imported here, not with the package: numpy's import is a large share of a
    # CLI process, and commands that scan no ASCII bucket never need it.
    import numpy as np

    matrix = np.frombuffer(codes, np.uint8).reshape(-1, length)
    n, rows = matrix.shape
    width = len(probe) + 1
    cap = bound + 1
    offsets = np.arange(width, dtype=np.int32)
    prev = np.minimum(offsets, cap)
    prev = np.repeat(prev[np.newaxis, :], n, axis=0)
    cur = np.empty_like(prev)
    query_row = np.frombuffer(probe.encode("ascii"), dtype=np.uint8)[np.newaxis, :]
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
            return []
    eds = prev[:, -1]
    hits = np.flatnonzero(eds <= bound)
    return list(zip(hits.tolist(), eds[hits].tolist()))


def _bucket_distances(
    vocab: Vocabulary, length: int, probe: str, bound: int
) -> list[tuple[VocabTerm, int]]:
    terms = vocab.bucket(length)
    if not terms:
        return []
    if probe.isascii():
        hits = _batch_bounded(probe, vocab.bucket_codes(length), length, bound)
        return [(vocab.lookup(terms[i]), ed) for i, ed in hits]
    eds = ((term, levenshtein_bounded(probe, term, bound)) for term in terms)
    return [(vocab.lookup(term), ed) for term, ed in eds if ed is not None]


def normalize(
    term: str, vocab: Vocabulary, config: ModelConfig, top_k: int = 10
) -> list[Candidate]:
    """Rank vocabulary candidates for one query term (see normalize_many)."""
    return normalize_many(term, vocab, [config], top_k)[0]


def normalize_many(
    term: str, vocab: Vocabulary, configs: Sequence[ModelConfig], top_k: int = 10
) -> list[list[Candidate]]:
    """Rank vocabulary candidates for one query term, once per config.

    A term already in the vocabulary is its only hit, at distance 0 with
    its own length as effective length, under every config. Otherwise each
    length bucket some config's threshold can admit is scanned once, at the
    loosest admitting bound, and every config keeps the rows within its own
    bound. Ordering is proxy weight descending, then edit distance, then
    frequency descending, then the term itself.
    """
    if top_k < 1:
        raise ValueError("top_k must be >= 1")
    probe = vocab.fold(term)
    if len(probe) < 2:
        raise TermTooShortError(f"cannot normalize {term!r}: need at least 2 characters")
    if probe in vocab:
        hits = [[(vocab.lookup(probe), 0, Fraction(len(probe)))] for _ in configs]
    else:
        hits = [[] for _ in configs]  # per config: (term, distance, effective length)
        query_len = len(probe)
        for vocab_len in vocab.bucket_lengths():
            admitted = []  # (hits, distance bound, effective length)
            for config_hits, config in zip(hits, configs):
                admission = _admission(vocab_len, query_len, config.length_rule)
                # below the length gap, no edit script can both bridge it and qualify
                if admission is not None and admission[0] >= abs(vocab_len - query_len):
                    admitted.append((config_hits, *admission))
            if not admitted:
                continue
            for vt, ed in _bucket_distances(vocab, vocab_len, probe, max(a[1] for a in admitted)):
                for config_hits, bound, eff in admitted:
                    if ed <= bound:
                        config_hits.append((vt, ed, eff))
    return [_rank(probe, config, h, top_k) for config, h in zip(configs, hits)]


@lru_cache(maxsize=256)
def _score_table(config: ModelConfig) -> dict:
    """One config's scores, filled by _rank: each key of (rule outcomes, edit
    distance, effective length) maps to _score_entry(config, *key), shared by
    the Candidates built from it."""
    return {}


def _score_entry(
    config: ModelConfig, first: bool, second: bool, consonant: bool, ed: int, eff: Fraction
) -> tuple[Fraction, float, Fraction, float]:
    """(exact score, float pruning weight, effective length, float proxy weight)
    of a hit with these char-rule outcomes, edit distance and effective length."""
    w, char_rules = config.weights, config.char_rules
    prun = Fraction(0) if char_rules else Fraction(1)
    if CharRule.FIRST_CHAR in char_rules:
        prun += Fraction(w.wt1 if first else w.wt2)
    if CharRule.SECOND_CHAR in char_rules:
        prun += Fraction(w.wt2 if second else w.wt3)
    if CharRule.LAST_CONSONANT in char_rules:
        prun += Fraction(w.wt4 if consonant else w.wt5)
    # SMOOTHED counts one edit less; ModelConfig admits UNWEIGHTED only for m1, whose prun is 1
    score = prun - (ed - (config.formula is Formula.SMOOTHED)) / eff
    return score, float(prun), eff, float(score)


def _rank(
    probe: str, config: ModelConfig, hits: list[tuple[VocabTerm, int, Fraction]], top_k: int
) -> list[Candidate]:
    """The top_k of one config's hits, scored and in ranking order."""
    table = _score_table(config)
    char_rules = config.char_rules  # the outcome of a rule the config lacks stays False
    first = probe[0] if CharRule.FIRST_CHAR in char_rules else None
    second = probe[1] if CharRule.SECOND_CHAR in char_rules else None
    consonant = last_consonant(probe) if CharRule.LAST_CONSONANT in char_rules else None
    rows = []
    for vt, ed, eff in hits:
        term = vt.term
        # eff comes with the hit: VOCAB_LONGER gives none for an in-vocabulary probe
        key = (term[0] == first, term[1] == second,
               consonant is not None and last_consonant(term) == consonant, ed, eff)
        entry = table.get(key)
        if entry is None:
            entry = table[key] = _score_entry(config, *key)
        rows.append((entry, ed, -vt.frequency, term))
    # equal scores from different keys share one rank
    rank = {score: i for i, score in enumerate(sorted({row[0][0] for row in rows}, reverse=True))}
    # terms are unique, so rows sort by their first four fields alone
    ranked = sorted((rank[entry[0]], ed, freq, term, entry) for entry, ed, freq, term in rows)
    return [Candidate(term, ed, *entry[1:]) for _, ed, _, term, entry in ranked[:top_k]]


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
    # int() and float() also read non-ASCII digits ("٢" is 2), "+1" and "0_1",
    # and float() "1e-1": a value is ASCII digits, a decimal with at most one "."
    value = entries[key]
    digits = value.replace(".", "", 1) if parse is float else value
    if value.isascii() and digits.isdigit():
        return parse(value)
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
