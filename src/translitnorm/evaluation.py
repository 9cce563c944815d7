"""Scoring of the ranking models against a gold set of noisy/normal pairs.

Measures follow standard single-gold retrieval practice: reciprocal rank
of the gold term plus success-at-k for k in {1, 5, 10}, averaged over the
gold set. Reciprocal ranks are accumulated as exact rationals so the
averages are independent of gold-set order.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .errors import EmptyGoldSetError, FormatError, GoldTermMissingError
from .rules import MODEL_IDS, Candidate, ModelConfig, model_config, normalize_many
from .vocabulary import Vocabulary

__all__ = [
    "EVAL_TOP_K",
    "EvalReport",
    "GoldPair",
    "ModelScores",
    "compare_models",
    "evaluate_model",
    "load_gold_set",
    "render_report",
]

EVAL_TOP_K = 10

_MEASURES = (
    ("Avg_MRR", "avg_mrr"),
    ("Avg_P@1", "avg_p1"),
    ("Avg_P@5", "avg_p5"),
    ("Avg_P@10", "avg_p10"),
)


@dataclass(frozen=True, slots=True)
class GoldPair:
    noisy: str
    gold: str


@dataclass(frozen=True, slots=True)
class ModelScores:
    avg_mrr: float
    avg_p1: float
    avg_p5: float
    avg_p10: float
    sample_count: int


@dataclass(frozen=True, slots=True)
class EvalReport:
    """Per-model averages, keyed by model id in presentation order."""

    scores: Mapping[str, ModelScores]
    sample_count: int


def _gold_rank(ranked: Sequence[Candidate], gold: str) -> int:
    """1-based position of ``gold`` in the ranking, 0 when absent."""
    for position, candidate in enumerate(ranked, 1):
        if candidate.term == gold:
            return position
    return 0


def _score_configs(
    gold_set: Sequence[GoldPair], vocab: Vocabulary, configs: Sequence[ModelConfig]
) -> list[ModelScores]:
    # one shared scan per noisy term; per config [rr total, hits@1, @5, @10]
    pairs = list(gold_set)
    if not pairs:
        raise EmptyGoldSetError("gold set has no pairs")
    missing = sorted({pair.gold for pair in pairs if pair.gold not in vocab})
    if missing:
        raise GoldTermMissingError(missing)
    tallies = [[Fraction(0), 0, 0, 0] for _ in configs]
    for pair in pairs:
        gold = vocab.fold(pair.gold)
        rankings = normalize_many(pair.noisy, vocab, configs, EVAL_TOP_K)
        for tally, ranked in zip(tallies, rankings):
            rank = _gold_rank(ranked, gold)
            if rank:
                tally[0] += Fraction(1, rank)
                tally[1] += rank == 1
                tally[2] += rank <= 5
                tally[3] += 1
    n = len(pairs)
    return [
        ModelScores(float(rr / n), hits1 / n, hits5 / n, hits10 / n, n)
        for rr, hits1, hits5, hits10 in tallies
    ]


def evaluate_model(
    gold_set: Sequence[GoldPair], vocab: Vocabulary, config: ModelConfig
) -> ModelScores:
    """Average reciprocal rank and success@{1,5,10} over the gold set.

    Every noisy term is normalized with a rank cut-off of EVAL_TOP_K.
    Raises EmptyGoldSetError or GoldTermMissingError before any scoring.
    """
    return _score_configs(gold_set, vocab, [config])[0]


def compare_models(gold_set: Sequence[GoldPair], vocab: Vocabulary) -> EvalReport:
    """Evaluate the four default models and assemble the comparison report.

    Each noisy term's vocabulary buckets are scanned once for all four.
    """
    scores = _score_configs(gold_set, vocab, [model_config(m) for m in MODEL_IDS])
    return EvalReport(scores=dict(zip(MODEL_IDS, scores)), sample_count=scores[0].sample_count)


def render_report(report: EvalReport) -> str:
    """Tab-separated table: measures down, models across, 6 decimals."""
    model_ids = list(report.scores)
    lines = ["Measure\t" + "\t".join(model_id.upper() for model_id in model_ids)]
    for label, attr in _MEASURES:
        cells = (f"{getattr(report.scores[m], attr):.6f}" for m in model_ids)
        lines.append(label + "\t" + "\t".join(cells))
    return "\n".join(lines) + "\n"


def load_gold_set(source: str | Path) -> list[GoldPair]:
    """Read noisy TAB gold pairs; #-comment and blank lines are skipped.

    Gold terms are checked against a vocabulary when the pairs are scored.
    """
    text = Path(source).read_text(encoding="utf-8")
    pairs = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise FormatError(f"gold line {lineno}: expected noisy<TAB>gold")
        noisy, gold = parts
        if len(noisy) < 2 or len(gold) < 2:
            raise FormatError(f"gold line {lineno}: terms need at least 2 characters")
        pairs.append(GoldPair(noisy, gold))
    return pairs
