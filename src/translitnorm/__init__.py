"""Noisy transliterated query-term normalization.

Builds a vocabulary of normal terms from a romanized document corpus and
ranks vocabulary candidates for noisy query terms with rule-weighted,
length-thresholded edit distance. Ships four ready model configurations
(m1-m4) plus an evaluation harness reporting MRR and success-at-k.
"""

from .distance import levenshtein, levenshtein_bounded
from .errors import (
    EmptyCorpusError,
    EmptyGoldSetError,
    FormatError,
    GoldTermMissingError,
    TermTooShortError,
)
from .evaluation import (
    EVAL_TOP_K,
    EvalReport,
    GoldPair,
    ModelScores,
    compare_models,
    evaluate_model,
    load_gold_set,
    reciprocal_rank,
    render_report,
    success_at_k,
)
from .rules import (
    MODEL_IDS,
    Candidate,
    CharRule,
    Formula,
    LengthRule,
    ModelConfig,
    RuleWeights,
    effective_length,
    last_consonant,
    load_model_config,
    model_config,
    normalize,
    normalize_many,
    proxy_weight,
    pruning_weight,
    qualifies,
)
from .vocabulary import (
    VocabTerm,
    Vocabulary,
    build_vocabulary,
    load_corpus,
    load_vocabulary,
    save_vocabulary,
    tokenize,
)

__version__ = "0.1.0"

__all__ = [
    "EVAL_TOP_K",
    "MODEL_IDS",
    "Candidate",
    "CharRule",
    "EmptyCorpusError",
    "EmptyGoldSetError",
    "EvalReport",
    "FormatError",
    "Formula",
    "GoldPair",
    "GoldTermMissingError",
    "LengthRule",
    "ModelConfig",
    "ModelScores",
    "RuleWeights",
    "TermTooShortError",
    "VocabTerm",
    "Vocabulary",
    "build_vocabulary",
    "compare_models",
    "effective_length",
    "evaluate_model",
    "last_consonant",
    "levenshtein",
    "levenshtein_bounded",
    "load_corpus",
    "load_gold_set",
    "load_model_config",
    "load_vocabulary",
    "model_config",
    "normalize",
    "normalize_many",
    "proxy_weight",
    "pruning_weight",
    "qualifies",
    "reciprocal_rank",
    "render_report",
    "save_vocabulary",
    "success_at_k",
    "tokenize",
]
