"""Noisy transliterated query-term normalization.

Builds a vocabulary of normal terms from a romanized document corpus and
ranks vocabulary candidates for noisy query terms with rule-weighted,
length-thresholded edit distance. Ships four ready model configurations
(m1-m4) plus an evaluation harness reporting MRR and success-at-k.

The public names are those of the ``distance``, ``errors``, ``evaluation``,
``rules`` and ``vocabulary`` modules' ``__all__``, each defined once there.
"""

from . import distance, errors, evaluation, rules, vocabulary
from .distance import *
from .errors import *
from .evaluation import *
from .rules import *
from .vocabulary import *

__version__ = "0.1.0"

__all__ = [*distance.__all__, *errors.__all__, *evaluation.__all__, *rules.__all__, *vocabulary.__all__]
