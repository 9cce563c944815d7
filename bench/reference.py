"""Reference ranker and output checks for the benchmark.

Nothing here calls into translitnorm: distances come from the textbook
Levenshtein DP, admission and scores from the README's formulas in exact
rationals, and the ranking from the distance to every vocabulary term. The
benchmark checks every operation's output with these functions.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

# The library holds the default weights as binary floats and scores with
# their exact rational values, so the reference does the same.
WT1, WT2, WT3, WT4, WT5 = (Fraction(w) for w in (0.60, 0.40, 0.20, 0.75, 0.25))
VOWELS = frozenset("aeiou")
TOP_K = 10

# model -> (length rule, number of character rules: none, first two, or all three)
MODELS = {
    "m1": ("longest", 0),
    "m2": ("average", 2),
    "m3": ("average", 3),
    "m4": ("vocab-longer", 3),
}


def _codes(terms: list[str]) -> np.ndarray:
    return np.array([[ord(ch) for ch in term] for term in terms], dtype=np.int32)


def distances(probe: str, codes: np.ndarray) -> np.ndarray:
    """Unit-cost Levenshtein distance from ``probe`` to each row of ``codes``
    (code points of equal-length terms): the full DP table, one probe
    character at a time, each step done for all terms at once."""
    rows, n = codes.shape
    prev = np.tile(np.arange(n + 1), (rows, 1))
    for i, ch in enumerate(probe, 1):
        diagonal_or_up = np.minimum(prev[:, :-1] + (codes != ord(ch)), prev[:, 1:] + 1)
        cur = np.empty_like(prev)
        cur[:, 0] = i
        for j in range(1, n + 1):
            cur[:, j] = np.minimum(diagonal_or_up[:, j - 1], cur[:, j - 1] + 1)
        prev = cur
    return prev[:, n]


def distance(a: str, b: str) -> int:
    return int(distances(a, _codes([b]))[0])


def effective_length(vocab_len: int, query_len: int, model: str) -> Fraction | None:
    """The model's length normalizer, or None when the pair is never admitted."""
    if vocab_len < 2 or query_len < 2:
        return None
    rule = MODELS[model][0]
    if rule == "longest":
        return Fraction(max(vocab_len, query_len))
    if rule == "average":
        return Fraction(vocab_len + query_len, 2)
    return Fraction(vocab_len) if vocab_len > query_len else None


def _last_consonant(term: str) -> str | None:
    for ch in reversed(term):
        if ch not in VOWELS:
            return ch
    return None


def pruning(query: str, term: str, model: str) -> Fraction:
    rules = MODELS[model][1]
    if rules == 0:
        return Fraction(1)
    total = (WT1 if query[0] == term[0] else WT2) + (WT2 if query[1] == term[1] else WT3)
    if rules == 3:
        cq = _last_consonant(query)
        total += WT4 if cq is not None and cq == _last_consonant(term) else WT5
    return total


def score(query: str, term: str, ed: int, eff: Fraction, model: str) -> Fraction:
    """Proxy weight with the default formula: pruning weight minus ed / eff."""
    return pruning(query, term, model) - Fraction(ed) / eff


class Ranker:
    """Reference ranking: the distance from the probe to every vocabulary
    term, then exact admission, scores and order for each model."""

    def __init__(self, freq: dict[str, int]) -> None:
        self.freq = freq
        by_length: dict[int, list[str]] = {}
        for term in freq:
            by_length.setdefault(len(term), []).append(term)
        self.buckets = [(terms, _codes(terms)) for terms in by_length.values()]

    def rank(self, probe: str, models, top_k: int = TOP_K) -> dict[str, list]:
        """Top-k rows (term, ed, score) per model for an out-of-vocabulary probe."""
        rows = {m: [] for m in models}
        for terms, codes in self.buckets:
            eds = distances(probe, codes)
            for m in models:
                eff = effective_length(len(terms[0]), len(probe), m)
                if eff is None:
                    continue
                for k in np.flatnonzero(2 * eds * eff.denominator < eff.numerator):
                    term, ed = terms[k], int(eds[k])
                    s = score(probe, term, ed, eff, m)
                    rows[m].append(((-s, ed, -self.freq[term], term), (term, ed, s)))
        return {m: [row for _, row in sorted(found)[:top_k]] for m, found in rows.items()}


def check_candidates(probe, candidates, model, freq, top_k=TOP_K, min_ed=0) -> str | None:
    """Properties every ranking must have; returns the first violation found.

    At most top_k rows, each a vocabulary term whose edit distance equals
    the reference DP, that passes exact admission, and whose weights equal
    the exact formulas; rows ordered by (-score, ed, -frequency, term).
    """
    if len(candidates) > top_k:
        return f"{len(candidates)} candidates for top {top_k}"
    previous = None
    for c in candidates:
        if c.term not in freq:
            return f"{c.term!r} is not a vocabulary term"
        ed = distance(probe, c.term)
        if c.edit_distance != ed or ed < min_ed:
            return f"{c.term!r}: edit distance {c.edit_distance}, reference {ed}"
        eff = effective_length(len(c.term), len(probe), model)
        if eff is None or not 2 * ed < eff or c.effective_length != eff:
            return f"{c.term!r}: not admitted at ed {ed}, effective length {eff}"
        s = score(probe, c.term, ed, eff, model)
        if c.proxy_weight != float(s) or c.pruning_weight != float(pruning(probe, c.term, model)):
            return f"{c.term!r}: proxy weight {c.proxy_weight}, reference {float(s)}"
        key = (-s, ed, -freq[c.term], c.term)
        if previous is not None and not previous < key:
            return f"{c.term!r} is out of order"
        previous = key
    return None


def same_ranking(candidates, expected) -> str | None:
    got = [(c.term, c.edit_distance, c.proxy_weight) for c in candidates]
    want = [(term, ed, float(s)) for term, ed, s in expected]
    return None if got == want else f"ranking {got} differs from reference {want}"


def render_cli(expected) -> str:
    """The reference ranking as `translitnorm normalize` prints it."""
    return "".join(
        f"{i}\t{term}\t{float(s):.6f}\t{ed}\n" for i, (term, ed, s) in enumerate(expected, 1)
    )


def gold_rank(expected, gold: str) -> int:
    for position, (term, _, _) in enumerate(expected, 1):
        if term == gold:
            return position
    return 0


def check_pair_report(noisy: str, gold: str, report) -> tuple[dict[str, int], str | None]:
    """Recover each model's gold rank from a one-pair report and check it.

    The averages of one pair are 1/rank and the three success indicators;
    they must agree with each other, satisfy P@1 <= P@5 <= P@10, and m4
    must never rank a gold term that is not strictly longer than the noisy one.
    """
    ranks = {}
    for m in MODELS:
        s = report.scores[m]
        r = round(1 / s.avg_mrr) if s.avg_mrr else 0
        ranks[m] = r
        if s.avg_mrr != (1 / r if r else 0.0):
            return ranks, f"{m}: Avg_MRR {s.avg_mrr} is not the reciprocal of a rank"
        if not s.avg_p1 <= s.avg_p5 <= s.avg_p10:
            return ranks, f"{m}: P@1 {s.avg_p1}, P@5 {s.avg_p5}, P@10 {s.avg_p10} not ordered"
        if (s.avg_p1, s.avg_p5, s.avg_p10) != (r == 1, 1 <= r <= 5, 1 <= r <= 10):
            return ranks, f"{m}: success-at-k disagrees with rank {r}"
        if m == "m4" and r and len(gold) <= len(noisy):
            return ranks, f"m4 ranks {gold!r} at {r} though it is not longer than {noisy!r}"
    return ranks, None
