from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from translitnorm import levenshtein, levenshtein_bounded

from helpers import recursive_distance

words = st.text(alphabet="abcdef", max_size=10)


@st.composite
def long_pairs(draw):
    """Two strings of 0-70 letters over a two-letter or a non-ASCII alphabet:
    the bit vectors of some pairs run past 64 bits."""
    alphabet = draw(st.sampled_from(("ab", "aāñ")))

    def word():
        n = draw(st.integers(0, 70))
        return draw(st.text(alphabet, min_size=n, max_size=n))

    return word(), word()


class TestLevenshtein:
    @pytest.mark.parametrize(
        ("a", "b", "expected"),
        [
            ("RISK", "MASK", 2),
            ("phule", "phulen", 1),
            # provably 5: the strings share only "u" and "l" as a common
            # subsequence, and no zero-indel alignment keeps both, so no
            # 4-operation script exists under unit-cost ins/del/sub
            ("phulen", "fulaat", 5),
            ("", "abc", 3),
            ("abc", "", 3),
            ("", "", 0),
            ("kitten", "sitting", 3),
            ("gaane", "gaanee", 1),
            ("gaane", "kaane", 1),
        ],
    )
    def test_known_pairs(self, a, b, expected):
        assert levenshtein(a, b) == expected

    @given(words)
    def test_identity(self, a):
        assert levenshtein(a, a) == 0

    @given(words, words)
    def test_zero_means_equal(self, a, b):
        assert (levenshtein(a, b) == 0) == (a == b)

    @given(words, words)
    def test_symmetry(self, a, b):
        assert levenshtein(a, b) == levenshtein(b, a)

    @given(words, words)
    def test_length_bounds(self, a, b):
        d = levenshtein(a, b)
        assert abs(len(a) - len(b)) <= d <= max(len(a), len(b))

    @settings(max_examples=300)
    @given(words, words, words)
    def test_triangle_inequality(self, a, b, c):
        assert levenshtein(a, c) <= levenshtein(a, b) + levenshtein(b, c)

    @settings(max_examples=300, deadline=None)
    @given(long_pairs())
    def test_matches_recursive_oracle(self, pair):
        assert levenshtein(*pair) == recursive_distance(*pair)

    def test_case_sensitive(self):
        assert levenshtein("ab", "AB") == 2


class TestLevenshteinBounded:
    @pytest.mark.parametrize(
        ("a", "b", "bound", "expected"),
        [
            ("phulen", "fulaat", 2, None),
            ("phule", "phulen", 2, 1),
            ("a", "a", 0, 0),
            ("abc", "abd", 0, None),
            ("abc", "xbc", 1, 1),
            ("", "abc", 2, None),
            ("", "abc", 3, 3),
        ],
    )
    def test_known_pairs(self, a, b, bound, expected):
        assert levenshtein_bounded(a, b, bound) == expected

    def test_rejects_negative_bound(self):
        with pytest.raises(ValueError):
            levenshtein_bounded("ab", "cd", -1)

    @given(words, words, st.integers(min_value=0, max_value=12))
    def test_consistent_with_exact(self, a, b, bound):
        exact = levenshtein(a, b)
        banded = levenshtein_bounded(a, b, bound)
        if exact <= bound:
            assert banded == exact
        else:
            assert banded is None

    @settings(max_examples=200, deadline=None)
    @given(long_pairs(), st.integers(min_value=0, max_value=12))
    def test_matches_recursive_oracle(self, pair, bound):
        exact = recursive_distance(*pair)
        assert levenshtein_bounded(*pair, bound) == (exact if exact <= bound else None)

    @given(words, words)
    def test_tight_bound_recovers_exact(self, a, b):
        exact = levenshtein(a, b)
        assert levenshtein_bounded(a, b, exact) == exact
