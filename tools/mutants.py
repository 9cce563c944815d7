"""Mutation gate for the vocabulary loader, the distance and the ranking core.

Each mutant replaces one exact text in one file of a temporary copy of
``src/`` and runs a fixed, fast subset of the tier-1 tests against that
copy. A mutant is killed when a test fails. The script prints one JSON
line: the number of mutants, how many were killed, the names of the
survivors, and the first test that killed each mutant.

    python tools/mutants.py

Exit status: 0 when every mutant was killed, 1 when one survived, 2 when
the table no longer matches the code (an old text is missing or not unique)
or the unmutated copy fails its tests. Standard library only; it is not part
of tier-1.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Run in this order with -x: the cheap vocabulary and distance tests first.
TESTS = [
    "tests/test_vocabulary.py",
    "tests/test_distance.py",
    "tests/test_rules.py",
    "tests/test_evaluation.py",
]
TIMEOUT_S = 600

VOCAB = "src/translitnorm/vocabulary.py"
RULES = "src/translitnorm/rules.py"
DIST = "src/translitnorm/distance.py"

# (name, file, exact old text, new text, reason)
MUTANTS = [
    # vocabulary loader
    ("ties-lt-le", VOCAB,
     "map(lt, compress(terms, ties), compress(terms[1:], ties))",
     "(a <= b for a, b in zip(compress(terms, ties), compress(terms[1:], ties)))",
     "equal terms of one frequency pass as canonical"),
    ("ties-next-off-by-one", VOCAB,
     "compress(terms[1:], ties)", "compress(terms[2:], ties)",
     "a tied term is compared with the term two rows on, not the next"),
    ("freqs-from-docs", VOCAB,
     "fields[3::3], fields[4::3], fields[5::3]", "fields[3::3], fields[5::3], fields[5::3]",
     "frequencies are read from the doc_count column"),
    ("case-fold-inverted", VOCAB,
     'return Vocabulary._from_columns(terms, freqs, docs, header.group(1) == "true")',
     'return Vocabulary._from_columns(terms, freqs, docs, header.group(1) != "true")',
     "the header's case_fold flag is read inverted"),
    ("short-term-bucket", VOCAB,
     "min(buckets, default=2) < 2", "min(buckets, default=2) < 1",
     "one-letter terms pass the bucket-key length check"),
    ("canonical-order-reversed", VOCAB,
     "order.sort(key=freqs.__getitem__, reverse=True)", "order.sort(key=freqs.__getitem__)",
     "the sort puts the least frequent term first"),
    ("fold-without-lower", VOCAB,
     "return term.lower() if self.case_fold else term", "return term if self.case_fold else term",
     "probes are not case-folded against a case-folded vocabulary"),
    ("bucket-codes-out-of-order", VOCAB,
     '"".join(b).encode("ascii")', '"".join(reversed(b)).encode("ascii")',
     "a bucket's codes list its terms in reverse row order"),
    # ranking core
    ("config-formula-unchecked", RULES,
     "if not isinstance(self.formula, Formula) or self.formula not in formulas:",
     "if not isinstance(self.formula, Formula):",
     "ModelConfig builds any model with any formula, m3 with eq=3 included"),
    ("VOWELS", RULES,
     'VOWELS = frozenset("aeiou")', 'VOWELS = frozenset("aeio")',
     "u counts as a consonant in the last-consonant rule"),
    ("admission-plus-1", RULES,
     "return (eff.numerator - 1) // (2 * eff.denominator), eff",
     "return (eff.numerator - 1) // (2 * eff.denominator) + 1, eff",
     "a distance at half the effective length is admitted"),
    ("admission-minus-1", RULES,
     "return (eff.numerator - 1) // (2 * eff.denominator), eff",
     "return (eff.numerator - 1) // (2 * eff.denominator) - 1, eff",
     "the largest admitted distance is refused"),
    ("length-gap-strict", RULES,
     "admission[0] >= abs(vocab_len - query_len)", "admission[0] > abs(vocab_len - query_len)",
     "a bucket whose length gap equals the bound is skipped"),
    ("eq2-no-bonus", RULES,
     "(config.formula is Formula.SMOOTHED)", "False",
     "eq=2 loses its zero-distance bonus"),
    ("exact-hit-length-plus-1", RULES,
     "Fraction(len(probe))", "Fraction(len(probe) + 1)",
     "an in-vocabulary term is scored at one more than its own length"),
    ("tie-without-frequency", RULES,
     "rows.append((entry, ed, -vt.frequency, term))", "rows.append((entry, ed, 0, term))",
     "ties on score and distance ignore frequency"),
    ("tie-terms-reversed", RULES,
     "ranked = sorted((rank[entry[0]], ed, freq, term, entry) for entry, ed, freq, term in rows)",
     "ranked = sorted(((rank[entry[0]], ed, freq, term, entry) for entry, ed, freq, term in rows), "
     "key=lambda r: (r[:3], [-ord(c) for c in r[3]]))",
     "full ties are broken against the alphabet"),
    ("score-key-without-ed", RULES,
     "last_consonant(term) == consonant, ed, eff)", "last_consonant(term) == consonant, 0, eff)",
     "the score key holds no distance, so every hit is scored at distance 0"),
    ("score-key-without-consonant", RULES,
     "consonant is not None and last_consonant(term) == consonant, ed", "False, ed",
     "the score key holds no last-consonant outcome, so every hit is scored a miss"),
    ("score-key-without-eff", RULES,
     "== consonant, ed, eff)", "== consonant, ed, Fraction(len(term)))",
     "the score key holds the vocabulary term length in place of the effective length"),
    ("second-char-miss-wt2", RULES,
     "Fraction(w.wt2 if second else w.wt3)", "Fraction(w.wt2 if second else w.wt2)",
     "a second-char miss is weighted as a match"),
    ("early-exit-at-bound", RULES,
     "if prev.min() > bound:", "if prev.min() >= bound:",
     "the scan stops while rows at the bound are still alive"),
    ("hits-past-64-dropped", RULES,
     "hits = np.flatnonzero(eds <= bound)", "hits = np.flatnonzero(eds[:64] <= bound)",
     "rows past the 64th of a bucket are never returned"),
    # bit-vector distance
    ("carry-or", DIST,
     "((eq & pv) + pv)", "((eq & pv) | pv)",
     "the addition's carry no longer runs along matching characters"),
    ("top-bit-low", DIST,
     "full, top = bit - 1, bit >> 1", "full, top = bit - 1, bit >> 2",
     "the score is read one row above the last"),
    ("row-zero-no-carry-in", DIST,
     "ph = (ph << 1) | 1", "ph = ph << 1",
     "row 0 of the DP is taken as all zeros, as in substring search"),
]

_FAILED = re.compile(r"^FAILED (\S+)", re.MULTILINE)


def _run_tests(root: Path) -> tuple[int, str | None]:
    """pytest's exit code on the copy at ``root`` and the first failing test."""
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    env.pop("PYTHONPATH", None)  # the copy's pyproject puts its own src/ first
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-rf", "--tb=no", "-p", "no:cacheprovider", *TESTS],
            cwd=root, env=env, capture_output=True, text=True, timeout=TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return 1, f"timeout after {TIMEOUT_S} s"
    found = _FAILED.search(proc.stdout)
    return proc.returncode, found and found.group(1)


def main() -> int:
    stale = [
        f"{name}: {file} holds its old text {text.count(old)} times, not once: {old!r}"
        for name, file, old, _, _ in MUTANTS
        if (text := (ROOT / file).read_text(encoding="utf-8")).count(old) != 1
    ]
    if stale:
        print("mutants: " + "\nmutants: ".join(stale), file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        root = Path(tmp)
        for name in ("tests", "data"):
            shutil.copytree(ROOT / name, root / name, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", root)

        def fresh_src() -> None:
            shutil.rmtree(root / "src", ignore_errors=True)
            shutil.copytree(ROOT / "src", root / "src", ignore=shutil.ignore_patterns("__pycache__"))

        fresh_src()
        code, first = _run_tests(root)
        if code != 0:
            print(f"mutants: the unmutated copy fails: {first} (pytest exit {code})", file=sys.stderr)
            return 2

        kills, survived = {}, []
        for name, file, old, new, reason in MUTANTS:
            fresh_src()
            path = root / file
            path.write_text(path.read_text(encoding="utf-8").replace(old, new), encoding="utf-8")
            code, first = _run_tests(root)
            if code == 0:
                survived.append(name)
            elif first is not None:
                kills[name] = first
            else:
                print(f"mutants: {name}: pytest exit {code} with no failed test", file=sys.stderr)
                return 2
            print(f"mutants: {name}: {kills.get(name) or 'SURVIVED, ' + reason}", file=sys.stderr)
    print(json.dumps({"mutants": len(MUTANTS), "killed": len(kills), "survived": survived, "kills": kills}))
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
