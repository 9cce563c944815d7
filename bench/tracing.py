"""Layer tracing from outside the program.

The tracer replaces module attributes of translitnorm with timing wrappers
while it is installed and puts the originals back when it is removed; the
package source is never edited. Spans (name, start, end, parent, counts)
stay in memory until the run writes them out. A target that no longer
exists is recorded as an absent layer and its metrics read 0.
"""

from __future__ import annotations

import importlib
import json
import statistics
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

# Counts are averaged over the first traced operations only, so that the
# same seed gives the same counts whatever the run's length.
COUNT_WINDOW = 20

UNITS = {
    "cli.import_ms": "ms",
    "cli.main_ms": "ms",
    "vocabulary.load_ms": "ms",
    "vocabulary.term_matrix_ms": "ms",
    "vocabulary.build_ms": "ms",
    "rules.normalize_ms": "ms",
    "rules.scan_ms": "ms",
    "rules.score_ms": "ms",
    "rules.buckets_visited": "count",
    "rules.rows_scanned": "count",
    "rules.rows_within_bound": "count",
    "rules.within_bound_ratio": "ratio",
    "rules.candidates": "count",
    "distance.bounded_calls": "count",
    "distance.bounded_ms": "ms",
    "evaluation.pair_ms": "ms",
    "evaluation.normalize_calls": "count",
    "evaluation.rows_scanned": "count",
    "evaluation.self_ms": "ms",
    "trace.overhead_pct": "%",
}


def _scan_counts(attrs, args, result):
    vocab, length = args[0], args[1]
    attrs["rows"] = len(vocab.bucket(length))
    attrs["within"] = len(result)


def _candidate_count(attrs, args, result):
    attrs["candidates"] = len(result)


# (module, attribute, span name, hook adding counts); several attributes may
# alias one layer, as when a module imports a function by name.
TARGETS = (
    ("translitnorm.cli", "main", "cli.main", None),
    ("translitnorm.vocabulary", "load_vocabulary", "vocabulary.load", None),
    ("translitnorm.vocabulary", "build_vocabulary", "vocabulary.build", None),
    ("translitnorm.vocabulary", "Vocabulary.term_matrix", "vocabulary.term_matrix", None),
    ("translitnorm.evaluation", "compare_models", "evaluation.compare", None),
    ("translitnorm.rules", "normalize", "rules.normalize", _candidate_count),
    ("translitnorm.evaluation", "normalize", "rules.normalize", _candidate_count),
    ("translitnorm.rules", "_bucket_distances", "rules.scan", _scan_counts),
)
# Called about two thousand times a query on the pure-Python path: counted
# into the enclosing span instead of opening a span per call.
LEAF_TARGETS = (("translitnorm.rules", "levenshtein_bounded", "distance.bounded"),)


def _resolve(module, path):
    try:
        owner = importlib.import_module(module)
        *parents, attr = path.split(".")
        for parent in parents:
            owner = getattr(owner, parent)
        return owner, attr, getattr(owner, attr)
    except (ImportError, AttributeError):
        return None


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, attrs]
        self._stack: list[int] = []
        self._patches = []  # (owner, attribute, original, wrapper)
        targets = [(m, p, name, self._wrap, hook) for m, p, name, hook in TARGETS]
        targets += [(m, p, name, self._wrap_leaf, None) for m, p, name in LEAF_TARGETS]
        patched = set()
        for module, path, name, wrap, hook in targets:
            found = _resolve(module, path)
            if found:
                owner, attr, fn = found
                self._patches.append((owner, attr, fn, wrap(fn, name, hook)))
                patched.add(name)
        # a layer is absent when none of its aliases exists any more
        self.absent: set[str] = {t[2] for t in targets} - patched

    def install(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def remove(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def _open(self, name: str, attrs: dict) -> list:
        parent = self._stack[-1] if self._stack else None
        record = [name, perf_counter(), None, parent, attrs]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        return record

    def _close(self, record: list) -> None:
        record[2] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, **attrs):
        record = self._open(name, attrs)
        try:
            yield record
        finally:
            self._close(record)

    def _wrap(self, fn, name, hook):
        tracer = self

        def wrapper(*args, **kwargs):
            record = tracer._open(name, {})
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(record)
            if hook is not None:
                try:
                    hook(record[4], args, result)
                except (AttributeError, IndexError, TypeError):
                    tracer.absent.add(f"{name} counts")
            return result

        return wrapper

    def _wrap_leaf(self, fn, name, hook):
        tracer = self

        def wrapper(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                if tracer._stack:
                    attrs = tracer.spans[tracer._stack[-1]][4]
                    attrs["bounded_calls"] = attrs.get("bounded_calls", 0) + 1
                    attrs["bounded_s"] = attrs.get("bounded_s", 0.0) + elapsed

        return wrapper

    def units(self) -> list[dict]:
        """Per root span: its kind plus time, calls and counts summed per layer."""
        units = []
        for name, start, end, parent, attrs in self.spans:
            if parent is None:
                unit = {"kind": name, "ms": {}, "calls": {}, "attrs": {}}
                units.append(unit)
                continue
            unit["ms"][name] = unit["ms"].get(name, 0.0) + (end - start) * 1e3
            unit["calls"][name] = unit["calls"].get(name, 0) + 1
            for key, value in attrs.items():
                unit["attrs"][key] = unit["attrs"].get(key, 0) + value
        return units

    def self_times(self) -> dict[str, float]:
        """Total self time per span name in ms: duration minus child spans."""
        own = [(end - start) for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                own[parent] -= end - start
        totals: dict[str, float] = {}
        for (name, *_), value in zip(self.spans, own):
            totals[name] = totals.get(name, 0.0) + value * 1e3
        return totals

    def write(self, path: Path, extra: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = dict(extra, absent=sorted(self.absent), self_ms=self.self_times(), spans=self.spans)
        path.write_text(json.dumps(payload), encoding="utf-8")


def layer_metrics(units: list[dict], vocab_kind: str) -> dict[str, float]:
    """Per-layer figures: times as medians over units, counts as means over
    the first COUNT_WINDOW operations. ``vocab_kind`` names the units whose
    vocabulary loads count ("setup" in-process, "op" where every operation
    loads its own vocabulary)."""
    ops = [u for u in units if u["kind"] == "op"]
    window = ops[:COUNT_WINDOW]
    evals = [u for u in ops if "evaluation.compare" in u["calls"]]

    def ms(u, name):
        return u["ms"].get(name, 0.0)

    def median(kind_units, value):
        return statistics.median([value(u) for u in kind_units]) if kind_units else 0.0

    def mean(kind_units, value):
        return statistics.fmean([value(u) for u in kind_units]) if kind_units else 0.0

    vocab_units = [u for u in units if u["kind"] == vocab_kind]
    setups = [u for u in units if u["kind"] == "setup"]
    rows = mean(window, lambda u: u["attrs"].get("rows", 0))
    within = mean(window, lambda u: u["attrs"].get("within", 0))
    return {
        "cli.import_ms": 0.0,  # measured outside the trace, by the CLI workload
        "cli.main_ms": median(ops, lambda u: ms(u, "cli.main")),
        "vocabulary.load_ms": median(vocab_units, lambda u: ms(u, "vocabulary.load")),
        "vocabulary.term_matrix_ms": median(vocab_units, lambda u: ms(u, "vocabulary.term_matrix")),
        "vocabulary.build_ms": median(setups, lambda u: ms(u, "vocabulary.build")),
        "rules.normalize_ms": median(ops, lambda u: ms(u, "rules.normalize")),
        "rules.scan_ms": median(ops, lambda u: ms(u, "rules.scan")),
        "rules.score_ms": median(ops, lambda u: ms(u, "rules.normalize") - ms(u, "rules.scan")),
        "rules.buckets_visited": mean(window, lambda u: u["calls"].get("rules.scan", 0)),
        "rules.rows_scanned": rows,
        "rules.rows_within_bound": within,
        "rules.within_bound_ratio": within / rows if rows else 0.0,
        "rules.candidates": mean(window, lambda u: u["attrs"].get("candidates", 0)),
        "distance.bounded_calls": mean(window, lambda u: u["attrs"].get("bounded_calls", 0)),
        "distance.bounded_ms": median(ops, lambda u: u["attrs"].get("bounded_s", 0.0) * 1e3),
        "evaluation.pair_ms": median(evals, lambda u: ms(u, "evaluation.compare")),
        "evaluation.normalize_calls": mean(
            evals[:COUNT_WINDOW], lambda u: u["calls"].get("rules.normalize", 0)
        ),
        "evaluation.rows_scanned": mean(evals[:COUNT_WINDOW], lambda u: u["attrs"].get("rows", 0)),
        "evaluation.self_ms": median(
            evals, lambda u: ms(u, "evaluation.compare") - ms(u, "rules.normalize")
        ),
    }
