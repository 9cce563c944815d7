"""Benchmark of translitnorm: one workload per run, every output checked.

    python3 bench/run.py --workload lookup-50k --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from its
src/ directory and nowhere else. Inputs are generated from the seed into
bench/.work/<workload>/. Each workload is a closed loop: one caller in one
process sends the next operation when the previous one has returned.

With --trace 0 the last line of standard output is a JSON object with the
end-to-end metrics; with --trace 1 it holds the per-layer metrics instead,
and the spans are written to bench/.work/traces/. Every run first checks
that its output checks reject corrupted results (the self-test).
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import gc
import io
import json
import os
import random
import re
import resource
import shutil
import statistics
import subprocess
import sys
from collections import Counter
from collections.abc import Callable
from pathlib import Path
from time import perf_counter

import reference as ref
import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"

TOKEN = re.compile(r"[A-Za-z]{2,}")
DIACRITICS = {"ā": "a", "ī": "i", "ū": "u", "ñ": "n", "ṭ": "t", "ḍ": "d", "ṣ": "s"}
PROBES = 3000  # distinct inputs per run; operations cycle through them
# The timed phase is cut into this many equal segments, each preceded by one
# set-up: the machine's speed swings within seconds, and set-ups spread over
# the run sample it as the operations do.
SEGMENTS = 6


class BenchError(Exception):
    """The benchmark cannot produce a valid result."""


@dataclasses.dataclass
class Case:
    """One workload instance, built from a seed."""

    setup: Callable[[], object]  # the program's own set-up; returns what operations use
    op: Callable[[object, object], object]  # one operation on one input
    inputs: list  # cycled through in order; the first one also serves the self-test
    check: Callable[[object, object], str | None]  # properties of every output
    reference: Callable[[object, object], str | None]  # exact match with the reference ranker
    sample: int  # leading operations also matched against the reference
    corrupt: Callable[[object], list]  # wrong copies of a result, for the self-test
    rusage: int = resource.RUSAGE_SELF
    traced_setup: Callable[[], object] | None = None  # in-process variants for --trace 1
    traced_op: Callable[[object, object], object] | None = None
    vocab_kind: str = "setup"
    extra_layers: Callable[[], dict] = dict


def _count_terms(documents) -> dict[str, tuple[int, int]]:
    """term -> (frequency, documents), counted with the benchmark's own tokenizer."""
    frequency: Counter[str] = Counter()
    documents_with: Counter[str] = Counter()
    for text in documents:
        tokens = [t.lower() for t in TOKEN.findall(text)]
        frequency.update(tokens)
        documents_with.update(set(tokens))
    return {t: (n, documents_with[t]) for t, n in frequency.items()}


def _frequencies(counts) -> dict[str, int]:
    return {t: f for t, (f, _) in counts.items()}


def _vocab_text(counts) -> str:
    rows = sorted(counts.items(), key=lambda kv: (-kv[1][0], kv[0]))
    lines = ["#translit-norm-vocab v1 case_fold=true"]
    lines += [f"{t}\t{f}\t{d}" for t, (f, d) in rows]
    return "\n".join(lines) + "\n"


def _gold_pairs(tn, counts, count, seed):
    """Seeded out-of-vocabulary corruptions of terms of length 4 or more."""
    vocab = tn.vocabulary.Vocabulary(tn.vocabulary.VocabTerm(t, f, d) for t, (f, d) in counts.items())
    return tn.synthetic.gold_pairs(vocab, count, seed)


def _prepare(vocab):
    """Build every bucket's lazily made term matrix, where the vocabulary has them."""
    build = getattr(vocab, "term_matrix", None)  # an implementation detail that may go
    for length in vocab.bucket_lengths() if build else ():
        build(length)
    return vocab


def _ranking_case_parts(counts, model, min_ed=0):
    """expected, check, reference and corrupt functions for rankings of one model."""
    freq = _frequencies(counts)
    ranker = ref.Ranker(freq)

    @functools.lru_cache(maxsize=None)
    def expected(probe):
        return ranker.rank(probe, [model])[model]

    def check(probe, result):
        return ref.check_candidates(probe, result, model, freq, min_ed=min_ed)

    def reference(probe, result):
        return ref.same_ranking(result, expected(probe))

    def corrupt(result):
        wrong = []
        if len(result) >= 2:
            wrong.append([result[1], result[0], *result[2:]])
        if result:
            bumped = dataclasses.replace(result[0], edit_distance=result[0].edit_distance + 1)
            wrong.append([bumped, *result[1:]])
        return wrong

    return expected, check, reference, corrupt


def lookup_50k(tn, seed, work) -> Case:
    rng = random.Random(seed)
    counts = _count_terms(tn.synthetic.corpus_documents(pool_size=50_000, seed=rng.randrange(2**31)))
    path = work / "vocab.tsv"
    path.write_text(_vocab_text(counts), encoding="utf-8")
    probes = [p.noisy for p in _gold_pairs(tn, counts, PROBES, rng.randrange(2**31))]
    config = tn.rules.model_config("m3")
    _, check, reference, corrupt = _ranking_case_parts(counts, "m3")

    return Case(
        setup=lambda: _prepare(tn.vocabulary.load_vocabulary(path)),
        op=lambda vocab, probe: tn.rules.normalize(probe, vocab, config, ref.TOP_K),
        inputs=probes,
        check=check,
        reference=reference,
        sample=20,
        corrupt=corrupt,
    )


def compare_10k(tn, seed, work) -> Case:
    rng = random.Random(seed)
    counts = _count_terms(tn.synthetic.corpus_documents(pool_size=10_000, seed=rng.randrange(2**31)))
    path = work / "vocab.tsv"
    path.write_text(_vocab_text(counts), encoding="utf-8")
    pairs = _gold_pairs(tn, counts, PROBES, rng.randrange(2**31))
    ranker = ref.Ranker(_frequencies(counts))

    def check(pair, report):
        return ref.check_pair_report(pair.noisy, pair.gold, report)[1]

    def reference(pair, report):
        expected = ranker.rank(pair.noisy, list(ref.MODELS))
        want = {m: ref.gold_rank(rows, pair.gold) for m, rows in expected.items()}
        got = ref.check_pair_report(pair.noisy, pair.gold, report)[0]
        return None if got == want else f"gold ranks {got}, reference {want}"

    def corrupt(report):
        # the gold one place lower under m3, every average kept consistent with that
        m3 = report.scores["m3"]
        rank = round(1 / m3.avg_mrr) + 1 if m3.avg_mrr else 1
        moved = dataclasses.replace(
            m3, avg_mrr=1 / rank, avg_p1=float(rank == 1), avg_p5=float(rank <= 5),
            avg_p10=float(rank <= 10),
        )
        return [dataclasses.replace(report, scores={**report.scores, "m3": moved})]

    return Case(
        setup=lambda: _prepare(tn.vocabulary.load_vocabulary(path)),
        op=lambda vocab, pair: tn.evaluation.compare_models([pair], vocab),
        inputs=pairs,
        check=check,
        reference=reference,
        sample=40,
        corrupt=corrupt,
    )


def cli_normalize_10k(tn, seed, work) -> Case:
    rng = random.Random(seed)
    pool = 10_000
    docs = tn.synthetic.corpus_documents(pool_size=pool, seed=rng.randrange(2**31))
    corpus = work / "corpus"
    corpus.mkdir()
    for index, text in enumerate(docs):
        (corpus / f"doc_{index:03d}.txt").write_text(text, encoding="utf-8")
    counts = _count_terms(docs)
    vocab_text = _vocab_text(counts)
    path = work / "vocab.tsv"
    probes = [p.noisy for p in _gold_pairs(tn, counts, PROBES, rng.randrange(2**31))]
    expected, _, _, _ = _ranking_case_parts(counts, "m3")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    # Child processes keep compiled bytecode, as an installed program does,
    # whatever the caller's environment says.
    env.pop("PYTHONDONTWRITEBYTECODE", None)

    def cli(*args):
        return subprocess.run(
            [sys.executable, "-m", "translitnorm.cli", *args],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
        )

    def built(result, out):
        if result.returncode != 0 or result.stdout.splitlines()[:1] != [f"terms\t{pool}"]:
            raise BenchError(f"build-vocab: exit {result.returncode}, {result.stdout!r} {result.stderr!r}")
        if out.read_text(encoding="utf-8") != vocab_text:
            raise BenchError("build-vocab wrote a vocabulary that differs from the corpus counts")
        return out

    def in_process(argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = tn.cli.main(argv)
        return subprocess.CompletedProcess(argv, code, out.getvalue(), "")

    def check(probe, result):
        if result.returncode != 0:
            return f"exit {result.returncode}: {result.stderr.strip()}"
        if result.stdout != ref.render_cli(expected(probe)):
            return f"stdout {result.stdout!r} differs from the reference ranking"
        return None

    def corrupt(result):
        lines = result.stdout.splitlines(keepends=True)
        rank, term, weight, ed = lines[0].rstrip("\n").split("\t")
        bumped = f"{rank}\t{term}\t{weight}\t{int(ed) + 1}\n"
        return [
            subprocess.CompletedProcess(result.args, 0, "".join(wrong), result.stderr)
            for wrong in ([lines[1], lines[0], *lines[2:]], [bumped, *lines[1:]])
        ]

    def import_ms():
        """Importing translitnorm.cli in a fresh process, minus a bare interpreter start."""
        bare, full = [], []
        for _ in range(5):
            for code, times in (("pass", bare), ("import translitnorm.cli", full)):
                start = perf_counter()
                subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, check=True)
                times.append(perf_counter() - start)
        return {"cli.import_ms": (statistics.median(full) - statistics.median(bare)) * 1e3}

    return Case(
        setup=lambda: built(cli("build-vocab", "--corpus", str(corpus), "--out", str(path)), path),
        op=lambda vocab, probe: cli("normalize", "--vocab", str(vocab), "--term", probe),
        inputs=probes,
        check=check,
        reference=lambda probe, result: None,  # check already compares every output
        sample=0,
        corrupt=corrupt,
        rusage=resource.RUSAGE_CHILDREN,
        traced_setup=lambda: built(
            in_process(["build-vocab", "--corpus", str(corpus), "--out", str(path)]), path
        ),
        traced_op=lambda vocab, probe: in_process(["normalize", "--vocab", str(vocab), "--term", probe]),
        vocab_kind="op",
        extra_layers=import_ms,
    )


def _with_diacritic(term: str, rng: random.Random) -> str:
    """Put in one IAST-style letter: over its base letter if present, else inserted."""
    letter = rng.choice(sorted(DIACRITICS))
    spots = [i for i, ch in enumerate(term) if ch == DIACRITICS[letter]]
    if spots:
        i = rng.choice(spots)
        return term[:i] + letter + term[i + 1 :]
    i = rng.randrange(len(term) + 1)
    return term[:i] + letter + term[i:]


def lookup_diacritic(tn, seed, work) -> Case:
    rng = random.Random(seed)
    corpus = ROOT / "data" / "corpus"
    texts = [p.read_text(encoding="utf-8") for p in sorted(corpus.iterdir()) if p.is_file()]
    counts = _count_terms(texts)
    pairs = _gold_pairs(tn, counts, PROBES, rng.randrange(2**31))
    probes = [_with_diacritic(p.noisy, rng) for p in pairs]
    config = tn.rules.model_config("m3")
    _, check, reference, corrupt = _ranking_case_parts(counts, "m3", min_ed=1)

    return Case(
        setup=lambda: tn.vocabulary.build_vocabulary(tn.vocabulary.load_corpus(corpus)),
        op=lambda vocab, probe: tn.rules.normalize(probe, vocab, config, ref.TOP_K),
        inputs=probes,
        check=check,
        reference=reference,
        sample=40,
        corrupt=corrupt,
    )


WORKLOADS = {
    "lookup-50k": lookup_50k,
    "compare-10k": compare_10k,
    "cli-normalize-10k": cli_normalize_10k,
    "lookup-diacritic": lookup_diacritic,
}


def _import_package():
    if not (SRC / "translitnorm" / "__init__.py").is_file():
        raise BenchError(f"no translitnorm source under {SRC}")
    sys.path.insert(0, str(SRC))
    import translitnorm
    import translitnorm.cli
    import translitnorm.synthetic

    if Path(translitnorm.__file__).resolve().parent != (SRC / "translitnorm").resolve():
        raise BenchError(f"translitnorm was imported from {translitnorm.__file__}, not {SRC}")
    return translitnorm


def _verify(case, x, result, full):
    return case.check(x, result) or (case.reference(x, result) if full else None)


def _self_test(case, state):
    """The checks must pass a real result and reject every corrupted copy of it."""
    x = case.inputs[0]
    result = case.op(state, x)
    problem = _verify(case, x, result, True)
    if problem:
        raise BenchError(f"self-test input: {problem}")
    wrong = case.corrupt(result)
    if not wrong or any(_verify(case, x, w, True) is None for w in wrong):
        raise BenchError("self-test: a corrupted result passed the output checks")


def _run_ops(case, state, seconds, tracer, records):
    """Operations back to back for `seconds`, appended to `records`. With a
    tracer, each input runs twice in a row, once traced and once not,
    alternating which goes first."""
    op = case.traced_op if tracer and case.traced_op else case.op
    start = now = perf_counter()
    while now < start + seconds:
        i = len(records) // (2 if tracer else 1)
        x = case.inputs[i % len(case.inputs)]
        if tracer is None:
            modes = [False]
        else:
            modes = [False, True] if i % 2 else [True, False]
        for traced in modes:
            with tracer.span("op") if traced else contextlib.nullcontext():
                if traced:
                    tracer.install()
                began = perf_counter()
                try:
                    result = op(state, x)
                except Exception as exc:  # a failed operation; the loop goes on
                    result = exc
                now = perf_counter()
                if traced:
                    tracer.remove()
            records.append((x, result, now - began, traced))
    return now - start


def _setup(case, tracer):
    setup = (case.traced_setup or case.setup) if tracer else case.setup
    gc.collect()
    if tracer:
        tracer.install()
    start = perf_counter()
    with tracer.span("setup") if tracer else contextlib.nullcontext():
        state = setup()
    elapsed = perf_counter() - start
    if tracer:
        tracer.remove()
    return state, elapsed


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    tn = _import_package()
    work = WORK / workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    case = WORKLOADS[workload](tn, seed, work)
    tracer = tracing.Tracer() if trace else None

    setup_times, records, elapsed = [], [], 0.0
    for segment in range(SEGMENTS):
        state = None  # let the previous state go before the next is built
        state, setup_time = _setup(case, tracer)
        setup_times.append(setup_time)
        if segment == 0:
            _self_test(case, state)
        gc.collect()
        elapsed += _run_ops(case, state, seconds / SEGMENTS, tracer, records)

    failed = wrong = 0
    for k, (x, result, _, _) in enumerate(records):
        if isinstance(result, Exception):
            problem, is_wrong = f"{type(result).__name__}: {result}", False
        else:
            problem = _verify(case, x, result, k < case.sample)
            is_wrong = problem is not None
        if problem:
            failed += 1
            wrong += is_wrong
            if failed <= 3:
                print(f"bench: operation {k} on {x!r} failed: {problem}", file=sys.stderr)

    latencies = [r[2] * 1e3 for r in records]
    if trace:
        pairs = zip(records[::2], records[1::2])
        ratios = [(a[2] / b[2] if a[3] else b[2] / a[2]) for a, b in pairs]
        layers = tracing.layer_metrics(tracer.units(), case.vocab_kind)
        layers.update(case.extra_layers())
        layers["trace.overhead_pct"] = (statistics.median(ratios) - 1) * 100
        path = WORK / "traces" / f"{workload}-seed{seed}.json"
        tracer.write(path, {"workload": workload, "seed": seed, "layers": layers})
        print(f"bench: spans written to {path.relative_to(ROOT)}; absent layers: "
              f"{sorted(tracer.absent) or 'none'}", file=sys.stderr)
        metrics = {name: (value, tracing.UNITS[name]) for name, value in layers.items()}
    else:
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "latency_p50_ms": (statistics.median(latencies), "ms"),
            "latency_p90_ms": (statistics.quantiles(latencies, n=10)[-1], "ms"),
            "ops_per_s": (len(records) / elapsed, "1/s"),
            "peak_rss_mb": (resource.getrusage(case.rusage).ru_maxrss / 1024, "MB"),
        }
    print(f"bench: {workload} seed {seed}: {len(records)} operations in {elapsed:.1f} s, "
          f"{failed} failed", file=sys.stderr)
    return {
        "correct": wrong == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
