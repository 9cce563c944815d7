"""Write the golden CLI outputs that tests/test_golden_cli.py replays.

    python tools/golden_cli.py

It runs the CLI in-process, one call per row, and writes
``tests/data/golden_cli.tsv``:

- ``build-vocab`` on ``data/corpus``, folded and ``--preserve-case``;
- ``normalize`` on every distinct term of the two gold files, under m1,
  m2, m3, m4 and ``m3 --eq 2 --top 3``, against the folded vocabulary;
- ``normalize`` on two gold terms with each ``--config`` file of
  ``CONFIG_CALLS``, three of which the config check rejects;
- ``evaluate`` under m1, m2, m3, m4 and ``m3 --eq 2``, and ``compare``,
  on both gold files.

Each row is ``args<TAB>exit<TAB>stdout``. ``args`` are the CLI arguments,
split on spaces, with ``{data}``, ``{vocab}`` and ``{out}`` standing for the
data directory, the folded vocabulary file and a scratch output file, and
``{conf}`` for ``tests/data``, which holds the config files.
``stdout`` is escaped with ``unicode_escape``. A ``build-vocab`` row's
stdout ends with a ``sha256`` line for the file it wrote. The first row
writes ``{vocab}``, which later rows read.

Regenerate the file only for a change that alters CLI output on purpose,
and say why in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "data" / "golden_cli.tsv"
GOLD_FILES = ("gold_small.tsv", "gold_large.tsv")
CONFIGS = ("--model m1", "--model m2", "--model m3", "--model m4", "--model m3 --eq 2 --top 3")
# a config file, with and without flags; the last three exit 1
CONFIG_CALLS = (
    "--config {conf}/config_m1_eq3.conf",
    "--config {conf}/config_upper_m1.conf",
    "--config {conf}/config_m2_eq2_wt1.conf",
    "--config {conf}/config_m1.conf --eq 1",
    "--config {conf}/config_eq3.conf --model m3",
    "--config {conf}/config_eq5.conf",
)
CONFIG_TERMS = ("bahet", "chinu")  # in and out of the vocabulary


def gold_terms(data: Path) -> list[str]:
    """Every distinct noisy and gold term of the bundled gold files, sorted."""
    terms = set()
    for name in GOLD_FILES:
        for line in (data / name).read_text(encoding="utf-8").splitlines():
            if line.strip() and not line.startswith("#"):
                terms.update(line.split("\t"))
    return sorted(terms)


def calls(data: Path) -> list[str]:
    """The argument templates, in the order they run."""
    rows = [
        "build-vocab --corpus {data}/corpus --out {vocab}",
        "build-vocab --corpus {data}/corpus --out {out} --preserve-case",
    ]
    rows += [
        f"normalize --vocab {{vocab}} {config} --term {term}"
        for config in CONFIGS
        for term in gold_terms(data)
    ]
    rows += [
        f"normalize --vocab {{vocab}} {config} --term {term}"
        for config in CONFIG_CALLS
        for term in CONFIG_TERMS
    ]
    for name in GOLD_FILES:
        gold = f"--vocab {{vocab}} --gold {{data}}/{name} --out {{out}}"
        # evaluate takes no --top
        rows += [f"evaluate {gold} {config}" for config in CONFIGS[:4]] + [f"evaluate {gold} --model m3 --eq 2"]
        rows.append(f"compare {gold}")
    return rows


def run(template: str, data: Path, vocab: Path, out: Path) -> tuple[int, str]:
    """Exit code and stdout of one CLI call; stderr is dropped."""
    from translitnorm.cli import main

    args = [a.format(data=data, vocab=vocab, out=out, conf=GOLDEN.parent) for a in template.split(" ")]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(args)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    text = stdout.getvalue()
    if args[0] == "build-vocab" and code == 0:
        written = Path(args[args.index("--out") + 1]).read_bytes()
        text += f"sha256\t{hashlib.sha256(written).hexdigest()}\n"
    return code, text


def escape(text: str) -> str:
    return text.encode("unicode_escape").decode("ascii")


def unescape(field: str) -> str:
    return field.encode("ascii").decode("unicode_escape")


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    data = ROOT / "data"
    with tempfile.TemporaryDirectory(prefix="golden-") as tmp:
        vocab, out = Path(tmp) / "vocab.tsv", Path(tmp) / "out.tsv"
        lines = []
        for template in calls(data):
            code, text = run(template, data, vocab, out)
            lines.append(f"{template}\t{code}\t{escape(text)}\n")
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text("".join(lines), encoding="utf-8")
    print(f"{GOLDEN.relative_to(ROOT)}: {len(lines)} rows")
    return 0


if __name__ == "__main__":
    sys.exit(main())
