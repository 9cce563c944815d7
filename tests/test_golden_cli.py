"""Replay the golden CLI outputs in tests/data/golden_cli.tsv.

The file pins the stdout and exit code of every CLI call that
``tools/golden_cli.py`` makes: build-vocab's file digests, normalize on
every gold term under five configurations and on two terms with each config
file of ``tests/data``, and evaluate and compare on both gold sets. It was written once and shares no code with the scan or the
scoring, so any change to them that alters an output fails here with the
first differing call.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location("golden_cli", ROOT / "tools" / "golden_cli.py")
golden_cli = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(golden_cli)


def _rows() -> list[tuple[str, int, str]]:
    rows = []
    for line in golden_cli.GOLDEN.read_text(encoding="utf-8").splitlines():
        template, code, stdout = line.split("\t")
        rows.append((template, int(code), golden_cli.unescape(stdout)))
    return rows


def test_golden_file_covers_every_call():
    data = ROOT / "data"
    assert [template for template, _, _ in _rows()] == golden_cli.calls(data)
    assert len(golden_cli.gold_terms(data)) == 244


def test_cli_outputs_match_golden(tmp_path):
    vocab, out = tmp_path / "vocab.tsv", tmp_path / "out.tsv"
    for template, code, stdout in _rows():
        got_code, got = golden_cli.run(template, ROOT / "data", vocab, out)
        assert (got_code, got) == (code, stdout), (
            f"first differing call: {template}\n"
            f"golden (exit {code}):\n{stdout}\nnow (exit {got_code}):\n{got}"
        )
