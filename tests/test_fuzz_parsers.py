"""Fuzzing of the three file parsers and of the CLI commands that read them.

Files are built from the pieces the formats are made of (headers, terms,
tabs, every line break ``str.splitlines`` knows, ASCII and Unicode digits,
config keys) plus raw bytes that are not UTF-8. The library parsers must
return a result or raise FormatError, or UnicodeDecodeError on bytes that
are not UTF-8; the CLI must answer with an exit code and never a traceback.
"""

from __future__ import annotations

from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from translitnorm import (
    FormatError,
    build_vocabulary,
    load_corpus,
    load_gold_set,
    load_model_config,
    load_vocabulary,
    save_vocabulary,
)
from translitnorm.cli import main

DATA_DIR = Path(__file__).resolve().parent.parent / "data"

_HEADERS = [
    "#translit-norm-vocab v1 case_fold=true",
    "#translit-norm-vocab v1 case_fold=false",
    "# comment",
    "",
]
_TERMS = ["ab", "Ab", "a", "dhowot", "dzowot", "yoshru", ""]
# "²" passes str.isdigit() but not int(); int() reads Arabic-Indic "١٢" as 12
_COUNTS = ["1", "²", "١٢", "１", "0", "12", "x"]
_KEYS = ["model", "eq", "wt3", "wt9", ""]
_VALUES = ["m1", "m4", "2", "3", "١", "0.5", "nan", "1e9", ""]
_BREAKS = ["\n", "\r\n", "\r", "\x0b", "\x85", "\x1c"]
# lone surrogates encode (surrogateescape) to bytes that are not UTF-8
_RAW = ["\udcff", "\udcc3", "\udc80"]


def _joined(sep, *choices):
    return st.tuples(*map(st.sampled_from, choices)).map(sep.join)


_line = st.one_of(
    _joined("\t", _TERMS, _COUNTS, _COUNTS),  # vocabulary row
    _joined("\t", _TERMS, _TERMS),  # gold row
    _joined("=", _KEYS, _VALUES),  # config row
    st.lists(
        st.sampled_from(
            _HEADERS + _TERMS + _COUNTS + _VALUES + _BREAKS + _RAW + ["\t", "="]
        ),
        max_size=8,
    ).map("".join),
)
file_bytes = st.tuples(
    _joined("", _HEADERS, _BREAKS),
    st.lists(st.tuples(_line, st.sampled_from(_BREAKS)).map("".join), max_size=5),
).map(lambda parts: (parts[0] + "".join(parts[1])).encode("utf-8", "surrogateescape"))

HEADER_ONLY = b"#translit-norm-vocab v1 case_fold=true\n"


def _is_utf8(data: bytes) -> bool:
    try:
        data.decode("utf-8")
    except UnicodeDecodeError:
        return False
    return True


def _accepts(parser, path: Path, data: bytes) -> bool:
    """True when ``parser`` returns a result; False when it rejects cleanly."""
    try:
        parser(path)
    except FormatError:
        return False
    except UnicodeDecodeError:
        assert not _is_utf8(data)
        return False
    return True


@pytest.fixture(scope="module")
def work_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    vocab = build_vocabulary(load_corpus(DATA_DIR / "corpus"))
    save_vocabulary(vocab, root / "vocab.tsv")
    return root


@settings(max_examples=200, deadline=None)
@given(data=file_bytes)
@example(data=HEADER_ONLY)
@example(data=b"\xff\xfe")
def test_parsers_return_or_raise_format_error(work_dir, data):
    path = work_dir / "fuzzed"
    path.write_bytes(data)
    for parser in (load_vocabulary, load_gold_set, load_model_config):
        _accepts(parser, path, data)


@settings(max_examples=40, deadline=None)
@given(data=file_bytes)
@example(data=HEADER_ONLY)
@example(data=b"\xff\xfe")
@example(data=b"dzowot\tdhowot\n")
@example(data=b"dzowot\tdzowot\n")
def test_cli_exits_cleanly(work_dir, data):
    path = work_dir / "fuzzed"
    path.write_bytes(data)
    vocab = str(work_dir / "vocab.tsv")
    out = str(work_dir / "report.tsv")

    code = main(["normalize", "--vocab", str(path), "--term", "dhowot"])
    assert code == (0 if _accepts(load_vocabulary, path, data) else 1)

    code = main(["normalize", "--vocab", vocab, "--config", str(path), "--term", "dhowot"])
    assert code == (0 if _accepts(load_model_config, path, data) else 1)

    code = main(["compare", "--vocab", vocab, "--gold", str(path), "--out", out])
    assert code in ((0, 1, 3) if _accepts(load_gold_set, path, data) else (1,))
