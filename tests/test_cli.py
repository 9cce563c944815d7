from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from translitnorm.cli import main

from helpers import MALFORMED_VOCABULARIES


@pytest.fixture()
def corpus_dir(tmp_path):
    root = tmp_path / "corpus"
    root.mkdir()
    (root / "doc1.txt").write_text("phule phule naava raat\n|| 1 ||\n")
    (root / "doc2.txt").write_text("gaanee kaane phulen baad raat\n")
    return root


@pytest.fixture()
def vocab_file(tmp_path, corpus_dir):
    path = tmp_path / "vocab.tsv"
    assert main(["build-vocab", "--corpus", str(corpus_dir), "--out", str(path)]) == 0
    return path


class TestBuildVocab:
    def test_writes_vocabulary_and_counts(self, tmp_path, corpus_dir, capsys):
        out = tmp_path / "vocab.tsv"
        code = main(["build-vocab", "--corpus", str(corpus_dir), "--out", str(out)])
        assert code == 0
        captured = capsys.readouterr()
        assert "terms\t7" in captured.out
        assert "tokens\t9" in captured.out
        lines = out.read_text().splitlines()
        assert lines[0] == "#translit-norm-vocab v1 case_fold=true"
        assert lines[1].startswith("phule\t2") or lines[1].startswith("raat\t2")

    def test_preserve_case(self, tmp_path):
        root = tmp_path / "c"
        root.mkdir()
        (root / "d.txt").write_text("shrI shri")
        out = tmp_path / "v.tsv"
        assert main(["build-vocab", "--corpus", str(root), "--out", str(out), "--preserve-case"]) == 0
        assert "case_fold=false" in out.read_text().splitlines()[0]
        assert len(out.read_text().splitlines()) == 3  # two distinct spellings

    def test_empty_corpus(self, tmp_path, capsys):
        root = tmp_path / "empty"
        root.mkdir()
        code = main(["build-vocab", "--corpus", str(root), "--out", str(tmp_path / "v")])
        assert code == 1
        assert "empty corpus" in capsys.readouterr().err

    def test_missing_directory(self, tmp_path, capsys):
        code = main(["build-vocab", "--corpus", str(tmp_path / "nope"), "--out", str(tmp_path / "v")])
        assert code == 1

    def test_unwritable_output(self, tmp_path, corpus_dir):
        out = tmp_path / "no-such-dir" / "v.tsv"
        assert main(["build-vocab", "--corpus", str(corpus_dir), "--out", str(out)]) == 1


class TestNormalizeCommand:
    def test_exact_match(self, vocab_file, capsys):
        code = main(["normalize", "--vocab", str(vocab_file), "--term", "phule"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1
        rank, term, weight, ed = lines[0].split("\t")
        assert (rank, term, ed) == ("1", "phule", "0")

    def test_model_m2_promotes_matching_first_letter(self, vocab_file, capsys):
        code = main(
            ["normalize", "--vocab", str(vocab_file), "--term", "gaane", "--model", "m2"]
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].split("\t")[1] == "gaanee"

    def test_weight_formatting(self, vocab_file, capsys):
        main(["normalize", "--vocab", str(vocab_file), "--term", "fule", "--model", "m1"])
        for line in capsys.readouterr().out.splitlines():
            weight = line.split("\t")[2]
            assert len(weight.split(".")[1]) == 6

    def test_top_limits_output(self, vocab_file, capsys):
        main(["normalize", "--vocab", str(vocab_file), "--term", "raav", "--top", "1"])
        assert len(capsys.readouterr().out.splitlines()) <= 1

    def test_no_candidates_is_success(self, vocab_file, capsys):
        code = main(["normalize", "--vocab", str(vocab_file), "--term", "zzzzzzzzzz"])
        assert code == 0
        assert capsys.readouterr().out == ""

    def test_short_term_exits_2(self, vocab_file, capsys):
        code = main(["normalize", "--vocab", str(vocab_file), "--term", "x"])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_missing_vocab_exits_1(self, tmp_path):
        code = main(["normalize", "--vocab", str(tmp_path / "v"), "--term", "ab"])
        assert code == 1

    def test_malformed_vocab_exits_1(self, tmp_path):
        bad = tmp_path / "bad.tsv"
        bad.write_text("not a vocabulary\n")
        assert main(["normalize", "--vocab", str(bad), "--term", "ab"]) == 1

    @pytest.mark.parametrize("content,message", MALFORMED_VOCABULARIES)
    def test_malformed_vocab_error_text(self, tmp_path, capsys, content, message):
        bad = tmp_path / "bad.tsv"
        bad.write_text(content, encoding="utf-8")
        assert main(["normalize", "--vocab", str(bad), "--term", "ab"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_eq_with_m1_is_usage_error(self, vocab_file):
        with pytest.raises(SystemExit) as err:
            main(["normalize", "--vocab", str(vocab_file), "--term", "ab", "--model", "m1", "--eq", "2"])
        assert err.value.code == 2

    @pytest.mark.parametrize("top", ["abc", "0"])
    def test_top_must_be_a_positive_integer(self, vocab_file, capsys, top):
        with pytest.raises(SystemExit) as err:
            main(["normalize", "--vocab", str(vocab_file), "--term", "ab", "--top", top])
        assert err.value.code == 2
        message = capsys.readouterr().err.splitlines()[-1]
        assert message.endswith(f"error: argument --top: must be an integer >= 1, got '{top}'")

    # int() reads "٣" as 3 and "1_0" as 10; "²" is a digit to isdigit() alone
    @pytest.mark.parametrize("value", ["٣", "²", "1_0"])
    @pytest.mark.parametrize(
        ("command", "option"),
        [("normalize", "--top"), ("normalize", "--eq"), ("evaluate", "--eq")],
        ids=["normalize-top", "normalize-eq", "evaluate-eq"],
    )
    def test_integer_options_take_ascii_digits_only(
        self, vocab_file, tmp_path, capsys, command, option, value
    ):
        out = tmp_path / "report.tsv"
        rest = ["--term", "raav"] if command == "normalize" else ["--gold", "gold.tsv", "--out", str(out)]
        with pytest.raises(SystemExit) as err:
            main([command, "--vocab", str(vocab_file), *rest, option, value])
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[-1].endswith(
            f"error: argument {option}: must be an integer >= 1, got '{value}'"
        )
        assert not out.exists()

    def test_unknown_flag_rejected(self, vocab_file):
        with pytest.raises(SystemExit) as err:
            main(["normalize", "--vocab", str(vocab_file), "--term", "ab", "--frobnicate"])
        assert err.value.code == 2

    def test_config_file_weights(self, vocab_file, tmp_path, capsys):
        conf = tmp_path / "conf"
        conf.write_text("model=m2\nwt1=0.4\n")  # first-letter bonus neutralized
        main(["normalize", "--vocab", str(vocab_file), "--term", "gaane", "--config", str(conf)])
        first = capsys.readouterr().out.splitlines()[0]
        assert first.split("\t")[1] == "gaanee"  # still first on shorter distance ratio

    def test_bad_config_exits_1(self, vocab_file, tmp_path):
        conf = tmp_path / "conf"
        conf.write_text("bogus=1\n")
        assert main(["normalize", "--vocab", str(vocab_file), "--term", "ab", "--config", str(conf)]) == 1


class TestEvaluateAndCompare:
    @pytest.fixture()
    def gold_file(self, tmp_path):
        path = tmp_path / "gold.tsv"
        path.write_text("# pairs\nfule\tphule\nraas\traat\n")
        return path

    def test_evaluate_writes_and_echoes(self, vocab_file, gold_file, tmp_path, capsys):
        out = tmp_path / "report.tsv"
        code = main(
            ["evaluate", "--vocab", str(vocab_file), "--gold", str(gold_file),
             "--model", "m2", "--out", str(out)]
        )
        assert code == 0
        text = out.read_text()
        assert capsys.readouterr().out == text
        lines = text.splitlines()
        assert lines[0] == "Measure\tM2"
        assert len(lines) == 5

    def test_compare_report_shape(self, vocab_file, gold_file, tmp_path, capsys):
        out = tmp_path / "report.tsv"
        assert main(["compare", "--vocab", str(vocab_file), "--gold", str(gold_file), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "Measure\tM1\tM2\tM3\tM4"
        for line in lines[1:]:
            cells = line.split("\t")[1:]
            assert len(cells) == 4
            assert all(0.0 <= float(cell) <= 1.0 for cell in cells)

    def test_identity_gold_all_ones(self, vocab_file, tmp_path, capsys):
        gold = tmp_path / "gold.tsv"
        gold.write_text("phule\tphule\nraat\traat\n")
        out = tmp_path / "report.tsv"
        assert main(["compare", "--vocab", str(vocab_file), "--gold", str(gold), "--out", str(out)]) == 0
        for line in out.read_text().splitlines()[1:]:
            assert line.split("\t")[1:] == ["1.000000"] * 4

    def test_byte_identical_runs(self, vocab_file, gold_file, tmp_path, capsys):
        out1, out2 = tmp_path / "r1.tsv", tmp_path / "r2.tsv"
        main(["compare", "--vocab", str(vocab_file), "--gold", str(gold_file), "--out", str(out1)])
        main(["compare", "--vocab", str(vocab_file), "--gold", str(gold_file), "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    def test_missing_gold_term_exits_3(self, vocab_file, tmp_path, capsys):
        gold = tmp_path / "gold.tsv"
        gold.write_text("fule\tabsent\n")
        out = tmp_path / "report.tsv"
        code = main(["compare", "--vocab", str(vocab_file), "--gold", str(gold), "--out", str(out)])
        assert code == 3
        assert "absent" in capsys.readouterr().err

    def test_bad_config_before_missing_gold_term(self, vocab_file, tmp_path, capsys):
        # the config is resolved before the gold terms are checked, so it decides
        gold = tmp_path / "gold.tsv"
        gold.write_text("fule\tabsent\n")
        conf = tmp_path / "conf"
        conf.write_text("bogus=1\n")
        out = tmp_path / "report.tsv"
        code = main(
            ["evaluate", "--vocab", str(vocab_file), "--gold", str(gold),
             "--config", str(conf), "--out", str(out)]
        )
        assert code == 1
        assert "absent" not in capsys.readouterr().err
        assert not out.exists()

    def test_malformed_gold_exits_1(self, vocab_file, tmp_path):
        gold = tmp_path / "gold.tsv"
        gold.write_text("only-one-column\n")
        out = tmp_path / "report.tsv"
        assert main(["evaluate", "--vocab", str(vocab_file), "--gold", str(gold), "--out", str(out)]) == 1

    def test_empty_gold_exits_1(self, vocab_file, tmp_path):
        gold = tmp_path / "gold.tsv"
        gold.write_text("# nothing here\n")
        out = tmp_path / "report.tsv"
        assert main(["evaluate", "--vocab", str(vocab_file), "--gold", str(gold), "--out", str(out)]) == 1


# Runs CLI commands in one fresh interpreter; after the import and after each
# command it records [exit code, stdout lines, whether numpy is loaded].
_NUMPY_PROBE = """
import contextlib, io, json, sys
import translitnorm, translitnorm.cli, translitnorm.synthetic

steps = [[None, 0, "numpy" in sys.modules]]
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = translitnorm.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    steps.append([code, len(out.getvalue().splitlines()), "numpy" in sys.modules])
print(json.dumps(steps))
"""


def test_numpy_loads_only_for_an_ascii_bucket_scan(tmp_path, corpus_dir):
    vocab = str(tmp_path / "vocab.tsv")
    commands = [
        ["build-vocab", "--corpus", str(corpus_dir), "--out", vocab],
        ["normalize", "--vocab", vocab, "--term", "phule"],  # in the vocabulary
        ["normalize", "--vocab", vocab, "--term", "phulā"],  # scanned in pure Python
        ["normalize", "--vocab", vocab, "--term", "phule", "--top", "0"],  # usage error
        ["normalize", "--vocab", vocab, "--term", "phulx"],  # scanned with numpy
    ]
    src = Path(__file__).resolve().parent.parent / "src"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", _NUMPY_PROBE, json.dumps(commands)],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, timeout=60, check=True,
    )
    imported, built, exact, diacritic, usage, ascii_scan = json.loads(done.stdout)
    assert imported == [None, 0, False]
    assert built == [0, 2, False]
    assert exact == [0, 1, False]
    assert diacritic[0] == 0 and diacritic[1] >= 1 and diacritic[2] is False
    assert usage == [2, 0, False]
    assert ascii_scan[0] == 0 and ascii_scan[1] >= 1 and ascii_scan[2] is True
