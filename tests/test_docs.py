"""The examples in the documentation run and print what they describe."""

from __future__ import annotations

import doctest
import re
from pathlib import Path

import translitnorm as tn
from translitnorm import distance

ROOT = Path(__file__).resolve().parents[1]


def test_readme_library_example(monkeypatch, capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"^```python\n(.*?)^```", readme, re.M | re.S)
    monkeypatch.chdir(ROOT)  # the example reads data/ relative to the repo root
    exec(compile(block, "README.md", "exec"), {"__name__": "readme"})
    first = capsys.readouterr().out.splitlines()[0]
    term, ed, weight = first.split(" ")
    vocab = tn.build_vocabulary(tn.load_corpus(ROOT / "data" / "corpus"))
    query = re.search(r'tn\.normalize\("(\w+)"', block).group(1)
    top = tn.normalize(query, vocab, tn.model_config("m3"))[0]
    assert (term, int(ed), float(weight)) == (top.term, top.edit_distance, top.proxy_weight)


def test_distance_doctests():
    result = doctest.testmod(distance)
    assert result == (0, 3)
