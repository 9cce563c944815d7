"""The package's public names are its submodules' own, each spelled once."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import translitnorm
from translitnorm import distance, errors, evaluation, rules, synthetic, vocabulary

MODULES = (distance, errors, evaluation, rules, vocabulary)
SRC = Path(translitnorm.__file__).resolve().parents[1]


def _ids(modules):
    return [module.__name__.rpartition(".")[2] for module in modules]


def test_no_duplicates():
    assert len(translitnorm.__all__) == len(set(translitnorm.__all__))


def test_union_of_submodule_names():
    union = [name for module in MODULES for name in module.__all__]
    assert sorted(translitnorm.__all__) == sorted(union)


@pytest.mark.parametrize("module", MODULES, ids=_ids(MODULES))
def test_names_are_the_defining_objects(module):
    for name in module.__all__:
        assert getattr(translitnorm, name) is getattr(module, name), name


@pytest.mark.parametrize("module", [*MODULES, synthetic], ids=_ids([*MODULES, synthetic]))
def test_submodule_names_exist(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []


def test_import_loads_no_generator_or_cli_and_leaks_nothing():
    def run(module):
        code = (
            f"import json, sys, {module}, translitnorm as tn; "
            "print(json.dumps([sorted(n for n in dir(tn) if not n.startswith('_')), "
            "sorted(m for m in sys.modules if m.startswith('translitnorm'))]))"
        )
        path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONPATH=path)
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        return json.loads(out.stdout)

    public, loaded = run("translitnorm")
    submodules = [module.__name__ for module in MODULES]
    assert public == sorted([*translitnorm.__all__, *_ids(MODULES)])
    assert loaded == sorted(["translitnorm", *submodules])
    # the generator needs the library, not the command line
    _, loaded = run("translitnorm.synthetic")
    assert loaded == sorted(["translitnorm", *submodules, "translitnorm.synthetic"])
