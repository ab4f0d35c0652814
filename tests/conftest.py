import functools
import importlib.util
import pathlib
import sys

import pytest

from mfj import typer
from mfj.prelude import load_program, prelude_program

ROOT = pathlib.Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"


def corpus_text(name: str) -> str:
    return (CORPUS / f"{name}.mfj").read_text()


def perfbench_gen():
    """``perfbench/gen.py``, the benchmark's seeded input generator, loaded
    by path (under its own module name) and only read."""
    gen = sys.modules.get("perfbench_gen")
    if gen is None:
        spec = importlib.util.spec_from_file_location(
            "perfbench_gen", ROOT / "perfbench" / "gen.py")
        gen = sys.modules["perfbench_gen"] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(gen)
    return gen


# the ``check_large`` programs are parsed once for the tests that check them
# or compare their parse with the reference parser's
load_once = functools.cache(load_program)


def load(name: str):
    """Corpus program (prelude included) by basename."""
    return load_program(corpus_text(name))


@pytest.fixture(autouse=True)
def prelude_checked_afresh(request):
    """Around a test that monkeypatches, the prelude's cached diagnostics
    are cleared: before it, and then checked again unpatched, so that every
    such test starts with the prelude checked as a whole run leaves it;
    after it, so that nothing checked under its patches reaches another
    test."""
    if "monkeypatch" not in request.fixturenames:
        yield
        return
    typer._PRELUDE_DIAGS.clear()
    typer.Checker(load_program("")).check_program()
    yield
    typer._PRELUDE_DIAGS.clear()


@pytest.fixture
def prelude():
    return prelude_program()
