import importlib.util
import pathlib
import sys

import pytest

from mfj.prelude import load_program

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


def load(name: str):
    """Corpus program (prelude included) by basename."""
    return load_program(corpus_text(name))


@pytest.fixture
def prelude():
    from mfj.prelude import prelude_program

    return prelude_program()
