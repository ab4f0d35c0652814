"""The checker's memo tables against a twin that has none.

A wrong memo key is a soundness bug, not a slowdown: the checker would give
one term the typing of another.  The twin is a ``Checker`` whose typing
memos store and never hit, so it types every term from scratch; the real
checker must give the same diagnostics, in order, and the same typing of
every configuration along a monitored walk."""

import pytest

from mfj.evaluator import EConf, Evaluator
from mfj.prelude import load_program
from mfj.typer import Checker, TypecheckError

from conftest import CORPUS, load, perfbench_gen
from test_acceptance import APPLICABLE

MEMOS = ("_val_memo", "_expr_memo", "_frame_memo", "_call_memo")


class Forgetful(dict):
    """A memo table that stores and never hits."""

    def get(self, key, default=None):
        return default

    def __contains__(self, key):
        return False


def twin(prog) -> Checker:
    """A checker of ``prog`` whose typing memos never hit."""
    ck = Checker(prog)
    for name in MEMOS:
        setattr(ck, name, Forgetful())
    return ck


def diagnostics(ck: Checker) -> list:
    return [(d.code, d.rule, d.msg) for d in ck.check_program()]


CHECKED = [(f.stem, f.read_text()) for f in sorted(CORPUS.glob("*.mfj"))] + [
    (f"check_large-{seed}-{i}", item.source)
    for seed in (1, 2, 3)
    for i, item in enumerate(perfbench_gen().check_large(seed))]


@pytest.mark.parametrize("name, src", CHECKED, ids=[n for n, _ in CHECKED])
def test_the_twin_gives_the_same_diagnostics(name, src):
    prog = load_program(src)
    assert diagnostics(Checker(prog)) == diagnostics(twin(prog))


def typing_or_error(type_of, arg):
    try:
        return type_of(arg)
    except TypecheckError as err:
        return str(err)


def walk(prog, monad: str, steps: int = 600):
    """The configurations a monitored walk of ``prog`` under ``monad``
    reaches, in the monitor's order, up to ``steps`` steps."""
    ev = Evaluator(prog, monad)
    start = EConf(prog.main)
    seen, frontier = {start}, [start]
    while frontier and steps > 0:
        c = frontier.pop()
        yield c
        stepped = ev.mon_step(c)
        if stepped is None:
            continue
        steps -= 1
        for c2 in ev.monad.elements(stepped[0], 256):
            if c2 not in seen:
                seen.add(c2)
                frontier.append(c2)


# the same inner frames, first under a frame whose rest chooses and then
# under one whose rest is pure: a frame's typing depends on every frame
# below it
OUTER_FRAMES = """
main = do a = do x = return 0; return x;
       do c = Chooser.choose();
       do b = do x = return 0; return x;
       return b
"""

WALKS = [(name, m) for name, ms in APPLICABLE.items() for m in ms] + [
    ("outer_frames", m) for m in ("list", "dist")]


@pytest.mark.parametrize("name, monad", WALKS)
def test_the_twin_types_every_configuration_alike(name, monad):
    prog = load_program(OUTER_FRAMES) if name == "outer_frames" else load(name)
    real, forgetful = Checker(prog), twin(prog)
    confs = 0
    for c in walk(prog, monad):
        assert typing_or_error(real.type_conf, c) == typing_or_error(
            forgetful.type_conf, c), c
        confs += 1
    assert confs > 1
