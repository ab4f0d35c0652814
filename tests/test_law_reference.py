"""The law suite against its reference: ``interp_law_suite``, which keeps
each lifting's verdicts in a table, reports the violations
``reference_laws.law_violations`` finds by building and evaluating every
lifting for each law instance, the same strings in the same order."""

import pytest

from mfj.monads import get_monad
from mfj.parser import parse_effect
from mfj.prelude import load_program
from mfj.soundness import (
    BrokenExcInterp, Denotation, EffectInterp, interp_law_suite, interps_for,
)
from mfj.typer import Checker

from golden import BrokenDistInterp, BrokenListInterp
from reference_laws import law_violations
from test_acceptance import LAW_EFFECTS, _law_setup
from test_monad_seam import TICKER, DroppingTickMonad, TickMonad

SMALL, FULL = (0, 1), (0, 1, 2)


def agree(interp, sigs, effects, X) -> list:
    got = interp_law_suite(interp, sigs, effects, X=X)
    assert got == law_violations(interp, sigs, effects, X=X)
    return got


@pytest.mark.parametrize("monad,idx,X", [
    ("exc", 0, FULL), ("list", 0, SMALL), ("list", 1, SMALL),
    ("dist", 0, SMALL), ("dist", 1, SMALL), ("id", 0, FULL),
])
def test_the_acceptance_interpretations_agree(monad, idx, X):
    sigs, den, effects = _law_setup()
    assert agree(interps_for(monad, den)[idx], sigs, effects, X) == []


@pytest.mark.parametrize("which,X", [
    ("exc", FULL), ("list", SMALL), ("dist", SMALL)])
def test_the_broken_liftings_agree(which, X):
    sigs, den, effects = _law_setup()
    if which == "exc":
        interp = BrokenExcInterp(den)
    else:
        cls = BrokenListInterp if which == "list" else BrokenDistInterp
        interp = cls(f"broken-{which}", get_monad(which), den)
    assert agree(interp, sigs, effects, X)


@pytest.mark.parametrize("monad", [TickMonad, DroppingTickMonad])
def test_the_writer_monads_agree(monad):
    sigs = Checker(load_program(TICKER)).sigs
    effects = [parse_effect(s) for s in LAW_EFFECTS + ["Ticker.tick"]]
    interp = EffectInterp("tick", monad(), Denotation(sigs))
    got = agree(interp, sigs, effects, SMALL)
    assert bool(got) == (monad is DroppingTickMonad)
