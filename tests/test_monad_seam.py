"""The monad seam: what a monad means lives on its ``Monad`` subclass.

The modules that use monads, ``soundness``, ``cli`` and ``evaluator``,
import no monad container, compare no monad name and name no magic method
(``monads`` is the one module that does).  A fifth monad defined
here, and nowhere in ``src/``, runs through the evaluator, the soundness
harness, the law suite and the CLI.
"""

import ast
import pathlib
from dataclasses import dataclass
from typing import Any

import pytest

import mfj
from mfj.cli import main
from mfj.evaluator import Evaluator, VRes
from mfj.monads import FALSE, MONADS, TRUE, Monad
from mfj.parser import numeral, parse_effect, parse_type
from mfj.prelude import load_program
from mfj.soundness import (
    Denotation, check_soundness, interp_law_suite, interps_for,
    type_monadic_result,
)
from mfj.syntax import PURE
from mfj.typer import Checker

from conftest import load
from test_acceptance import APPLICABLE, LAW_EFFECTS

# -- the boundary -------------------------------------------------------------

CLIENTS = ("soundness.py", "cli.py", "evaluator.py")
CONTAINERS = {"ExcValue", "LazyList", "Dist", "IdValue", "ID_BOTTOM",
              "EXC_BOTTOM", "Pure", "Raised"}
MONAD_NAMES = {"exc", "list", "dist", "id"}
MAGIC_NAMES = frozenset().union(*(m.magic for m in MONADS.values()))


def breaches(source: str) -> list:
    """Uses of a monad container, monad names compared or used as keys, and
    magic method names, as (line, what) pairs in line order."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Constant) and node.value in MAGIC_NAMES:
            out.append((node.lineno, repr(node.value)))
        name = (node.name.rsplit(".", 1)[-1] if isinstance(node, ast.alias)
                else getattr(node, "attr", None) or getattr(node, "id", None))
        if name in CONTAINERS:
            out.append((node.lineno, name))
        if isinstance(node, ast.Compare):
            keyed = [node.left, *node.comparators]
        elif isinstance(node, ast.Dict):
            keyed = node.keys
        elif isinstance(node, ast.MatchValue):
            keyed = [node.value]
        else:
            keyed = []
        for sub in filter(None, keyed):
            out += [(c.lineno, repr(c.value)) for c in ast.walk(sub)
                    if isinstance(c, ast.Constant) and c.value in MONAD_NAMES]
    return sorted(out)


def test_the_boundary_scan_sees_each_kind_of_breach():
    src = """
from .monads import ExcValue, get_monad
import mfj.monads
if isinstance(m, mfj.monads.LazyList) or monad.name == "exc":
    pass
ok = monad_name in ("list", "dist")
table = {"id": 1}
match name:
    case "exc":
        pass
get_monad("exc")  # picking a monad by name is not deciding on it
ND_METHODS = frozenset({"choose"})
"""
    assert breaches(src) == [
        (2, "ExcValue"), (4, "'exc'"), (4, "LazyList"), (6, "'dist'"),
        (6, "'list'"), (7, "'id'"), (9, "'exc'"), (12, "'choose'")]


@pytest.mark.parametrize("module", CLIENTS)
def test_monad_clients_name_no_monad(module):
    path = pathlib.Path(mfj.__file__).parent / module
    assert breaches(path.read_text()) == []


@pytest.mark.parametrize("name", sorted(MONADS))
def test_a_monad_lifts_only_through_allowed(name):
    # both quantifiers are soundness.EffectInterp.lift, over elements and
    # allowed; no monad, nor the Monad base, has a lifting of its own
    own = {attr for cls in type(MONADS[name]).__mro__ for attr in vars(cls)}
    assert own.isdisjoint({"forall", "exists", "raise_witness"})


HOOKS = ("unit", "bind_unless", "bottom", "elements", "render", "law_samples")


@pytest.mark.parametrize("name", sorted(MONADS))
def test_a_monad_defines_the_hooks_that_have_no_default(name):
    # ``Monad`` gives these six no body, so each monad defines them itself
    mine = vars(type(MONADS[name]))
    assert [h for h in HOOKS if not callable(mine.get(h))] == []
    assert not any(hasattr(Monad, h) for h in HOOKS)
    # its bind is ``Monad``'s, derived from its ``bind_unless``
    assert "bind" not in mine and "bind" in vars(Monad)


# -- a fifth monad: counting writer ------------------------------------------

@dataclass(frozen=True)
class Counted:
    """A result and the number of ``Ticker.tick`` calls that produced it."""

    value: Any
    count: int


class TickMonad(Monad):
    """The writer monad over (N, +, 0), flat over bottom (``None``); its one
    lifting allows ticks only under an effect with a ``tick`` atom."""

    name = "tick"
    quantifiers = ("forall",)
    magic = {"tick": lambda type_name: Counted(TRUE, 1)}

    def unit(self, x):
        return Counted(x, 0)

    def bind_unless(self, m, f, done):
        if m is None or isinstance(m.value, done):
            return m
        r = f(m.value)
        return None if r is None else Counted(r.value, m.count + r.count)

    def bottom(self):
        return None

    def elements(self, m, bound):
        return [] if m is None else [m.value]

    def render(self, m, show, bound):
        return "bottom" if m is None else f"{show(m.value)} ({m.count} ticks)"

    def allowed(self, den, eff):
        if eff.top or any(a.method == "tick" for a in eff.atoms):
            return None
        return lambda m, elems: m is None or m.count == 0

    def law_samples(self, X):
        return [Counted(x, n) for n in (0, 1) for x in X] + [None]

    def outer_samples(self, samples):
        return [Counted(m, 1) for m in samples]


class DroppingTickMonad(TickMonad):
    """A broken bind: the count of the left side is lost."""

    def bind_unless(self, m, f, done):
        return None if m is None or isinstance(m.value, done) else f(m.value)


TICKER = """
Ticker { tick : mgc -> Bool }
"""
TICKS = TICKER + "main = do a = Ticker.tick(); do b = Ticker.tick(); b.not()\n"
PURE_PROGRAMS = [n for n, ms in APPLICABLE.items() if len(ms) == 4]


@pytest.fixture
def tick(monkeypatch):
    monkeypatch.setitem(MONADS, "tick", TickMonad())


def _laws():
    sigs = Checker(load_program(TICKER)).sigs
    effects = [parse_effect(s) for s in LAW_EFFECTS + ["Ticker.tick"]]
    return interp_law_suite(interps_for("tick", Denotation(sigs))[0], sigs,
                            effects)


def test_ticks_are_counted(tick):
    prog = load_program(TICKS)
    res = Evaluator(prog, "tick").finitary(prog.main, 100)
    assert res == Counted(VRes(FALSE), 2)


@pytest.mark.parametrize("name", PURE_PROGRAMS + ["ticks"])
def test_the_writer_monad_passes_the_soundness_checks(tick, name):
    prog = load_program(TICKS) if name == "ticks" else load(name)
    rep = check_soundness(prog, "tick", name=name, fuel=10000, approx_to=64)
    assert rep.ok, rep.summary()
    assert {r.check for r in rep.records} >= {"per-step", "finitary/tick"}


def test_the_writer_monad_satisfies_the_lifting_laws(tick):
    assert _laws() == []


def test_a_tick_is_not_allowed_under_a_pure_effect(tick):
    ck = Checker(load_program(TICKER))
    [itp] = interps_for("tick", Denotation(ck.sigs), which="exists")
    one = Counted(VRes(numeral(1)), 1)
    nat = parse_type("Nat")
    assert not type_monadic_result(ck, itp, one, nat, PURE)
    assert type_monadic_result(ck, itp, one, nat, parse_effect("Ticker.tick"))


def test_a_bind_that_drops_the_left_count_is_caught(monkeypatch):
    monkeypatch.setitem(MONADS, "tick", DroppingTickMonad())
    assert any(v.startswith("naturality fails") for v in _laws())


def test_the_cli_offers_every_monad(tick, tmp_path, capsys):
    path = tmp_path / "ticks.mfj"
    path.write_text(TICKS)
    assert main(["run", str(path), "--monad", "tick"]) == 0
    assert capsys.readouterr().out == "False (2 ticks)\n"
