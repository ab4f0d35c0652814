"""The checker's and the signature session's memo tables against a twin
that has none.

A wrong memo key is a soundness bug, not a slowdown: the checker would give
one term the typing of another.  The twin is a ``Checker`` whose typing memo
and ``Sigs`` memos store and never hit, so it types every term and extracts
every signature from scratch; the real checker must give the same
diagnostics, in order, and the same typing of every configuration along a
monitored walk, and an evaluator whose ``Sigs`` memos never hit must give
the same ``finitary`` result.  ``Sigs._sub_memo`` and ``Sigs._supers`` are
cycle guards, whose in-progress entries stop the recursion through a cyclic
subtyping question or hierarchy, so their twin tables keep an entry only
while its question is open and forget the answer.  The checker's twins
forget the ``Sigs`` memos in two groups, one twin each: with ``_sig_memo``
and ``_decl_sig`` forgetful together, every signature lookup extracts its
whole inheritance chain again, and checking ``CHECKED``, whose generated
programs have long chains, takes 1.6 s instead of 0.3 s.  The evaluator's
table of recent steps has a twin too: an evaluator whose table never hits
must run every program to the same result, approximations and trace, and
a soundness monitor whose denotation's excSet memo never hits must report
the same checks and witnesses.  So does the prelude's diagnostics cache: a
check that reads it must give the diagnostics of a check of every
declaration, under every seeded fault."""

import contextlib

import pytest

from mfj import faults, typer
from mfj.evaluator import Diverged, EConf, Evaluator, PrefixExceeded
from mfj.prelude import load_program, prelude_program
from mfj.soundness import Denotation, check_soundness
from mfj.syntax import Program
from mfj.typer import Checker, TypecheckError

from conftest import CORPUS, load, load_once, perfbench_gen
from test_acceptance import APPLICABLE

MEMOS = ("_memo",)
# the ``Sigs`` memos in two groups, one twin each, a cycle guard in each
GUARDS = ("_sub_memo", "_supers")
SIG_GROUPS = (("_sig_memo", "simplify_memo", "_wf_memo", "_sub_memo"),
              ("_decl_sig", "_binds", "mbodies", "_supers"))


class Forgetful(dict):
    """A memo table that stores and never hits."""

    def get(self, key, default=None):
        return default

    def __contains__(self, key):
        return False


class ForgetfulSet(set):
    """A set-like memo table that stores and never holds anything."""

    def __contains__(self, key):
        return False


class OpenOnly(dict):
    """A cycle guard's table that keeps an entry only while its question is
    open: the first store of a key is the guard, the second the answer,
    which the table drops."""

    def __setitem__(self, key, value):
        if key in self:
            del self[key]
        else:
            super().__setitem__(key, value)


def forget(sigs, names):
    """``sigs`` with its memos ``names`` forgetful."""
    for name in names:
        table = getattr(sigs, name)
        setattr(sigs, name, OpenOnly() if name in GUARDS
                else ForgetfulSet() if isinstance(table, set) else Forgetful())


def twin(prog, sig_memos) -> Checker:
    """A checker of ``prog`` whose typing memo and signature memos
    ``sig_memos`` never hit."""
    ck = Checker(prog)
    for name in MEMOS:
        setattr(ck, name, Forgetful())
    forget(ck.sigs, sig_memos)
    return ck


def diagnostics(ck: Checker) -> list:
    return [(d.code, d.rule, d.msg) for d in ck.check_program()]


# the same nodes under two bounds of X: ``Box[X]`` is well-formed under C's
# and not under D's, and the signature of ``X`` has ``a`` under F's and not
# under H's
BOUNDS = """
Box[Y <: Nat] { get : abs -> Y ! pure }
C[X <: Nat] { b : abs -> Box[X] ! pure }
D[X <: Bool] { b : abs -> Box[X] ! pure }
P { a : def -> Nat ! pure <_, return 0> }
R { c : def -> Nat ! pure <_, return 0> }
F[X <: P] { f : def X -> Nat ! pure <_ x, x.a()> }
H[X <: R] { f : def X -> Nat ! pure <_ x, x.a()> }
main = return 0
"""

# one generic parent reached under two type arguments: A[Nat] is not below
# B[Bool], and A[Bool] is
TWO_ARGS = """
B[X] { get : abs -> X ! pure }
A[X] <| B[X] { }
C { f : def A[Nat] -> B[Bool] ! pure <_ a, return a> }
D { g : def A[Bool] -> B[Bool] ! pure <_ a, return a> }
main = return 0
"""

CHECKED = [(f.stem, f.read_text()) for f in sorted(CORPUS.glob("*.mfj"))] + [
    (f"check_large-{seed}-{i}", item.source)
    for seed in (1, 2, 3)
    for i, item in enumerate(perfbench_gen().check_large(seed))] + [
    ("bounds", BOUNDS), ("two_args", TWO_ARGS), ("prelude", None)]



@pytest.mark.parametrize("name, src", CHECKED, ids=[n for n, _ in CHECKED])
def test_the_twin_gives_the_same_diagnostics(name, src):
    # every other program reads the prelude's diagnostics from the cache,
    # so the prelude is a case of its own, and its check types every body
    prog = prelude_program() if src is None else load_once(src)
    expected = diagnostics(Checker(prog))
    for group in SIG_GROUPS:
        assert diagnostics(twin(prog, group)) == expected, group


def shown(diags) -> list:
    return [(str(d), repr(d)) for d in diags]


def cached_and_bypassed(prog, monkeypatch) -> tuple:
    """The diagnostics of ``prog`` with the prelude's read from the cache,
    and with every declaration checked, as if the prelude had none."""
    cached = shown(Checker(prog).check_program())
    with monkeypatch.context() as m:
        m.setattr(typer, "prelude_program", lambda: Program(()))
        return cached, shown(Checker(prog).check_program())


@pytest.mark.parametrize("fault", [None, *faults.NAMES])
def test_the_prelude_cache_gives_every_corpus_diagnostic(fault, monkeypatch):
    with faults.inject(fault) if fault else contextlib.nullcontext():
        for f in sorted(CORPUS.glob("*.mfj")):
            cached, bypassed = cached_and_bypassed(
                load_program(f.read_text()), monkeypatch)
            assert cached == bypassed, f.stem


@pytest.mark.parametrize("seed", range(1, 7))
def test_the_prelude_cache_gives_every_check_large_diagnostic(seed,
                                                              monkeypatch):
    for item in perfbench_gen().check_large(seed):
        cached, bypassed = cached_and_bypassed(load_once(item.source),
                                               monkeypatch)
        assert cached == bypassed, item.label
        assert bool(cached) == bool(item.expect), item.label


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
    real = Checker(prog)
    twins = [twin(prog, group) for group in SIG_GROUPS]
    confs = 0
    for c in walk(prog, monad):
        expected = typing_or_error(real.type_conf, c)
        for ck in twins:
            assert typing_or_error(ck.type_conf, c) == expected, c
        confs += 1
    assert confs > 1


@pytest.mark.parametrize("name, monad", WALKS)
def test_the_denotation_twin_reports_every_program_alike(monkeypatch, name,
                                                        monad):
    """A denotation whose excSet memo never hits reads the declarations on
    every call; the monitor must report the same checks and witnesses."""
    prog = load_program(OUTER_FRAMES) if name == "outer_frames" else load(name)
    expected = check_soundness(prog, monad, fuel=600).to_json()
    real_init = Denotation.__init__

    def forgetful(self, sigs):
        real_init(self, sigs)
        self._exc = Forgetful()

    monkeypatch.setattr(Denotation, "__init__", forgetful)
    assert check_soundness(prog, monad, fuel=600).to_json() == expected


def outcome(ev, prog) -> tuple:
    """The ``finitary`` result of ``prog`` (or why there is none), and its
    64-step approximation."""
    approx = ev.monad.show(ev.approx(prog.main, 64), ev.prefix)
    try:
        return ev.monad.show(ev.finitary(prog.main), ev.prefix), approx
    except (Diverged, PrefixExceeded) as err:
        return repr(err), approx


@pytest.mark.parametrize("name, monad", WALKS)
def test_the_twin_runs_every_program_alike(name, monad):
    prog = load_program(OUTER_FRAMES) if name == "outer_frames" else load(name)
    forgetful = Evaluator(prog, monad)
    forget(forgetful.sigs, SIG_GROUPS[0] + SIG_GROUPS[1])
    assert outcome(Evaluator(prog, monad), prog) == outcome(forgetful, prog)


# -- the evaluator's table of recent steps ------------------------------------

class Sized(dict):
    """A table that records the most entries it ever held."""

    most = 0

    def __setitem__(self, key, value):
        super().__setitem__(key, value)
        self.most = max(self.most, len(self))


class ForgetfulSized(Sized, Forgetful):
    """A table that stores, never hits, and records its size."""


def stepping(prog, monad: str, prefix: int, table: Sized) -> Evaluator:
    ev = Evaluator(prog, monad, prefix)
    ev._steps = table
    return ev


def runs(ev, prog, fuel: int) -> tuple:
    """The ``finitary`` result of ``prog`` (or why there is none), its
    64-step approximation chain and its trace text, from one evaluator."""
    show = ev.monad.show

    def result(trace=None):
        try:
            mres = ev.finitary(prog.main, fuel, trace)
            return ev.monad.render(mres, repr, ev.prefix)
        except (Diverged, PrefixExceeded) as err:
            return repr(err)

    lines = []
    traced = result(lambda line: lines.append(line.render(len(lines) + 1)))
    chain = [show(m, ev.prefix) for m in ev.approx_chain(prog.main, 64)]
    return result(), chain, traced, lines


# the coin programs of the benchmark's wide_nd seeds 1-3, each once (two
# seeds may order the same weights)
COINS = {item.name: (item.source, item.monad, 2 ** item.params["k"])
         for seed in (1, 2, 3)
         for item in perfbench_gen().wide_nd(seed, "")
         if item.kind == "coins"}
STEPPED = [(f"{name}/{m}", load(name), m, 256, 300) for name, m in WALKS
           if name != "outer_frames"] + [
    (name, load_program(src), m, prefix, 10000)
    for name, (src, m, prefix) in COINS.items()]


@pytest.mark.parametrize("name, prog, monad, prefix, fuel", STEPPED,
                         ids=[s[0] for s in STEPPED])
def test_the_step_table_twin_runs_every_program_alike(name, prog, monad,
                                                      prefix, fuel):
    """An evaluator whose table of recent steps never hits reduces every
    configuration it steps; the real one must give the same results,
    approximations and trace, and neither table may outgrow ``prefix + 1``
    entries."""
    real, twin_table = Sized(), ForgetfulSized()
    expected = runs(stepping(prog, monad, prefix, real), prog, fuel)
    assert runs(stepping(prog, monad, prefix, twin_table), prog, fuel) \
        == expected
    assert 0 < real.most <= prefix + 1
    assert 0 < twin_table.most <= prefix + 1
