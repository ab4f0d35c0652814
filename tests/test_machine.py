"""The frame-stack machine: the same steps as the reference stepper, one
decomposition per term, one method lookup per step, and a step cost that
does not depend on the depth of the evaluation context.  The soundness
monitor types configurations frame by frame: the same typings as the whole
plugged terms, at a cost per step that does not depend on depth either."""

import collections
import contextlib

import pytest

from mfj import evaluator, faults, reducer
from mfj.evaluator import DoFrame, EConf, Evaluator, TryFrame
from mfj.monads import LazyList
from mfj.parser import parse_expr
from mfj.prelude import load_program, prelude_program
from mfj.soundness import check_soundness
from mfj.typer import Checker

from conftest import load
from reference_stepper import reference_step
from test_acceptance import APPLICABLE
from test_memo_twin import typing_or_error, walk

HANDLER = "Exception.throw : [X] <x, return 0> stop"

# a try inside a try, a forwarded failure resumed by the outer clause, and
# final expressions on both handlers, all inside a do-context
NESTED = """
Test {
  sumAsNat : def String String -> Nat ! Failure[Nat].fail
    <_ s1 s2, do n1 = s1.toNat(); do n2 = s2.toNat(); n1.sum(n2)>
}

main = do a = try try Test.sumAsNat("1" "a")
                  with Exception.throw : [X] <x, return 7> stop
                  final <y, y.succ()>
              with Failure[Nat].fail : <x, return 2> continue
              final <z, do w = z.succ(); w.succ()>;
       do b = 2.sum(a); b.succ()
"""

PROGRAMS = {
    "sum": ("main = 30.sum(20)", ["exc", "id"]),
    "try-sum": (f"main = try 30.sum(20) with {HANDLER}", ["exc", "id"]),
    "nested": (NESTED, ["exc"]),
}

CASES = [(name, m) for name, ms in APPLICABLE.items() for m in ms] + [
    (name, m) for name, (_, ms) in PROGRAMS.items() for m in ms]


def program(name):
    if name in PROGRAMS:
        return load_program(PROGRAMS[name][0])
    return load(name)


def observed(monad, mv):
    return mv.take(64) if isinstance(mv, LazyList) else mv


@pytest.mark.parametrize("name, monad", CASES)
def test_every_step_agrees_with_the_reference_stepper(name, monad):
    """Each configuration the machine reaches is the canonical decomposition
    of its term, and its step plugs to the reference step of that term, with
    the same rule and magic atom."""
    prog = program(name)
    ev = Evaluator(prog, monad)
    start = EConf(prog.main)
    seen, queue = {start}, collections.deque([start])
    steps = 0
    while queue and steps < 600:
        c = queue.popleft()
        e = c.expr
        assert EConf(e) == c
        got, want = ev.mon_step(c), reference_step(ev, e)
        assert (got is None) == (want is None), e
        if got is None:
            continue
        steps += 1
        mv, info = got
        assert info == want[1]
        plugged = ev.monad.map_m(lambda c2: c2.expr, mv)
        assert observed(monad, plugged) == observed(monad, want[0])
        for c2 in ev.monad.elements(mv, 64):
            if c2 not in seen:
                seen.add(c2)
                queue.append(c2)
    assert steps > 0


def test_a_configuration_is_decomposed_to_its_next_redex():
    # through the do, then the try; the do under the try stays in focus,
    # because try-do fires before anything inside it
    c = EConf(parse_expr(
        f"do x = try do y = 0.succ(); return y with {HANDLER}; return x"))
    assert isinstance(c.frames, TryFrame)
    assert isinstance(c.frames.below, DoFrame) and c.frames.below.below is None
    assert c.focus == parse_expr("do y = 0.succ(); return y")
    assert EConf(c.focus, c.frames) == c
    assert EConf(c.expr) == c


# -- cost of a step ---------------------------------------------------------------


def step_costs(n, monkeypatch):
    """For each step of ``n.sum(n)``, the calls of ``pure_step``, ``unit``
    and ``map_m`` from its start to the start of the next step."""
    ev = Evaluator(load_program(f"main = {n}.sum({n})"), "exc")
    log = []

    def counting(name, fn):
        def counted(*args, **kwargs):
            log.append(name)
            return fn(*args, **kwargs)
        return counted

    step = counting("pure_step", reducer.pure_step)
    monkeypatch.setattr(reducer, "pure_step", step)
    monkeypatch.setattr(evaluator, "pure_step", step)
    for name in ("unit", "map_m"):
        monkeypatch.setattr(ev.monad, name,
                            counting(name, getattr(ev.monad, name)))
    monkeypatch.setattr(ev, "mon_step", counting("mon_step", ev.mon_step))
    ev.finitary(ev.program.main, 100000)
    monkeypatch.undo()
    costs = []
    for name in log[log.index("mon_step"):]:
        if name == "mon_step":
            costs.append(collections.Counter())
        else:
            costs[-1][name] += 1
    assert len(costs) == 5 * n + 1
    return {tuple(sorted(c.items())) for c in costs}


def test_a_step_costs_the_same_at_any_context_depth(monkeypatch):
    assert step_costs(50, monkeypatch) == step_costs(400, monkeypatch)


@pytest.mark.parametrize("src, rule", [
    ("Failure[Nat].fail()", "mgc"),
    ("try Failure[Nat].fail() with Failure[Nat].fail : <x, return 3> stop",
     "catch-stop"),
    ("try Failure[Nat].fail() with Failure[Nat].fail : <x, return 3> continue",
     "catch-continue"),
    (f"try Failure[Nat].fail() with {HANDLER}", "fwd"),
    (f"try 2.sum(1) with {HANDLER}", "pure"),
])
def test_a_step_looks_its_method_up_once(monkeypatch, src, rule):
    ev = Evaluator(prelude_program(), "exc")
    calls = []
    real = reducer.mbody

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(reducer, "mbody", counted)
    monkeypatch.setattr(evaluator, "mbody", counted)
    _, info = ev.mon_step(EConf(parse_expr(src)))
    assert info.rule == rule
    assert len(calls) == 1


# -- typing configurations ---------------------------------------------------------


@pytest.mark.parametrize("fault", [None, "filter_before_simplify"])
@pytest.mark.parametrize("name, monad", CASES)
def test_frame_typing_agrees_with_typing_the_plugged_term(name, monad, fault):
    """Every configuration the monitor reaches (up to 600 steps) gets the
    same type and effect, or the same error, from ``type_conf`` as from
    ``type_expr`` on its plugged term, also under the seeded t-try fault."""
    with faults.inject(fault) if fault else contextlib.nullcontext():
        prog = program(name)
        framed, whole = Checker(prog), Checker(prog)
        confs = 0
        for c in walk(prog, monad):
            assert typing_or_error(framed.type_conf, c) == typing_or_error(
                lambda e: whole.type_expr({}, {}, e), c.expr), c
            confs += 1
    assert confs > 1


def monitor_typings(prog, monad, monkeypatch, **kw) -> tuple:
    """The report of a ``check_soundness`` of ``prog`` under ``monad``, and
    the ``Checker._type_expr`` calls it made."""
    calls = []
    real = Checker._type_expr

    def counted(self, *args):
        calls.append(args)
        return real(self, *args)

    monkeypatch.setattr(Checker, "_type_expr", counted)
    rep = check_soundness(prog, monad, **kw)
    monkeypatch.undo()
    assert rep.ok
    return rep, len(calls)


def monitor_typings_per_step(n, monkeypatch):
    """``Checker._type_expr`` calls per step the monitor checks, over a whole
    ``check_soundness`` of ``n.sum(n)`` under exc."""
    rep, calls = monitor_typings(load_program(f"main = {n}.sum({n})"), "exc",
                                 monkeypatch, approx_to=0)
    [per_step] = [r for r in rep.records if r.check == "per-step"]
    assert per_step.witness == f"{5 * n + 1} steps monitored"
    return calls / (5 * n + 1)


def test_monitor_cost_per_step_does_not_grow_with_depth(monkeypatch):
    # retyping the whole term on every step gave about 51 and 201
    shallow = monitor_typings_per_step(100, monkeypatch)
    deep = monitor_typings_per_step(400, monkeypatch)
    assert deep <= shallow < 2


def test_monitor_typings_do_not_grow_with_the_walk(monkeypatch):
    # each round of nd_m2 builds the same terms around a new numeral, and
    # every numeral above 2 has one typing shape; keyed on the terms
    # themselves, 10,000 steps took 12,884 typings and 1,000 took 1,311
    prog = load("nd_m2")
    counts = {(monad, fuel): monitor_typings(prog, monad, monkeypatch,
                                             fuel=fuel)[1]
              for monad in ("dist", "list") for fuel in (1000, 10000)}
    assert len(set(counts.values())) == 1, counts
