"""The monadic evaluator: configurations, finitary runs, approximations."""

import pytest

from mfj.evaluator import (
    Diverged, EConf, Evaluator, PrefixExceeded, RConf, TraceLine, VRes, WRONG,
)
from mfj.monads import Dist, Pure, Raised, get_monad
from mfj.parser import numeral, parse_expr
from mfj.prelude import load_program, prelude_program
from mfj.syntax import Call

from conftest import load, perfbench_gen


@pytest.fixture(scope="module")
def ev():
    return Evaluator(prelude_program(), "exc")


# -- configuration stepping ---------------------------------------------------

def test_results_are_fixed_points(ev):
    # a big step passes a result through without stepping it
    c = RConf(VRes(numeral(0)))
    labels = set()
    assert ev.big_step(Pure(c), labels) == Pure(c)
    assert labels == set()


def test_returns_become_results(ev):
    labels = set()
    mc = ev.step_config(EConf(parse_expr("return 3")), labels)
    assert mc == Pure(RConf(VRes(numeral(3))))
    assert labels == {"ret"}


def test_stuck_expressions_become_wrong(ev):
    labels = set()
    mc = ev.step_config(EConf(parse_expr("x.m()")), labels)
    assert labels == {"wrong"}
    assert mc == Pure(RConf(WRONG))


def test_magic_call_runs_in_the_monad(ev):
    labels = set()
    mc = ev.step_config(EConf(parse_expr("Failure[Nat].fail()")), labels)
    assert labels == {"mgc"}
    assert mc == Raised("Fail")


def test_mon_step_resolves_do_bindings(ev):
    mv, info = ev.mon_step(EConf(parse_expr("do n = return 1; n.succ()")))
    assert info.rule == "ret"
    assert mv == Pure(EConf(Call(numeral(1), "succ")))


def test_results_are_hash_consed():
    assert VRes(numeral(2)) is VRes(numeral(2))
    assert RConf(VRes(numeral(2))) is RConf(VRes(numeral(2)))
    assert RConf(WRONG) is RConf(WRONG)
    assert VRes(numeral(2)) is not VRes(numeral(3))


@pytest.mark.parametrize("monad", ["list", "dist"])
def test_equal_results_merge_under_dist_and_keep_multiplicity_under_list(
        monad):
    prog = load_program("main = do b = Chooser.choose(); return 0")
    res = Evaluator(prog, monad).finitary(prog.main, 20)
    zero = VRes(numeral(0))
    if monad == "dist":
        assert res == Dist({zero: 1}) and res.weights[0][0] is zero
    else:
        assert res.to_list() == [zero, zero]
        assert all(r is zero for r in res.to_list())


def test_mon_step_propagates_through_do_contexts(ev):
    mv, info = ev.mon_step(
        EConf(parse_expr("do x = Failure[Nat].fail(); return x")))
    assert info.rule == "mgc"
    assert mv == Raised("Fail")


# -- finitary runs ------------------------------------------------------------

def test_finitary_of_a_return(ev):
    assert ev.finitary(parse_expr("return 5"), 2) == Pure(VRes(numeral(5)))


def test_finitary_wrong_is_a_result(ev):
    assert ev.finitary(parse_expr("x.m()"), 10) == Pure(WRONG)


def test_finitary_runs_out_of_fuel():
    prog = load("nd_m2")
    with pytest.raises(Diverged) as e:
        Evaluator(prog, "list").finitary(prog.main, 50)
    assert e.value.steps == 50


def test_trace_lines_render_with_step_numbers():
    prog = load("exc_e1")
    trace = []
    Evaluator(prog, "exc").finitary(prog.main, 20, trace=trace.append)
    assert trace[0].render(1).startswith("1: [pure] ")
    assert all(isinstance(t, TraceLine) for t in trace)
    assert trace[-1].rule == "ret"


def test_prefix_exceeded():
    prog = load("nd_m1")
    with pytest.raises(PrefixExceeded):
        Evaluator(prog, "list", prefix=1).finitary(prog.main, 100)


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda p: Evaluator(p).finitary(p.main, -1),
                 "must not be negative: -1", id="finitary"),
    pytest.param(lambda p: Evaluator(p, "list", prefix=-3),
                 "must not be negative: -3", id="negative-prefix"),
    pytest.param(lambda p: Evaluator(p, "list", prefix=0),
                 "must be positive: 0", id="zero-prefix"),
    pytest.param(lambda p: Evaluator(p).approx(p.main, -1),
                 "must not be negative: -1", id="approx"),
    pytest.param(lambda p: Evaluator(p).approx_chain(p.main, -2),
                 "must not be negative: -2", id="approx_chain"),
])
def test_a_nonsense_bound_is_refused_as_the_cli_refuses_it(call, message):
    # the in-process API once ran these: finitary at fuel -1 gave None, a
    # prefix of -3 gave [] for 3.sum(2), and a chain of -2 gave [bottom]
    prog = load_program("main = 3.sum(2)")
    with pytest.raises(ValueError) as err:
        call(prog)
    assert str(err.value) == message


def test_zero_fuel_and_zero_steps_are_valid():
    prog = load_program("main = 3.sum(2)")
    ev2 = Evaluator(prog, "list", prefix=1)
    with pytest.raises(Diverged):
        ev2.finitary(prog.main, 0)
    assert ev2.approx(prog.main, 0).take(2) == []
    assert [m.take(2) for m in ev2.approx_chain(prog.main, 0)] == [[]]


# -- approximations -----------------------------------------------------------

def test_approx_before_and_after_termination(ev):
    e = parse_expr("do n = return 1; n.succ()")
    assert ev.approx(e, 0) == ev.monad.bottom()
    assert ev.approx(e, 10) == ev.finitary(e, 10)


def test_approx_chain_is_ascending_and_stabilizes():
    prog = load("handler_final")
    ev2 = Evaluator(prog, "exc")
    chain = ev2.approx_chain(prog.main, 200)
    assert all(ev2.monad.leq(a, b) for a, b in zip(chain, chain[1:]))
    assert chain[0] == ev2.monad.bottom()
    assert chain[-1] == ev2.finitary(prog.main, 200)


def test_approx_chain_of_a_diverging_list_program():
    prog = load("nd_m2")
    ev2 = Evaluator(prog, "list")
    chain = ev2.approx_chain(prog.main, 40)
    lens = [len(m.take(16)) for m in chain]
    assert lens == sorted(lens)  # results only accumulate
    assert lens[-1] >= 3


def test_incremental_chain_matches_direct_approx():
    prog = load("nd_m2")
    ev2 = Evaluator(prog, "list")
    chain = ev2.approx_chain(prog.main, 12)
    direct = ev2.approx(prog.main, 12)
    assert chain[12].take(8) == direct.take(8)


# -- monads end to end --------------------------------------------------------

def test_pure_program_agrees_across_monads():
    prog = load("nat_sum")
    results = {}
    for name in ("exc", "list", "dist", "id"):
        m = Evaluator(prog, name).finitary(prog.main, 1000)
        results[name] = get_monad(name).elements(m, 4)
    assert all(len(v) == 1 for v in results.values())
    assert len({v[0] for v in results.values()}) == 1
    assert isinstance(results["exc"][0], VRes)


def test_uncaught_failure_raises(ev):
    assert ev.finitary(parse_expr("Failure[Nat].fail()"), 10) == Raised("Fail")


def test_looping_program_diverges():
    prog = load_program(
        "L { m : def -> Nat ! top <s, do x = s.m(); return x> } "
        "main = do l = return L; l.m()")
    with pytest.raises(Diverged):
        Evaluator(prog, "exc").finitary(prog.main, 100)


# -- the table of recent steps ------------------------------------------------

def step_counts(monkeypatch, item) -> list:
    """[``mon_step`` calls, steps reduced without the table] of a
    ``finitary`` run of a benchmark item, counted by wrapping the two
    methods."""
    counts = [0, 0]

    def counted(i, method):
        def wrapped(self, c):
            counts[i] += 1
            return method(self, c)
        return wrapped

    monkeypatch.setattr(Evaluator, "mon_step",
                        counted(0, Evaluator.mon_step))
    monkeypatch.setattr(Evaluator, "_reduce", counted(1, Evaluator._reduce))
    prog = load_program(item.source)
    prefix = 2 ** item.params["k"] if item.kind == "coins" else 256
    Evaluator(prog, item.monad, prefix).finitary(prog.main)
    return counts


def benchmark_item(items, name):
    (item,) = [i for i in items if i.name == name]
    return item


def test_equal_branches_are_reduced_once(monkeypatch):
    # every branch still takes its step, but most are answered from the
    # table: the 256 branches share their prefixes' configurations
    items = perfbench_gen().wide_nd(1, "")
    calls, reduced = step_counts(
        monkeypatch, benchmark_item(items, "coins8[13212222]/list"))
    assert calls == 5321
    assert 2 * reduced < calls


def test_a_deep_run_reduces_every_step(monkeypatch):
    # one branch whose configurations never recur: no step is answered
    item = benchmark_item(perfbench_gen().deep_eval(1), "395.sum(253)/exc")
    calls, reduced = step_counts(monkeypatch, item)
    assert calls == reduced == 1976


@pytest.mark.parametrize("traced", [False, True])
@pytest.mark.parametrize("workload, name, calls", [
    ("deep_eval", "395.sum(253)/exc", 1976),
    ("deep_eval", "try-351.sum(250)/exc", 3162),
    ("wide_nd", "coins8[13212222]/list", 5321),
])
def test_every_step_goes_through_mon_step_on_the_class(monkeypatch, workload,
                                                       name, calls, traced):
    # the stepper finds ``mon_step`` on the class when it takes a step, so
    # a method patched in after the evaluator is built, as the benchmark's
    # step counter may be, sees every step
    gen = perfbench_gen()
    items = gen.deep_eval(1) if workload == "deep_eval" else gen.wide_nd(1, "")
    item = benchmark_item(items, name)
    prog = load_program(item.source)
    prefix = 2 ** item.params["k"] if item.kind == "coins" else 256
    ev = Evaluator(prog, item.monad, prefix)
    counted = []
    real = Evaluator.mon_step

    def wrapped(self, c):
        counted.append(c)
        return real(self, c)

    monkeypatch.setattr(Evaluator, "mon_step", wrapped)
    # big steps as ``finitary`` takes them, collecting labels when traced
    # (without rendering each step, which costs more than the run)
    mc, labels = ev.initial(prog.main), set()
    while any(isinstance(c, EConf) for c in ev.monad.elements(mc, prefix)):
        mc = ev.big_step(mc, labels if traced else None)
    assert len(counted) == calls
    assert bool(labels) == traced
