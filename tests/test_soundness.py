"""Effect denotations, predicate liftings, and the soundness harness."""

import json
from collections import Counter
from fractions import Fraction

import pytest

from mfj.cli import main as cli_main
from mfj.evaluator import EConf, Evaluator, StepInfo, VRes, WRONG
from mfj.monads import (
    MONADS, TRUE, Dist, LazyList, ListMonad, Pure, Raised, get_monad,
)
from mfj.parser import numeral, parse_effect, parse_expr, parse_type
from mfj.prelude import load_program, prelude_program
from mfj.signatures import Sigs
from mfj.soundness import (
    BrokenExcInterp, Denotation, IllTypedProgram, SoundnessReport, UnknownAtom,
    check_lifted_step, check_progress, check_soundness, interp_law_suite,
    interps_for, type_monadic_result,
)
from mfj.syntax import PURE, TOP, Call, Return, TypeVar, EffCall, eff_of
from mfj.typer import Checker

from conftest import load


@pytest.fixture(scope="module")
def ck():
    return Checker(prelude_program())


@pytest.fixture(scope="module")
def den(ck):
    return Denotation(ck.sigs)


# -- denotations --------------------------------------------------------------

def test_exc_set_covers_subtypes(den):
    assert den.exc_set(parse_effect("Exception.throw[Nat]")) == {"E", "MyE"}
    assert den.exc_set(parse_effect("MyException.throw[Nat]")) == {"MyE"}
    assert den.exc_set(parse_effect("Failure[Nat].fail")) == {"Fail"}
    assert den.exc_set(PURE) == frozenset()
    assert den.exc_set(TOP) is None


def test_exc_set_of_a_union(den):
    eff = parse_effect("MyException.throw[Nat] \\/ Failure[Nat].fail")
    assert den.exc_set(eff) == {"MyE", "Fail"}


def test_choose_has_no_exception_reading(den):
    assert den.exc_set(parse_effect("Chooser.choose")) == frozenset()


def test_a_magic_method_that_does_not_raise_has_no_exception_reading():
    prog = load_program("Ticker { tick : mgc -> Bool }\n")
    den = Denotation(Checker(prog).sigs)
    assert den.exc_set(parse_effect("Ticker.tick")) == frozenset()
    assert den.exc_set(parse_effect("Ticker.tick \\/ Failure[Nat].fail")) \
        == {"Fail"}


def test_exc_set_of_an_exception_declared_through_a_diamond():
    # Both reaches Root through two exception parents, one of them generic;
    # a declaration whose signature cannot be built raises nothing
    prog = load_program("Root { }\n"
                        "Oops <| Root Exception { }\n"
                        "Flop[X] <| Root Failure[X] { }\n"
                        "Both <| Oops Flop[Nat] { }\n"
                        "Lost <| Nowhere Exception { }\n")
    den = Denotation(Sigs(prog))
    assert den.exc_set(parse_effect("Exception.throw[Nat]")) == {
        "E", "MyE", "Oops", "Both"}
    assert den.exc_set(parse_effect("Root.throw[Nat]")) == {"Oops", "Both"}
    assert den.exc_set(parse_effect("Failure[Nat].fail")) == {
        "Fail", "Flop", "Both"}
    assert den.exc_set(parse_effect("Flop[Nat].fail")) == {"Flop", "Both"}
    assert den.exc_set(parse_effect("Both.fail")) == {"Both"}


def test_exc_set_rejects_open_receivers(den):
    with pytest.raises(UnknownAtom):
        den.exc_set(eff_of(EffCall(TypeVar("Z"), "throw", ())))


def test_nd_flag(den):
    assert den.nd_flag(parse_effect("Chooser.choose")) == 1
    assert den.nd_flag(parse_effect("Exception.throw[Nat]")) == 0
    assert den.nd_flag(PURE) == 0
    assert den.nd_flag(TOP) == 1


# -- monadic result typing ----------------------------------------------------

NAT = parse_type("Nat")


def test_exc_result_typing(ck, den):
    itp = interps_for("exc", den)[0]
    assert type_monadic_result(ck, itp, Pure(VRes(numeral(1))), NAT, PURE)
    assert not type_monadic_result(ck, itp, Pure(WRONG), NAT, PURE)
    assert not type_monadic_result(
        ck, itp, Raised("E"), NAT, parse_effect("MyException.throw[Nat]"))
    assert type_monadic_result(
        ck, itp, Raised("MyE"), NAT, parse_effect("MyException.throw[Nat]"))
    assert type_monadic_result(ck, itp, Raised("E"), NAT, TOP)


def test_list_forall_flags_spurious_branching(ck, den):
    itp = interps_for("list", den)[0]
    two = LazyList.of(VRes(numeral(0)), VRes(numeral(1)))
    assert not type_monadic_result(ck, itp, two, NAT, PURE)
    assert type_monadic_result(
        ck, itp, two, NAT, parse_effect("Chooser.choose"))


def test_list_exists_tolerates_bottom(ck, den):
    itp = interps_for("list", den)[1]
    assert type_monadic_result(ck, itp, LazyList.of(), NAT, PURE)
    assert not type_monadic_result(
        ck, interps_for("list", den)[0], LazyList.of(WRONG), NAT, PURE)


def test_dist_forall_checks_support(ck, den):
    itp = interps_for("dist", den)[0]
    d = Dist({VRes(numeral(2)): Fraction(1, 2)})
    assert type_monadic_result(ck, itp, d, NAT, PURE)
    assert not type_monadic_result(ck, itp, d, parse_type("Bool"), PURE)


ONE = VRes(numeral(1))
MY_EXC = parse_effect("MyException.throw[Nat]")
CHOOSE = parse_effect("Chooser.choose")


def _outcome(monad_name, case):
    """(monadic result, effect) of one case of the lifting table."""
    m = get_monad(monad_name)
    if case == "bottom":
        return m.bottom(), PURE
    if case in ("value", "wrong"):
        return m.unit(ONE if case == "value" else WRONG), PURE
    if case in ("raise-in", "raise-out"):
        return Raised("MyE" if case == "raise-in" else "E"), MY_EXC
    kind, eff = case.split("-")
    a, b = (VRes(numeral(0)), ONE) if kind == "two" else (ONE, WRONG)
    two = (LazyList.of(a, b) if monad_name == "list"
           else Dist({a: Fraction(1, 2), b: Fraction(1, 2)}))
    return two, PURE if eff == "pure" else CHOOSE


# the type_monadic_result verdict at Nat of every interpretation on bottom,
# a well-typed value, wrong, and the monad's other outcomes
LIFT_TABLE = {
    "exc": {"bottom": True, "value": True, "wrong": False,
            "raise-in": True, "raise-out": False},
    "list-forall": {"bottom": True, "value": True, "wrong": False,
                    "two-pure": False, "two-choose": True,
                    "mixed-choose": False},
    "list-exists": {"bottom": True, "value": True, "wrong": False,
                    "two-pure": True, "two-choose": True,
                    "mixed-choose": True},
    "dist-forall": {"bottom": True, "value": True, "wrong": False,
                    "two-pure": True, "two-choose": True,
                    "mixed-choose": False},
    "dist-exists": {"bottom": True, "value": True, "wrong": False,
                    "two-pure": True, "two-choose": True,
                    "mixed-choose": True},
    "id": {"bottom": True, "value": True, "wrong": False},
}


@pytest.mark.parametrize("monad_name", ["exc", "list", "dist", "id"])
def test_every_interpretation_types_each_outcome(ck, den, monad_name):
    got = {}
    for itp in interps_for(monad_name, den):
        got[itp.name] = {}
        for case in LIFT_TABLE[itp.name]:
            mres, eff = _outcome(monad_name, case)
            got[itp.name][case] = type_monadic_result(ck, itp, mres, NAT, eff)
    assert got == {name: row for name, row in LIFT_TABLE.items()
                   if name.split("-")[0] == monad_name}


def test_is_bottom():
    assert get_monad("exc").is_bottom(get_monad("exc").bottom())
    assert not get_monad("exc").is_bottom(Raised("E"))
    assert get_monad("list").is_bottom(LazyList.of())
    assert not get_monad("list").is_bottom(LazyList.of(1))
    assert get_monad("dist").is_bottom(get_monad("dist").bottom())
    assert get_monad("id").is_bottom(get_monad("id").bottom())


# -- step monitors ------------------------------------------------------------

@pytest.fixture(scope="module")
def ev():
    return Evaluator(prelude_program(), "exc")


def test_progress(ck, ev):
    def progress(e):
        c = EConf(e)
        return check_progress(c, ev.mon_step(c))

    assert progress(parse_expr("return 0")) is None
    assert progress(Call(numeral(0), "succ")) is None
    v = progress(parse_expr("x.m()"))
    assert "stuck" in v


def test_progress_uses_a_precomputed_step(ck, ev):
    c = EConf(Call(numeral(0), "succ"))
    stepped = ev.mon_step(c)
    assert check_progress(c, stepped) is None
    stuck = EConf(parse_expr("x.m()"))
    # a given step is taken as is, not recomputed
    assert check_progress(stuck, stepped) is None
    v = check_progress(stuck, ev.mon_step(stuck))
    assert "stuck" in v


def test_progress_does_not_restep_a_stuck_term(ck, monkeypatch):
    ev = Evaluator(prelude_program(), "exc")
    c = EConf(parse_expr("True.nosuch()"))
    stepped = ev.mon_step(c)
    assert stepped is None
    calls = []
    real = ev.mon_step

    def counted(c):
        calls.append(c)
        return real(c)

    monkeypatch.setattr(ev, "mon_step", counted)
    assert check_progress(c, stepped) is not None
    assert calls == []


def test_lifted_step_accepts_a_sound_step(ck, den, ev):
    e = Call(numeral(0), "succ")
    t, f = ck.type_expr({}, {}, e)
    c = EConf(e)
    assert check_lifted_step(ck, den, ev, t, f, ev.mon_step(c)) is None


def test_lifted_step_reads_excset_from_the_monitors_denotation(ck, ev):
    den = Denotation(ck.sigs)
    read = []
    den.exc_set = lambda e, real=den.exc_set: read.append(e) or real(e)
    eff = parse_effect("Exception.throw[Nat]")
    c = EConf(parse_expr("Exception.throw[Nat]()"))
    assert check_lifted_step(ck, den, ev, NAT, eff, ev.mon_step(c)) is None
    assert check_lifted_step(ck, den, ev, NAT, eff, ev.mon_step(c)) is None
    # each step reads the excSet of its effect from the denotation it is given
    assert read == [eff, eff]


def test_lifted_step_rejects_a_disallowed_raise(ck, den, ev):
    c = EConf(parse_expr("Exception.throw[Nat]()"))
    v = check_lifted_step(ck, den, ev, NAT, PURE, ev.mon_step(c))
    assert "not allowed" in v


# hand-built step results: the evaluator's own steps of well-typed programs
# never give these, so each verdict is reached with a step it could not take

def pure_step_to(ev, src):
    return ev.monad.unit(EConf(parse_expr(src))), StepInfo("pure")


def test_lifted_step_rejects_an_outcome_the_effect_does_not_allow(ck, den, ev):
    eff = parse_effect("Exception.throw[Nat]")
    (atom,) = eff.atoms
    # the call-effect allows the step, but it raises Fail, not E or MyE
    v = check_lifted_step(ck, den, ev, NAT, eff,
                          (Raised("Fail"), StepInfo("mgc", atom)))
    assert "magic step outcome Raised(Fail)" in v


@pytest.mark.parametrize("src, T, eff, witness", [
    ("return True", NAT, PURE, "step result type"),
    ("return Nope{}", NAT, PURE, "is ill-typed"),
    ("Exception.throw[Nat]()", NAT, PURE, "step effect"),
])
def test_lifted_step_rejects_a_result_that_does_not_retype(ck, den, ev, src, T,
                                                          eff, witness):
    v = check_lifted_step(ck, den, ev, T, eff, pure_step_to(ev, src))
    assert witness in v
    assert check_lifted_step(ck, den, ev, T, TOP,
                             pure_step_to(ev, "return 0")) is None


def test_an_ill_typed_result_value_is_not_typed(ck, den):
    itp = interps_for("exc", den)[0]
    bad = Pure(VRes(parse_expr("return Nope{}").value))
    assert not type_monadic_result(ck, itp, bad, NAT, PURE)
    assert type_monadic_result(ck, itp, Pure(VRes(numeral(0))), NAT, PURE)


# -- interpretation laws ------------------------------------------------------

def test_id_interp_laws(ck, den):
    effs = [PURE, parse_effect("Exception.throw[Nat]"), TOP]
    assert interp_law_suite(interps_for("id", den)[0], ck.sigs, effs, X=(0, 1)) == []


def test_broken_interp_violates_monotonicity(ck, den):
    effs = [PURE, parse_effect("Exception.throw[Nat]"), TOP]
    viol = interp_law_suite(BrokenExcInterp(den), ck.sigs, effs, X=(0, 1))
    assert any("monotonicity" in v for v in viol)


def test_interps_for_narrowing(den):
    assert [i.name for i in interps_for("list", den)] == \
        ["list-forall", "list-exists"]
    assert [i.name for i in interps_for("list", den, which="exists")] == \
        ["list-exists"]
    assert [i.name for i in interps_for("dist", den, which="forall")] == \
        ["dist-forall"]
    for name in ("exc", "id"):
        for which in (None, "forall", "exists"):
            assert [i.name for i in interps_for(name, den, which=which)] == \
                [name]
    with pytest.raises(KeyError):
        interps_for("state", den)


# -- the harness --------------------------------------------------------------

def test_check_soundness_passes_on_a_pure_program():
    rep = check_soundness(load("bool_not"), "exc", fuel=500)
    assert rep.ok
    checks = {r.check for r in rep.records}
    assert "per-step" in checks
    assert "finitary/exc" in checks
    assert "approx-chain-ascending" in checks


def test_check_soundness_flags_approximations_that_are_not_a_chain(
        monkeypatch):
    chain = [Pure(VRes(numeral(1))), Pure(VRes(numeral(0)))]
    monkeypatch.setattr(Evaluator, "approx_chain", lambda self, e, n: chain)
    rep = check_soundness(load("bool_not"), "exc", fuel=500)
    [rec] = [r for r in rep.records if r.check == "approx-chain-ascending"]
    assert not rec.ok and rec.witness == "approximations not a chain"


@pytest.mark.parametrize("monad", ["list", "dist"])
def test_the_walk_steps_every_branch_not_only_the_endless_one(monkeypatch,
                                                             monad):
    # nd_m2's else branch flips again for ever; a last-in-first-out walk
    # followed it and never stepped a then branch nor reached a result
    stepped, walking = [], [True]
    real_step, real_run = Evaluator.mon_step, Evaluator.finitary

    def recorded(self, c):
        if walking[0]:
            stepped.append(c)
        return real_step(self, c)

    def run(self, *args):  # the walk is over: the runs step every branch
        walking[0] = False
        return real_run(self, *args)

    monkeypatch.setattr(Evaluator, "mon_step", recorded)
    monkeypatch.setattr(Evaluator, "finitary", run)
    rep = check_soundness(load("nd_m2"), monad, fuel=200, approx_to=0)
    assert rep.ok
    assert any(isinstance(c.focus, Call) and c.focus.method == "if"
               and c.focus.recv == TRUE for c in stepped)
    assert any(isinstance(c, EConf) and c.frames is None
               and isinstance(c.focus, Return) for c in stepped)


def counted_typings(monkeypatch) -> Counter:
    """The ``Checker.type_conf`` calls made from now on, per configuration."""
    typed = Counter()
    real = Checker.type_conf

    def counted(self, c):
        typed[c] += 1
        return real(self, c)

    monkeypatch.setattr(Checker, "type_conf", counted)
    return typed


@pytest.mark.parametrize("monad", ["list", "dist"])
def test_the_monitor_types_each_configuration_through_the_memo(monkeypatch,
                                                               monad):
    typed, exprs = counted_typings(monkeypatch), Counter()
    real_expr = Checker._type_expr

    def counted_expr(self, *a):
        exprs["calls"] += 1
        return real_expr(self, *a)

    monkeypatch.setattr(Checker, "_type_expr", counted_expr)
    rep = check_soundness(load("nd_m2"), monad, fuel=200)
    # the walk reaches 221 distinct configurations and types each once: the
    # start when popped, every other one as a step's result, whose typing
    # the walk keeps until it pops it; the memo answers equal terms, so the
    # expressions typed stay those of the walk's distinct terms, the
    # ``then`` branches' among them
    assert len(typed) == 221 and sum(typed.values()) == 221
    assert exprs["calls"] == 54
    assert rep.summary() == "5 checks, 0 failures"
    assert [(r.check, r.witness) for r in rep.records] == [
        ("per-step", "200 steps monitored"),
        ("finitary", "diverged (vacuous)"),
        ("approx-chain-ascending", ""),
        (f"infinitary/{monad}-forall", ""),
        (f"infinitary/{monad}-exists", "")]


@pytest.mark.parametrize("monad", ["list", "dist"])
def test_a_long_walk_types_no_configuration_twice(monkeypatch, monad):
    typed = counted_typings(monkeypatch)
    rep = check_soundness(load("nd_m2"), monad, fuel=10000)
    assert rep.records[0].witness == "10000 steps monitored"
    assert len(typed) == 11001 and max(typed.values()) == 1


def test_the_monitor_looks_up_each_call_once_per_receiver(monkeypatch):
    # t-invk's lookup is remembered per receiver type, so the walk's
    # method lookups stop growing with its length
    calls = Counter()
    real = Sigs.mtype

    def counted(self, phi, t, m):
        calls[fuel] += 1
        return real(self, phi, t, m)

    monkeypatch.setattr(Sigs, "mtype", counted)
    for fuel in (200, 10000):
        check_soundness(load("nd_m2"), "list", fuel=fuel)
    assert calls[200] == calls[10000] > 0


def test_check_soundness_rejects_ill_typed_programs():
    with pytest.raises(IllTypedProgram) as e:
        check_soundness(load("bad_override"), "exc")
    assert e.value.diags


def test_check_soundness_refuses_a_program_without_main():
    with pytest.raises(ValueError, match="^program has no main expression$"):
        check_soundness(prelude_program(), "exc")


class ChooseZeroListMonad(ListMonad):
    """A corrupted list monad: ``choose`` yields 0 where a Bool is due."""

    magic = {"choose": lambda type_name: LazyList.of(numeral(0))}


def test_corrupted_registry_is_detected(monkeypatch):
    prog = load("nd_m1")
    monkeypatch.setitem(MONADS, "list", ChooseZeroListMonad())
    rep = check_soundness(prog, "list", fuel=500)
    assert not rep.ok
    assert any(r.check == "subject-reduction" for r in rep.failures())


def test_an_ill_typed_step_result_is_typed_again_when_popped(monkeypatch):
    # a step result whose typing raises is not kept: popped, it is typed
    # again and reported as reachable and ill-typed, besides the step
    prog = load("nd_m1")
    monkeypatch.setitem(MONADS, "list", ChooseZeroListMonad())
    typed = counted_typings(monkeypatch)
    rep = check_soundness(prog, "list", fuel=500)
    witnesses = [r.witness for r in rep.failures()]
    assert any(w.startswith("step result ") and "is ill-typed" in w
               for w in witnesses)
    assert any(w.startswith("reachable expression ill-typed")
               for w in witnesses)
    assert max(typed.values()) == 2


def test_report_serialization():
    rep = SoundnessReport()
    rep.add("p", "exc", "per-step", True, "3 steps monitored")
    rep.add("p", "exc", "finitary/exc", False, "bad")
    assert not rep.ok
    assert [r.check for r in rep.failures()] == ["finitary/exc"]
    data = json.loads(rep.to_json())
    assert len(data) == 2 and data[0]["program"] == "p"
    s = rep.summary()
    assert s.startswith("2 checks, 1 failures")
    assert "FAIL p/exc/finitary/exc: bad" in s


# -- what a raise raises ------------------------------------------------------

# a raise is named after the receiver's parent that supplies the magic
# method, which is also how its effect's excSet reads it
RAISES = {
    "throw-through-a-second-parent": (
        "main = Failure[Nat] MyException { }.throw[Nat]()\n", "raise MyE"),
    "fail-of-a-subclass": (
        "MyFailure <| Failure[Nat] { }\nmain = MyFailure.fail()\n",
        "raise MyFailure"),
}


@pytest.mark.parametrize("name", RAISES)
def test_a_raise_is_named_after_the_parent_that_supplies_it(
        name, tmp_path, capsys):
    source, printed = RAISES[name]
    path = tmp_path / f"{name}.mfj"
    path.write_text(source)
    assert cli_main(["check", str(path)]) == 0
    assert cli_main(["run", str(path), "--monad", "exc"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == printed
    rep = check_soundness(load_program(source), "exc", name=name)
    assert rep.failures() == [], rep.summary()


def test_a_failure_clause_catches_the_fail_of_a_subclass():
    prog = load_program(
        "MyFailure <| Failure[Nat] { }\n"
        "main = try MyFailure.fail()\n"
        "       with Failure[Nat].fail : <x, return 0> stop\n")
    assert Checker(prog).check_program() == []
    res = Evaluator(prog, "exc").finitary(prog.main)
    assert res == Pure(VRes(numeral(0)))
    assert check_soundness(prog, "exc").ok


@pytest.mark.parametrize("kw, message", [
    ({"fuel": -5}, "must not be negative: -5"),
    ({"fuel": 0}, "must be positive: 0"),
    ({"approx_to": -1}, "must not be negative: -1"),
    ({"prefix": 0}, "must be positive: 0"),
    ({"which": "bogus"},
     "which must be 'forall', 'exists' or None: 'bogus'"),
], ids=["negative-fuel", "zero-fuel", "approx_to", "prefix", "which"])
@pytest.mark.parametrize("program", ["nd_m1", "bad_override"])
def test_check_soundness_refuses_a_nonsense_bound(kw, message, program):
    # fuel -5 once reported "0 steps monitored" and no finitary record,
    # prefix 0 escaped as PrefixExceeded, and "bogus" ran both liftings;
    # the bounds are checked before the program is typed, so an ill-typed
    # one is refused for its bound, not reported as IllTypedProgram
    with pytest.raises(ValueError) as err:
        check_soundness(load(program), "list", **kw)
    assert str(err.value) == message
