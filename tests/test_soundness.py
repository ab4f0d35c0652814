"""Effect denotations, predicate liftings, and the soundness harness."""

import json

import pytest

from mfj.evaluator import Evaluator, VRes, WRONG
from mfj.monads import LazyList, Pure, Raised, default_registry, get_monad
from mfj.parser import numeral, parse_effect, parse_expr, parse_type
from mfj.prelude import prelude_program
from mfj.soundness import (
    BrokenExcInterp, Denotation, DistForall, ExcInterp, IdInterp,
    IllTypedProgram, ListExists, ListForall, SoundnessReport, UnknownAtom,
    check_lifted_step, check_progress, check_soundness, interp_law_suite,
    interps_for, type_monadic_result,
)
from mfj.syntax import PURE, TOP, Call, TypeVar, EffCall, eff_of
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
    itp = ExcInterp(den)
    assert type_monadic_result(ck, itp, Pure(VRes(numeral(1))), NAT, PURE)
    assert not type_monadic_result(ck, itp, Pure(WRONG), NAT, PURE)
    assert not type_monadic_result(
        ck, itp, Raised("E"), NAT, parse_effect("MyException.throw[Nat]"))
    assert type_monadic_result(
        ck, itp, Raised("MyE"), NAT, parse_effect("MyException.throw[Nat]"))
    assert type_monadic_result(ck, itp, Raised("E"), NAT, TOP)


def test_list_forall_flags_spurious_branching(ck, den):
    itp = ListForall(den)
    two = LazyList.of(VRes(numeral(0)), VRes(numeral(1)))
    assert not type_monadic_result(ck, itp, two, NAT, PURE)
    assert type_monadic_result(
        ck, itp, two, NAT, parse_effect("Chooser.choose"))


def test_list_exists_tolerates_bottom(ck, den):
    itp = ListExists(den)
    assert type_monadic_result(ck, itp, LazyList.of(), NAT, PURE)
    assert not type_monadic_result(
        ck, ListForall(den), LazyList.of(WRONG), NAT, PURE)


def test_dist_forall_checks_support(ck, den):
    from fractions import Fraction
    from mfj.monads import Dist
    itp = DistForall(den)
    d = Dist({VRes(numeral(2)): Fraction(1, 2)})
    assert type_monadic_result(ck, itp, d, NAT, PURE)
    assert not type_monadic_result(ck, itp, d, parse_type("Bool"), PURE)


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
    assert check_progress(ck, ev, parse_expr("return 0"))
    assert check_progress(ck, ev, Call(numeral(0), "succ"))
    v = check_progress(ck, ev, parse_expr("x.m()"))
    assert not v and "stuck" in v.witness


def test_progress_uses_a_precomputed_step(ck, ev):
    e = Call(numeral(0), "succ")
    stepped = ev.mon_step(e)
    assert check_progress(ck, ev, e, stepped)
    stuck = parse_expr("x.m()")
    # a given step is taken as is, not recomputed
    assert check_progress(ck, ev, stuck, stepped)
    v = check_progress(ck, ev, stuck, ev.mon_step(stuck))
    assert not v and "stuck" in v.witness


def test_progress_does_not_restep_a_stuck_term(ck, monkeypatch):
    ev = Evaluator(prelude_program(), "exc")
    e = parse_expr("True.nosuch()")
    stepped = ev.mon_step(e)
    assert stepped is None
    calls = []
    real = ev.mon_step

    def counted(e):
        calls.append(e)
        return real(e)

    monkeypatch.setattr(ev, "mon_step", counted)
    assert not check_progress(ck, ev, e, stepped)
    assert calls == []


def test_lifted_step_accepts_a_sound_step(ck, ev):
    e = Call(numeral(0), "succ")
    t, f = ck.type_expr({}, {}, e)
    assert check_lifted_step(ck, ev, e, t, f)


def test_lifted_step_rejects_a_disallowed_raise(ck, ev):
    e = parse_expr("Exception.throw[Nat]()")
    v = check_lifted_step(ck, ev, e, NAT, PURE)
    assert not v and "not allowed" in v.witness


# -- interpretation laws ------------------------------------------------------

def test_id_interp_laws(ck, den):
    effs = [PURE, parse_effect("Exception.throw[Nat]"), TOP]
    assert interp_law_suite(IdInterp(den), ck.sigs, effs, X=(0, 1)) == []


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


def test_check_soundness_rejects_ill_typed_programs():
    with pytest.raises(IllTypedProgram) as e:
        check_soundness(load("bad_override"), "exc")
    assert e.value.diags


def test_corrupted_registry_is_detected():
    prog = load("nd_m1")
    from mfj.signatures import Sigs
    reg = default_registry(get_monad("list"), Sigs(prog))
    reg.register("Chooser", "choose",
                 lambda recv, args: LazyList.of(numeral(0)))
    rep = check_soundness(prog, "list", fuel=500, registry=reg)
    assert not rep.ok
    assert any(r.check == "subject-reduction" for r in rep.failures())


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
