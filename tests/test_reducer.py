"""Pure reduction: lookup, clause matching, and the stepper."""

import pytest

from mfj import faults
from mfj.cli import main as cli_main
from mfj.evaluator import WRONG, Diverged, Evaluator, VRes
from mfj.monads import MONADS, TRUE, Pure, Raised, get_monad
from mfj.parser import numeral, parse_expr
from mfj.prelude import load_program, prelude_program
from mfj.reducer import (
    AmbiguousLookup, Magic, _parents_lookup, cmatch, instance_of, mbody,
    pure_step,
)
from mfj.signatures import Sigs
from mfj.syntax import (
    Call, Do, MethodDef, NominalType, Obj, Return, Try, TypeVar, Var, nominal,
    subst_expr,
)

from conftest import CORPUS

MY_EXC = Obj((NominalType("MyException"),))


@pytest.fixture(scope="module")
def sigs():
    return Sigs(prelude_program())


def with_receiver(src, recv=MY_EXC):
    return subst_expr(parse_expr(src), {}, {"t": recv})


# -- method lookup ------------------------------------------------------------

def test_mbody_own_definition(sigs):
    v = parse_expr("return Object { m : def -> Object <s, return s> }").value
    r = mbody(sigs, v, "m")
    assert isinstance(r, MethodDef) and r.selfVar == "s"


def test_mbody_inherited_definition(sigs):
    r = mbody(sigs, numeral(2), "sum")  # Succ supplies it
    assert isinstance(r, MethodDef)
    assert r.params == ("m",)


def test_mbody_resolves_magic(sigs):
    # named after the receiver's parent it was found through
    assert mbody(sigs, MY_EXC, "throw") == Magic("MyException")
    assert mbody(sigs, Obj((nominal("Failure", nominal("Nat")).parents[0],)),
                 "fail") == Magic("Failure")


def test_mbody_undefined(sigs):
    assert mbody(sigs, numeral(0), "nope") is None
    assert mbody(sigs, Var("x"), "m") is None


def test_mbody_ambiguous_is_undefined():
    prog = load_program(
        "A { m : def -> Nat <s, return 0> } "
        "B { m : def -> Nat <s, return 1> }")
    v = Obj((NominalType("A"), NominalType("B")))
    sigs = Sigs(prog)
    assert mbody(sigs, v, "m") is None
    assert mbody(sigs, v, "m") is None  # from the session's table


def test_mbody_finds_a_diamond_method_along_both_paths():
    # found through B and through C, so ambiguous and undefined
    prog = load_program(
        "A { m : def -> Nat ! pure <_, return 0> } "
        "B <| A { }  C <| A { }  D <| B C { }")
    sigs, v = Sigs(prog), Obj((NominalType("D"),))
    assert mbody(sigs, v, "m") is None
    assert sigs.mbodies == {(v.parents, "m"): None}
    assert mbody(sigs, v, "m") is None


def test_mbody_up_a_cyclic_hierarchy_is_undefined_every_time():
    sigs = Sigs(load_program("A <| B { }  B <| A { }"))
    v = Obj((NominalType("A"),))
    assert [mbody(sigs, v, "m") for _ in range(2)] == [None, None]
    assert sigs.mbodies == {(v.parents, "m"): None}


# -- the lookup table is the session's --------------------------------------

def test_two_programs_with_one_class_name_keep_their_own_lookups(capsys,
                                                                 tmp_path):
    # C's nominal type is one node in both programs; each run finds its own m
    paths = []
    for n in (1, 2):
        paths.append(tmp_path / f"c{n}.mfj")
        paths[-1].write_text(
            f"C {{ m : def -> Nat ! pure <_, return {n}> }} main = C.m()")
    outs = []
    for path in [*paths, *paths]:
        assert cli_main(["run", str(path)]) == 0
        outs.append(capsys.readouterr().out)
    assert outs == ["1\n", "2\n", "1\n", "2\n"]
    progs = [load_program(p.read_text()) for p in paths]
    evs = [Evaluator(p, "exc") for p in progs]
    for _ in range(2):
        assert [ev.finitary(p.main, 10) for ev, p in zip(evs, progs)] == [
            Pure(VRes(numeral(1))), Pure(VRes(numeral(2)))]


def test_a_generic_parent_at_two_type_arguments_finds_two_bodies():
    prog = load_program(
        "G[X] { m : def -> Nat ! top <_, try Failure[Nat].fail() "
        "with Failure[X].fail : <_, return 7> stop> }")
    ev = Evaluator(prog, "exc")
    nat, bool_ = (Obj((NominalType("G", (nominal(t),)),)) for t in
                  ("Nat", "Bool"))
    bodies = [mbody(ev.sigs, v, "m") for v in (nat, bool_, nat, bool_)]
    assert bodies[0] != bodies[1]
    assert bodies[2:] == bodies[:2]
    assert len(ev.sigs.mbodies) == 2
    # G[Nat]'s clause catches Failure[Nat]; G[Bool]'s does not
    for _ in range(2):
        assert ev.finitary(Call(nat, "m"), 20) == Pure(VRes(numeral(7)))
        assert ev.finitary(Call(bool_, "m"), 20) == Raised("Fail")


@pytest.mark.parametrize("path", sorted(CORPUS.glob("*.mfj")),
                         ids=lambda p: p.stem)
def test_every_cached_lookup_the_corpus_reaches_is_a_fresh_lookup(path):
    prog = load_program(path.read_text())
    for monad in MONADS:
        ev = Evaluator(prog, monad)
        try:
            ev.finitary(prog.main, 300)
        except Diverged:
            pass
        for (parents, m), found in ev.sigs.mbodies.items():
            try:
                fresh = _parents_lookup(Sigs(prog), parents, m)
            except AmbiguousLookup:
                fresh = None
            assert found == fresh


def test_mbody_substitutes_declaration_parameters(sigs):
    r = mbody(sigs, Obj((NominalType("Failure", (nominal("Nat"),)),)), "fail")
    assert r == Magic("Failure")


@pytest.mark.parametrize("monad", ["exc", "list", "dist", "id"])
@pytest.mark.parametrize("binder", ["X", "Y"])
def test_an_inherited_body_keeps_the_methods_own_binders(binder, monad):
    # C's X is shadowed by m's X: C[Bool] must not turn Failure[X] into
    # Failure[Bool], or the clause misses the failure it should catch
    prog = load_program(
        f"C[{binder}] {{ m : def [X] -> Nat ! top <_, try Failure[Nat].fail() "
        "with Failure[X].fail : <_, return 7> stop> } "
        "main = C[Bool]{}.m[Nat]()")
    m = Evaluator(prog, monad).finitary(prog.main, 1000)
    assert get_monad(monad).elements(m, 4) == [VRes(numeral(7))]


# -- instance checks ----------------------------------------------------------

def test_instance_of(sigs):
    assert instance_of(sigs, numeral(3), NominalType("Nat"))
    assert instance_of(sigs, TRUE, NominalType("Bool"))
    assert not instance_of(sigs, TRUE, NominalType("Nat"))
    assert not instance_of(sigs, Var("x"), NominalType("Nat"))


# -- clause matching ----------------------------------------------------------

def clauses_of(src):
    return parse_expr(src).handler.clauses


TWO_CLAUSES = (
    "try t.throw[Nat]() with "
    "MyException.throw : <s, return 1> stop "
    "Exception.throw : <s, return 2> stop")


def test_cmatch_takes_the_first_match(sigs):
    c = cmatch(sigs, MY_EXC, "throw", clauses_of(TWO_CLAUSES))
    assert c.body == Return(numeral(1))


def test_cmatch_respects_the_receiver_type(sigs):
    exc = Obj((NominalType("Exception"),))
    c = cmatch(sigs, exc, "throw", clauses_of(TWO_CLAUSES))
    assert c.body == Return(numeral(2))


def test_cmatch_no_clause(sigs):
    assert cmatch(sigs, MY_EXC, "fail", clauses_of(TWO_CLAUSES)) is None


def test_cmatch_fault_reverses_priority(sigs):
    with faults.inject("reverse_clause_match"):
        c = cmatch(sigs, MY_EXC, "throw", clauses_of(TWO_CLAUSES))
    assert c.body == Return(numeral(2))


# -- the stepper --------------------------------------------------------------

def test_invk(sigs):
    e2, rule = pure_step(sigs, Call(numeral(0), "succ"))
    assert rule == "invk"
    assert e2 == Return(numeral(1))


def test_magic_call_is_a_pure_normal_form(sigs):
    assert pure_step(sigs, with_receiver("t.throw[Nat]()")) is None


def test_do_is_a_pure_normal_form(sigs):
    assert pure_step(sigs, parse_expr("do n = return 0; n.succ()")) is None


def test_try_ret(sigs):
    e = parse_expr("try return 1 with Exception.throw : <s, return 0> stop "
                   "final <z, z.succ()>")
    e2, rule = pure_step(sigs, e)
    assert rule == "try-ret"
    assert e2 == Do("z", Return(numeral(1)), Call(Var("z"), "succ"))


def test_try_do_pushes_the_handler_inward(sigs):
    e = parse_expr("try do y = return 1; return y "
                   "with Exception.throw : <s, return 0> stop")
    e2, rule = pure_step(sigs, e)
    assert rule == "try-do"
    assert isinstance(e2, Try) and e2.body == Return(numeral(1))
    assert e2.handler.finalVar == "y"
    assert isinstance(e2.handler.finalExpr, Try)


def test_catch_stop_discards_the_handler(sigs):
    e = with_receiver("try t.throw[Nat]() "
                      "with MyException.throw : <s, return 7> stop")
    e2, rule = pure_step(sigs, e)
    assert rule == "catch-stop"
    assert e2 == Return(numeral(7))


def test_a_defaulted_clause_returns_its_receiver(sigs):
    # a clause written without ':' binds no type parameters
    e = with_receiver("try t.throw[Nat]() with MyException.throw stop")
    assert pure_step(sigs, e) == (Return(MY_EXC), "catch-stop")


def test_catch_continue_binds_the_final_var(sigs):
    e = with_receiver("try t.throw[Nat]() "
                      "with MyException.throw : <s, return 7> continue "
                      "final <r, r.succ()>")
    e2, rule = pure_step(sigs, e)
    assert rule == "catch-continue"
    assert e2 == Do("r", Return(numeral(7)), Call(Var("r"), "succ"))


def test_fwd_unmatched_magic(sigs):
    e = with_receiver("try t.throw[Nat]() "
                      "with Failure.fail : <s, return 0> stop "
                      "final <x, return x>")
    e2, rule = pure_step(sigs, e)
    assert rule == "fwd"
    assert e2 == Do("x", e.body, Return(Var("x")))


def test_try_ctx_steps_the_body(sigs):
    e = parse_expr("try n.succ() with Exception.throw : <s, return 0> stop")
    e = subst_expr(e, {}, {"n": numeral(1)})
    e2, rule = pure_step(sigs, e)
    assert rule == "invk"
    assert isinstance(e2, Try) and e2.body == Return(numeral(2))


def test_stuck_states(sigs):
    assert pure_step(sigs, parse_expr("x.m()")) is None
    assert pure_step(sigs, parse_expr("return 0")) is None


@pytest.mark.parametrize("main", [
    "Nope{}.m()",  # the parent names no declaration
    "0.succ(1)",  # one argument too many
    "try Nope{}.m() with Exception.throw : [X] <x, return 0> stop",
], ids=["unknown-parent", "arity", "under-a-try"])
def test_an_unchecked_stuck_call_ends_in_wrong(main):
    prog = load_program(f"main = {main}")
    assert Evaluator(prog, "exc").finitary(prog.main, 100) == Pure(WRONG)


def test_stepping_is_deterministic(sigs):
    e = parse_expr("try do y = return 1; return y "
                   "with Exception.throw : <s, return 0> stop")
    assert pure_step(sigs, e) == pure_step(sigs, e)


def test_fault_skips_type_substitution(sigs):
    prog = load_program(
        "R { boom : def [X] -> X ! Exception.throw[X] "
        "<s, Exception.throw[X]()> } main = return 0")
    s = Sigs(prog)
    call = Call(Obj((NominalType("R"),)), "boom", (nominal("Nat"),))
    plain, _ = pure_step(s, call)
    assert plain.targs == (nominal("Nat"),)
    with faults.inject("skip_invk_type_subst"):
        faulty, _ = pure_step(s, call)
    assert faulty.targs == (TypeVar("X"),)  # X escapes unsubstituted
