"""The type-and-effect checker."""

import pytest

from mfj.parser import numeral, parse_effect, parse_expr, parse_type
from mfj.prelude import load_program, prelude_program
from mfj.syntax import (
    MGC, OBJECT, PURE, TOP,
    MethodDef, MethodType, Obj, TypeVar, nominal,
)
from mfj.typer import Checker, TypecheckError

from conftest import load


@pytest.fixture(scope="module")
def ck():
    return Checker(prelude_program())


def expr_type(ck, src, gamma=None):
    return ck.type_expr({}, gamma or {}, parse_expr(src))


# -- values -------------------------------------------------------------------

def test_numeral_types_below_nat(ck):
    t = ck.type_value({}, {}, numeral(3))
    assert ck.sigs.sub_type({}, t, parse_type("Nat"))


def test_unbound_variable(ck):
    with pytest.raises(TypecheckError) as e:
        ck.type_value({}, {}, parse_expr("return q").value)
    assert e.value.code == "UnboundVar"


def test_object_must_implement_abstract_methods(ck):
    with pytest.raises(TypecheckError) as e:
        ck.type_value({}, {}, parse_expr("return Bool { }").value)
    assert e.value.code == "UnimplementedMethod"


def test_object_may_not_declare_magic(ck):
    v = Obj((), (MethodDef("m", MGC,
                           MethodType((("X", OBJECT),), (), TypeVar("X"),
                                      PURE)),))
    with pytest.raises(TypecheckError) as e:
        ck.type_value({}, {}, v)
    assert e.value.code == "MgcInObject"


def test_method_bodies_checked_against_declared_types(ck):
    with pytest.raises(TypecheckError) as e:
        ck.type_value({}, {}, parse_expr(
            "return Object { m : def -> Nat <s, return True> }").value)
    assert e.value.code == "BodyTypeMismatch"


def test_method_bodies_checked_against_declared_effects(ck):
    with pytest.raises(TypecheckError) as e:
        ck.type_value({}, {}, parse_expr(
            "return Object { m : def -> Nat ! pure "
            "<s, Exception.throw[Nat]()> }").value)
    assert e.value.code == "BodyEffectMismatch"


# -- calls --------------------------------------------------------------------

def test_call_effect_is_the_simplified_call_atom(ck):
    t, eff = expr_type(ck, "do b = return True; b.not()")
    assert ck.sigs.sub_type({}, t, parse_type("Bool"))
    assert eff == PURE


def test_magic_call_keeps_its_atom(ck):
    t, eff = expr_type(ck, "MyException.throw[Nat]()")
    assert t == parse_type("Nat")
    assert eff == parse_effect("MyException.throw[Nat]")


def test_variable_receiver_effects_survive(ck):
    # under a visitor type VARIABLE the branch atoms stay unexpanded
    phi = {"Z": parse_type("ThenElse[Nat]")}
    gamma = {"b": parse_type("Bool"), "v": TypeVar("Z")}
    _, eff = ck.type_expr(
        phi, gamma, parse_expr("b.if[Nat Z](v)", tvars=("Z",)))
    assert eff == parse_effect("Z.then \\/ Z.else", tvars=("Z",))


def test_concrete_receiver_effects_expand(ck):
    # ... but a concrete visitor expands them to its declared effects
    gamma = {"b": parse_type("Bool"), "v": parse_type("ThenElse[Nat]")}
    _, eff = ck.type_expr({}, gamma, parse_expr("b.if[Nat ThenElse[Nat]](v)"))
    assert eff == TOP  # then/else declare top


def test_call_arity_errors(ck):
    with pytest.raises(TypecheckError) as e:
        expr_type(ck, "do n = return 0; n.succ(n)")
    assert e.value.code == "ArityMismatch"
    with pytest.raises(TypecheckError) as e:
        expr_type(ck, "do n = return 0; n.match[Nat](n)")
    assert e.value.code == "ArityMismatch"  # one type argument missing


def test_call_bound_violation(ck):
    with pytest.raises(TypecheckError) as e:
        expr_type(ck, "do b = return True; b.if[Nat Nat](0)")
    assert e.value.code == "BoundViolation"


def test_call_argument_mismatch(ck):
    gamma = {"b": parse_type("Bool")}
    with pytest.raises(TypecheckError) as e:
        ck.type_expr({}, gamma,
                     parse_expr("b.if[Nat ThenElse[Nat]](b)"))
    assert e.value.code == "ArgTypeMismatch"


def test_no_such_method(ck):
    with pytest.raises(TypecheckError) as e:
        expr_type(ck, "do n = return 0; n.frobnicate()")
    assert e.value.code == "NoSuchMethod"


# -- do and try ---------------------------------------------------------------

def test_do_unions_effects(ck):
    _, eff = expr_type(
        ck, "do x = MyException.throw[Nat](); Failure[Nat].fail()")
    assert eff == parse_effect(
        "MyException.throw[Nat] \\/ Failure[Nat].fail")


def test_try_discharges_caught_effects(ck):
    t, eff = expr_type(
        ck,
        "try MyException.throw[Nat]() "
        "with MyException.throw : [X] <s, return 0> stop")
    assert eff == PURE
    assert ck.sigs.sub_type({}, t, parse_type("Nat"))


def test_try_keeps_uncaught_effects(ck):
    _, eff = expr_type(
        ck,
        "try Exception.throw[Nat]() "
        "with MyException.throw : [X] <s, return 0> stop")
    assert eff == parse_effect("Exception.throw[Nat]")


def test_continue_clause_must_produce_the_magic_result(ck):
    # the result type is the bound variable X; no body can promise that
    with pytest.raises(TypecheckError) as e:
        expr_type(
            ck,
            "try Exception.throw[Nat]() "
            "with Exception.throw : [X] <s, return 0> continue")
    assert e.value.code == "ClauseTypeMismatch"
    assert e.value.rule == "t-continue"


def test_stop_clause_joins_with_the_final_type(ck):
    t, _ = expr_type(
        ck,
        "try MyException.throw[Nat]() "
        "with MyException.throw : [X] <s, return 0> stop "
        "final <x, return True>")
    # Nat and True only share Object among the declared zero-parameter types
    assert t == OBJECT


def test_clause_must_name_a_magic_method(ck):
    with pytest.raises(TypecheckError) as e:
        expr_type(ck, "try x.m() with Bool.not : <s, return True> stop",
                  )
    assert e.value.code in ("NotMagicClause", "UnboundVar")


# -- whole programs -----------------------------------------------------------

def test_prelude_checks_clean():
    assert Checker(prelude_program()).check_program() == []


@pytest.mark.parametrize("name", [
    "bool_not", "nat_sum", "even_visitor", "lambda_apply", "diamond",
    "handler_final", "exc_effpoly", "nd_m1", "nd_m2",
])
def test_corpus_checks_clean(name):
    assert Checker(load(name)).check_program() == []


def test_bad_override_diagnostics():
    diags = Checker(load("bad_override")).check_program()
    assert len(diags) == 2
    assert all(d.code == "OverrideError" for d in diags)
    assert {d.rule for d in diags} == {"t-ntype", "t-obj"}


def test_ill_typed_method_body_reported():
    prog = load_program(
        "W { m : def -> Nat ! pure <s, return True> } main = return 0")
    diags = Checker(prog).check_program()
    assert [d.code for d in diags] == ["BodyTypeMismatch"]


def test_ill_typed_main_reported():
    prog = load_program("main = q.m()")
    diags = Checker(prog).check_program()
    assert [d.code for d in diags] == ["UnboundVar"]
