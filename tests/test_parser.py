"""Concrete syntax: tokenizing, parsing, sugar, and pretty-printing.

The central property is that ``parse(pretty(p)) == p`` for every program we
ship, so the printer is a faithful serialization.
"""

import pytest

from mfj.parser import (
    ParseError, numeral, numeral_value, parse_effect, parse_expr,
    parse_program, parse_type, pretty, pretty_eff, pretty_expr, pretty_value,
    string_object,
)
from mfj.prelude import prelude_program
from mfj.syntax import (
    OBJECT, PURE, TOP,
    Call, Do, EffCall, NominalType, Obj, Return, Try, TypeVar, Var, eff_of,
    nominal,
)

from conftest import CORPUS

CORPUS_FILES = sorted(f.name for f in CORPUS.glob("*.mfj"))


@pytest.mark.parametrize("fname", CORPUS_FILES)
def test_corpus_round_trips(fname):
    prog = parse_program((CORPUS / fname).read_text())
    assert parse_program(pretty(prog)) == prog


def test_prelude_round_trips():
    prog = prelude_program()
    assert parse_program(pretty(prog)) == prog


# -- sugar --------------------------------------------------------------------

def test_numerals_desugar_to_successor_towers():
    assert parse_expr("return 2") == Return(numeral(2))
    assert numeral_value(numeral(5)) == 5
    assert numeral_value(numeral(0)) == 0
    assert numeral_value(Var("x")) is None


def test_numerals_print_as_decimals():
    assert pretty_value(numeral(12)) == "12"
    assert pretty_expr(Return(numeral(0))) == "return 0"


def test_strings_desugar_to_toNat_objects():
    assert parse_expr('return "7"') == Return(string_object("7"))
    v = string_object("7")
    assert v.method("toNat") is not None


def test_lambda_sugar():
    e = parse_expr("return fn (x: Nat) => x.succ()")
    (md,) = e.value.methods
    assert md.name == "apply"
    assert md.mtype.paramTypes == (nominal("Nat"),)
    assert md.mtype.eff == TOP
    assert md.body == Call(Var("x"), "succ")


def test_bare_nominal_object_literal():
    assert parse_expr("return True").value == Obj((NominalType("True"),))


def test_default_final_clause():
    e = parse_expr("try x.m() with Exception.throw : <s, return 0> stop")
    assert e.handler.finalVar == "x"
    assert e.handler.finalExpr == Return(Var("x"))


def test_defaulted_clause_binder_matches_any_arity():
    e = parse_expr("try x.m() with Exception.throw stop")
    (c,) = e.handler.clauses
    assert c.typeParams is None
    assert c.body == Return(Var("x"))


# -- types and effects --------------------------------------------------------

def test_parse_type_forms():
    assert parse_type("Object") == OBJECT
    assert parse_type("Nat") == nominal("Nat")
    assert parse_type("Failure[Nat]") == nominal("Failure", nominal("Nat"))
    assert parse_type("X", tvars=("X",)) == TypeVar("X")


def test_unbound_type_variable_is_a_nominal():
    # outside a binder, a capitalized name is a type name, never a variable
    assert parse_type("X") == nominal("X")


def test_parse_effect_forms():
    assert parse_effect("pure") == PURE
    assert parse_effect("top") == TOP
    atom = eff_of(EffCall(nominal("Exception"), "throw", (nominal("Nat"),)))
    assert parse_effect("Exception.throw[Nat]") == atom


def test_parsed_effects_are_normalized():
    a = parse_effect("Chooser.choose \\/ Failure[Nat].fail")
    b = parse_effect("Failure[Nat].fail \\/ Chooser.choose")
    assert a == b
    assert parse_effect(pretty_eff(a)) == a


def test_magic_methods_get_canonical_effects():
    prog = parse_program("E2 { throw : mgc [X] -> X }")
    (md,) = prog.decl("E2").methods
    assert md.mtype.eff == eff_of(EffCall(
        nominal("E2"), "throw", (TypeVar("X"),)))


# -- rejected inputs ----------------------------------------------------------

@pytest.mark.parametrize("src", [
    "A { m : def -> Nat <x, return 0> m : def -> Nat <x, return 1> }",
    "A { m : mgc [X] -> X ! top }",      # magic effects are canonical
    "A [] { }",                          # empty type-parameter list
    "main = return",                     # missing value
    "main = do x = return 0",            # missing rest
    "A { m : mgc [X] -> X <s, return s> }",  # magic methods have no body
])
def test_parse_errors(src):
    with pytest.raises(ParseError):
        parse_program(src)


def test_magic_only_in_declarations():
    with pytest.raises(ParseError):
        parse_expr("return Object { m : mgc [X] -> X }")


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as exc:
        parse_program("main = return @")
    assert "1:" in str(exc.value)
