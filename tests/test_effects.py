"""Effect simplification and handler filters."""

import pytest

from mfj.effects import (
    ClauseFilter, FuelExhausted, HandlerFilter, apply_filter, simplify,
)
from mfj.parser import parse_effect
from mfj.prelude import load_program
from mfj.signatures import Sigs, UnboundTypeVar
from mfj.syntax import (
    CONTINUE, PURE, TOP,
    EffCall, NominalType, TypeVar, eff_of, eff_union, nominal,
)


@pytest.fixture(scope="module")
def sigs():
    return Sigs(load_program("", use_prelude=True))


# -- simplification -----------------------------------------------------------

def test_simplify_drops_pure_non_magic_atoms(sigs):
    assert simplify(sigs, {}, parse_effect("Bool.not")) == PURE


def test_simplify_keeps_magic_atoms(sigs):
    eff = parse_effect("Exception.throw[Nat]")
    assert simplify(sigs, {}, eff) == eff


def test_simplify_keeps_variable_receivers(sigs):
    eff = eff_of(EffCall(TypeVar("Y"), "then"))
    phi = {"Y": nominal("ThenElse", nominal("Nat"))}
    assert simplify(sigs, phi, eff) == eff


def test_simplify_rejects_unbound_variables(sigs):
    with pytest.raises(UnboundTypeVar):
        simplify(sigs, {}, eff_of(EffCall(TypeVar("Y"), "then")))


def test_simplify_expands_through_declared_effects():
    prog = load_program(
        "Layer { go : abs -> Nat ! Exception.throw[Nat] \\/ Bool.not }")
    out = simplify(Sigs(prog), {}, parse_effect("Layer.go"))
    assert out == parse_effect("Exception.throw[Nat]")


def test_simplify_instantiates_type_arguments():
    prog = load_program("Raiser { boom : abs [X] -> X ! Exception.throw[X] }")
    out = simplify(Sigs(prog), {},
                   parse_effect("Raiser.boom[Bool]"))
    assert out == parse_effect("Exception.throw[Bool]")


def test_simplify_top_is_top(sigs):
    assert simplify(sigs, {}, TOP) == TOP


def test_simplify_is_idempotent(sigs):
    for src in ["pure", "Exception.throw[Nat] \\/ Chooser.choose",
                "Bool.not \\/ Failure[Nat].fail"]:
        once = simplify(sigs, {}, parse_effect(src))
        assert simplify(sigs, {}, once) == once


def test_simplify_runs_out_of_fuel_on_effect_cycles():
    prog = load_program("Loop { m : abs -> Nat ! Loop.m }")
    with pytest.raises(FuelExhausted):
        simplify(Sigs(prog), {}, parse_effect("Loop.m"))


# -- handler filters ----------------------------------------------------------

THROW = parse_effect("Exception.throw[Nat]")
MY_THROW = parse_effect("MyException.throw[Nat]")
FAIL = parse_effect("Failure[Nat].fail")


def cf(decl, method, effect, typeParams=("X",)):
    return ClauseFilter(NominalType(decl), method, typeParams, effect)


def test_filter_rewrites_caught_atoms(sigs):
    H = HandlerFilter((cf("Exception", "throw", PURE),), PURE)
    assert apply_filter(sigs, {}, H, THROW) == PURE


def test_filter_passes_unmatched_atoms(sigs):
    H = HandlerFilter((cf("Failure", "fail", PURE, typeParams=()),), PURE)
    assert apply_filter(sigs, {}, H, THROW) == THROW


def test_filter_compares_the_method_name(sigs):
    # a clause for another method of the receiver's type catches nothing
    H = HandlerFilter((cf("Exception", "fail", PURE),), PURE)
    assert apply_filter(sigs, {}, H, THROW) == THROW


def test_filter_reads_a_variable_receivers_bound(sigs):
    # X <: MyException <: Exception, so the Exception clause catches X.throw
    atom = eff_of(EffCall(TypeVar("X"), "throw", (nominal("Nat"),)))
    H = HandlerFilter((cf("Exception", "throw", PURE),), PURE)
    assert apply_filter(sigs, {"X": nominal("MyException")}, H, atom) == PURE


def test_filter_catches_subtypes_of_the_clause_type(sigs):
    H = HandlerFilter((cf("Exception", "throw", PURE),), PURE)
    assert apply_filter(sigs, {}, H, MY_THROW) == PURE
    # but not the other way around
    H2 = HandlerFilter((cf("MyException", "throw", PURE),), PURE)
    assert apply_filter(sigs, {}, H2, THROW) == THROW


def test_filter_first_matching_clause_wins(sigs):
    H = HandlerFilter(
        (cf("Exception", "throw", FAIL), cf("Exception", "throw", TOP)),
        PURE)
    assert apply_filter(sigs, {}, H, THROW) == FAIL


def test_filter_substitutes_clause_type_parameters(sigs):
    eff = eff_of(EffCall(TypeVar("X"), "then"))
    H = HandlerFilter((cf("Exception", "throw", eff),), PURE)
    atom = parse_effect("Exception.throw[ThenElse[Nat]]")
    out = apply_filter(sigs, {}, H, atom)
    assert out == eff_of(EffCall(nominal("ThenElse", nominal("Nat")), "then"))


def test_filter_adds_the_final_effect(sigs):
    H = HandlerFilter((cf("Exception", "throw", PURE),), FAIL)
    assert apply_filter(sigs, {}, H, THROW) == FAIL
    assert apply_filter(sigs, {}, H, PURE) == FAIL


def test_filter_top_passes_through(sigs):
    H = HandlerFilter((cf("Exception", "throw", PURE),), PURE)
    assert apply_filter(sigs, {}, H, TOP) == TOP


def test_filter_distributes_over_union(sigs):
    # F(a v b | <Cs; f>) == F(a | <Cs; F(b | <Cs; f>)>)
    clauses = (cf("Exception", "throw", FAIL),)
    fin = parse_effect("Chooser.choose")
    for a in (THROW, MY_THROW, FAIL, PURE):
        for b in (THROW, FAIL, PURE):
            lhs = apply_filter(
                sigs, {}, HandlerFilter(clauses, fin), eff_union(a, b))
            inner = apply_filter(sigs, {}, HandlerFilter(clauses, fin), b)
            rhs = apply_filter(sigs, {}, HandlerFilter(clauses, inner), a)
            assert lhs == rhs, (a, b)


# -- the simplification memo ----------------------------------------------------

def test_simplify_is_memoized(monkeypatch):
    sigs = Sigs(load_program("", use_prelude=True))
    eff = parse_effect("Bool.not \\/ Failure[Nat].fail")
    first = simplify(sigs, {}, eff)
    looked_up = []
    real = sigs.mtype

    def counted(*args):
        looked_up.append(args)
        return real(*args)

    monkeypatch.setattr(sigs, "mtype", counted)
    assert simplify(sigs, {}, eff) is first
    assert looked_up == []


def test_a_failing_simplification_raises_on_every_call(sigs):
    eff = eff_of(EffCall(TypeVar("Y"), "then"))
    with pytest.raises(UnboundTypeVar):
        simplify(sigs, {}, eff)
    # under a bound for Y the same effect simplifies, keyed apart
    phi = {"Y": nominal("ThenElse", nominal("Nat"))}
    assert simplify(sigs, phi, eff) == eff
    with pytest.raises(UnboundTypeVar):
        simplify(sigs, {}, eff)
    loop = Sigs(load_program("Loop { m : abs -> Nat ! Loop.m }"))
    for _ in range(2):
        with pytest.raises(FuelExhausted):
            simplify(loop, {}, parse_effect("Loop.m"))
