"""Signatures: symmetric and override sums, subtyping, well-formedness."""

import pytest

from mfj.parser import parse_effect, parse_program, parse_type
from mfj.prelude import load_program
from mfj.signatures import (
    ConflictError, CyclicInheritance, NoSuchMethod, OverrideError, Sigs,
    UnknownType, sym_sum,
)
from mfj.syntax import (
    ABS, DEF, MGC, OBJECT, PURE, TOP,
    MethodType, NominalType, ObjType, Sig, TypeVar, nominal,
)
from mfj.typer import Checker

MT = MethodType((), (), OBJECT, PURE)
MT2 = MethodType((), (), nominal("Nat"), PURE)


def entry(kind, mt=MT):
    return Sig((("m", kind, mt),))


# -- symmetric sum ------------------------------------------------------------

@pytest.mark.parametrize("k1,k2,expect", [
    (ABS, ABS, ABS),
    (DEF, DEF, ABS),
    (ABS, DEF, DEF),
    (DEF, ABS, DEF),
])
def test_sym_sum_kind_table(k1, k2, expect):
    out = sym_sum(entry(k1), entry(k2))
    assert out.get("m") == (expect, MT)


def test_sym_sum_disjoint_union():
    s = sym_sum(Sig((("a", DEF, MT),)), Sig((("b", ABS, MT),)))
    assert s.names() == ["a", "b"]


def test_sym_sum_rejects_magic_collisions():
    with pytest.raises(ConflictError):
        sym_sum(entry(MGC), entry(MGC))
    with pytest.raises(ConflictError):
        sym_sum(entry(MGC), entry(ABS))


def test_sym_sum_rejects_type_conflicts():
    with pytest.raises(ConflictError):
        sym_sum(entry(ABS, MT), entry(ABS, MT2))


# -- override sum -------------------------------------------------------------

@pytest.fixture(scope="module")
def sigs():
    return Sigs(load_program("", use_prelude=True))


def test_override_def_over_abs(sigs):
    out = sigs.override_sum({}, entry(ABS), entry(DEF))
    assert out.get("m") == (DEF, MT)


def test_override_abs_over_def_rejected(sigs):
    with pytest.raises(OverrideError):
        sigs.override_sum({}, entry(DEF), entry(ABS))


def test_override_magic_only_by_magic(sigs):
    with pytest.raises(OverrideError):
        sigs.override_sum({}, entry(MGC), entry(DEF))
    with pytest.raises(OverrideError):
        sigs.override_sum({}, entry(DEF), entry(MGC))


def test_override_may_refine_return_and_effect(sigs):
    wide = entry(ABS, MethodType((), (), OBJECT, TOP))
    narrow = entry(DEF, MethodType((), (), nominal("Nat"), PURE))
    assert sigs.override_sum({}, wide, narrow).get("m")[1].ret == \
        nominal("Nat")


def test_override_may_not_widen_effect(sigs):
    narrow = entry(ABS, MethodType((), (), OBJECT, PURE))
    wide = entry(DEF, MethodType((), (), OBJECT, TOP))
    with pytest.raises(OverrideError):
        sigs.override_sum({}, narrow, wide)


def test_override_parameter_types_are_invariant(sigs):
    base = entry(ABS, MethodType((), (nominal("Nat"),), OBJECT, PURE))
    other = entry(DEF, MethodType((), (OBJECT,), OBJECT, PURE))
    with pytest.raises(OverrideError):
        sigs.override_sum({}, base, other)


def test_override_aligns_binder_names(sigs):
    a = entry(ABS, MethodType((("X", OBJECT),), (TypeVar("X"),),
                              TypeVar("X"), PURE))
    b = entry(DEF, MethodType((("W", OBJECT),), (TypeVar("W"),),
                              TypeVar("W"), PURE))
    assert sigs.override_sum({}, a, b).get("m")[0] == DEF


# B.m differs from A.m only in the names (and order) of its type binders
SWAPPED = """
G { go : abs -> Nat ! pure }
A { m : abs [P <: G Q <: G] G{f : abs -> Nat ! P.go \\/ Q.go} -> Nat ! pure }
B <| A { m : abs [Q <: G P <: G] G{f : abs -> Nat ! Q.go \\/ P.go} -> Nat ! pure }
"""


def test_override_aligns_binders_inside_parameter_types():
    assert Checker(load_program(SWAPPED)).check_program() == []


def test_sub_type_aligns_binders_inside_parameter_types():
    sigs = Sigs(load_program(SWAPPED))
    a = parse_type("G{h : abs [P <: G Q <: G] "
                   "G{f : abs -> Nat ! P.go \\/ Q.go} -> Nat ! pure}")
    b = parse_type("G{h : abs [Q <: G P <: G] "
                   "G{f : abs -> Nat ! Q.go \\/ P.go} -> Nat ! pure}")
    assert a != b
    assert sigs.sub_type({}, a, b) and sigs.sub_type({}, b, a)


# -- subtyping ----------------------------------------------------------------

def test_sub_type_reflexive_and_object_top(sigs):
    nat = parse_type("Nat")
    assert sigs.sub_type({}, nat, nat)
    assert sigs.sub_type({}, nat, OBJECT)
    assert not sigs.sub_type({}, OBJECT, nat)


def test_sub_type_through_parents(sigs):
    assert sigs.sub_type({}, parse_type("True"), parse_type("Bool"))
    assert sigs.sub_type({}, parse_type("Zero"), parse_type("Nat"))
    assert not sigs.sub_type({}, parse_type("True"), parse_type("Nat"))


def test_sub_type_typevar_uses_its_bound(sigs):
    phi = {"X": parse_type("True")}
    assert sigs.sub_type(phi, TypeVar("X"), parse_type("Bool"))
    assert not sigs.sub_type(phi, parse_type("Bool"), TypeVar("X"))


def test_sub_eff_pure_below_everything(sigs):
    atom = parse_effect("Exception.throw[Nat]")
    assert sigs.sub_eff({}, PURE, atom)
    assert sigs.sub_eff({}, atom, TOP)
    assert not sigs.sub_eff({}, TOP, atom)
    assert not sigs.sub_eff({}, atom, PURE)


def test_sub_eff_receiver_covariance(sigs):
    sub = parse_effect("MyException.throw[Nat]")
    sup = parse_effect("Exception.throw[Nat]")
    assert sigs.sub_eff({}, sub, sup)
    assert not sigs.sub_eff({}, sup, sub)


# -- declaration signatures ---------------------------------------------------

def test_prelude_decl_sigs(sigs):
    assert sigs.decl_sig("Bool").names() == ["if", "not"]
    assert sigs.decl_sig("True").get("not")[0] == DEF
    # Zero inherits Nat's interface and implements it
    zero = sigs.decl_sig("Zero")
    assert zero.get("match")[0] == DEF
    assert sigs.decl_sig("MyException").get("throw")[0] == MGC


def test_nominal_sig_instantiates_parameters(sigs):
    s = sigs.sig_of_nominal(NominalType("Failure", (parse_type("Nat"),)))
    assert s.get("fail")[1].ret == parse_type("Nat")


def test_mtype_missing_method(sigs):
    with pytest.raises(NoSuchMethod):
        sigs.mtype({}, parse_type("Nat"), "nope")


def test_unknown_type(sigs):
    with pytest.raises(UnknownType):
        sigs.decl_sig("Missing")


def test_cyclic_inheritance_detected():
    prog = parse_program("A <| B { } B <| A { }")
    with pytest.raises(CyclicInheritance):
        Sigs(prog).decl_sig("A")


# -- name-level ancestors -----------------------------------------------------

def test_ancestors_of_a_diamond():
    sigs = Sigs(parse_program("A { } B <| A { } C <| A { } D <| B C { }"))
    assert sigs.ancestors("D") == {"A", "B", "C", "D"}
    assert sigs.ancestors("B") == {"A", "B"}


def test_ancestors_stop_at_an_undeclared_parent():
    # only a program run --unchecked can name a parent it never declares
    sigs = Sigs(parse_program("A <| Ghost { } B <| A { }"))
    assert sigs.ancestors("B") == {"A", "B", "Ghost"}
    assert sigs.ancestors("Ghost") == {"Ghost"}


def test_ancestors_of_a_cycle_are_exact_for_every_member():
    # the first query walks through B and C; their own closures must still
    # be the whole cycle, not what was known when the walk reached them
    sigs = Sigs(parse_program("A <| C { } B <| A { } C <| B { }"))
    for name in ("A", "B", "C"):
        assert sigs.ancestors(name) == {"A", "B", "C"}
