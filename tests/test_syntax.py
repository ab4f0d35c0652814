"""Core syntax: effect normal forms, substitution, erasure."""

import os
import pathlib
import subprocess
import sys

import pytest
from hypothesis import given, strategies as st

import mfj

from mfj.parser import numeral, parse_expr
from mfj.syntax import (
    DEF, OBJECT, PURE, TOP,
    Call, Do, EffCall, MethodDef, MethodType, NominalType, Obj, ObjType,
    Program, Return, Sig, TypeDecl, TypeVar, Var, alpha_eq_mtype, canon_mtype,
    eff_of, eff_union, erase_type, fresh_name, fv_expr, fv_value, ftv_expr,
    ftv_type, nominal, subst_eff, subst_expr, subst_mtype, subst_type,
)

A = eff_of(EffCall(nominal("A"), "m"))
B = eff_of(EffCall(nominal("B"), "n"))


# -- effect normal form -------------------------------------------------------

effects = st.deferred(
    lambda: st.one_of(
        st.just(PURE),
        st.just(TOP),
        st.sampled_from([A, B, eff_of(EffCall(nominal("C"), "k"))]),
        st.builds(eff_union, effects, effects),
    )
)


@given(effects)
def test_union_is_idempotent(e):
    assert eff_union(e, e) == e


@given(effects, effects)
def test_union_is_commutative(a, b):
    assert eff_union(a, b) == eff_union(b, a)


@given(effects, effects, effects)
def test_union_is_associative(a, b, c):
    assert eff_union(eff_union(a, b), c) == eff_union(a, eff_union(b, c))


@given(effects)
def test_top_absorbs(e):
    assert eff_union(e, TOP) == TOP


def test_union_flattens():
    e = eff_union(eff_union(A, B), eff_union(A, PURE))
    assert e.atoms == A.atoms | B.atoms and not e.top


def test_eff_of_nothing_is_pure():
    assert eff_of() == PURE


def test_equal_effects_are_shared():
    assert eff_of(*B.atoms, *A.atoms) is eff_union(A, B)
    assert eff_of(*A.atoms, top=True) is TOP


def test_subst_merges_atoms_that_become_equal():
    xy = eff_of(EffCall(TypeVar("X"), "m"), EffCall(TypeVar("Y"), "m"))
    out = subst_eff(xy, {"X": nominal("A"), "Y": nominal("A")})
    assert out == A


def test_effect_repr_does_not_depend_on_hashing():
    code = (
        "from mfj.syntax import EffCall, TypeVar, eff_of\n"
        "print(repr(eff_of(*(EffCall(TypeVar(x), 'm') for x in 'XYZ'))))"
    )
    src = str(pathlib.Path(mfj.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    outs = {
        subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            check=True, env={**env, "PYTHONHASHSEED": seed},
        ).stdout
        for seed in ("0", "1")
    }
    assert len(outs) == 1


# -- free variables -----------------------------------------------------------

def test_fv_do_binds_its_variable():
    e = parse_expr("do y = x.m(); y.n(z)")
    assert fv_expr(e) == {"x", "z"}


def test_fv_try_binds_clause_and_final_vars():
    e = parse_expr(
        "try x.m() with Exception.throw : <s, return s> stop "
        "final <r, return r>")
    assert fv_expr(e) == {"x"}


def test_ftv_collects_type_arguments():
    e = parse_expr("x.m[Y](z)", tvars=("Y",))
    assert ftv_expr(e) == {"Y"}
    assert ftv_type(nominal("Failure", TypeVar("Y"))) == {"Y"}


def test_numerals_are_closed():
    assert fv_value(numeral(7)) == frozenset()
    assert ftv_expr(Return(numeral(7))) == frozenset()


# -- substitution -------------------------------------------------------------

def test_subst_replaces_free_variables():
    e = parse_expr("do y = x.m(); y.n(x)")
    out = subst_expr(e, {}, {"x": numeral(0)})
    assert fv_expr(out) == frozenset()
    assert out.first.recv == numeral(0)


def test_subst_skips_bound_occurrences():
    e = parse_expr("do x = return 0; return x")
    assert subst_expr(e, {}, {"x": numeral(9)}) == e


def test_subst_avoids_capture_in_do():
    # substituting x for y must not let the binder x capture it
    e = parse_expr("do x = return 0; y.m(x)")
    out = subst_expr(e, {}, {"y": Var("x")})
    assert out.var != "x"
    assert out.rest.recv == Var("x")
    assert out.rest.args == (Var(out.var),)


def test_subst_identity_is_the_same_object():
    e = parse_expr("do x = return 0; return x")
    assert subst_expr(e, {}, {}) is e
    assert subst_expr(e, {"Z": nominal("Nat")}, {"q": numeral(1)}) is e


def test_subst_type_in_effects():
    eff = eff_of(EffCall(TypeVar("Y"), "then"))
    out = subst_expr(
        Return(Obj((), (MethodDef("m", DEF,
                                  MethodType((), (), OBJECT, eff),
                                  "s", (), Return(Var("s"))),))),
        {"Y": nominal("True")}, {})
    assert out.value.methods[0].mtype.eff == eff_of(EffCall(nominal("True"), "then"))


def test_subst_mtype_renames_clashing_binders():
    mt = MethodType((("X", OBJECT),), (TypeVar("X"),), TypeVar("Y"), PURE)
    out = subst_mtype(mt, {"Y": TypeVar("X")})
    binder = out.typeParams[0][0]
    assert binder != "X"
    assert out.ret == TypeVar("X")
    assert out.paramTypes == (TypeVar(binder),)


# -- erasure and canonical forms ----------------------------------------------

def test_erase_drops_bodies():
    t = erase_type(numeral(0))
    assert t == ObjType((NominalType("Zero"),), Sig(()))
    # parents are a set: their order changes neither equality nor hash
    ab = (NominalType("A"), NominalType("B"))
    ba = ab[::-1]
    assert Obj(ab) == Obj(ba) and hash(Obj(ab)) == hash(Obj(ba))
    assert erase_type(Obj(ab)) == erase_type(Obj(ba)) == ObjType(ba, Sig(()))
    assert hash(ObjType(ab, Sig(()))) == hash(ObjType(ba, Sig(())))


def test_erase_keeps_own_methods():
    v = parse_expr("return Object { m : def -> Object <s, return s> }").value
    t = erase_type(v)
    assert t.sig.names() == ["m"]


def test_canon_mtype_gives_alpha_equality():
    a = MethodType((("X", OBJECT),), (TypeVar("X"),), TypeVar("X"), PURE)
    b = MethodType((("W", OBJECT),), (TypeVar("W"),), TypeVar("W"), PURE)
    assert canon_mtype(a) == canon_mtype(b)
    assert alpha_eq_mtype(a, b)
    c = MethodType((("X", OBJECT),), (TypeVar("X"),), OBJECT, PURE)
    assert not alpha_eq_mtype(a, c)


def test_fresh_names_are_distinct():
    names = {fresh_name("x") for _ in range(50)}
    assert len(names) == 50
    assert fresh_name("x__3").startswith("x__")


# -- programs -----------------------------------------------------------------

def test_program_rejects_duplicate_decls():
    with pytest.raises(ValueError):
        Program((TypeDecl("A", (), (), ()), TypeDecl("A", (), (), ())))


def test_extend_prefers_the_second_main():
    p1 = Program((), Return(numeral(1)))
    p2 = Program((), Return(numeral(2)))
    assert p1.extend(p2).main == Return(numeral(2))
    assert p1.extend(Program(())).main == Return(numeral(1))
