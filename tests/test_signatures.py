"""Signatures: symmetric and override sums, subtyping, well-formedness."""

import random
import sys
from collections import Counter

import pytest

from mfj import faults
from mfj.evaluator import Evaluator, VRes
from mfj.monads import Pure
from mfj.parser import numeral, parse_effect, parse_program, parse_type
from mfj.prelude import load_program
from mfj.signatures import (
    ConflictError, CyclicInheritance, NoSuchMethod, OverrideError, Sigs,
    UnboundTypeVar, UnknownType, env_key, sym_sum,
)
from mfj.soundness import IllTypedProgram, check_soundness
from mfj.syntax import (
    ABS, DEF, MGC, OBJECT, PURE, TOP,
    MethodType, NominalType, ObjType, Sig, TypeVar, nominal,
)
from mfj.typer import Checker

from conftest import load, perfbench_gen

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


@pytest.mark.parametrize("source,reason", [
    ("A { m : abs [X] X -> X ! pure }\n"
     "B <| A { m : abs Nat -> Nat ! pure }",
     "method 'm': type-parameter arity differs"),
    ("A { m : abs [X <: Nat] X -> X ! pure }\n"
     "B <| A { m : abs [X] X -> X ! pure }",
     "method 'm': type-parameter bounds differ"),
    ("E2 <| Exception { throw : mgc [X] -> Nat }",
     "method 'throw': magic overrides must keep the return type"),
], ids=["arity", "bounds", "magic-return"])
def test_an_override_must_keep_the_binders_and_a_magic_return(source, reason):
    diags = Checker(load_program(source)).check_program()
    assert list(map(str, diags)) == [f"[OverrideError/t-ntype] {reason}"]


def test_a_magic_method_may_override_one_with_the_same_return_type():
    prog = load_program("E2 <| Exception { throw : mgc [Y] -> Y }")
    ck = Checker(prog)
    assert ck.check_program() == []
    assert ck.sigs.decl_sig("E2").get("throw")[0] == MGC


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


# B.m returns B's type parameter X, which is not A.m's binder X
CAPTURE = """
A { m : abs [X] X -> X ! pure }
B[X] <| A { m : def [Z] Z -> X ! pure <self z, self.get()>  get : abs -> X ! pure }
C <| B[Nat] { get : def -> Nat ! pure <_, return 5> }
Use { go : def A -> Bool ! pure <_ a, a.m[Bool](True)> }
main = do u = return Use{}; u.go(C{})
"""


def test_override_does_not_capture_a_free_type_variable():
    diags = Checker(load_program(CAPTURE)).check_program()
    assert "[OverrideError/t-ntype] method 'm': overriding type-and-effect " \
        "is not a subtype of the declared one" in map(str, diags)


def test_sub_type_does_not_capture_a_free_type_variable(sigs):
    a = parse_type("Bool{m : abs [X] X -> X ! pure}", ("X",))
    b = parse_type("Bool{m : abs [Z] Z -> X ! pure}", ("X",))
    assert not sigs.sub_type({"X": OBJECT}, a, b)


# D's bound for Y names D's X; D.m's own binder X must not capture it
CAPTURE_OUTER = """
G[X] { get : abs -> X ! pure }
A { m : abs [@] -> G[@] ! pure }
D[X Y <: G[X]] <| A { y : abs -> Y ! pure   m : def [@] -> Y ! pure <s, s.y()> }
GN <| G[Nat] { get : def -> Nat ! pure <_, return 5> }
U { use : def A -> Bool ! pure <_ a, do g = a.m[Bool](); g.get()> }
main = U.use(D[Nat GN]{ y : def -> GN ! pure <_, return GN> })
"""


@pytest.mark.parametrize("binder", ["X", "Q"])
def test_override_does_not_capture_a_bound_in_the_environment(binder):
    diags = Checker(load_program(CAPTURE_OUTER.replace("@", binder))) \
        .check_program()
    assert [f"{d.code}/{d.rule}" for d in diags] == [
        "OverrideError/t-ntype", "OverrideError/t-obj"]


@pytest.mark.parametrize("binder", ["X", "Q"])
def test_sub_type_does_not_capture_a_bound_in_the_environment(binder):
    sigs = Sigs(load_program("G[X] { get : abs -> X ! pure }"))
    phi = {"X": OBJECT, "Y": parse_type("G[X]", ("X",))}
    a = parse_type(f"Bool{{m : abs [{binder}] -> Y ! pure}}", ("Y",))
    b = parse_type(f"Bool{{m : abs [{binder}] -> G[{binder}] ! pure}}")
    assert not sigs.sub_type(phi, a, b)


# each merged well-formedness arm, reached through ``check``
WF = [
    ("A { m : abs Foo -> Nat ! pure }",
     "[UnknownType/t-ntype] unknown type 'Foo'"),
    ("A { m : abs Failure -> Nat ! pure }",
     "[ArityMismatch/t-ntype] Failure expects 1 type arguments, got 0"),
    ("A { m : abs -> Nat ! Bool.not }",
     "[NotMagic/t-ntype] 'not' is not a magic method of the call-effect "
     "receiver"),
    ("A { m : abs [Y <: Bool] -> Nat ! Y.foo }",
     "[NoSuchMethod/t-ntype] no method 'foo' in the bound of Y"),
    ("A { m : abs -> Nat ! Exception.throw }",
     "[ArityMismatch/t-ntype] call-effect 'throw' expects 1 type arguments, "
     "got 0"),
    ("G[X <: Bool] { }  A { m : abs G[Nat] -> Nat ! pure }",
     f"[BoundViolation/t-ntype] type argument {nominal('Nat')!r} of G "
     f"violates its bound"),
    ("Op { op : mgc [X <: Bool] -> X }  A { m : abs -> Nat ! Op.op[Nat] }",
     f"[BoundViolation/t-ntype] type argument {nominal('Nat')!r} of "
     f"call-effect 'op' violates its bound"),
]


@pytest.mark.parametrize("src, diagnostic", WF, ids=[
    "unknown-type", "type-arity", "not-magic", "no-such-method",
    "call-effect-arity", "type-bound", "call-effect-bound"])
def test_ill_formed_declarations_are_diagnosed(src, diagnostic):
    diags = Checker(load_program(src)).check_program()
    assert [str(d) for d in diags] == [diagnostic]


@pytest.mark.parametrize("src", [
    "A { m : abs -> Nat ! pure }  B <| A { m : def -> Nope ! pure <_, return 0> }",
    "A { m : abs -> Nat ! Exception.throw[Nat] }  "
    "B <| A { m : def -> Nat ! Nope.throw[Nat] <_, return 0> }",
], ids=["return-type", "call-effect"])
def test_an_override_naming_an_unknown_type_is_not_a_subtype(src):
    # subtyping and the magic test meet Nope and answer no; the override
    # check runs before well-formedness, so Nope is not reported as unknown
    diags = Checker(load_program(src)).check_program()
    assert [str(d) for d in diags] == [
        "[OverrideError/t-ntype] method 'm': overriding type-and-effect is "
        "not a subtype of the declared one"]


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


@pytest.mark.parametrize("a, b, below", [
    ("G{ m : def -> Nat ! pure }", "G{ m : abs -> Nat ! pure }", True),
    ("G{ m : abs -> Nat ! pure }", "G{ m : def -> Nat ! pure }", False),
    ("G", "G{ m : abs -> Nat ! pure }", False),
    ("G{ m : abs [X] -> Nat ! pure }", "G{ m : abs -> Nat ! pure }", False),
], ids=["def-below-abs", "abs-not-below-def", "missing", "binders-differ"])
def test_sub_type_compares_the_written_signatures(a, b, below):
    # the kind order is def <= abs; a method b names must be in a, with a
    # method type that aligns with b's
    sigs = Sigs(load_program("G { }"))
    assert sigs.sub_type({}, parse_type(a), parse_type(b)) is below


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


SUB_VAR_CALL = """
G { go : abs -> Nat ! MyException.throw[Nat] }
H <| G { go : def -> Nat ! pure <_, return 3> }
K { m : def [Z <: G] Z -> Nat ! @ <_ z, z.go()> }
main = K{}.m[H](H{})
"""


def test_sub_var_call_replaces_a_variable_receiver_by_its_bound():
    # z.go() has the effect Z.go, which is below Exception.throw[Nat] only
    # through Z's bound G
    prog = load_program(SUB_VAR_CALL.replace("@", "Exception.throw[Nat]"))
    assert Checker(prog).check_program() == []
    assert Evaluator(prog, "exc").finitary(prog.main, 100) == Pure(VRes(numeral(3)))
    assert check_soundness(prog, "exc").ok


def test_sub_var_call_does_not_make_a_call_effect_pure():
    diags = Checker(load_program(SUB_VAR_CALL.replace("@", "pure"))).check_program()
    assert [str(d) for d in diags] == [
        "[BodyEffectMismatch/t-meth] body of 'K.m' has effect "
        "Effect(atoms={EffCall(receiver=TypeVar(name='Z'), method='go', "
        "targs=())}, top=False), not below the declared "
        "Effect(atoms={}, top=False)"]


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


def test_a_failed_supers_lookup_raises_on_every_call():
    # the first lookup raises in B's parent; its cycle guard for A must not
    # stay behind as A's answer
    sigs = Sigs(parse_program("A <| B { } B <| Nope { }"))
    for _ in range(2):
        with pytest.raises(UnknownType):
            sigs.nominal_supers(NominalType("A"))


SELF_BOUND = """
Foo { m : abs -> Nat ! pure }
A[X <: Foo{ m : abs -> Nat ! X.m }] { n : def X -> Nat ! pure <_ x, x.m()> }
main = return 0
"""


def test_a_bound_whose_signature_asks_for_itself_is_a_diagnostic():
    # the bound's override effect X.m simplifies through X's bound, the
    # signature being built: a lookup that asks for itself fails, so the
    # override is not shown to be a subtype, at the default limit
    prog = load_program(SELF_BOUND)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        diags = Checker(prog).check_program()
    finally:
        sys.setrecursionlimit(limit)
    assert [(d.code, d.rule) for d in diags] == [("OverrideError", "t-ntype")]


# -- the signature memo -------------------------------------------------------

def test_sig_of_type_is_memoized(monkeypatch):
    sigs = Sigs(load_program("", use_prelude=True))
    t = parse_type("Succ{pred : def -> Nat ! pure}")
    first = sigs.sig_of_type({}, t)
    sums = []
    real = sigs.override_sum

    def counted(*args):
        sums.append(args)
        return real(*args)

    monkeypatch.setattr(sigs, "override_sum", counted)
    assert sigs.sig_of_type({}, t) is first
    assert sigs.mtype({}, t, "pred") == first.get("pred")
    assert sums == []


def test_a_failing_signature_raises_on_every_call(sigs):
    for _ in range(2):
        with pytest.raises(UnboundTypeVar):
            sigs.sig_of_type({}, TypeVar("Z"))
    bad = parse_type("Nat{succ : def -> Bool ! pure}")
    for _ in range(2):
        with pytest.raises(OverrideError):
            sigs.sig_of_type({}, bad)


def test_one_type_variable_under_two_bounds(sigs):
    x = TypeVar("X")
    as_bool = sigs.sig_of_type({"X": parse_type("Bool")}, x)
    as_nat = sigs.sig_of_type({"X": parse_type("Nat")}, x)
    assert "not" in as_bool and "succ" not in as_bool
    assert "succ" in as_nat and "not" not in as_nat
    assert sigs.sig_of_type({"X": parse_type("Bool")}, x) is as_bool


def test_a_seeded_fault_is_caught_after_a_clean_run():
    # memo tables belong to a session, so a clean run leaves nothing behind
    # that would hide the fault from the next one
    assert check_soundness(load("diamond"), "exc", fuel=100).ok
    with faults.inject("flip_symsum_kinds"):
        with pytest.raises(IllTypedProgram):
            check_soundness(load("diamond"), "exc", fuel=100)


# -- the well-formedness memo -------------------------------------------------

def test_each_type_is_checked_well_formed_once_per_environment(monkeypatch):
    # a benchmark-style program: chains of overrides whose method types
    # repeat, one of them broken
    src, bad = perfbench_gen().large_program(random.Random(1), 120, True)
    ck = Checker(load_program(src))
    checked = Counter()
    real = ck.sigs._wf_check

    def counted(phi, x):
        checked[x, env_key(phi)] += 1
        return real(phi, x)

    monkeypatch.setattr(ck.sigs, "_wf_check", counted)
    diags = ck.check_program()
    assert [(d.code, d.rule) for d in diags] == [("OverrideError", "t-ntype")]
    assert f"method {bad[1]!r}" in str(diags[0])
    assert checked and max(checked.values()) == 1


def test_a_type_well_formed_in_one_environment_is_checked_in_another(sigs):
    # only a check that passes is remembered, and only for its environment
    t = ObjType((NominalType("Failure", (TypeVar("Z"),)),), Sig(()))
    for _ in range(2):
        with pytest.raises(UnboundTypeVar):
            sigs.wf_check({}, t)
        sigs.wf_check({"Z": parse_type("Nat")}, t)
