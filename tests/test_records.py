"""Printed forms and equality of the syntax nodes and the other records.

Diagnostics, traces and soundness witnesses print these objects, so each
class's ``repr`` is pinned here byte for byte, together with what ``==``
and ``hash`` mean for it: identity for hash-consed nodes, structure for
records.
"""

from fractions import Fraction

import pytest

from mfj import faults
from mfj.effects import ClauseFilter, HandlerFilter
from mfj.evaluator import (
    DoFrame, EConf, RConf, StepInfo, TraceLine, TryFrame, VRes, WRONG,
)
from mfj.monads import Dist, ExcValue, IdValue
from mfj.parser import numeral
from mfj.reducer import Magic
from mfj.soundness import CheckRecord, EffectInterp, SoundnessReport, Verdict
from mfj.syntax import (
    DEF, OBJECT, PURE, STOP, TOP, Call, Clause, Do, EffCall, Handler,
    MethodDef, MethodType, NominalType, Obj, ObjType, Program, Return, Sig,
    Try, TypeDecl, TypeVar, Var, eff_of, nominal,
)

X = TypeVar("X")
N = NominalType("N", (X,))
ATOM = EffCall(nominal("E"), "throw", (X,))
MT = MethodType((("X", OBJECT),), (X,), X, PURE)
BODY = Return(Var("x"))
MD = MethodDef("m", DEF, MT, "this", ("x",), BODY)
CL = Clause(NominalType("E"), "throw", ("X",), "_", (), Return(Var("y")), STOP)
H = Handler((CL,), "y", Return(Var("y")))
CALL = Call(Var("o"), "m", (X,), (Var("z"),))
DO = Do("y", CALL, Return(Var("y")))
CF = ClauseFilter(N, "throw", ("X",), PURE)
REC = CheckRecord("p.mfj", "exc", "progress", False, "w")

R_X = "TypeVar(name='X')"
R_N = f"NominalType(name='N', args=({R_X},))"
R_E = "ObjType(parents=(NominalType(name='E', args=()),), sig=Sig(entries=()))"
R_OBJECT = "ObjType(parents=(), sig=Sig(entries=()))"
R_ATOM = f"EffCall(receiver={R_E}, method='throw', targs=({R_X},))"
R_PURE = "Effect(atoms={}, top=False)"
R_MT = (f"MethodType(typeParams=(('X', {R_OBJECT}),), paramTypes=({R_X},), "
        f"ret={R_X}, eff={R_PURE})")
R_SIG = f"Sig(entries=(('m', 'def', {R_MT}),))"
R_BODY = "Return(value=Var(name='x'))"
R_MD = (f"MethodDef(name='m', kind='def', mtype={R_MT}, selfVar='this', "
        f"params=('x',), body={R_BODY})")
R_Y = "Return(value=Var(name='y'))"
R_CL = (f"Clause(ntype=NominalType(name='E', args=()), method='throw', "
        f"typeParams=('X',), selfVar='_', params=(), body={R_Y}, mode='stop')")
R_H = f"Handler(clauses=({R_CL},), finalVar='y', finalExpr={R_Y})"
R_CALL = (f"Call(recv=Var(name='o'), method='m', targs=({R_X},), "
          f"args=(Var(name='z'),))")
R_DOFRAME = f"DoFrame(var='y', rest={R_Y}, below=None)"
R_CF = (f"ClauseFilter(ntype={R_N}, method='throw', typeParams=('X',), "
        f"effect={R_PURE})")
R_REC = ("CheckRecord(program='p.mfj', monad='exc', check='progress', "
         "ok=False, witness='w')")

NODES = [
    (X, R_X),
    (N, R_N),
    (ObjType((N, NominalType("A")), Sig([("m", DEF, MT)])),
     f"ObjType(parents=(NominalType(name='A', args=()), {R_N}), sig={R_SIG})"),
    (ATOM, R_ATOM),
    (eff_of(ATOM, EffCall(nominal("A"), "a")),
     "Effect(atoms={EffCall(receiver=ObjType(parents=(NominalType(name='A', "
     "args=()),), sig=Sig(entries=())), method='a', targs=()), "
     f"{R_ATOM}}}, top=False)"),
    (TOP, "Effect(atoms={}, top=True)"),
    (MT, R_MT),
    (Sig([("m", DEF, MT)]), R_SIG),
    (Var("v"), "Var(name='v')"),
    (MD, R_MD),
    (Obj((N,), (MD,)), f"Obj(parents=({R_N},), methods=({R_MD},))"),
    (CALL, R_CALL),
    (Return(Var("v")), "Return(value=Var(name='v'))"),
    (DO, f"Do(var='y', first={R_CALL}, rest={R_Y})"),
    (CL, R_CL),
    (H, R_H),
    (Try(BODY, H), f"Try(body={R_BODY}, handler={R_H})"),
    (TypeDecl("C", (("X", OBJECT),), (N,), (MD,)),
     f"TypeDecl(name='C', typeParams=(('X', {R_OBJECT}),), parents=({R_N},), "
     f"methods=({R_MD},))"),
    (DoFrame("y", Return(Var("y")), None), R_DOFRAME),
    (TryFrame(H, DoFrame("y", Return(Var("y")), None)),
     f"TryFrame(handler={R_H}, below={R_DOFRAME})"),
    (VRes(numeral(2)), "V 2"),
    (RConf(VRes(Obj(()))), "R V Object{}"),
    (RConf(WRONG), "R wrong"),
]

RECORDS = [
    (CF, R_CF),
    (HandlerFilter((CF,), TOP),
     f"HandlerFilter(clauses=({R_CF},), finalEffect=Effect(atoms={{}}, top=True))"),
    (EConf(DO), "E do y = o.m[X](z); return y"),
    (StepInfo("mgc", ATOM), f"StepInfo(rule='mgc', mgc_atom={R_ATOM})"),
    (StepInfo("pure"), "StepInfo(rule='pure', mgc_atom=None)"),
    (TraceLine("pure", "E return 1"), "TraceLine(rule='pure', text='E return 1')"),
    (faults.Faults(swap_list_bind=True),
     "Faults(reverse_clause_match=False, skip_invk_type_subst=False, "
     "flip_symsum_kinds=False, filter_before_simplify=False, "
     "swap_list_bind=True)"),
    (ExcValue("raised", "E"), "Raised(E)"),
    (ExcValue("pure", 1), "Pure(1)"),
    (ExcValue("bottom"), "Bottom"),
    (Dist({1: Fraction(1, 2), 2: Fraction(1, 3)}), "{1/2: 1, 1/3: 2}"),
    (IdValue("val", 3), "Id(3)"),
    (IdValue("bottom"), "Bottom"),
    (Magic("Failure"), "Magic(typeName='Failure')"),
    (EffectInterp("exc", "M", "D"),
     "EffectInterp(name='exc', monad='M', den='D', may=False, prefix=256)"),
    (Verdict(True), "Verdict(ok=True, witness='')"),
    (Verdict(False, "stuck"), "Verdict(ok=False, witness='stuck')"),
    (CheckRecord("p.mfj", "exc", "progress", True),
     "CheckRecord(program='p.mfj', monad='exc', check='progress', ok=True, "
     "witness='')"),
    (REC, R_REC),
    (SoundnessReport(), "SoundnessReport(records=[])"),
    (SoundnessReport([REC]), f"SoundnessReport(records=[{R_REC}])"),
    (Program((TypeDecl("C", (), (), ()),), Return(Var("v"))),
     "Program(decls=(TypeDecl(name='C', typeParams=(), parents=(), "
     "methods=()),), main=Return(value=Var(name='v')))"),
    (Program(()), "Program(decls=(), main=None)"),
]


@pytest.mark.parametrize("obj, text", NODES + RECORDS,
                         ids=[type(o).__name__ for o, _ in NODES + RECORDS])
def test_repr_is_pinned(obj, text):
    assert repr(obj) == text


def test_every_record_class_is_pinned():
    pinned = {type(o) for o, _ in NODES + RECORDS}
    assert len(pinned) == 36


@pytest.mark.parametrize("obj, _", NODES, ids=[type(o).__name__ for o, _ in NODES])
def test_nodes_compare_by_identity_and_are_frozen(obj, _):
    assert obj == obj and hash(obj) == object.__hash__(obj)
    assert obj != object()
    with pytest.raises(AttributeError):
        obj.extra = 1


def test_frozen_records_compare_by_structure():
    for a, b in [(StepInfo("mgc", ATOM), StepInfo("mgc", ATOM)),
                 (Magic("E"), Magic("E")), (EConf(DO), EConf(DO)),
                 (CF, ClauseFilter(N, "throw", ("X",), PURE)),
                 (Verdict(False, "w"), Verdict(False, "w")),
                 (Program((), BODY), Program((), BODY))]:
        assert a == b and a is not b and hash(a) == hash(b)
        with pytest.raises(AttributeError):
            a.extra = 1
    assert StepInfo("pure") != StepInfo("ret")
    assert Magic("E") != MD
    assert ExcValue("bottom") != IdValue("bottom")
    assert RConf(VRes(numeral(1))) != VRes(numeral(1))


def test_faults_reports_and_interps_compare_by_structure_and_are_frozen():
    assert faults.Faults() == faults.Faults()
    assert faults.Faults() != faults.Faults(swap_list_bind=True)
    assert SoundnessReport([REC]) == SoundnessReport([REC])
    assert EffectInterp("exc", "M", "D") != EffectInterp("exc", "M", "D", True)
    for r, field in [(faults.Faults(), "swap_list_bind"),
                     (SoundnessReport(), "records"),
                     (EffectInterp("exc", "M", "D"), "may")]:
        with pytest.raises(AttributeError):
            setattr(r, field, True)


def test_inject_puts_the_previous_faults_back_also_when_its_block_raises():
    before = faults.ACTIVE
    with faults.inject("swap_list_bind"):
        outer = faults.ACTIVE
        assert outer == faults.Faults(swap_list_bind=True)
        with pytest.raises(ZeroDivisionError), faults.inject("flip_symsum_kinds"):
            assert faults.ACTIVE == faults.Faults(swap_list_bind=True,
                                                  flip_symsum_kinds=True)
            1 // 0
        assert faults.ACTIVE is outer
    assert faults.ACTIVE is before
    assert before == faults.Faults()


def test_a_check_record_holds_only_its_fields():
    assert REC.__dict__ == {"program": "p.mfj", "monad": "exc",
                            "check": "progress", "ok": False, "witness": "w"}
