"""The type-and-effect checker."""

import sys

import pytest
from hypothesis import given, settings, strategies as st

from mfj import faults, typer
from mfj.effects import SIMPLIFY_FUEL
from mfj.parser import (
    numeral, numeral_value, parse_effect, parse_expr, parse_program,
    parse_type,
)
from mfj.prelude import load_program, prelude_program
from mfj.evaluator import Evaluator
from mfj.syntax import (
    COLLAPSED, DEF, MGC, OBJECT, PURE, TOP,
    MethodDef, MethodType, NominalType, Obj, Try, TypeVar, erase_type,
    nominal, tshape,
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


def test_a_join_with_no_least_candidate_takes_the_first_declared():
    # C and D are below both A and B, which are unrelated
    prog = load_program("A { }\nB { }\nC <| A B { }\nD <| A B { }\n")
    t, _ = Checker(prog).type_expr({}, {}, parse_expr(
        "try Exception.throw[C]() "
        "with Exception.throw : [X] <_, return D{ }> stop "
        "final <r, return r>"))
    assert t == nominal("A")


def test_clause_must_name_a_magic_method(ck):
    with pytest.raises(TypecheckError) as e:
        expr_type(ck, "try x.not() with Bool.not : <s, return True> stop",
                  {"x": parse_type("Bool")})
    assert (e.value.code, e.value.rule) == ("NotMagicClause", "t-handler")


@pytest.mark.parametrize("clause", [
    "[X Y] <s, return 0>",  # one type parameter too many
    "[X] <s p, return 0>",  # one value parameter too many
])
def test_clause_arity_must_match_the_magic_method(ck, clause):
    with pytest.raises(TypecheckError) as e:
        expr_type(ck, f"try Exception.throw[Nat]() "
                      f"with Exception.throw : {clause} stop")
    assert (e.value.code, e.value.rule) == ("ArityMismatch", "t-handler")


@pytest.mark.parametrize("src, code", [
    # the unknown type is in a method's declared effect
    ("main = return Object{ m : def -> Object ! Bogus.m <_, return Object{}> }",
     "UnknownType/t-obj"),
    # the unknown type is a clause's
    ("main = try 0.succ() with Bogus.throw stop", "UnknownType/t-handler"),
])
def test_an_unknown_type_is_reported_by_the_rule_that_meets_it(src, code):
    assert diagnostic_codes(src) == [code]


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


# -- binders that shadow an enclosing type variable ---------------------------

# Each program opens an inner binder, written @, inside the scope of an
# enclosing type variable (the second field).  When @ is that variable's
# name, the inner binder shadows it; the program must get the diagnostic
# (the third field) that it gets with any other name for @.  A magic method
# takes no parameters, so a clause reaches the enclosing variable through
# the method's bound (the first program) or through a variable of the
# enclosing method.
SHADOWING = [
    ("Op[T] { op : mgc [S <: T] -> S }\n"
     "G { go : def [Y] Y -> Y ! pure <_ y, try Op[Y].op[Y]() "
     "with Op[Y].op : [@] <s, return y> continue> }\n"
     "main = G.go[Bool](True)",
     "Y", "ClauseTypeMismatch/t-continue"),
    ("Op { op : mgc [S] -> S }\n"
     "G { go : def [Y] Y -> Nat ! pure <_ y, try Op.op[Nat]() "
     "with Op.op : [@] <s, return y> continue> }\n"
     "main = G.go[Bool](True)",
     "Y", "ClauseTypeMismatch/t-continue"),
    ("Get { get : abs [Y] -> Y ! pure }\n"
     "G { go : def [Y] Y -> Nat ! pure <_ y, "
     "do g = return Get{get : def [@] -> @ ! pure <_, return y>}; "
     "g.get[Nat]()> }\n"
     "main = G.go[Bool](True)",
     "Y", "BodyTypeMismatch/t-obj"),
    ("Box[X] { get : abs -> X ! pure   m : def [@] -> @ ! pure <s, s.get()> }\n"
     "BB <| Box[Bool] { get : def -> Bool ! pure <_, return True> }\n"
     "main = BB.m[Nat]()",
     "X", "BodyTypeMismatch/t-meth"),
    ("Op2 { op : mgc [S] -> S }\n"
     "Mk { mk : abs [S] -> S ! pure }\n"
     "G { go : def [X] X Mk -> X ! pure <_ y m, try Op2.op[Nat]() "
     "with Op2.op : [@] <s, m.mk[@]()> stop final <r, return y>> }\n"
     "main = return 0",
     "X", "BodyTypeMismatch/t-meth"),
]


def shadowing_program(i: int, binder=None) -> str:
    """Program ``i`` of ``SHADOWING``, its inner binder named ``binder``
    (by default the enclosing type variable's name)."""
    template, enclosing, _ = SHADOWING[i]
    return template.replace("@", binder or enclosing)


def diagnostic_codes(src: str) -> list:
    diags = Checker(load_program(src)).check_program()
    return [f"{d.code}/{d.rule}" for d in diags]


def test_the_t_try_fault_runs_out_of_fuel_on_a_body_of_many_calls():
    # the seeded fault simplifies the raw effect of the whole try body at
    # once, one rewrite per distinct call; each call alone simplifies
    n = SIMPLIFY_FUEL + 1
    ms = " ".join(f"m{i} : abs -> Nat ! pure" for i in range(n))
    body = "".join(f"do x{i} = d.m{i}(); " for i in range(n - 1))
    src = (f"D {{ {ms} }}  T {{ run : def D -> Nat ! pure <_ d, try {body}"
           f"d.m{n - 1}() with Exception.throw : [X] <x, return 0> stop> }}")
    assert diagnostic_codes(src) == []
    with faults.inject("filter_before_simplify"):
        assert diagnostic_codes(src) == ["FuelExhausted/t-try"]


@pytest.mark.parametrize("i", range(len(SHADOWING)))
def test_a_shadowing_binder_does_not_capture(i):
    assert diagnostic_codes(shadowing_program(i)) == [SHADOWING[i][2]]


@settings(max_examples=30, deadline=None)
@given(st.integers(0, len(SHADOWING) - 1), st.sampled_from(["X", "Y", "Q", "Y_1"]))
def test_the_verdict_does_not_depend_on_binder_names(i, binder):
    # X or Y is the enclosing name in each program; Q and Y_1 are unused
    assert diagnostic_codes(shadowing_program(i, binder)) == [SHADOWING[i][2]]


# -- the order of t-invk's diagnostics ------------------------------------------

# t-invk checks the method lookup and the type arguments' bounds, then the
# arity, then each argument in turn, then the call effect; each program
# fails at one of those steps and must name that step, not a later one.
CALL_ORDER = [
    # the lookup fails before the unknown argument type is seen
    ("main = 0.nosuch(Bogus{})", ["NoSuchMethod/t-invk"]),
    # the arity fails before the unknown argument type is seen
    ("main = 0.succ(Bogus{})", ["ArityMismatch/t-invk"]),
    # the argument fails before the effect C.m, which never simplifies
    ("C { m : def Nat -> Nat ! C.m <_ x, return x> }\nmain = C{}.m(True)",
     ["NotMagic/t-ntype", "ArgTypeMismatch/t-invk"]),
]


@pytest.mark.parametrize("src,codes", CALL_ORDER)
def test_a_call_reports_the_first_step_that_fails(src, codes):
    assert diagnostic_codes(src) == codes


def test_a_failed_call_fails_again_and_a_good_one_then_types():
    # a call that fails is not remembered: the same call fails the same
    # way twice, the effect is simplified only once the arguments pass, and
    # the arguments are checked on every call, also after one has passed
    ck = Checker(load_program(
        "C { m : def Nat -> Nat ! C.m <_ x, return x> }\n"
        "D { m : def Nat -> Nat ! pure <_ x, return x> }\nmain = return 0"))
    for src, code in [("C{}.m(True)", "ArgTypeMismatch"),
                      ("C{}.m(True)", "ArgTypeMismatch"),
                      ("C{}.m(0)", "FuelExhausted"),
                      ("C{}.m(0)", "FuelExhausted"),
                      ("C{}.m(True)", "ArgTypeMismatch"),
                      ("True.if[Nat Nat](0)", "BoundViolation"),
                      ("True.if[Nat Nat](0)", "BoundViolation"),
                      ("D{}.m(True)", "ArgTypeMismatch"),
                      ("D{}.m()", "ArityMismatch")]:
        with pytest.raises(TypecheckError) as e:
            expr_type(ck, src)
        assert e.value.code == code
    t, eff = expr_type(ck, "D{}.m(0)")
    assert eff == PURE and ck.sigs.sub_type({}, t, parse_type("Nat"))
    for src, code in [("D{}.m(True)", "ArgTypeMismatch"),
                      ("D{}.m(0, 0)", "ArityMismatch")]:
        with pytest.raises(TypecheckError) as e:
            expr_type(ck, src)
        assert e.value.code == code


# -- the typing memo keys on the bounds a term reaches --------------------------

# ``y.succ()`` has only ``y`` free, but its typing depends on the bound of
# ``Y``, the type of ``y``: a typing memoized under ``Y <: Nat`` must not be
# reused under ``Y <: Bool``, whichever declaration comes first.
MEMO_HOLE = {
    "A": "A { m : def [Y <: Nat] Y -> Nat ! top <s y, y.succ()> }\n",
    "B": "B { m : def [Y <: Bool] Y -> Nat ! top <s y, y.succ()> }\n",
}


def memo_hole_program(order: str) -> str:
    return "".join(MEMO_HOLE[d] for d in order) + "main = B{}.m[Bool](True)"


@pytest.mark.parametrize("order", ["AB", "BA"])
def test_a_body_is_retyped_under_another_bound_of_its_variables(order):
    diags = Checker(load_program(memo_hole_program(order))).check_program()
    assert [str(d) for d in diags] == [
        "[NoSuchMethod/t-invk] no method 'succ' in TypeVar(name='Y')"]


# Declarations with no ``try`` (``_join`` reads the other declarations): each
# takes a ``y`` of type ``Y`` under one of three bounds, has one of two
# effects, and one of four bodies, which type under some bounds and effects.
BODIES = ["y.succ()", "do b = y.not(); return 0", "return y",
          "do z = y.succ(); Exception.throw[Nat]()"]
FAMILY = [f"{{name}} {{{{ m : def [Y <: {bound}] Y -> Nat ! {eff} <s y, {body}> }}}}\n"
          for body in BODIES for bound in ("Nat", "Bool", "Object")
          for eff in ("pure", "top")]


def family_diagnostics(*decls) -> list:
    src = "".join(FAMILY[i].format(name=f"D{i}") for i in decls)
    return [str(d) for d in Checker(load_program(src)).check_program()]


def test_a_declaration_checks_the_same_after_any_other():
    alone = [family_diagnostics(i) for i in range(len(FAMILY))]
    assert any(alone) and not all(alone)
    for i in range(len(FAMILY)):
        for j in range(len(FAMILY)):
            if i != j:
                assert family_diagnostics(i, j) == alone[i] + alone[j], (i, j)


# -- a signature that names a method twice ----------------------------------------

@pytest.mark.parametrize("src, diagnostic", [
    ("main = return Object{ p : def -> Nat ! pure <_, return 0>  "
     "p : def -> Bool ! pure <_, return True> }", "OverrideError/t-obj"),
    ("A { m : def Nat{ p : def -> Nat ! pure  p : def -> Bool ! pure } -> Nat "
     "! pure <_ x, return 0> }\nmain = return 0", "OverrideError/t-ntype"),
])
def test_a_method_named_twice_is_an_override_error(src, diagnostic):
    assert diagnostic_codes(src) == [diagnostic]


# -- magic methods ------------------------------------------------------------

def test_a_magic_method_with_parameters_is_refused():
    # a monad interprets a magic call and passes it no arguments, so such a
    # method could only be stuck
    src = "Out { choose : mgc Nat -> Bool }\nmain = Out.choose(3)"
    assert diagnostic_codes(src) == ["MgcWithParams/t-ntype"]
    assert diagnostic_codes("Out { choose : mgc -> Bool }\n"
                            "main = Out.choose()") == []


# -- deep run-time values -------------------------------------------------------

# a 20,001-deep result that is not a numeral: each Succ level wraps the
# Box of its predecessor in one more Box
BOX_TOWER = """\
Box { get : abs -> Object ! pure }
Mk <| NatMatch[Box] {
  zero : def -> Box ! pure
    <_, return Box{ get : def -> Object ! pure <_, return Object{}> }>
  succ : def Nat -> Box ! pure
    <self p, do b = p.match[Box Mk](self);
             return Box{ get : def -> Object ! pure <_, return b> }> }
main = 20000.match[Box Mk](Mk{})
"""


def test_a_deep_value_types_at_the_default_recursion_limit():
    # 300 levels of Box objects, each returning the next from its method
    # body: typing them one inside the other would recurse past the default
    # limit, so the checker types the closed objects inside a closed value
    # first, innermost first, and reads them from its memo
    prog = load_program(BOX_TOWER.replace("20000", "300"))
    v = Evaluator(prog, "id").finitary(prog.main, 100000).payload.value
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        t = Checker(prog).type_value({}, {}, v)
    finally:
        sys.setrecursionlimit(limit)
    assert t is erase_type(v)


def test_a_tower_deep_in_a_value_types_in_constant_time(monkeypatch):
    # a value nested 20 deep around 100000: the walk that types the closed
    # objects inside it first does not enter the tower, which types as the
    # one collapsed tower does
    value = "100000"
    for _ in range(20):
        value = f"Object{{ m : def -> Object ! pure <_, return {value}> }}"
    prog = load_program(f"main = return {value}")
    calls = []
    real = Checker.type_value

    def counted(self, *args):
        calls.append(args[-1])
        return real(self, *args)

    monkeypatch.setattr(Checker, "type_value", counted)
    assert Checker(prog).check_program() == []
    assert len(calls) < 200


# -- numerals: a tower is typed as numeral(3) is ------------------------------

def twin(monkeypatch, f):
    """``f()``, and ``f()`` again with the tower rule off, so that the
    checker walks every tower level by level, up to the first level whose
    shape it has typed."""
    real = f()
    with monkeypatch.context() as m:
        m.setattr(typer, "COLLAPSED", object())
        return real, f()


def type_or_diagnostic(prog, v):
    """The type of ``v`` in a new checker of ``prog``, or its diagnostic."""
    try:
        return Checker(prog).type_value({}, {}, v)
    except TypecheckError as e:
        return str(e)


def test_a_numeral_types_as_the_walk_types_it(monkeypatch):
    prog = prelude_program()
    for n in range(51):
        real, walked = twin(monkeypatch,
                            lambda: type_or_diagnostic(prog, numeral(n)))
        assert real is walked, n


def over(base: str, levels: int) -> str:
    """``levels`` Succ levels, each as a numeral's, over the value ``base``."""
    for _ in range(levels):
        base = f"Succ {{ pred : def -> Nat ! pure <_, return {base}> }}"
    return base


# objects that look like a tower and are not one: a Succ whose pred has
# another body, a named self, another effect or an extra method, and bases
# that are not Zero, ill-typed or not
LOOKALIKES = [
    "Succ { pred : def -> Nat ! pure <_, do x = return 3; return x> }",
    "Succ { pred : def -> Nat ! pure <s, return 3> }",
    "Succ { pred : def -> Nat ! top <_, return 3> }",
    "Succ { pred : def -> Nat ! pure <_, return 3>  "
    "sum : def Nat -> Nat ! pure <_ m, return m> }",
    "True",
    "Succ { pred : def -> Nat ! pure <s, return s> }",
    "Zero { sum : def Nat -> Nat ! pure <_ m, return 4> }",
]


@pytest.mark.parametrize("base", LOOKALIKES)
@pytest.mark.parametrize("levels", [0, 1, 4])
def test_a_lookalike_types_as_the_walk_types_it(monkeypatch, base, levels):
    v = parse_expr(f"return {over(base, levels)}").value
    assert numeral_value(v) is None
    real, walked = twin(monkeypatch,
                        lambda: type_or_diagnostic(prelude_program(), v))
    assert real == walked


# without the prelude: no Succ, a Nat that numerals fit, a Zero that is not
# a Nat, and a Succ that is not one (so level 2 fails where level 1 passes);
# the declaration A puts two more numerals in bodies
NO_PRELUDE = [
    ("", "UnknownType/t-obj"),
    ("Nat { }  Zero <| Nat { }  Succ <| Nat { pred : abs -> Nat ! pure }",
     None),
    ("Nat { }  Zero { }  Succ <| Nat { pred : abs -> Nat ! pure }",
     "BodyTypeMismatch/t-obj"),
    ("Nat { }  Zero <| Nat { }  Succ { pred : abs -> Nat ! pure }",
     "BodyTypeMismatch/t-obj"),
]


@pytest.mark.parametrize("decls, code", NO_PRELUDE)
def test_a_numeral_without_the_prelude_checks_as_the_walk_checks_it(
        monkeypatch, decls, code):
    for n in (0, 1, 2, 3, 7):
        prog = parse_program(
            f"{decls}\nA {{ m : def -> Object ! pure <_, return 5>\n"
            f"  n : def -> Object ! pure <_, return 2> }}\nmain = return {n}")
        real, walked = twin(monkeypatch, lambda: [
            (d.code, d.rule, d.msg) for d in Checker(prog).check_program()])
        assert real == walked, n
    assert [f"{c}/{r}" for c, r, _ in real] == ([code] * 3 if code else [])


def test_typing_a_numeral_costs_the_same_at_any_size(monkeypatch):
    calls = []
    real = Checker._type_obj

    def counted(self, *args):
        calls.append(args[-1])
        return real(self, *args)

    monkeypatch.setattr(Checker, "_type_obj", counted)
    counts = {}
    for n in (3, 5000):
        v = numeral(n)
        calls.clear()
        Checker(prelude_program()).type_value({}, {}, v)
        counts[n] = len(calls)
    assert counts[5000] == counts[3] == 4  # levels 3, 2, 1 and 0


# -- typing shapes: every tower above 2 is one node ---------------------------

def test_every_tower_above_2_has_one_shape():
    run = load_program("main = do x = 1233.succ(); x.succ()")
    built = Evaluator(run, "id").finitary(run.main, 100).payload.value
    assert numeral_value(built) == 1235
    towers = [numeral(3), numeral(4), numeral(5000), built,
              *(parse_expr(f"return {n}").value for n in (3, 9, 100000))]
    assert {id(tshape(v)) for v in towers} == {id(COLLAPSED)}
    assert COLLAPSED is numeral(3)
    for n in range(3):
        assert tshape(numeral(n)) is numeral(n)
    # a tower inside a term, an open one included, becomes the one tower
    for src, shape in [("My.m2(7)", "My.m2(3)"),
                       ("do x = return 12; x.sum(0)",
                        "do x = return 3; x.sum(0)"),
                       ("My.m2[Nat](y 2 4)", "My.m2[Nat](y 2 3)")]:
        assert tshape(parse_expr(src)) is parse_expr(shape)


@pytest.mark.parametrize("base", LOOKALIKES)
@pytest.mark.parametrize("levels", [0, 1, 4])
def test_a_lookalike_keeps_its_shape(base, levels):
    # a lookalike is not a tower: only a tower inside it (the last one
    # returns 4) becomes the collapsed one, 3
    v = parse_expr(f"return {over(base, levels)}").value
    shape = parse_expr(f"return {over(base.replace('4', '3'), levels)}").value
    assert tshape(v) is shape
    assert (shape is v) == ("4" not in base)


# -- the prelude is checked once per process (and per seeded fault) -----------

def test_the_prelude_names_only_itself_and_has_no_try():
    # what makes its diagnostics the same in every program: its bodies
    # mention only prelude types, and none reaches ``_join``, which reads
    # every declaration of the program, since none has a ``try``
    prelude = prelude_program()
    names = {d.name for d in prelude.decls}
    seen, todo = set(), list(prelude.decls)
    while todo:
        n = todo.pop()
        if n not in seen:
            seen.add(n)
            assert not isinstance(n, Try)
            assert not isinstance(n, NominalType) or n.name in names
            todo += [k for kids in n._kids() for k in kids]
    assert len(seen) > 100


def body_typings(monkeypatch) -> list:
    """The self types of the bodies ``Checker._type_body`` types from now on."""
    calls = []
    real = Checker._type_body

    def counted(self, phi, gamma, m, mt, names, self_t, fits=None):
        calls.append(self_t)
        return real(self, phi, gamma, m, mt, names, self_t, fits)

    monkeypatch.setattr(Checker, "_type_body", counted)
    return calls


def test_a_program_reads_the_prelude_diagnostics_of_its_fault(monkeypatch):
    prog = load_program("My { m : def -> Nat ! pure <_, return 0> } "
                        "main = My{}.m()")
    calls = body_typings(monkeypatch)
    assert Checker(prog).check_program() == []
    assert calls == [parse_type("My")]  # the prelude is checked already
    for name in faults.NAMES:
        with faults.inject(name):
            calls.clear()
            assert Checker(prog).check_program() == []
            # checked again under the fault, once
            assert parse_type("True") in calls
            calls.clear()
            Checker(prog).check_program()
            assert calls == [parse_type("My")]
    # the prelude itself is checked in full every time
    full = []
    for _ in range(2):
        calls.clear()
        assert Checker(prelude_program()).check_program() == []
        full.append(list(calls))
    defs = [d for d in prelude_program().decls for md in d.methods
            if md.kind == DEF]
    assert full[0] == full[1] and len(full[0]) >= len(defs) == 9


def test_a_check_that_raises_caches_nothing(monkeypatch):
    prog = load_program("main = return 0")

    def broken(*args):
        raise RuntimeError("patched")

    typer._PRELUDE_DIAGS.clear()
    monkeypatch.setattr(Checker, "_type_body", broken)
    with pytest.raises(RuntimeError):
        Checker(prog).check_program()
    monkeypatch.undo()
    assert Checker(prog).check_program() == []
