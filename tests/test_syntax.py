"""Core syntax: effect normal forms, substitution, erasure."""

import ast
import os
import pathlib
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

import mfj
from mfj import syntax

from conftest import CORPUS, load
from mfj.evaluator import Diverged, Evaluator
from mfj.parser import numeral, parse_expr, pretty
from mfj.prelude import prelude_program
from mfj.syntax import (
    ABS, CLOSED, DEF, OBJECT, PURE, TOP,
    Call, Do, EffCall, MethodDef, MethodType, NominalType, Obj, ObjType,
    Program, Return, Sig, TypeDecl, TypeVar, Var, align_binders,
    alpha_eq_mtype, eff_of, eff_union, erase_type, free, nominal,
    numeral_value, open_binders, subst, subst_expr,
)
from reference_free import reference_free
from reference_pretty import reference_pretty
from reference_subst import reference_subst

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
    out = subst(xy, {"X": nominal("A"), "Y": nominal("A")})
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


def test_parent_order_does_not_depend_on_the_build_order():
    # each child process builds [A B] and [B A] first in the opposite order
    code = (
        "import sys\n"
        "from mfj.cli import main\n"
        "from mfj.parser import pretty\n"
        "from mfj.syntax import NominalType, Obj\n"
        "ab = (NominalType('A'), NominalType('B'))\n"
        "order = ab if sys.argv[1] == 'ab' else ab[::-1]\n"
        "first, second = Obj(order), Obj(order[::-1])\n"
        "assert first is second\n"
        "print(pretty(first))\n"
        "main(['run', '--trace', sys.argv[2]])\n"
    )
    src = str(pathlib.Path(mfj.__file__).resolve().parent.parent)
    prog = (
        "A { a : def -> Nat ! pure <_, return 1> }\n"
        "B { b : def -> Nat ! pure <_, return 2> }\n"
        "main = do o = return B A { }; o.a()\n"
    )
    with tempfile.TemporaryDirectory() as d:
        path = pathlib.Path(d, "two_parents.mfj")
        path.write_text(prog)
        outs = [
            subprocess.run(
                [sys.executable, "-c", code, order, str(path)],
                capture_output=True, text=True, check=True, timeout=60,
                env={**os.environ, "PYTHONPATH": src},
            ).stdout
            for order in ("ab", "ba")
        ]
    assert outs[0] == outs[1] == (
        "A B{}\n1: [ret] Pure(E A B{}.a())\n2: [pure] Pure(E return 1)\n"
        "3: [ret] Pure(R V 1)\n1\n")


# -- interning ----------------------------------------------------------------

names = st.sampled_from("ABC")
types = st.deferred(lambda: st.one_of(
    st.builds(TypeVar, st.sampled_from("XY")),
    st.builds(nominal, names),
    st.builds(ObjType, st.lists(ntypes, max_size=3), sigs),
))
ntypes = st.builds(lambda n, args: NominalType(n, tuple(args)),
                   names, st.lists(types, max_size=2))
mtypes = st.builds(lambda ps, ret, eff: MethodType((), tuple(ps), ret, eff),
                   st.lists(types, max_size=2), types, effects)
sigs = st.builds(Sig, st.lists(
    st.tuples(st.sampled_from("mn"), st.just(ABS), mtypes),
    max_size=2, unique_by=lambda e: e[0]))
values = st.deferred(lambda: st.one_of(
    st.builds(Var, st.sampled_from("xy")),
    st.builds(numeral, st.integers(0, 3)),
    st.builds(
        lambda ps, mt, body: Obj(ps, (MethodDef("m", DEF, mt, "s", (), body),)),
        st.lists(ntypes, max_size=3), mtypes, exprs),
))
exprs = st.deferred(lambda: st.one_of(
    st.builds(Return, values),
    st.builds(lambda v, args: Call(v, "m", (), tuple(args)),
              values, st.lists(values, max_size=2)),
    st.builds(Do, st.sampled_from("xy"), exprs, exprs),
))
terms = st.one_of(types, effects, values, exprs)


def subnodes(n):
    """``n`` and every node under it, through fields and tuples."""
    todo = [n]
    while todo:
        x = todo.pop()
        if isinstance(x, (tuple, frozenset)):
            todo.extend(x)
        elif hasattr(x, "_fields"):
            yield x
            todo.extend(getattr(x, f) for f in x._fields)


@settings(max_examples=40, deadline=None)
@given(terms)
def test_rebuilding_a_node_from_its_fields_gives_the_node(t):
    for n in subnodes(t):
        assert type(n)(*(getattr(n, f) for f in n._fields)) is n


@settings(max_examples=40, deadline=None)
@given(terms, terms)
def test_equal_nodes_are_one_object(a, b):
    # the repr is structural, and parent order is canonical
    assert (a == b) is (a is b) is (repr(a) == repr(b))
    assert hash(a) == object.__hash__(a)


@settings(max_examples=20, deadline=None)
@given(st.lists(ntypes, min_size=2, max_size=3), sigs, st.randoms())
def test_parent_order_is_canonical(parents, sig, rnd):
    shuffled = rnd.sample(parents, len(parents))
    assert ObjType(shuffled, sig) is ObjType(parents, sig)
    assert Obj(shuffled) is Obj(parents)


def test_equal_numerals_are_one_object():
    e = parse_expr("400.sum(400)")
    assert e.recv is e.args[0]
    v = e.recv
    while v.methods:  # every level, rebuilt, is itself
        assert Obj(v.parents, v.methods) is v
        v = v.methods[0].body.value


# -- free variables -----------------------------------------------------------

def test_fv_do_binds_its_variable():
    e = parse_expr("do y = x.m(); y.n(z)")
    assert free(e)[0] == {"x", "z"}


def test_fv_try_binds_clause_and_final_vars():
    e = parse_expr(
        "try x.m() with Exception.throw : <s, return s> stop "
        "final <r, return r>")
    assert free(e)[0] == {"x"}


def test_ftv_collects_type_arguments():
    e = parse_expr("x.m[Y](z)", tvars=("Y",))
    assert free(e)[1] == {"Y"}
    assert free(nominal("Failure", TypeVar("Y")))[1] == {"Y"}


def test_a_numeral_below_the_tallest_built_is_read_not_built(monkeypatch):
    top = numeral(500)
    with monkeypatch.context() as m:
        m.setattr(syntax, "Obj", None)  # building a level would fail
        read = [numeral(k) for k in range(500, -1, -1)]
    assert read[0] is top
    v = top
    for k, w in zip(range(500, -1, -1), read):  # the levels, in order
        assert w is v and numeral_value(v) == k and free(v) is CLOSED
        v = v.methods[0].body.value if k else v
    with pytest.raises(ValueError, match="^no numeral for -1$"):
        numeral(-1)


def test_numerals_are_closed():
    assert free(numeral(7))[0] == frozenset()
    assert free(Return(numeral(7)))[1] == frozenset()


# -- substitution -------------------------------------------------------------

def test_subst_replaces_free_variables():
    e = parse_expr("do y = x.m(); y.n(x)")
    out = subst_expr(e, {}, {"x": numeral(0)})
    assert free(out)[0] == frozenset()
    assert out.first.recv == numeral(0)


def test_subst_skips_bound_occurrences():
    e = parse_expr("do x = return 0; return x")
    assert subst_expr(e, {}, {"x": numeral(9)}) == e


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
    out = subst(mt, {"Y": TypeVar("X")})
    assert out.typeParams == (("X'1", OBJECT),)
    assert out.ret == TypeVar("X")
    assert out.paramTypes == (TypeVar("X'1"),)


def test_a_method_binder_is_renamed_in_its_body_too():
    # A := X under the method's own [X]: the binder becomes X'1 in the
    # method type and in the body, and the substituted X stays free
    e = parse_expr("return Object{ m : def [X] -> Object ! pure "
                   "<_, y.k[A X]()> }", tvars=("A",))
    md = subst(e, {"A": TypeVar("X")}).value.methods[0]
    assert md.mtype.typeParams == (("X'1", OBJECT),)
    assert md.body.targs == (TypeVar("X"), TypeVar("X'1"))


def test_a_clause_binder_is_renamed_in_its_body():
    e = parse_expr(
        "try y.m[A]() with Exception.throw : [X] "
        "<_, do u = y.k[A X](); return u> stop final <r, return r>",
        tvars=("A",))
    out = subst(e, {"A": TypeVar("X")})
    assert out.body.targs == (TypeVar("X"),)
    (c,) = out.handler.clauses
    assert c.typeParams == ("X'1",)
    assert c.body.first.targs == (TypeVar("X"), TypeVar("X'1"))
    assert free(out)[1] == {"X"}


def test_a_value_binder_is_renamed_when_it_would_capture():
    e = parse_expr("do x = return y; return z")
    out = subst(e, {}, {"z": Var("x")})
    assert out == Do("x'1", Return(Var("y")), Return(Var("x")))


def test_open_binders_takes_the_first_name_out_of_scope():
    mt = MethodType((("Y", OBJECT), ("Y'1", OBJECT), ("Z", OBJECT)),
                    (TypeVar("Y"), TypeVar("Y'1")), TypeVar("W"), PURE)
    # Y'1 is another binder and W is free, so the shadowing Y gets Y'2 and
    # the shadowing W (as a binder name) gets W'1
    out = open_binders(mt, ("Y", "Y'1", "W"), {"Y": OBJECT, "W": OBJECT})
    assert [x for x, _ in out.typeParams] == ["Y'2", "Y'1", "W'1"]
    assert out.paramTypes == (TypeVar("Y'2"), TypeVar("Y'1"))
    assert out.ret == TypeVar("W")
    assert open_binders(mt, ("Y", "Y'1", "Z"), ()) is mt


# -- the laws of substitution, over every node of the corpus -------------------

# terms in which a binder has a name free beneath it, which the corpus has
# for value binders only; in the last two, a name is bound below where it is
# free, and a binder captures below another one
BINDER_TERMS = [
    parse_expr("return Object{ m : def [X] -> Object ! pure <_, y.k[A X]()> }",
               tvars=("A",)),
    parse_expr("try y.m[A]() with Exception.throw : [X] <_, y.k[A X]()> stop "
               "final <r, return r>", tvars=("A",)),
    MethodType((("X", OBJECT), ("Y", TypeVar("X"))), (TypeVar("A"),),
               nominal("Failure", TypeVar("Y")), PURE),
    parse_expr("do x = x.m(); x.n(z)"),
    parse_expr("do y = return w; do x = return y; x.m(z)"),
]


def _nodes() -> list:
    """Every distinct node of the prelude, the corpus and ``BINDER_TERMS``."""
    seen = {}
    todo = [*BINDER_TERMS]
    for path in sorted(CORPUS.glob("*.mfj")):
        prog = load(path.stem)
        todo += [*prog.decls, prog.main]
    while todo:
        n = todo.pop()
        if n is not None and id(n) not in seen:
            seen[id(n)] = n
            todo += [k for kids in n._kids() for k in kids]
    return list(seen.values())


NODES = _nodes()
VALUE_NAMES = sorted(set().union(*(free(n)[0] for n in NODES)))
TYPE_NAMES = sorted(set().union(*(free(n)[1] for n in NODES)))
BOUND = [n._names() for n in NODES if hasattr(n, "_names")]
law_values = st.one_of(
    st.sampled_from([n for n in NODES if isinstance(n, Obj) and not any(free(n))]),
    st.builds(Var, st.sampled_from(sorted({x for vb, _ in BOUND for x in vb if x}))))
law_types = st.one_of(
    st.sampled_from([n for n in NODES if isinstance(n, ObjType)]),
    st.builds(TypeVar, st.sampled_from(sorted({x for _, tb in BOUND for x in tb}))),
    st.builds(lambda x: nominal("Failure", TypeVar(x)), st.sampled_from(TYPE_NAMES)))


def _freed(names, sub, kind) -> frozenset:
    """What the terms of ``sub`` for ``names`` have free of ``kind``."""
    return frozenset().union(*(free(sub[x])[kind] for x in names))


def test_free_gives_the_reference_names_on_every_corpus_node():
    for n in NODES:
        assert free(n) == reference_free(n), n


def tower(base, levels: int):
    """``levels`` Succ levels over ``base``, each built as ``numeral`` builds
    one but with no marks."""
    pred_t = MethodType((), (), nominal("Nat"), PURE)
    for _ in range(levels):
        base = Obj((NominalType("Succ"),),
                   (MethodDef("pred", DEF, pred_t, "_", (), Return(base)),))
    return base


# towers over a numeral, which share its marked levels, and over a variable,
# whose levels are open
towers = st.builds(tower, st.one_of(st.builds(numeral, st.integers(0, 12)),
                                    st.builds(Var, st.sampled_from("xy"))),
                   st.integers(0, 12))


@settings(max_examples=40, deadline=None)
@given(towers)
def test_free_gives_the_reference_names_on_a_tower(v):
    for n in subnodes(v):
        assert free(n) == reference_free(n), n


def test_the_empty_substitution_is_the_node_itself():
    assert len(NODES) > 300
    for n in NODES:
        assert subst(n, {}, {}) is n


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(st.sampled_from(VALUE_NAMES), law_values,
                       min_size=1, max_size=3))
def test_substituting_values_frees_what_they_replace(vsub):
    # with closed values, fv(n[x := v]) is fv(n) less x
    for n in NODES:
        out = subst(n, {}, vsub)
        fv, ftv = free(n)
        hit = fv & vsub.keys()
        if not hit:
            assert out is n
            continue
        assert free(out) == ((fv - hit) | _freed(hit, vsub, 0),
                             ftv | _freed(hit, vsub, 1)), n


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(st.sampled_from(TYPE_NAMES), law_types,
                       min_size=1, max_size=3))
def test_substituting_types_frees_what_they_replace(tsub):
    for n in NODES:
        out = subst(n, tsub)
        fv, ftv = free(n)
        hit = ftv & tsub.keys()
        if not hit:
            assert out is n
            continue
        assert free(out) == (fv, (ftv - hit) | _freed(hit, tsub, 1)), n


def _pick(rnd, names, terms) -> dict:
    """Up to three of ``names``, each mapped to its term in ``terms``."""
    names = sorted(names)
    picked = rnd.sample(names, rnd.randint(0, min(3, len(names))))
    return {x: terms[x] for x in picked}


@settings(max_examples=100, deadline=None)
@given(st.fixed_dictionaries(dict.fromkeys(TYPE_NAMES, law_types)),
       st.fixed_dictionaries(dict.fromkeys(VALUE_NAMES, law_values)),
       st.randoms(use_true_random=True))
def test_subst_gives_the_reference_node(ts, vs, rnd):
    # open substitutions included: a Var or TypeVar named after a binder, or
    # Failure[X], is free in what it substitutes, and may be captured; each
    # node substitutes for names free in it, so keys that a binder splits
    # between its children (x and z over do x = x.m(); x.n(z)) come up
    # routinely.  The plans start afresh, so that each example builds the
    # plans it runs (and reuses them across nodes) instead of running plans
    # an earlier test built.
    for n in NODES:
        n.__dict__["_plans"] = None
    for n in NODES:
        fv, ftv = free(n)
        tsub, vsub = _pick(rnd, ftv, ts), _pick(rnd, fv, vs)
        assert subst(n, tsub, vsub) is reference_subst(n, tsub, vsub), n


@pytest.mark.parametrize("term", BINDER_TERMS)
def test_a_binder_term_substitutes_as_the_reference_does(term):
    closed = ({"A": nominal("Nat")},
              {"x": numeral(2), "y": numeral(1), "z": numeral(0)})
    # Y is free in no binder term, so X'1 is only taken, and every name
    # with a ' is a binder renamed
    capturing = ({"A": TypeVar("X"), "Y": TypeVar("X'1")},
                 {"x": numeral(2), "y": numeral(1), "z": Var("x")})
    for tsub, vsub in (closed, capturing):
        assert subst(term, tsub, vsub) is reference_subst(term, tsub, vsub)
    out = subst(term, *capturing)
    assert "'" in repr(out) and "X'1" not in repr(out)


# -- the printer against the reference ----------------------------------------

def _prints_as_the_reference(n) -> bool:
    """Whether the reference prints ``n`` (it prints no signature, method
    type, handler or effect atom on its own), asserting that ``pretty``
    prints the same."""
    try:
        want = reference_pretty(n)
    except TypeError:
        return False
    assert pretty(n) == want, n
    return True


def test_pretty_prints_what_the_reference_prints_on_every_corpus_node():
    programs = [prelude_program(),
                *(load(p.stem) for p in sorted(CORPUS.glob("*.mfj")))]
    assert sum(map(_prints_as_the_reference, NODES + programs)) > 300


# values and types, towers, and corpus nodes after a substitution, which
# may have renamed a binder
printable = st.one_of(
    law_values, law_types, towers,
    st.builds(subst, st.sampled_from(NODES),
              st.dictionaries(st.sampled_from(TYPE_NAMES), law_types, max_size=3),
              st.dictionaries(st.sampled_from(VALUE_NAMES), law_values, max_size=3)))


@settings(max_examples=300, deadline=None)
@given(printable)
def test_pretty_prints_what_the_reference_prints(n):
    _prints_as_the_reference(n)


def _plans(n) -> dict:
    return dict(n._plans or {})


def test_a_reused_plan_still_renames_a_binder_that_would_capture():
    # the same names, first closed and then open: the plan built for the
    # first substitution is run for the second, and it renames
    e = parse_expr("return Object{ m : def [X] -> Object ! pure "
                   "<_, y.k[A X]()> }", tvars=("A",))
    closed = subst(e, {"A": nominal("Nat")})
    assert closed.value.methods[0].mtype.typeParams == (("X", OBJECT),)
    built = _plans(e)
    out = subst(e, {"A": TypeVar("X")})
    assert _plans(e) == built
    md = out.value.methods[0]
    assert md.mtype.typeParams == (("X'1", OBJECT),)
    assert md.body.targs == (TypeVar("X"), TypeVar("X'1"))
    d = parse_expr("do x = return y; return z")
    assert subst(d, {}, {"z": numeral(0)}) == Do("x", Return(Var("y")),
                                                 Return(numeral(0)))
    built = _plans(d)
    assert subst(d, {}, {"z": Var("x")}) == Do("x'1", Return(Var("y")),
                                               Return(Var("x")))
    assert _plans(d) == built


@pytest.mark.parametrize("program, monad", [
    ("nd_m2", "list"), ("nd_m2", "dist"), ("main = 400.sum(400)", "exc")])
def test_a_second_run_builds_no_plan(monkeypatch, program, monad):
    prog = load(program) if "=" not in program \
        else mfj.load_program(program)
    built = []
    compose = syntax._compose

    def counted(m, key, kids):
        built.append(m)
        return compose(m, key, kids)

    monkeypatch.setattr(syntax, "_compose", counted)
    outs = []
    for _ in range(2):
        try:
            outs.append(Evaluator(prog, monad).finitary(prog.main, 400))
        except Diverged as e:
            outs.append(e.steps)
        built.append(None)
    assert built[built.index(None) + 1:] == [None]
    assert repr(outs[0]) == repr(outs[1])


# -- erasure and canonical forms ----------------------------------------------

def test_erase_drops_bodies():
    t = erase_type(numeral(0))
    assert t == ObjType((NominalType("Zero"),), Sig(()))
    # parents are a set, kept in one order: building in another order gives
    # the same node
    ab = (NominalType("A"), NominalType("B"))
    ba = ab[::-1]
    assert Obj(ba) is Obj(ab) and Obj(ba).parents == ab
    assert erase_type(Obj(ab)) is erase_type(Obj(ba)) is ObjType(ba, Sig(()))
    assert ObjType(ba, Sig(())).parents == ab


def test_a_parent_keeps_its_sort_key():
    # each parent's key is computed once, so building the same parent set
    # again prints no arguments
    nat, boolean = nominal("Nat"), nominal("Bool")
    box, pair = NominalType("KeyBox", (nat,)), NominalType("KeyPair",
                                                           (boolean, nat))
    misses = syntax._parent_key.cache_info().misses
    t = ObjType((pair, box), Sig(()))
    assert t.parents == (box, pair)
    assert syntax._parent_key.cache_info().misses == misses + 2
    assert ObjType((box, pair), Sig(())) is t
    assert syntax._parent_key.cache_info().misses == misses + 2
    # one name: by printed arguments
    boxes = [box, NominalType("KeyBox", (boolean,))]
    assert ObjType(boxes, Sig(())).parents == tuple(
        sorted(boxes, key=lambda p: (p.name, repr(p.args)))) == (boxes[1], box)


def test_erase_keeps_own_methods():
    v = parse_expr("return Object { m : def -> Object <s, return s> }").value
    t = erase_type(v)
    assert t.sig.names() == ["m"]


def test_alpha_eq_mtype_ignores_binder_names():
    a = MethodType((("X", OBJECT),), (TypeVar("X"),), TypeVar("X"), PURE)
    b = MethodType((("W", OBJECT),), (TypeVar("W"),), TypeVar("W"), PURE)
    assert alpha_eq_mtype(a, b)
    c = MethodType((("X", OBJECT),), (TypeVar("X"),), OBJECT, PURE)
    assert not alpha_eq_mtype(a, c)
    # W's result is a free X, not its binder
    d = MethodType((("W", OBJECT),), (TypeVar("W"),), TypeVar("X"), PURE)
    assert not alpha_eq_mtype(a, d)
    assert align_binders(a, MethodType((), (), OBJECT, PURE)) is None


def test_no_module_keeps_a_global_counter():
    # a module-level itertools.count would make names depend on what the
    # process did before
    for path in sorted(pathlib.Path(mfj.__file__).parent.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            if isinstance(stmt, (ast.Assign, ast.AnnAssign)) \
                    and isinstance(stmt.value, ast.Call):
                func = ast.unparse(stmt.value.func)
                assert func not in ("itertools.count", "count"), \
                    f"{path.name}:{stmt.lineno}"


# -- programs -----------------------------------------------------------------

def test_program_rejects_duplicate_decls():
    with pytest.raises(ValueError):
        Program((TypeDecl("A", (), (), ()), TypeDecl("A", (), (), ())))


def test_extend_prefers_the_second_main():
    p1 = Program((), Return(numeral(1)))
    p2 = Program((), Return(numeral(2)))
    assert p1.extend(p2).main == Return(numeral(2))
    assert p1.extend(Program(())).main == Return(numeral(1))
