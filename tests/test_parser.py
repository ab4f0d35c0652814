"""Concrete syntax: tokenizing, parsing, sugar, and pretty-printing.

The central property is that ``parse(pretty(p)) == p`` for every program we
ship, so the printer is a faithful serialization.  The parser must also
agree with ``reference_parser``, the recursive-descent parser it replaced:
the same node, or the same ``ParseError`` text, on every input.
"""

import sys

import pytest
from hypothesis import given, settings, strategies as st

from mfj import syntax
from mfj.evaluator import Evaluator
from mfj.parser import (
    MAX_NUMERAL, ParseError, numeral, numeral_value, parse_effect, parse_expr,
    parse_program, parse_type, pretty, string_object,
)
from mfj.prelude import PRELUDE_TEXT, load_program, prelude_program
from mfj.syntax import (
    DEF, OBJECT, PURE, TOP,
    Call, EffCall, MethodDef, MethodType, NominalType, Obj, Program, Return,
    TypeVar, Var, eff_of, nominal,
)

import reference_parser
from conftest import CORPUS, load_once, perfbench_gen
from reference_tokenizer import token_spans

CORPUS_FILES = sorted(f.name for f in CORPUS.glob("*.mfj"))


@pytest.mark.parametrize("fname", CORPUS_FILES)
def test_corpus_round_trips(fname):
    prog = parse_program((CORPUS / fname).read_text())
    again = parse_program(pretty(prog))
    assert again == prog and again.main is prog.main


def test_prelude_round_trips():
    prog = prelude_program()
    assert parse_program(pretty(prog)) == prog


@pytest.mark.parametrize("parse, src, printed", [
    # two or more parents print before a body, even an empty one
    (parse_expr, "return A B {}", "return A B{}"),
    (parse_type, "Nat{ succ : def -> Nat ! pure }", "Nat{succ : def -> Nat ! pure}"),
    (parse_expr, "try x.m() with Exception.throw stop",
     "try x.m() with Exception.throw stop final <x, return x>"),
], ids=["two parents, no methods", "signature entries", "defaulted clause"])
def test_a_printed_node_parses_back(parse, src, printed):
    node = parse(src)
    assert pretty(node) == printed
    assert parse(printed) is node


def test_only_a_node_prints():
    with pytest.raises(TypeError, match="cannot print a object"):
        pretty(object())


def test_a_deep_value_prints_at_the_default_recursion_limit():
    # printing pops an explicit stack of pieces, so a value nested far
    # deeper than the recursion limit prints in one call
    get_t = MethodType((), (), OBJECT, PURE)
    v = Obj(())
    for _ in range(20000):
        v = Obj((NominalType("Box"),),
                (MethodDef("get", DEF, get_t, "_", (), Return(v)),))
    assert pretty(v) == ("Box{get : def -> Object ! pure <_, return " * 20000
                         + "Object{}" + ">}" * 20000)


# -- sugar --------------------------------------------------------------------

def test_numerals_desugar_to_successor_towers():
    assert parse_expr("return 2") == Return(numeral(2))
    assert parse_expr("return ٣") == Return(numeral(3))  # a decimal digit too
    assert numeral_value(numeral(5)) == 5
    assert numeral_value(numeral(0)) == 0
    assert numeral_value(Var("x")) is None


def test_numerals_print_as_decimals():
    assert pretty(numeral(12)) == "12"
    assert pretty(Return(numeral(0))) == "return 0"


def test_a_printed_numeral_is_classified_once(monkeypatch):
    # 300.sum(0) is 300 Succ levels that Nat.succ built at run time
    ev = Evaluator(prelude_program(), "id")
    v = ev.finitary(parse_expr("300.sum(0)")).payload.value
    real = syntax._PRED_T
    classified = []

    class CountingPredType:
        def __eq__(self, other):
            classified.append(other)
            return other == real

    monkeypatch.setattr(syntax, "_PRED_T", CountingPredType())
    # levels shared with numerals built earlier may be classified already
    assert pretty(v) == "300"
    assert len(classified) <= 300
    classified.clear()
    assert pretty(v) == "300"
    # rebuilding a level gives the same, already classified, node
    assert Obj(v.parents, v.methods) is v
    assert classified == []


def test_numerals_up_to_the_limit_parse_and_larger_ones_do_not():
    # deep-numeral tests need room up to 10**5
    assert MAX_NUMERAL > 10**5
    for seven in ("0" * 5000 + "7", "٠٠٠٠٠٠٠٠٠٠٠٧"):
        assert parse_expr(f"return {seven}") == Return(numeral(7))
        assert parse_expr(f'return "{seven}"') == Return(string_object("7"))
    for src in (f"return {MAX_NUMERAL + 1}", f'return "0{MAX_NUMERAL + 1}"',
                "return 1" + "0" * 5000):
        with pytest.raises(ParseError) as exc:
            parse_expr(src)
        assert str(exc.value) == f"1:8: numeral larger than {MAX_NUMERAL}"


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
    assert parse_effect(pretty(a)) == a


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


@pytest.mark.parametrize("parse, src", [
    (parse_type, "Failure[]"),
    (parse_expr, "x.succ[]()"),
    (parse_effect, "Exception.throw[]"),
], ids=["type", "call", "effect"])
def test_an_empty_type_argument_list_is_rejected(parse, src):
    with pytest.raises(ParseError, match="empty type-argument list"):
        parse(src)


def test_magic_only_in_declarations():
    with pytest.raises(ParseError):
        parse_expr("return Object { m : mgc [X] -> X }")


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as exc:
        parse_program("main = return @")
    assert "1:" in str(exc.value)


@pytest.mark.parametrize("src, msg", [
    ("// one\n// two\nmain = return @", "3:15: unexpected character '@'"),
    ("// one\n  // two\n\tmain = return .", "3:16: expected a value"),
    ("main = return @", "1:15: unexpected character '@'"),
    ("main = return #", "1:15: unexpected character '#'"),
    ("main = return É", "1:15: unexpected character 'É'"),
    ("main = return ²", "1:15: unexpected character '²'"),
    ('main = "É".toNat() É', "1:20: unexpected character 'É'"),
    ('main = "abc', "1:8: unexpected character '\"'"),
    ('main = "abc\n"', "1:8: unexpected character '\"'"),
    ("main = do x = return 0", "1:23: expected ';', found ''"),
    ("main = do x = return 0\n\n\n", "4:1: expected ';', found ''"),
    ("main = do x = return 0 // no newline", "1:37: expected ';', found ''"),
    ("A [] { }", "1:6: empty type-parameter list"),
    ("A {\n\tm : def -> Nat\n}", "3:1: def method 'm' needs a body"),
    ("main = return 0\n  A", "2:3: expected 'eof', found 'A'"),
    ("Main = 1", "1:6: expected '{', found '='"),
    ("main = try x.m() with Object.throw stop",
     "1:29: a clause names a nominal type"),
])
def test_parse_error_messages_and_positions_are_exact(src, msg):
    with pytest.raises(ParseError) as exc:
        parse_program(src)
    assert str(exc.value) == msg


@pytest.mark.parametrize("src", [
    "main = return 0 //", "A { } // trailing", "A { }\n\n  \n", "",
])
def test_trailing_blanks_and_comments_parse(src):
    parse_program(src)


@pytest.mark.parametrize("src, msg", [
    ("A { m : def Nat Nat -> Nat ! pure <_ x x, return x> }",
     "1:40: duplicate variable x"),
    ("A { m : def Nat -> Nat ! pure <x x, return x> }", "1:34: duplicate variable x"),
    # a wildcard's positional name is a name of the group too
    ("A { m : def Nat Nat -> Nat ! pure <_ _2 _, return 0> }",
     "1:41: duplicate variable _2"),
    ("A[X X] { }", "1:5: duplicate type parameter X"),
    ("A[X Y <: X X] { }", "1:12: duplicate type parameter X"),
    ("A { m : def [X X] -> Nat ! pure <_, return 0> }",
     "1:16: duplicate type parameter X"),
    ("main = try x.m() with Exception.throw : [X X] <s, return 0> stop",
     "1:44: duplicate type parameter X"),
    ("main = try x.m() with Exception.throw : <s s, return 0> stop",
     "1:44: duplicate variable s"),
])
def test_a_name_repeated_in_one_binder_group_is_an_error_at_its_position(
        src, msg):
    with pytest.raises(ParseError) as exc:
        parse_program(src)
    assert str(exc.value) == msg


def test_wildcards_and_names_in_nested_groups_do_not_clash():
    prog = parse_program(
        "A[X] { m : def [X] X Nat -> Nat ! pure <_ _ _, return 0> }")
    (md,) = prog.decl("A").methods
    assert (md.selfVar, md.params) == ("_", ("_2", "_3"))
    assert md.mtype.typeParams == (("X", OBJECT),)


# -- the reference parser ------------------------------------------------------

def outcome(parse, text, *args):
    try:
        return parse(text, *args)
    except ParseError as e:
        return str(e)


def assert_agrees(text, got=None):
    """``parse_program`` of ``text`` (or ``got``, a parse of it) has the
    reference's declarations and main, node for node, or its error text."""
    want = outcome(reference_parser.parse_program, text)
    got = outcome(parse_program, text) if got is None else got
    if isinstance(want, str):
        assert got == want
    else:
        # nodes are hash-consed: equal tuples of nodes hold the same nodes
        assert got.decls == want.decls and got.main is want.main


def token_mutants(text: str):
    """``text`` with each one of its tokens deleted, then doubled."""
    for i, j in token_spans(text):
        yield text[:i] + text[j:]
        yield text[:j] + " " + text[i:j] + text[j:]


def test_the_parser_agrees_with_the_reference_on_the_corpus_and_prelude():
    for text in [*(f.read_text() for f in sorted(CORPUS.glob("*.mfj"))),
                 PRELUDE_TEXT]:
        assert_agrees(text)


def test_the_parser_agrees_with_the_reference_on_check_large():
    # the programs the twin tests check, parsed once for both
    n = len(prelude_program().decls)
    for seed in range(1, 7):
        for item in perfbench_gen().check_large(seed):
            prog = load_once(item.source)
            assert_agrees(item.source, Program(prog.decls[n:], prog.main))


@pytest.mark.parametrize("fname", CORPUS_FILES)
def test_the_parser_agrees_with_the_reference_on_every_token_mutant(fname):
    for text in token_mutants((CORPUS / fname).read_text()):
        assert_agrees(text)


SOUP = ["return", "do", "try", "with", "final", "continue", "stop", "pure",
        "top", "abs", "def", "mgc", "main", "fn", "Object", "x", "_", "X",
        "Nat", "A", "0", '"7"', "<|", "<:", "\\/", "->", "=>",
        *":,;.[]{}()<>=!"]


@settings(max_examples=150, deadline=None)
@given(st.lists(st.sampled_from(SOUP), max_size=30).map(" ".join))
def test_the_parser_agrees_with_the_reference_on_token_soup(text):
    assert_agrees(text)
    for new, ref in [(parse_expr, reference_parser.parse_expr),
                     (parse_type, reference_parser.parse_type),
                     (parse_effect, reference_parser.parse_effect)]:
        got, want = outcome(new, text, ("X",)), outcome(ref, text, ("X",))
        assert got is want or isinstance(want, str) and got == want


# -- source nesting -------------------------------------------------------------

DEEP = 3000
NESTED = {
    "do chain in first": "do x = " * DEEP + "return 0" + "; return x" * DEEP,
    "do chain in rest": "do x = return 0; " * DEEP + "return x",
    "object literals": "return " + "Object{m : def -> Object ! pure <_, return "
                       * DEEP + "Object{}" + ">}" * DEEP,
    "try bodies": "try " * DEEP + "return 0"
                  + " with Exception.throw stop final <x, return x>" * DEEP,
    "type arguments": "return " + "A[" * DEEP + "Nat" + "]" * DEEP,
}


@pytest.mark.parametrize("kind", sorted(NESTED))
def test_deep_source_parses_at_the_default_recursion_limit(kind):
    # the parser keeps its pending productions on a stack of its own, and
    # the printer its pieces, so neither needs the limit raised
    main = NESTED[kind]
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        prog = load_program(f"A[X] {{ }}\nmain = {main}\n")
        printed = pretty(prog.main)
    finally:
        sys.setrecursionlimit(limit)
    assert printed == main
