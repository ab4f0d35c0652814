"""Concrete ASCII syntax: tokenizer, parser and pretty-printer.  None of
them recurses on the nesting of the source, except for the printer's sort
keys of parent lists and effects (see ``pretty``).

The grammar (informally):

    program   := decl* ("main" "=" expr)?
    decl      := Name tparams? ("<|" ntype+)? "{" method* "}"
    tparams   := "[" (TVar ("<:" type)?)+ "]"
    method    := name ":" ("abs"|"def"|"mgc") tparams? type* "->" type
                 ("!" effect)? body?
    body      := "<" var+ "," expr ">"          -- first var is self
    effect    := "pure" | "top" | eatom ("\\/" eatom)*
    eatom     := type "." name ("[" type+ "]")?
    expr      := "return" value | "do" var "=" expr ";" expr
               | value "." name ("[" type+ "]")? "(" value* ")"
               | "try" expr "with" clause+ final?
    clause    := type "." name (":" tparams? "<" var+ "," expr ">")? mode
    mode      := "continue" | "stop"
    final     := "final" "<" var "," expr ">"
    value     := var | numeral | string | lambda | ntype objbody? | ntype+ objbody
    type      := TVar | "Object" | ntype objsig?

Type names and type variables start with an uppercase letter; a name is a type
variable exactly when a binder for it is in scope.  Term variables start
lowercase (or are ``_`` wildcards, which get deterministic positional names).
The names of one binder group (a body's self and parameters, or one list of
type parameters) must differ.
Decimal numerals up to ``MAX_NUMERAL`` desugar to the Zero/Succ encoding
(``syntax.numeral``; a larger one is a parse error); string literals
desugar to String objects; ``fn (x: T) => e`` desugars to a
single-``apply`` object.
Magic methods must not carry a ``!`` annotation: their canonical effect is
synthesized from the declaration.

``tokenize`` finds the tokens with one ``findall`` and makes the ``(kind,
text)`` pair of each distinct token text once.  ``_parse`` runs every
production in one loop over an explicit stack of pending frames.  A frame is
the rest of a production that waits for a production it contains: the
recursive-descent parser's continuation, defunctionalized (Danvy & Nielsen,
*Defunctionalization at Work*, PPDP 2001).  ``pretty`` keeps its own stack of
pieces.
"""

from __future__ import annotations

import itertools
import re
from typing import NoReturn

from .syntax import (
    ABS, CONTINUE, DEF, EMPTY_SIG, MGC, OBJECT, PURE, STOP, TOP,
    Call, Clause, Do, EffCall, Effect, Handler, MethodDef, MethodType,
    NominalType, Obj, ObjType, Program, Return, Sig, Try, Type, TypeDecl,
    TypeVar, Var, eff_of, nominal, numeral, numeral_value,
)


class ParseError(Exception):
    def __init__(self, msg: str, line: int = 0, col: int = 0):
        super().__init__(f"{line}:{col}: {msg}" if line else msg)
        self.line, self.col = line, col


# a token, a comment, or any other character but a blank, which is a bad
# one; blanks fall between matches
_TOKEN_RE = re.compile(
    r"""\d+|"[^"\n]*"|[A-Za-z_][A-Za-z0-9_]*
      |<\||<:|\\/|->|=>|[:,;.\[\]{}()<>=!]
      |//[^\n]*|\S""",
    re.VERBOSE,
)

# A keyword or symbol is its own kind.  Any other token's kind is read off its
# first character; a token that starts with none of these matched ``\d+``
# (``_Pairs`` tells comments and bad characters apart).
_KINDS = {w: (w, w) for w in (
    "return", "do", "try", "with", "final", "continue", "stop",
    "pure", "top", "abs", "def", "mgc", "main", "fn", "Object",
    "<|", "<:", "\\/", "->", "=>", *":,;.[]{}()<>=!",
)}
_FIRST = {'"': "str", **dict.fromkeys("ABCDEFGHIJKLMNOPQRSTUVWXYZ", "typeid"),
          **dict.fromkeys("abcdefghijklmnopqrstuvwxyz_", "id")}


class _Pairs(dict):
    """Token text -> its ``(kind, text)`` pair, or None for a comment, made
    the first time the text is looked up; a bad character is missing."""

    def __missing__(self, text: str):
        kind = _FIRST.get(text[0]) if text != '"' else None
        if kind is None and not text.isdecimal():
            if text[:2] != "//":
                raise KeyError(text)
            pair = None
        else:
            pair = (kind or "num", text)
        self[text] = pair
        return pair


def tokenize(text: str) -> list:
    """The ``(kind, text)`` tokens of ``text``, then ``("eof", "")``."""
    words = _TOKEN_RE.findall(text)
    pairs = _Pairs(_KINDS)
    try:
        toks = list(map(pairs.__getitem__, words))
    except KeyError:
        # every word before the first bad character has its pair
        at = next(n for n, w in enumerate(words) if w not in pairs)
        bad = next(itertools.islice(_TOKEN_RE.finditer(text), at, None))
        raise ParseError(f"unexpected character {bad[0]!r}",
                         *_line_col(text, bad.start())) from None
    if None in pairs.values():
        toks = [p for p in toks if p is not None]
    toks.append(("eof", ""))
    return toks


def _line_col(text: str, at: int) -> tuple:
    return text.count("\n", 0, at) + 1, at - text.rfind("\n", 0, at)


def _token_line_col(text: str, index: int) -> tuple:
    """Where token ``index`` of ``text`` starts; eof is at the end."""
    starts = (m.start() for m in _TOKEN_RE.finditer(text) if m[0][:2] != "//")
    return _line_col(text, next(itertools.islice(starts, index, None), len(text)))


NAT_T = nominal("Nat")
FAIL_EFF = eff_of(EffCall(nominal("Failure", NAT_T), "fail", ()))


# numerals are Succ towers built level by level, in time and memory linear in
# their value (at this limit, 1-2 s and 170 MB in a fresh process); a larger
# one is a parse error
MAX_NUMERAL = 200_000


def _decimal(digits: str) -> int:
    """``int(digits)``, capped at MAX_NUMERAL + 1.  ``int`` refuses thousands
    of digits, so leading zeros (of any script) go first."""
    digits = digits.lstrip("".join(c for c in set(digits) if int(c) == 0))
    return int(digits or "0") if len(digits) <= len(str(MAX_NUMERAL)) else MAX_NUMERAL + 1


def string_object(s: str) -> Obj:
    if s.isdecimal():
        body = Return(numeral(_decimal(s)))
    else:
        body = Call(Obj((NominalType("Failure", (NAT_T,)),)), "fail", (), ())
    return Obj(
        (NominalType("String"),),
        (MethodDef("toNat", DEF, MethodType((), (), NAT_T, FAIL_EFF), "_", (), body),),
    )


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

# The productions ``_parse`` starts (``want``), then the tags of the frames
# that wait for one.  A frame is a list or tuple whose first item is its tag;
# where it waits in its production is its tag, or which of its fields are
# still None.
(_EXPR, _VALUE, _TYPE, _EFFECT, _METHOD, _CLAUSE, _DECL, _TPARAMS, _TARGS,
 _END, _PROGRAM, _MAIN, _RETURN, _DO, _TRY, _CALL, _LAMBDA, _OBJECT, _METHODS,
 _NTYPE, _OBJTYPE, _SIG, _M_PARAMS, _M_RET, _M_EFF, _M_BODY, _D_TPARAMS,
 _D_PARENTS, _D_METHODS, _C_TYPE, _C_TPARAMS, _C_BODY, _C_MODE) = range(33)


def _fail(text: str, i: int, msg: str) -> NoReturn:
    raise ParseError(msg, *_token_line_col(text, i))


def _expected(text: str, toks: list, i: int, kind: str) -> NoReturn:
    _fail(text, i, f"expected {kind!r}, found {toks[i][1]!r}")


def _binders(text: str, toks: list, i: int) -> tuple:
    """The names of the binder group ``"<" var+ ","`` that starts at token
    ``i`` (wildcards get positional names ``_``, ``_2``, ...), and the index
    of the token after it."""
    if toks[i][0] != "<":
        _expected(text, toks, i, "<")
    i += 1
    names, wild = [], 0
    while toks[i][0] == "id":
        v = toks[i][1]
        if v == "_":
            wild += 1
            v = "_" if wild == 1 else f"_{wild}"
        if v in names:
            _fail(text, i, f"duplicate variable {v}")
        names.append(v)
        i += 1
    if not names:
        _fail(text, i, "expected at least one variable")
    if toks[i][0] != ",":
        _expected(text, toks, i, ",")
    return names, i + 1


def _unbind(tv: dict, names: list) -> None:
    """Take one binder of each of ``names`` out of scope."""
    for x in names:
        n = tv[x] - 1
        if n:
            tv[x] = n
        else:
            del tv[x]


def _parse(text: str, goal: int, tvars: tuple = ()):
    """Production ``goal`` (``_PROGRAM``, ``_EXPR``, ``_TYPE`` or
    ``_EFFECT``) read from all of ``text``, with ``tvars`` in scope.

    Each turn of the loop starts production ``want`` at token ``i``.  It
    either finishes at once with ``val``, or pushes a frame for the rest of
    itself and starts the production that frame waits for.  A finished
    ``val`` goes to the frame on top of the stack, which finishes in turn
    (pops itself and passes its own ``val`` down) or starts another
    production.  ``arg`` is what a production needs from its caller: a
    method's context (``"decl"``, ``"value"`` or ``"type"``, which allow a
    body and magic, a body, or neither) or the list that collects the names
    a type-parameter list binds."""
    toks = tokenize(text)
    tv = dict.fromkeys(tvars, 1)  # type variable in scope -> binders of it
    plain = {}  # type name -> its type with no arguments and no signature
    i = 0
    want = val = arg = None
    if goal == _PROGRAM:
        stack = [[_PROGRAM, [], set(), None]]  # decls, their names, a start
    else:
        stack, want = [(_END,)], goal
    while True:
        k, t = toks[i]
        if want == _TYPE:
            if k == "typeid":
                i += 1
                if t in tv:
                    val = TypeVar(t)
                elif toks[i][0] == "[":
                    stack += (_OBJTYPE,), (_NTYPE, t)
                    want = _TARGS
                    continue
                elif toks[i][0] == "{":
                    stack.append((_OBJTYPE,))
                    val = NominalType(t)
                else:
                    val = plain.get(t)
                    if val is None:
                        val = plain[t] = ObjType((NominalType(t),), EMPTY_SIG)
            elif k == "Object":
                i += 1
                val = OBJECT
            else:
                _fail(text, i, "expected a type")
        elif want == _VALUE:
            if k == "id":
                i += 1
                val = Var(t)
            elif k == "num" or k == "str":
                lit = t.strip('"')
                # a numeral, or a string's toNat result, is refused before
                # it is built
                n = _decimal(lit) if lit.isdecimal() else None
                if n is not None and n > MAX_NUMERAL:
                    _fail(text, i, f"numeral larger than {MAX_NUMERAL}")
                i += 1
                val = numeral(n) if k == "num" else string_object(lit)
            elif k == "typeid":
                i += 1
                stack.append([_OBJECT, [], None])  # parents, where they end
                if toks[i][0] == "[":
                    stack.append((_NTYPE, t))
                    want = _TARGS
                    continue
                val = NominalType(t)
            elif k == "Object":
                i += 1
                if toks[i][0] != "{":
                    _expected(text, toks, i, "{")
                i += 1
                stack.append((_METHODS, (), []))  # parents, methods
                val = None
            elif k == "fn":
                for kind in "(", "id":
                    i += 1
                    if toks[i][0] != kind:
                        _expected(text, toks, i, kind)
                x = toks[i][1]
                i += 1
                if toks[i][0] != ":":
                    _expected(text, toks, i, ":")
                i += 1
                stack.append([_LAMBDA, x, None])  # parameter, its type
                want = _TYPE
                continue
            else:
                _fail(text, i, "expected a value")
        elif want == _EXPR:
            if k == "return":
                i += 1
                if toks[i][0] == "id":  # the commonest value, read here
                    val = Return(Var(toks[i][1]))
                    i += 1
                else:
                    stack.append((_RETURN,))
                    want = _VALUE
                    continue
            elif k == "do":
                i += 1
                if toks[i][0] != "id":
                    _expected(text, toks, i, "id")
                x = toks[i][1]
                i += 1
                if toks[i][0] != "=":
                    _expected(text, toks, i, "=")
                i += 1
                stack.append([_DO, x, None])  # variable, first
                continue
            elif k == "try":
                i += 1
                stack.append([_TRY, None, [], None])  # body, clauses, final var
                continue
            else:
                stack.append([_CALL, None, None, None, []])  # recv, m, targs, args
                if k != "id":
                    want = _VALUE
                    continue
                i += 1
                val = Var(t)
        elif want == _METHOD:
            if k != "id":
                _fail(text, i, "expected a method name")
            i += 1
            if toks[i][0] != ":":
                _expected(text, toks, i, ":")
            i += 1
            kind = toks[i][0]
            if kind != DEF and kind != ABS and kind != MGC:
                _fail(text, i, "expected 'abs', 'def' or 'mgc'")
            i += 1
            if kind == MGC and arg != "decl":
                _fail(text, i, "magic methods may only appear in type declarations")
            # context, name, kind, type params, param types, return type,
            # method type, binders, type variables bound
            f = [_M_PARAMS, arg, t, kind, None, [], None, None, None, []]
            stack.append(f)
            if toks[i][0] == "[":
                arg = f[9]
                want = _TPARAMS
                continue
            val = ()
        elif want == _EFFECT:
            if k == "pure":
                i += 1
                val = PURE
            elif k == "top":
                i += 1
                val = TOP
            else:
                stack.append([_EFFECT, [], None])  # atoms, (recv, method)
                want = _TYPE
                continue
        elif want == _TARGS:  # at its "["
            i += 1
            if toks[i][0] == "]":
                _fail(text, i, "empty type-argument list")
            stack.append((_TARGS, []))
            want = _TYPE
            continue
        elif want == _TPARAMS:  # at its "["
            i += 1
            # (name, bound) pairs, the names bound, the name whose bound is next
            stack.append([_TPARAMS, [], arg, None])
        elif want == _CLAUSE:
            # its nominal type, method, type params, binders, bound
            stack.append([_C_TYPE, None, None, None, None, []])
            want = _TYPE
            continue
        elif want == _DECL:  # at its name
            i += 1
            # name, type params, parents, methods, their starts, bound
            f = [_D_TPARAMS, t, None, [], [], [], []]
            stack.append(f)
            if toks[i][0] == "[":
                arg = f[6]
                want = _TPARAMS
                continue
            val = ()

        # ``val`` is finished: frames take it until one starts a production
        while True:
            f = stack[-1]
            tag = f[0]
            if tag == _M_PARAMS:  # val: the type params, then a param type
                if f[4] is None:
                    f[4] = val
                else:
                    f[5].append(val)
                if toks[i][0] == "->":
                    i += 1
                    f[0] = _M_RET
                want = _TYPE
                break
            elif tag == _D_METHODS:  # val: a method, or None before "{"
                if val is None:
                    if toks[i][0] != "{":
                        _expected(text, toks, i, "{")
                    i += 1
                else:
                    f[4].append(val)
                if toks[i][0] != "}":
                    f[5].append(i)
                    arg = "decl"
                    want = _METHOD
                    break
                i += 1
                stack.pop()
                val = _declaration(text, f)
                _unbind(tv, f[6])
            elif tag == _D_PARENTS:  # val: a parent, or None
                if val is not None:
                    f[3].append(val)
                k, t = toks[i]
                if k == "typeid" and t not in tv:
                    i += 1
                    if toks[i][0] == "[":
                        stack.append((_NTYPE, t))
                        want = _TARGS
                        break
                    val = NominalType(t)
                    continue
                if not f[3]:
                    _fail(text, i, "expected at least one parent type after '<|'")
                f[0] = _D_METHODS
                val = None
            elif tag == _CALL:
                if f[1] is None:  # val: the receiver
                    f[1] = val
                    if toks[i][0] != ".":
                        _expected(text, toks, i, ".")
                    i += 1
                    if toks[i][0] != "id":
                        _expected(text, toks, i, "id")
                    f[2] = toks[i][1]
                    i += 1
                    if toks[i][0] == "[":
                        want = _TARGS
                        break
                    val = ()
                if f[3] is None:  # val: the type arguments
                    f[3] = val
                    if toks[i][0] != "(":
                        _expected(text, toks, i, "(")
                    i += 1
                else:  # val: an argument
                    f[4].append(val)
                    if toks[i][0] == ",":
                        i += 1
                k, t = toks[i]
                while k == "id":  # a variable argument, read here
                    f[4].append(Var(t))
                    i += 1
                    if toks[i][0] == ",":
                        i += 1
                    k, t = toks[i]
                if k != ")":
                    want = _VALUE
                    break
                i += 1
                stack.pop()
                val = Call(f[1], f[2], f[3], tuple(f[4]))
            elif tag == _M_RET:
                f[6] = val
                f[0] = _M_EFF
                val = PURE
                if toks[i][0] == "!":
                    if f[3] == MGC:
                        _fail(text, i, "magic methods have a canonical effect; "
                                       "'!' annotations are not allowed on them")
                    i += 1
                    if toks[i][0] != "pure":
                        want = _EFFECT
                        break
                    i += 1
            elif tag == _M_EFF:
                _, ctx, name, kind, tparams, params, ret, _, _, bound = f
                mtype = MethodType(tparams, tuple(params), ret, val)
                if toks[i][0] == "<":
                    if ctx == "type":
                        _fail(text, i, "method bodies are not allowed inside types")
                    if kind != DEF:
                        _fail(text, i, f"{kind} methods cannot have a body")
                    f[8], i = _binders(text, toks, i)
                    f[7] = mtype
                    f[0] = _M_BODY
                    want = _EXPR
                    break
                _unbind(tv, bound)
                if kind == DEF and ctx != "type":
                    _fail(text, i, f"def method {name!r} needs a body")
                stack.pop()
                val = MethodDef(name, kind, mtype)
            elif tag == _M_BODY:
                if toks[i][0] != ">":
                    _expected(text, toks, i, ">")
                i += 1
                _unbind(tv, f[9])
                stack.pop()
                names = f[8]
                val = MethodDef(f[2], DEF, f[7], names[0], tuple(names[1:]), val)
            elif tag == _EFFECT:
                if f[2] is None:  # val: an atom's receiver
                    if toks[i][0] != ".":
                        _expected(text, toks, i, ".")
                    i += 1
                    if toks[i][0] != "id":
                        _expected(text, toks, i, "id")
                    i += 1
                    if toks[i][0] == "[":
                        f[2] = val, toks[i - 1][1]
                        want = _TARGS
                        break
                    f[1].append(EffCall(val, toks[i - 1][1], ()))
                else:  # val: its type arguments
                    f[1].append(EffCall(*f[2], val))
                    f[2] = None
                if toks[i][0] == "\\/":
                    i += 1
                    want = _TYPE
                    break
                stack.pop()
                val = eff_of(*f[1])
            elif tag == _PROGRAM:  # val: a declaration, or None
                if val is not None:
                    if val.name in f[2]:
                        _fail(text, f[3], f"duplicate type declaration {val.name}")
                    f[2].add(val.name)
                    f[1].append(val)
                k = toks[i][0]
                if k == "typeid":
                    f[3] = i
                    want = _DECL
                    break
                if k == "main":
                    i += 1
                    if toks[i][0] != "=":
                        _expected(text, toks, i, "=")
                    i += 1
                    f[0] = _MAIN
                    want = _EXPR
                    break
                if k != "eof":
                    _expected(text, toks, i, "eof")
                return Program(f[1], None)
            elif tag == _D_TPARAMS:
                f[2] = val
                if toks[i][0] == "<|":
                    i += 1
                    f[0] = _D_PARENTS
                else:
                    f[0] = _D_METHODS
                val = None
            elif tag == _DO:
                if f[2] is None:
                    if toks[i][0] != ";":
                        _expected(text, toks, i, ";")
                    i += 1
                    f[2] = val
                    want = _EXPR
                    break
                stack.pop()
                val = Do(f[1], f[2], val)
            elif tag == _RETURN:
                stack.pop()
                val = Return(val)
            elif tag == _TARGS:
                f[1].append(val)
                if toks[i][0] != "]":
                    want = _TYPE
                    break
                i += 1
                stack.pop()
                val = tuple(f[1])
            elif tag == _NTYPE:
                stack.pop()
                val = NominalType(f[1], val)
            elif tag == _OBJTYPE:  # val: the nominal type
                stack.pop()
                if toks[i][0] != "{":
                    val = ObjType((val,), EMPTY_SIG)
                    continue
                i += 1
                stack.append((_SIG, val, []))  # nominal type, entries
                val = None
            elif tag == _METHODS or tag == _SIG:  # val: a method, or None
                if val is not None:
                    f[2].append(val if tag == _METHODS
                                else (val.name, val.kind, val.mtype))
                if toks[i][0] != "}":
                    arg = "value" if tag == _METHODS else "type"
                    want = _METHOD
                    break
                i += 1
                stack.pop()
                val = (Obj(f[1], tuple(f[2])) if tag == _METHODS
                       else ObjType((f[1],), Sig(f[2])))
            elif tag == _OBJECT:  # val: a parent
                parents = f[1]
                parents.append(val)
                if len(parents) == 1:
                    f[2] = i
                k, t = toks[i]
                if k == "typeid":
                    i += 1
                    if toks[i][0] == "[":
                        stack.append((_NTYPE, t))
                        want = _TARGS
                        break
                    val = NominalType(t)
                    continue
                stack.pop()
                if k == "{":
                    i += 1
                    stack.append((_METHODS, tuple(parents), []))
                    val = None
                    continue
                # further parents only when the list is followed by a body
                if len(parents) > 1:
                    i = f[2]
                val = Obj((parents[0],), ())
            elif tag == _TPARAMS:  # val: the bound of the pending name
                if f[3] is not None:
                    f[1].append((f[3], val))
                    f[3] = None
                k, t = toks[i]
                if k == "typeid":
                    if t in f[2]:
                        _fail(text, i, f"duplicate type parameter {t}")
                    tv[t] = tv.get(t, 0) + 1
                    f[2].append(t)
                    f[3] = t
                    i += 1
                    if toks[i][0] == "<:":
                        i += 1
                        want = _TYPE
                        break
                    val = OBJECT
                    continue
                if k != "]":
                    _expected(text, toks, i, "typeid")
                i += 1
                if not f[1]:
                    _fail(text, i, "empty type-parameter list")
                stack.pop()
                val = tuple(f[1])
            elif tag == _TRY:
                if f[1] is None:  # val: the body
                    f[1] = val
                    if toks[i][0] != "with":
                        _expected(text, toks, i, "with")
                    i += 1
                    want = _CLAUSE
                    break
                if f[3] is None:  # val: a clause
                    f[2].append(val)
                    k = toks[i][0]
                    if k == "typeid":
                        want = _CLAUSE
                        break
                    if k == "final":
                        for kind in "<", "id":
                            i += 1
                            if toks[i][0] != kind:
                                _expected(text, toks, i, kind)
                        f[3] = toks[i][1]
                        i += 1
                        if toks[i][0] != ",":
                            _expected(text, toks, i, ",")
                        i += 1
                        want = _EXPR
                        break
                    stack.pop()
                    val = Try(f[1], Handler(tuple(f[2]), "x", Return(Var("x"))))
                    continue
                # val: the final expression
                if toks[i][0] != ">":
                    _expected(text, toks, i, ">")
                i += 1
                stack.pop()
                val = Try(f[1], Handler(tuple(f[2]), f[3], val))
            elif tag == _C_TYPE:
                if not (isinstance(val, ObjType) and len(val.parents) == 1
                        and not len(val.sig)):
                    _fail(text, i, "a clause names a nominal type")
                f[1] = val.parents[0]
                if toks[i][0] != ".":
                    _expected(text, toks, i, ".")
                i += 1
                if toks[i][0] != "id":
                    _expected(text, toks, i, "id")
                f[2] = toks[i][1]
                i += 1
                if toks[i][0] == ":":
                    i += 1
                    f[0] = _C_TPARAMS
                    if toks[i][0] == "[":
                        arg = f[5]
                        want = _TPARAMS
                        break
                    val = ()
                else:  # the defaulted clause
                    f[4] = ["x"]
                    f[0] = _C_MODE
                    val = Return(Var("x"))
            elif tag == _C_TPARAMS:
                f[3] = tuple(x for x, _ in val)
                f[4], i = _binders(text, toks, i)
                f[0] = _C_BODY
                want = _EXPR
                break
            elif tag == _C_BODY:
                if toks[i][0] != ">":
                    _expected(text, toks, i, ">")
                i += 1
                _unbind(tv, f[5])
                f[0] = _C_MODE
            elif tag == _C_MODE:  # val: the body
                mode = toks[i][0]
                if mode != CONTINUE and mode != STOP:
                    _fail(text, i, "expected 'continue' or 'stop'")
                i += 1
                stack.pop()
                _, ntype, m, typeParams, names, _ = f
                val = Clause(ntype, m, typeParams, names[0], tuple(names[1:]),
                             val, mode)
            elif tag == _LAMBDA:
                if f[2] is None:  # val: the parameter's type
                    for kind in ")", "=>":
                        if toks[i][0] != kind:
                            _expected(text, toks, i, kind)
                        i += 1
                    f[2] = val
                    want = _EXPR
                    break
                stack.pop()
                val = Obj((), (MethodDef(
                    "apply", DEF, MethodType((), (f[2],), OBJECT, TOP),
                    "_", (f[1],), val),))
            elif tag == _MAIN:
                if toks[i][0] != "eof":
                    _expected(text, toks, i, "eof")
                return Program(f[1], val)
            else:  # _END
                if toks[i][0] != "eof":
                    _expected(text, toks, i, "eof")
                return val


def _declaration(text: str, f: list) -> TypeDecl:
    """The declaration of a finished ``_D_METHODS`` frame: its methods must
    have distinct names, and a magic method gets its canonical effect."""
    _, name, tparams, parents, methods, starts, _ = f
    names = [m.name for m in methods]
    if len(set(names)) < len(names):
        dupes = {n for n in names if names.count(n) > 1}
        # at the first method that repeats an earlier one's name
        at = next(s for n, s in enumerate(starts) if names[n] in names[:n])
        _fail(text, at, f"duplicate methods in {name}: {sorted(dupes)}")
    methods = [
        md if md.kind != MGC else MethodDef(
            md.name, MGC,
            MethodType(
                md.mtype.typeParams, md.mtype.paramTypes, md.mtype.ret,
                eff_of(EffCall(
                    nominal(name, *(TypeVar(x) for x, _ in tparams)),
                    md.name,
                    tuple(TypeVar(x) for x, _ in md.mtype.typeParams),
                )),
            ),
        )
        for md in methods
    ]
    return TypeDecl(name, tparams, tuple(parents), tuple(methods))


def parse_program(text: str) -> Program:
    """Parse a source file; returns the Program (main may be None)."""
    return _parse(text, _PROGRAM)


def parse_expr(text: str, tvars: tuple = ()):
    """Parse a standalone expression (``tvars`` are in-scope type variables)."""
    return _parse(text, _EXPR, tvars)


def parse_type(text: str, tvars: tuple = ()) -> Type:
    return _parse(text, _TYPE, tvars)


def parse_effect(text: str, tvars: tuple = ()) -> Effect:
    return _parse(text, _EFFECT, tvars)




# ---------------------------------------------------------------------------
# Pretty-printing
# ---------------------------------------------------------------------------


def pretty(node) -> str:
    """Deterministic, reparseable rendering of any syntax node.

    One loop pops an explicit stack of pieces: a string is output, a tuple
    is replaced by its pieces, and a node by its ``_pieces``.  Only the sort
    keys of a parent list or an effect with two or more entries are printed
    apart (``_sorted``); nothing else costs Python recursion on the depth
    of a term, and printing takes time linear in the text."""
    out, todo = [], [node]
    while todo:
        p = todo.pop()
        if p.__class__ is str:
            out.append(p)
        elif p.__class__ is tuple:
            todo += p[::-1]
        else:
            todo.append(_pieces(p))
    return "".join(out)


def _pieces(n):
    """What node ``n`` prints as: a string, or a tuple of strings, nodes and
    tuples, in order."""
    cls = n.__class__
    if cls is Var or cls is TypeVar:
        return n.name
    if cls is NominalType:
        return (n.name, _targs(n.args)) if n.args else n.name
    if cls is ObjType:
        parents = _sorted(n.parents, " ", "Object")
        if not len(n.sig):
            return parents
        return parents, "{", _joined("  ", [_entry(*e) for e in n.sig]), "}"
    if cls is Obj:
        k = numeral_value(n)
        if k is not None:
            return str(k)
        if not n.methods and len(n.parents) < 2:
            return n.parents or "Object{}"
        # two or more parents parse back only before a body, if an empty one
        return _sorted(n.parents, " ", "Object"), "{", _joined("  ", n.methods), "}"
    if cls is MethodDef:
        return _entry(n.name, n.kind, n.mtype), "" if n.body is None else _body(n)
    if cls is Effect:
        return "top" if n.top else _sorted(n.atoms, " \\/ ", "pure")
    if cls is EffCall:
        return n.receiver, ".", n.method, _targs(n.targs)
    if cls is Return:
        return "return ", n.value
    if cls is Call:
        return n.recv, ".", n.method, _targs(n.targs), "(", _joined(" ", n.args), ")"
    if cls is Do:
        return "do ", n.var, " = ", n.first, "; ", n.rest
    if cls is Try:
        h = n.handler
        return ("try ", n.body, " with ", _joined(" ", h.clauses),
                " final <", h.finalVar, ", ", h.finalExpr, ">")
    if cls is Clause:
        if n.typeParams is None:
            return n.ntype, ".", n.method, " ", n.mode
        tps = (" [", " ".join(n.typeParams), "]") if n.typeParams else ""
        return n.ntype, ".", n.method, " :", tps, _body(n), " ", n.mode
    if cls is TypeDecl:
        head = n.name, _tparams(n.typeParams), \
            (" <| ", _joined(" ", n.parents)) if n.parents else ""
        if not n.methods:
            return head, " { }"
        return head, " {\n", _joined("\n", [("  ", m) for m in n.methods]), "\n}"
    if cls is Program:
        main = () if n.main is None else (("main = ", n.main),)
        return _joined("\n\n", (*n.decls, *main)), "\n"
    raise TypeError(f"cannot print a {cls.__name__}")


def _joined(sep: str, items) -> tuple:
    """The pieces ``items`` with ``sep`` between each two."""
    out = [sep] * (2 * len(items) - 1)
    out[::2] = items
    return tuple(out)


def _sorted(nodes, sep: str, none: str):
    """``nodes``, a parent list or a set of effect atoms, in the order of
    their printed text with ``sep`` between each two, or ``none``."""
    if len(nodes) < 2:
        return tuple(nodes) or none
    return sep.join(sorted(map(pretty, nodes)))


def _targs(ts):
    return ("[", _joined(" ", ts), "]") if ts else ""


def _tparams(tps):
    bound = [x if b == OBJECT else (x, " <: ", b) for x, b in tps]
    return ("[", _joined(" ", bound), "]") if tps else ""


def _entry(name: str, kind: str, mt: MethodType) -> tuple:
    """A method's signature, ``name : kind [X...] T... -> T ! eff``; a magic
    method's effect is its canonical one, and is not printed."""
    return (name, " : ", kind, (" ", _tparams(mt.typeParams)) if mt.typeParams else "",
            tuple((" ", t) for t in mt.paramTypes), " -> ", mt.ret,
            "" if kind == MGC else (" ! ", mt.eff))


def _body(m) -> tuple:
    """A method's or a clause's ``<self params..., body>``, after a space."""
    return " <", " ".join((m.selfVar, *m.params)), ", ", m.body, ">"
