"""Concrete ASCII syntax: tokenizer, recursive-descent parser, and a
pretty-printer that keeps its own stack instead of recursing.

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
Decimal numerals up to ``MAX_NUMERAL`` desugar to the Zero/Succ encoding
(``syntax.numeral``; a larger one is a parse error); string literals
desugar to String objects; ``fn (x: T) => e`` desugars to a
single-``apply`` object.
Magic methods must not carry a ``!`` annotation: their canonical effect is
synthesized from the declaration.
"""

from __future__ import annotations

import itertools
import re
from typing import Optional

from .syntax import (
    ABS, CONTINUE, DEF, EMPTY_SIG, MGC, OBJECT, PURE, STOP, TOP,
    Call, Clause, Do, EffCall, Effect, Handler, MethodDef, MethodType,
    NominalType, Obj, ObjType, Program, Return, Sig, Try, Type, TypeDecl,
    TypeVar, Value, Var, eff_of, nominal, numeral, numeral_value,
)


class ParseError(Exception):
    def __init__(self, msg: str, line: int = 0, col: int = 0):
        super().__init__(f"{line}:{col}: {msg}" if line else msg)
        self.line, self.col = line, col


_TOKEN_RE = re.compile(
    r"""
    (?:\s+|//[^\n]*)*                   # blanks and comments, then
    (?:(\d+|"[^"\n]*"|[A-Za-z_][A-Za-z0-9_]*
      |<\||<:|\\/|->|=>|[:,;.\[\]{}()<>=!])   # a token,
     |(.)                               # a bad character,
     |\Z)                               # or the end
    """,
    re.VERBOSE,
)

# A keyword or symbol is its own kind.  Any other token's kind is read off its
# first character; a token that starts with none of these matched ``\d+``.
_KINDS = {w: w for w in (
    "return", "do", "try", "with", "final", "continue", "stop",
    "pure", "top", "abs", "def", "mgc", "main", "fn", "Object",
    "<|", "<:", "\\/", "->", "=>", *":,;.[]{}()<>=!",
)}
_FIRST = {'"': "str", **dict.fromkeys("ABCDEFGHIJKLMNOPQRSTUVWXYZ", "typeid"),
          **dict.fromkeys("abcdefghijklmnopqrstuvwxyz_", "id")}


def tokenize(text: str) -> list:
    """The ``(kind, text)`` tokens of ``text``, then ``("eof", "")``."""
    found = _TOKEN_RE.findall(text)
    toks = [(_KINDS.get(t) or _FIRST.get(t[0], "num"), t) for t, _ in found if t]
    # a match that is neither a token nor the end, ("", ""), is a bad character
    if len(toks) + found.count(("", "")) < len(found):
        bad = next(m for m in _TOKEN_RE.finditer(text) if m.group(2))
        raise ParseError(f"unexpected character {bad.group(2)!r}",
                         *_line_col(text, bad.start(2)))
    toks.append(("eof", ""))
    return toks


def _line_col(text: str, at: int) -> tuple:
    return text.count("\n", 0, at) + 1, at - text.rfind("\n", 0, at)


def _token_line_col(text: str, index: int) -> tuple:
    """Where token ``index`` of ``text`` starts; eof is at the end."""
    starts = (m.start(1) for m in _TOKEN_RE.finditer(text) if m.group(1))
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


class Parser:
    def __init__(self, text: str):
        self.text = text
        self.toks = tokenize(text)
        self.pos = 0
        self.tvars: list = []  # stack of sets of in-scope type variables

    # -- token plumbing ----------------------------------------------------
    # Tokens are (kind, text) pairs; the trailing eof keeps ``pos`` in range.

    def peek(self) -> tuple:
        return self.toks[self.pos]

    def next(self) -> tuple:
        t = self.toks[self.pos]
        if t[0] != "eof":
            self.pos += 1
        return t

    def expect(self, kind: str) -> tuple:
        t = self.toks[self.pos]
        if t[0] != kind:
            self.error(f"expected {kind!r}, found {t[1]!r}")
        return self.next()

    def at(self, kind: str) -> bool:
        return self.toks[self.pos][0] == kind

    def error(self, msg: str):
        raise ParseError(msg, *_token_line_col(self.text, self.pos))

    def in_scope(self, name: str) -> bool:
        return any(name in s for s in self.tvars)

    # -- programs ----------------------------------------------------------

    def parse_program(self) -> Program:
        decls, names = [], set()
        while self.at("typeid"):
            start = self.pos
            decl = self.parse_decl()
            if decl.name in names:
                self.pos = start
                self.error(f"duplicate type declaration {decl.name}")
            names.add(decl.name)
            decls.append(decl)
        main = None
        if self.at("main"):
            self.next()
            self.expect("=")
            main = self.parse_expr()
        self.expect("eof")
        return Program(decls, main)

    def parse_decl(self) -> TypeDecl:
        name = self.expect("typeid")[1]
        self.tvars.append(set())
        try:
            tparams = self.parse_tparams() if self.at("[") else ()
            parents = []
            if self.at("<|"):
                self.next()
                while self.at("typeid") and not self.in_scope(self.peek()[1]):
                    parents.append(self.parse_ntype())
                if not parents:
                    self.error("expected at least one parent type after '<|'")
            self.expect("{")
            methods, starts = [], []
            while not self.at("}"):
                starts.append(self.pos)
                methods.append(self.parse_method(context="decl"))
            self.expect("}")
        finally:
            self.tvars.pop()
        names = [m.name for m in methods]
        if len(set(names)) < len(names):
            dupes = {n for n in names if names.count(n) > 1}
            # at the first method that repeats an earlier one's name
            self.pos = next(s for i, s in enumerate(starts) if names[i] in names[:i])
            self.error(f"duplicate methods in {name}: {sorted(dupes)}")
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

    def parse_tparams(self) -> tuple:
        self.expect("[")
        out = []
        while not self.at("]"):
            x = self.expect("typeid")[1]
            self.tvars[-1].add(x)
            bound = OBJECT
            if self.at("<:"):
                self.next()
                bound = self.parse_type()
            out.append((x, bound))
        self.expect("]")
        if not out:
            self.error("empty type-parameter list")
        return tuple(out)

    # -- methods -----------------------------------------------------------

    def parse_method(self, context: str) -> MethodDef:
        """context is 'decl', 'value' (bodies allowed) or 'type' (signatures)."""
        if not self.at("id"):
            self.error("expected a method name")
        name = self.next()[1]
        self.expect(":")
        if self.peek()[0] not in (ABS, DEF, MGC):
            self.error("expected 'abs', 'def' or 'mgc'")
        kind = self.next()[0]
        if kind == MGC and context != "decl":
            self.error("magic methods may only appear in type declarations")
        self.tvars.append(set())
        try:
            tparams = self.parse_tparams() if self.at("[") else ()
            paramTypes = []
            while not self.at("->"):
                paramTypes.append(self.parse_type())
            self.expect("->")
            ret = self.parse_type()
            eff: Effect = PURE
            if self.at("!"):
                if kind == MGC:
                    self.error("magic methods have a canonical effect; "
                               "'!' annotations are not allowed on them")
                self.next()
                eff = self.parse_effect()
            mtype = MethodType(tparams, tuple(paramTypes), ret, eff)
            if self.at("<"):
                if context == "type":
                    self.error("method bodies are not allowed inside types")
                if kind != DEF:
                    self.error(f"{kind} methods cannot have a body")
                selfVar, params, body = self.parse_body()
                return MethodDef(name, kind, mtype, selfVar, tuple(params), body)
        finally:
            self.tvars.pop()
        if kind == DEF and context != "type":
            self.error(f"def method {name!r} needs a body")
        return MethodDef(name, kind, mtype)

    def parse_body(self):
        self.expect("<")
        vars_ = self.parse_binder_vars()
        self.expect(",")
        body = self.parse_expr()
        self.expect(">")
        return vars_[0], vars_[1:], body

    def parse_binder_vars(self) -> list:
        """One binder group; wildcards get positional names _, _2, _3, ..."""
        out = []
        wild = 0
        while self.at("id"):
            v = self.next()[1]
            if v == "_":
                wild += 1
                v = "_" if wild == 1 else f"_{wild}"
            out.append(v)
        if not out:
            self.error("expected at least one variable")
        return out

    # -- types and effects ---------------------------------------------------

    def parse_targs(self) -> tuple:
        """An optional ``"[" type+ "]"``; ``()`` when there is none."""
        if not self.at("["):
            return ()
        self.next()
        if self.at("]"):
            self.error("empty type-argument list")
        args = []
        while not self.at("]"):
            args.append(self.parse_type())
        self.expect("]")
        return tuple(args)

    def parse_ntype(self) -> NominalType:
        return NominalType(self.expect("typeid")[1], self.parse_targs())

    def parse_type(self) -> Type:
        kind, text = self.peek()
        if kind == "Object":
            self.next()
            return OBJECT
        if kind != "typeid":
            self.error("expected a type")
        if self.in_scope(text):
            self.next()
            return TypeVar(text)
        nt = self.parse_ntype()
        if self.at("{"):
            self.next()
            entries = []
            while not self.at("}"):
                md = self.parse_method(context="type")
                entries.append((md.name, md.kind, md.mtype))
            self.expect("}")
            return ObjType((nt,), Sig(entries))
        return ObjType((nt,), EMPTY_SIG)

    def parse_effect(self) -> Effect:
        if self.at("pure"):
            self.next()
            return PURE
        if self.at("top"):
            self.next()
            return TOP
        atoms = [self.parse_eatom()]
        while self.at("\\/"):
            self.next()
            atoms.append(self.parse_eatom())
        return eff_of(*atoms)

    def parse_eatom(self) -> EffCall:
        recv = self.parse_type()
        self.expect(".")
        return EffCall(recv, self.expect("id")[1], self.parse_targs())

    # -- expressions ---------------------------------------------------------

    def parse_expr(self):
        if self.at("return"):
            self.next()
            return Return(self.parse_value())
        if self.at("do"):
            self.next()
            x = self.expect("id")[1]
            self.expect("=")
            first = self.parse_expr()
            self.expect(";")
            rest = self.parse_expr()
            return Do(x, first, rest)
        if self.at("try"):
            self.next()
            body = self.parse_expr()
            self.expect("with")
            clauses = [self.parse_clause()]
            while self.at("typeid"):
                clauses.append(self.parse_clause())
            if self.at("final"):
                self.next()
                self.expect("<")
                fv = self.expect("id")[1]
                self.expect(",")
                fe = self.parse_expr()
                self.expect(">")
            else:
                fv, fe = "x", Return(Var("x"))
            return Try(body, Handler(tuple(clauses), fv, fe))
        recv = self.parse_value()
        return self.parse_call(recv)

    def parse_call(self, recv: Value) -> Call:
        self.expect(".")
        m = self.expect("id")[1]
        targs = self.parse_targs()
        self.expect("(")
        args: list = []
        while not self.at(")"):
            args.append(self.parse_value())
            if self.at(","):
                self.next()
        self.expect(")")
        return Call(recv, m, targs, tuple(args))

    def parse_clause(self) -> Clause:
        t = self.parse_type()
        if not (isinstance(t, ObjType) and len(t.parents) == 1 and not len(t.sig)):
            self.error("a clause names a nominal type")
        ntype = t.parents[0]
        self.expect(".")
        m = self.expect("id")[1]
        typeParams: Optional[tuple] = None
        selfVar, params, body = "x", (), Return(Var("x"))
        if self.at(":"):
            self.next()
            self.tvars.append(set())
            try:
                typeParams = ()
                if self.at("["):
                    typeParams = tuple(x for x, _ in self.parse_tparams())
                selfVar, ps, body = self.parse_body()
                params = tuple(ps)
            finally:
                self.tvars.pop()
        mode = self.peek()[0]
        if mode not in (CONTINUE, STOP):
            self.error("expected 'continue' or 'stop'")
        self.next()
        return Clause(ntype, m, typeParams, selfVar, params, body, mode)

    # -- values ----------------------------------------------------------------

    def parse_value(self) -> Value:
        kind, text = self.peek()
        if kind == "id":
            self.next()
            return Var(text)
        if kind == "num" or kind == "str":
            lit = text.strip('"')
            # a numeral, or a string's toNat result, is refused before it is built
            n = _decimal(lit) if lit.isdecimal() else None
            if n is not None and n > MAX_NUMERAL:
                self.error(f"numeral larger than {MAX_NUMERAL}")
            self.next()
            return numeral(n) if kind == "num" else string_object(lit)
        if kind == "fn":
            return self.parse_lambda()
        if kind == "typeid" or kind == "Object":
            return self.parse_object_value()
        self.error("expected a value")

    def parse_lambda(self) -> Obj:
        self.expect("fn")
        self.expect("(")
        x = self.expect("id")[1]
        self.expect(":")
        ptype = self.parse_type()
        self.expect(")")
        self.expect("=>")
        body = self.parse_expr()
        return Obj(
            (),
            (
                MethodDef(
                    "apply", DEF,
                    MethodType((), (ptype,), OBJECT, TOP),
                    "_", (x,), body,
                ),
            ),
        )

    def parse_object_value(self) -> Obj:
        if self.at("Object"):
            self.next()
            self.expect("{")
            methods = self._parse_value_methods()
            return Obj((), methods)
        parents = [self.parse_ntype()]
        # further parents only when the list is followed by an object body
        save = self.pos
        while self.at("typeid"):
            parents.append(self.parse_ntype())
        if len(parents) > 1 and not self.at("{"):
            self.pos = save
            parents = parents[:1]
        if self.at("{"):
            self.next()
            methods = self._parse_value_methods()
            return Obj(tuple(parents), methods)
        if len(parents) != 1:
            self.error("a multi-parent object literal needs a body")
        return Obj((parents[0],), ())

    def _parse_value_methods(self) -> tuple:
        methods = []
        while not self.at("}"):
            methods.append(self.parse_method(context="value"))
        self.expect("}")
        return tuple(methods)


def parse_program(text: str) -> Program:
    """Parse a source file; returns the Program (main may be None)."""
    return Parser(text).parse_program()


def parse_expr(text: str, tvars: tuple = ()):
    """Parse a standalone expression (``tvars`` are in-scope type variables)."""
    p = Parser(text)
    p.tvars.append(set(tvars))
    e = p.parse_expr()
    p.expect("eof")
    return e


def parse_type(text: str, tvars: tuple = ()) -> Type:
    p = Parser(text)
    p.tvars.append(set(tvars))
    t = p.parse_type()
    p.expect("eof")
    return t


def parse_effect(text: str, tvars: tuple = ()) -> Effect:
    p = Parser(text)
    p.tvars.append(set(tvars))
    e = p.parse_effect()
    p.expect("eof")
    return e


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
        if not n.methods:
            return _sorted(n.parents, " ", "Object{}")
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
