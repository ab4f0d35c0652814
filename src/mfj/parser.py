"""Concrete ASCII syntax: tokenizer, recursive-descent parser, pretty-printer.

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
Decimal numerals desugar to the Zero/Succ encoding; string literals desugar to
String objects; ``fn (x: T) => e`` desugars to a single-``apply`` object.
Magic methods must not carry a ``!`` annotation: their canonical effect is
synthesized from the declaration.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional

from .syntax import (
    ABS, CONTINUE, DEF, MGC, OBJECT, PURE, STOP, TOP,
    Call, Clause, Do, EffCall, Effect, Handler, MethodDef, MethodType,
    NominalType, Obj, ObjType, Program, Return, Sig, Try, Type, TypeDecl,
    TypeVar, Value, Var, eff_of, nominal,
)


class ParseError(Exception):
    def __init__(self, msg: str, line: int = 0, col: int = 0):
        super().__init__(f"{line}:{col}: {msg}" if line else msg)
        self.line, self.col = line, col


@dataclass
class Token:
    kind: str
    text: str
    line: int
    col: int


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+|//[^\n]*)
  | (?P<num>\d+)
  | (?P<str>"[^"\n]*")
  | (?P<id>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<sym><\||<:|\\/|->|=>|[:,;.\[\]{}()<>=!])
    """,
    re.VERBOSE,
)

KEYWORDS = {
    "return", "do", "try", "with", "final", "continue", "stop",
    "pure", "top", "abs", "def", "mgc", "main", "fn", "Object",
}


def tokenize(text: str):
    toks = []
    pos, line, linestart = 0, 1, 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise ParseError(f"unexpected character {text[pos]!r}",
                             line, pos - linestart + 1)
        col = pos - linestart + 1
        pos = m.end()
        if m.lastgroup == "ws":
            line += m.group().count("\n")
            if "\n" in m.group():
                linestart = m.start() + m.group().rindex("\n") + 1
            continue
        kind = m.lastgroup
        txt = m.group()
        if kind == "sym":
            kind = txt
        elif kind == "id":
            if txt in KEYWORDS:
                kind = txt
            elif txt[0].isupper():
                kind = "typeid"
        toks.append(Token(kind, txt, line, col))
    toks.append(Token("eof", "", line, pos - linestart + 1))
    return toks


NAT_T = nominal("Nat")
FAIL_EFF = eff_of(EffCall(nominal("Failure", NAT_T), "fail", ()))


def numeral(n: int) -> Obj:
    """The n-hat encoding; built exactly the way ``Nat.succ`` builds values."""
    v = Obj((NominalType("Zero"),))
    for _ in range(n):
        v = Obj(
            (NominalType("Succ"),),
            (
                MethodDef(
                    "pred", DEF,
                    MethodType((), (), NAT_T, PURE),
                    "_", (), Return(v),
                ),
            ),
        )
    return v


def numeral_value(v: Value) -> Optional[int]:
    """Inverse of ``numeral`` where it applies, else None."""
    n = 0
    while True:
        if not isinstance(v, Obj):
            return None
        if v.parents == (NominalType("Zero"),) and not v.methods:
            return n
        if v.parents != (NominalType("Succ"),) or len(v.methods) != 1:
            return None
        md = v.methods[0]
        if (
            md.name != "pred" or md.kind != DEF or md.params
            or md.selfVar != "_"
            or md.mtype != MethodType((), (), NAT_T, PURE)
            or not isinstance(md.body, Return)
        ):
            return None
        v = md.body.value
        n += 1


def string_object(s: str) -> Obj:
    if s.isdigit():
        body = Return(numeral(int(s)))
    else:
        body = Call(Obj((NominalType("Failure", (NAT_T,)),)), "fail", (), ())
    return Obj(
        (NominalType("String"),),
        (MethodDef("toNat", DEF, MethodType((), (), NAT_T, FAIL_EFF), "_", (), body),),
    )


class Parser:
    def __init__(self, text: str):
        self.toks = tokenize(text)
        self.pos = 0
        self.tvars: list = []  # stack of sets of in-scope type variables

    # -- token plumbing ----------------------------------------------------

    def peek(self, ahead: int = 0) -> Token:
        return self.toks[min(self.pos + ahead, len(self.toks) - 1)]

    def next(self) -> Token:
        t = self.toks[self.pos]
        if t.kind != "eof":
            self.pos += 1
        return t

    def expect(self, kind: str) -> Token:
        t = self.peek()
        if t.kind != kind:
            raise ParseError(f"expected {kind!r}, found {t.text!r}", t.line, t.col)
        return self.next()

    def at(self, kind: str) -> bool:
        return self.peek().kind == kind

    def error(self, msg: str):
        t = self.peek()
        raise ParseError(msg, t.line, t.col)

    def in_scope(self, name: str) -> bool:
        return any(name in s for s in self.tvars)

    # -- programs ----------------------------------------------------------

    def parse_program(self) -> Program:
        decls = []
        while self.at("typeid"):
            decls.append(self.parse_decl())
        main = None
        if self.at("main"):
            self.next()
            self.expect("=")
            main = self.parse_expr()
        self.expect("eof")
        return Program(decls, main)

    def parse_decl(self) -> TypeDecl:
        name = self.expect("typeid").text
        self.tvars.append(set())
        try:
            tparams = self.parse_tparams() if self.at("[") else ()
            parents = []
            if self.at("<|"):
                self.next()
                while self.at("typeid") and not self.in_scope(self.peek().text):
                    parents.append(self.parse_ntype())
                if not parents:
                    self.error("expected at least one parent type after '<|'")
            self.expect("{")
            methods = []
            while not self.at("}"):
                methods.append(self.parse_method(context="decl"))
            self.expect("}")
        finally:
            self.tvars.pop()
        names = [m.name for m in methods]
        dupes = {n for n in names if names.count(n) > 1}
        if dupes:
            raise ParseError(f"duplicate methods in {name}: {sorted(dupes)}")
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
            x = self.expect("typeid").text
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
        name_tok = self.peek()
        if name_tok.kind not in ("id",):
            self.error("expected a method name")
        name = self.next().text
        self.expect(":")
        kind_tok = self.peek()
        if kind_tok.kind not in (ABS, DEF, MGC):
            self.error("expected 'abs', 'def' or 'mgc'")
        kind = self.next().kind
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
            v = self.next().text
            if v == "_":
                wild += 1
                v = "_" if wild == 1 else f"_{wild}"
            out.append(v)
        if not out:
            self.error("expected at least one variable")
        return out

    # -- types and effects ---------------------------------------------------

    def parse_ntype(self) -> NominalType:
        name = self.expect("typeid").text
        args: list = []
        if self.at("["):
            self.next()
            while not self.at("]"):
                args.append(self.parse_type())
            self.expect("]")
            if not args:
                self.error("empty type-argument list")
        return NominalType(name, tuple(args))

    def parse_type(self) -> Type:
        t = self.peek()
        if t.kind == "Object":
            self.next()
            return OBJECT
        if t.kind != "typeid":
            self.error("expected a type")
        if self.in_scope(t.text):
            self.next()
            return TypeVar(t.text)
        nt = self.parse_ntype()
        if self.at("{"):
            self.next()
            entries = []
            while not self.at("}"):
                md = self.parse_method(context="type")
                entries.append((md.name, md.kind, md.mtype))
            self.expect("}")
            return ObjType((nt,), Sig(entries))
        return ObjType((nt,), Sig(()))

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
        m = self.expect("id").text
        targs: list = []
        if self.at("["):
            self.next()
            while not self.at("]"):
                targs.append(self.parse_type())
            self.expect("]")
        return EffCall(recv, m, tuple(targs))

    # -- expressions ---------------------------------------------------------

    def parse_expr(self):
        if self.at("return"):
            self.next()
            return Return(self.parse_value())
        if self.at("do"):
            self.next()
            x = self.expect("id").text
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
                fv = self.expect("id").text
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
        m = self.expect("id").text
        targs: list = []
        if self.at("["):
            self.next()
            while not self.at("]"):
                targs.append(self.parse_type())
            self.expect("]")
        self.expect("(")
        args: list = []
        while not self.at(")"):
            args.append(self.parse_value())
            if self.at(","):
                self.next()
        self.expect(")")
        return Call(recv, m, tuple(targs), tuple(args))

    def parse_clause(self) -> Clause:
        t = self.parse_type()
        if not (isinstance(t, ObjType) and len(t.parents) == 1 and not len(t.sig)):
            self.error("a clause names a nominal type")
        ntype = t.parents[0]
        self.expect(".")
        m = self.expect("id").text
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
        mode_tok = self.peek()
        if mode_tok.kind not in (CONTINUE, STOP):
            self.error("expected 'continue' or 'stop'")
        self.next()
        return Clause(ntype, m, typeParams, selfVar, params, body, mode_tok.kind)

    # -- values ----------------------------------------------------------------

    def parse_value(self) -> Value:
        t = self.peek()
        if t.kind == "id":
            return Var(self.next().text)
        if t.kind == "num":
            return numeral(int(self.next().text))
        if t.kind == "str":
            return string_object(self.next().text[1:-1])
        if t.kind == "fn":
            return self.parse_lambda()
        if t.kind == "typeid" or t.kind == "Object":
            return self.parse_object_value()
        self.error("expected a value")

    def parse_lambda(self) -> Obj:
        self.expect("fn")
        self.expect("(")
        x = self.expect("id").text
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
    """Deterministic, reparseable rendering of any syntax node."""
    if isinstance(node, Program):
        parts = [pretty(d) for d in node.decls]
        if node.main is not None:
            parts.append(f"main = {pretty(node.main)}")
        return "\n\n".join(parts) + "\n"
    if isinstance(node, TypeDecl):
        head = node.name + _pretty_tparams(node.typeParams)
        if node.parents:
            head += " <| " + " ".join(_pretty_ntype(p) for p in node.parents)
        body = "\n".join("  " + _pretty_methoddef(m) for m in node.methods)
        return f"{head} {{\n{body}\n}}" if body else f"{head} {{ }}"
    if isinstance(node, MethodDef):
        return _pretty_methoddef(node)
    if isinstance(node, Type) or isinstance(node, NominalType):
        return pretty_type(node)
    if isinstance(node, Effect):
        return pretty_eff(node)
    if isinstance(node, Value):
        return pretty_value(node)
    return pretty_expr(node)


def _pretty_tparams(tps) -> str:
    if not tps:
        return ""
    bits = []
    for x, b in tps:
        bits.append(x if b == OBJECT else f"{x} <: {pretty_type(b)}")
    return "[" + " ".join(bits) + "]"


def _pretty_ntype(n: NominalType) -> str:
    if not n.args:
        return n.name
    return n.name + "[" + " ".join(pretty_type(a) for a in n.args) + "]"


def pretty_type(t) -> str:
    if isinstance(t, NominalType):
        return _pretty_ntype(t)
    if isinstance(t, TypeVar):
        return t.name
    if isinstance(t, ObjType):
        if not t.parents and not len(t.sig):
            return "Object"
        parents = " ".join(_pretty_ntype(p) for p in sorted(t.parents, key=_pretty_ntype))
        if not len(t.sig):
            return parents
        sigs = "  ".join(
            _pretty_sig_entry(n, k, mt) for n, k, mt in t.sig
        )
        return f"{parents or 'Object'}{{{sigs}}}"
    raise TypeError(f"not a type: {t!r}")


def _pretty_mtype(kind: str, mt: MethodType) -> str:
    out = kind
    tp = _pretty_tparams(mt.typeParams)
    if tp:
        out += " " + tp
    for p in mt.paramTypes:
        out += " " + pretty_type(p)
    out += " -> " + pretty_type(mt.ret)
    if kind != MGC:
        out += " ! " + pretty_eff(mt.eff)
    return out


def _pretty_sig_entry(name: str, kind: str, mt: MethodType) -> str:
    return f"{name} : {_pretty_mtype(kind, mt)}"


def _pretty_methoddef(m: MethodDef) -> str:
    out = _pretty_sig_entry(m.name, m.kind, m.mtype)
    if m.body is not None:
        vars_ = " ".join((m.selfVar, *m.params))
        out += f" <{vars_}, {pretty_expr(m.body)}>"
    return out


def pretty_eff(e: Effect) -> str:
    if e.top:
        return "top"
    if not e.atoms:
        return "pure"
    return " \\/ ".join(sorted(_pretty_eatom(a) for a in e.atoms))


def _pretty_eatom(a: EffCall) -> str:
    out = f"{pretty_type(a.receiver)}.{a.method}"
    if a.targs:
        out += "[" + " ".join(pretty_type(t) for t in a.targs) + "]"
    return out


def pretty_value(v: Value) -> str:
    if isinstance(v, Var):
        return v.name
    if isinstance(v, Obj):
        n = numeral_value(v)
        if n is not None:
            return str(n)
        parents = " ".join(_pretty_ntype(p) for p in sorted(v.parents, key=_pretty_ntype))
        if not v.methods:
            return parents or "Object{}"
        body = "  ".join(_pretty_methoddef(m) for m in v.methods)
        return f"{parents or 'Object'}{{{body}}}"
    raise TypeError(f"not a value: {v!r}")


def pretty_expr(e) -> str:
    if isinstance(e, Return):
        return f"return {pretty_value(e.value)}"
    if isinstance(e, Do):
        return f"do {e.var} = {pretty_expr(e.first)}; {pretty_expr(e.rest)}"
    if isinstance(e, Call):
        out = f"{pretty_value(e.recv)}.{e.method}"
        if e.targs:
            out += "[" + " ".join(pretty_type(t) for t in e.targs) + "]"
        return out + "(" + " ".join(pretty_value(a) for a in e.args) + ")"
    if isinstance(e, Try):
        h = e.handler
        out = f"try {pretty_expr(e.body)} with "
        out += " ".join(_pretty_clause(c) for c in h.clauses)
        out += f" final <{h.finalVar}, {pretty_expr(h.finalExpr)}>"
        return out
    raise TypeError(f"not an expression: {e!r}")


def _pretty_clause(c: Clause) -> str:
    out = f"{_pretty_ntype(c.ntype)}.{c.method}"
    if c.typeParams is not None:
        out += " :"
        if c.typeParams:
            out += " [" + " ".join(c.typeParams) + "]"
        vars_ = " ".join((c.selfVar, *c.params))
        out += f" <{vars_}, {pretty_expr(c.body)}>"
    return out + f" {c.mode}"
