"""The reference parser: the recursive-descent ``Parser`` that ``mfj.parser``
had before it parsed in one loop over an explicit stack of pending frames,
with one rule added since: a name repeated in one binder group (a body's
self and parameters, or a list of type parameters) is an error at the
repeated name.

Each production is a method that calls the productions it contains, so it
recurses on the nesting of the source, and every token is read through
``peek``/``next``/``expect``/``at``.  ``mfj.parser`` must return the same
(hash-consed, so ``is``-identical) node, or raise the same ``ParseError``
text, on every input; ``test_parser.py`` checks that it does.  Tokens and
error positions come from ``mfj.parser.tokenize`` and
``mfj.parser._token_line_col``, which ``test_tokenizer.py`` checks against
``reference_tokenizer``.
"""

from __future__ import annotations

from typing import Optional

from mfj.parser import (
    MAX_NUMERAL, ParseError, _decimal, _token_line_col, string_object,
    tokenize,
)
from mfj.syntax import (
    ABS, CONTINUE, DEF, EMPTY_SIG, MGC, OBJECT, PURE, STOP, TOP,
    Call, Clause, Do, EffCall, Effect, Handler, MethodDef, MethodType,
    NominalType, Obj, ObjType, Program, Return, Sig, Try, Type, TypeDecl,
    TypeVar, Value, Var, eff_of, nominal, numeral,
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
            x = self.peek()[1]
            if self.at("typeid") and any(x == y for y, _ in out):
                self.error(f"duplicate type parameter {x}")
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
        """One binder group; wildcards get positional names _, _2, _3, ...,
        and a repeated name is an error at its position."""
        out = []
        wild = 0
        while self.at("id"):
            v = self.peek()[1]
            if v == "_":
                wild += 1
                v = "_" if wild == 1 else f"_{wild}"
            if v in out:
                self.error(f"duplicate variable {v}")
            out.append(v)
            self.next()
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
