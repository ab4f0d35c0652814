"""The reference printer: the plain recursive pretty-printer, one function
per syntactic category, each recursing on its children.
``tests/test_syntax.py`` requires ``parser.pretty``, which renders every
term from one loop over an explicit stack, to print what this prints.
"""

from mfj.syntax import (
    MGC, OBJECT, Clause, Call, Do, EffCall, Effect, MethodDef, MethodType,
    NominalType, Obj, ObjType, Program, Return, Try, Type, TypeDecl, TypeVar,
    Value, Var, numeral_value,
)


def reference_pretty(node) -> str:
    """Deterministic, reparseable rendering of any syntax node."""
    if isinstance(node, Program):
        parts = [reference_pretty(d) for d in node.decls]
        if node.main is not None:
            parts.append(f"main = {reference_pretty(node.main)}")
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
