"""Abstract syntax for the calculus.

Fine-grain discipline: values (variables, objects) are syntactically separate
from computations (calls, return, do, try).  Types are type variables or object
types ``[N...]{s}``; a bare nominal ``N[T...]`` is sugar for an object type with
that single parent and an empty signature.  An effect is ``pure``, ``top`` or a
union of call-effect atoms ``T.m[T...]``, stored in normal form (the set of
its atoms, or the top flag), so ``==`` on effects, and on the types and
method types that contain them, is equality of effects.  ``eff_of`` is the
one way to build an effect.

Every node is immutable and hash-consed (``node``): equal nodes are one
object, so equality is identity and a hash is an id, however deep the term.
Facts derived from a node (free variables, erasure, numeral value) are
cached on it the first time they are asked for.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Optional

ABS = "abs"
DEF = "def"
MGC = "mgc"

CONTINUE = "continue"
STOP = "stop"


def record(cls=None, *, frozen=True):
    """Make ``cls`` a record of the fields it annotates, in order.

    Builds, except where ``cls`` defines its own: ``__init__`` (a class
    attribute is a field's default), ``__repr__`` as ``Cls(f=...)``, ``==``
    by class and fields, and for a ``frozen`` record a structural
    ``__hash__`` and an ``__setattr__``/``__delattr__`` that refuse; a record
    that is not frozen has no hash.
    """
    if cls is None:
        return lambda c: _build(c, frozen, False)
    return _build(cls, frozen, False)


def node(cls):
    """Make ``cls`` an immutable, hash-consed syntax node.

    Each class keeps one table from field tuples (defaults filled in) to
    nodes, so building a node equal to an existing one returns that node:
    ``==`` is ``is``, a hash is an id, and neither ever recurses.  A class
    whose constructor normalises its fields defines ``canon(*args)``,
    returning the field tuple; the table is keyed on its result.  The tables
    hold every distinct node the process builds, for the life of the process.
    """
    return _build(cls, True, True)


def _build(cls, frozen: bool, hashcons: bool):
    """Write ``record``'s or ``node``'s methods for ``cls`` in one ``exec``,
    each one unless ``cls`` defines its own."""
    names = tuple(cls.__dict__.get("__annotations__", ()))
    defaults = {n: cls.__dict__[n] for n in names if n in cls.__dict__}
    # the fields' own signature, so that defaults and keywords cost no
    # Python-level work on the hot path
    params = ", ".join(f"{n}=_defaults[{n!r}]" if n in defaults else n
                       for n in names)
    mine = "(" + "".join(f"self.{n}, " for n in names) + ")"
    shown = ", ".join(f"{n}={{self.{n}!r}}" for n in names)
    src = {"__repr__": "def __repr__(self):\n    return "
                       f"f'{{self.__class__.__qualname__}}({shown})'\n"}
    if frozen:
        src["__setattr__"] = ("def __setattr__(self, name, value):\n    raise "
                              "AttributeError(f'cannot assign to field {name!r}')\n")
        src["__delattr__"] = ("def __delattr__(self, name):\n    raise "
                              "AttributeError(f'cannot delete field {name!r}')\n")
    if hashcons:
        if "canon" in cls.__dict__:
            params, key = "*args, **kw", "cls.canon(*args, **kw)"
        else:
            key = mine.replace("self.", "")
        src["__new__"] = (f"def __new__(cls, {params}):\n"
                          f"    key = {key}\n"
                          "    n = _table.get(key)\n"
                          "    if n is None:\n"
                          "        n = _table[key] = _new(cls)\n"
                          "        n.__dict__.update(zip(_names, key))\n"
                          "    return n\n")
    else:
        src["__init__"] = (f"def __init__(self, {params}):\n"
                           + "".join(f"    _set(self, {n!r}, {n})\n" for n in names))
        src["__eq__"] = ("def __eq__(self, other):\n"
                         "    if other.__class__ is not self.__class__:\n"
                         "        return NotImplemented\n"
                         f"    return {mine} == {mine.replace('self.', 'other.')}\n")
        src["__hash__"] = (f"def __hash__(self):\n    return hash({mine})\n"
                           if frozen else "__hash__ = None\n")
    src = {k: code for k, code in src.items() if cls.__dict__.get(k) is None}
    ns = {"_table": {}, "_new": object.__new__, "_set": object.__setattr__,
          "_names": names, "_defaults": defaults}
    exec("".join(src.values()), ns)
    for k in src:
        setattr(cls, k, ns[k])
    cls._fields = names
    return cls


def _canon_parents(parents) -> tuple:
    """A parent set in one order: by name, then by printed arguments."""
    parents = tuple(parents)
    if len(parents) < 2:
        return parents
    return tuple(sorted(set(parents), key=lambda p: (p.name, repr(p.args))))


# ---------------------------------------------------------------------------
# Types and effects
# ---------------------------------------------------------------------------


class Type:
    """Base class for types."""


@node
class TypeVar(Type):
    name: str


@node
class NominalType:
    """An instantiated type name ``N[T...]``; lives in parent lists."""

    name: str
    args: tuple = ()


@node
class ObjType(Type):
    """``[N1,...,Nk]{s}`` — parents are a set, sig maps method names."""

    parents: tuple  # tuple[NominalType, ...] in ``_canon_parents`` order
    sig: "Sig"

    @staticmethod
    def canon(parents, sig):
        return _canon_parents(parents), sig


def objtype(*parents: NominalType) -> ObjType:
    return ObjType(tuple(parents), EMPTY_SIG)


def nominal(name: str, *args: Type) -> ObjType:
    """Bare-nominal sugar: ``N[T...]`` as a Type."""
    return objtype(NominalType(name, tuple(args)))


@node
class EffCall:
    """A call-effect atom ``T.m[T...]``; ``eff_of`` makes it an effect."""

    receiver: Type
    method: str
    targs: tuple = ()


@node
class Effect:
    """An effect in normal form: ``top``, or the union of its call-effect
    ``atoms`` (``pure`` when there are none).  Build effects with ``eff_of``."""

    atoms: frozenset  # frozenset[EffCall], empty when top
    top: bool = False

    def __repr__(self):
        # sorted, so that diagnostics do not depend on string hashing
        atoms = ", ".join(sorted(map(repr, self.atoms)))
        return f"Effect(atoms={{{atoms}}}, top={self.top})"


PURE = Effect(frozenset())
TOP = Effect(frozenset(), True)


def eff_of(*atoms: EffCall, top: bool = False) -> Effect:
    """The effect ``atoms[0] \\/ ...``, or ``top``."""
    return TOP if top else Effect(frozenset(atoms))


def eff_union(*effs: Effect) -> Effect:
    atoms = set()
    for e in effs:
        if e.top:
            return TOP
        atoms |= e.atoms
    return eff_of(*atoms)


# ---------------------------------------------------------------------------
# Method types and signatures
# ---------------------------------------------------------------------------


@node
class MethodType:
    """``[X1<:U1 ...] T1 ... Tn -> T ! eff`` (type-and-effect of a method)."""

    typeParams: tuple  # tuple[(str, Type), ...]
    paramTypes: tuple  # tuple[Type, ...]
    ret: Type
    eff: Effect


@node
class Sig:
    """A signature: method name -> (kind, MethodType), order-insensitive."""

    entries: tuple  # tuple[(name, kind, MethodType), ...] sorted by name

    @staticmethod
    def canon(entries: Iterable[tuple]):
        return (tuple(sorted(entries, key=lambda e: e[0])),)

    def __contains__(self, name: str) -> bool:
        return any(e[0] == name for e in self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __len__(self):
        return len(self.entries)

    def get(self, name: str):
        """(kind, MethodType) for ``name``, or None."""
        for n, k, mt in self.entries:
            if n == name:
                return k, mt
        return None

    def names(self):
        return [e[0] for e in self.entries]


EMPTY_SIG = Sig(())
OBJECT = ObjType((), EMPTY_SIG)


# ---------------------------------------------------------------------------
# Values and expressions
# ---------------------------------------------------------------------------


class Value:
    """Base class for values."""


class Expr:
    """Base class for computations."""


@node
class Var(Value):
    name: str


@node
class MethodDef:
    """A method inside an object literal or type declaration."""

    name: str
    kind: str  # ABS | DEF | MGC
    mtype: MethodType
    selfVar: Optional[str] = None
    params: tuple = ()
    body: Optional[Expr] = None


@node
class Obj(Value):
    """An object ``[N...]{md...}``; parents a set, methods keyed by name."""

    parents: tuple  # tuple[NominalType, ...] in ``_canon_parents`` order
    methods: tuple  # tuple[MethodDef, ...] sorted by name

    @staticmethod
    def canon(parents: Iterable[NominalType], methods: Iterable[MethodDef] = ()):
        return _canon_parents(parents), tuple(sorted(methods, key=lambda m: m.name))

    def method(self, name: str) -> Optional[MethodDef]:
        for m in self.methods:
            if m.name == name:
                return m
        return None


@node
class Call(Expr):
    recv: Value
    method: str
    targs: tuple = ()
    args: tuple = ()


@node
class Return(Expr):
    value: Value


@node
class Do(Expr):
    var: str
    first: Expr
    rest: Expr


@node
class Clause:
    """A catch clause ``N.m : [X...] <self params..., body> mode``.

    ``typeParams is None`` marks the defaulted binder form, which matches any
    arity of the magic method's type parameters.
    """

    ntype: NominalType
    method: str
    typeParams: Optional[tuple]  # tuple[str, ...] | None
    selfVar: str
    params: tuple
    body: Expr
    mode: str  # CONTINUE | STOP


@node
class Handler:
    clauses: tuple  # tuple[Clause, ...]
    finalVar: str
    finalExpr: Expr


@node
class Try(Expr):
    body: Expr
    handler: Handler


# ---------------------------------------------------------------------------
# Declarations and programs
# ---------------------------------------------------------------------------


@node
class TypeDecl:
    name: str
    typeParams: tuple  # tuple[(str, Type), ...]
    parents: tuple  # tuple[NominalType, ...]
    methods: tuple  # tuple[MethodDef, ...] in source order


@record
class Program:
    decls: tuple  # tuple[TypeDecl, ...]
    main: Optional[Expr]

    def __init__(self, decls: Iterable[TypeDecl], main: Optional[Expr] = None):
        decls = tuple(decls)
        by_name = {d.name: d for d in decls}
        if len(by_name) < len(decls):
            names = [d.name for d in decls]
            dupes = {n for n in names if names.count(n) > 1}
            raise ValueError(f"duplicate type declarations: {sorted(dupes)}")
        object.__setattr__(self, "decls", decls)
        object.__setattr__(self, "main", main)
        object.__setattr__(self, "_by_name", by_name)

    def decl(self, name: str) -> Optional[TypeDecl]:
        return self._by_name.get(name)

    def extend(self, other: "Program") -> "Program":
        """This program's decls followed by ``other``'s; other's main wins."""
        return Program(self.decls + other.decls, other.main or self.main)


# ---------------------------------------------------------------------------
# Free variables
# ---------------------------------------------------------------------------


def ftv_type(t) -> frozenset:
    if isinstance(t, TypeVar):
        return frozenset([t.name])
    if isinstance(t, NominalType):
        out = frozenset()
        for a in t.args:
            out |= ftv_type(a)
        return out
    if isinstance(t, ObjType):
        out = frozenset()
        for p in t.parents:
            out |= ftv_type(p)
        for _, _, mt in t.sig:
            out |= ftv_mtype(mt)
        return out
    raise TypeError(f"not a type: {t!r}")


def ftv_mtype(mt: MethodType) -> frozenset:
    binders = frozenset(x for x, _ in mt.typeParams)
    out = frozenset()
    for _, bound in mt.typeParams:
        out |= ftv_type(bound)
    for p in mt.paramTypes:
        out |= ftv_type(p)
    out |= ftv_type(mt.ret)
    out |= ftv_eff(mt.eff)
    return out - binders


def ftv_eff(e: Effect) -> frozenset:
    out = frozenset()
    for a in e.atoms:
        out |= ftv_type(a.receiver)
        for t in a.targs:
            out |= ftv_type(t)
    return out


def ftv_value(v: Value) -> frozenset:
    if isinstance(v, Var):
        return frozenset()
    if isinstance(v, Obj):
        out = v.__dict__.get("_ftv")
        if out is not None:
            return out
        out = frozenset()
        for p in v.parents:
            out |= ftv_type(p)
        for md in v.methods:
            out |= ftv_mtype(md.mtype)
            if md.body is not None:
                binders = frozenset(x for x, _ in md.mtype.typeParams)
                out |= ftv_expr(md.body) - binders
        object.__setattr__(v, "_ftv", out)
        return out
    raise TypeError(f"not a value: {v!r}")


def ftv_expr(e: Expr) -> frozenset:
    # cached on the node, which is shared by every equal term
    out = e.__dict__.get("_ftv")
    if out is None:
        out = _ftv_expr(e)
        object.__setattr__(e, "_ftv", out)
    return out


def _ftv_expr(e: Expr) -> frozenset:
    if isinstance(e, Call):
        out = ftv_value(e.recv)
        for t in e.targs:
            out |= ftv_type(t)
        for a in e.args:
            out |= ftv_value(a)
        return out
    if isinstance(e, Return):
        return ftv_value(e.value)
    if isinstance(e, Do):
        return ftv_expr(e.first) | ftv_expr(e.rest)
    if isinstance(e, Try):
        h = e.handler
        out = ftv_expr(e.body) | ftv_expr(h.finalExpr)
        for c in h.clauses:
            out |= ftv_type(c.ntype)
            out |= ftv_expr(c.body) - frozenset(c.typeParams or ())
        return out
    raise TypeError(f"not an expression: {e!r}")


def fv_value(v: Value) -> frozenset:
    if isinstance(v, Var):
        return frozenset([v.name])
    if isinstance(v, Obj):
        out = v.__dict__.get("_fv")
        if out is not None:
            return out
        out = frozenset()
        for md in v.methods:
            if md.body is not None:
                out |= fv_expr(md.body) - frozenset((md.selfVar, *md.params))
        object.__setattr__(v, "_fv", out)
        return out
    raise TypeError(f"not a value: {v!r}")


def fv_expr(e: Expr) -> frozenset:
    out = e.__dict__.get("_fv")
    if out is None:
        out = _fv_expr(e)
        object.__setattr__(e, "_fv", out)
    return out


def _fv_expr(e: Expr) -> frozenset:
    if isinstance(e, Call):
        out = fv_value(e.recv)
        for a in e.args:
            out |= fv_value(a)
        return out
    if isinstance(e, Return):
        return fv_value(e.value)
    if isinstance(e, Do):
        return fv_expr(e.first) | (fv_expr(e.rest) - {e.var})
    if isinstance(e, Try):
        h = e.handler
        out = fv_expr(e.body)
        for c in h.clauses:
            out |= fv_expr(c.body) - frozenset((c.selfVar, *c.params))
        out |= fv_expr(h.finalExpr) - {h.finalVar}
        return out
    raise TypeError(f"not an expression: {e!r}")


# ---------------------------------------------------------------------------
# Substitution
# ---------------------------------------------------------------------------


def restrict(sub: Mapping, bound: Iterable[str]) -> dict:
    bound = set(bound)
    return {k: v for k, v in sub.items() if k not in bound}


def subst_type(t, sub: Mapping[str, Type]):
    """Capture-avoiding ``t[sub]`` over types (also accepts NominalType)."""
    if not sub:
        return t
    if isinstance(t, TypeVar):
        return sub.get(t.name, t)
    if isinstance(t, NominalType):
        return NominalType(t.name, tuple(subst_type(a, sub) for a in t.args))
    if isinstance(t, ObjType):
        return ObjType(
            tuple(subst_type(p, sub) for p in t.parents),
            Sig((n, k, subst_mtype(mt, sub)) for n, k, mt in t.sig),
        )
    raise TypeError(f"not a type: {t!r}")


def subst_mtype(mt: MethodType, sub: Mapping[str, Type]) -> MethodType:
    sub = restrict(sub, (x for x, _ in mt.typeParams))
    if not sub:
        return mt
    scope = set()
    for v in sub.values():
        scope |= ftv_type(v)
    mt = open_binders(mt, (x for x, _ in mt.typeParams), scope)
    sub = restrict(sub, (x for x, _ in mt.typeParams))
    return MethodType(
        tuple((x, subst_type(b, sub)) for x, b in mt.typeParams),
        tuple(subst_type(p, sub) for p in mt.paramTypes),
        subst_type(mt.ret, sub),
        subst_eff(mt.eff, sub),
    )


def open_binders(mt: MethodType, names: Iterable[str], scope) -> MethodType:
    """``mt`` with its type parameters renamed, in order, to ``names``; the
    one place binder names are chosen.  A name in ``scope`` (the type
    variables the result meets: an enclosing environment's, or those free in
    the other side or in the substituted types) becomes the first of ``X'1``,
    ``X'2``, ... that is not in scope, not free in ``mt`` and not another
    binder's.  No identifier has a ``'``, so it never meets a user's name."""
    names = list(names)
    if any(n in scope for n in names):
        taken = {*scope, *names, *ftv_mtype(mt)}
        for i, n in enumerate(names):
            if n in scope:
                base, k = n.split("'")[0], 1
                while f"{base}'{k}" in taken:
                    k += 1
                names[i] = f"{base}'{k}"
                taken.add(names[i])
    ren = {x: TypeVar(n) for (x, _), n in zip(mt.typeParams, names) if x != n}
    if not ren:
        return mt
    return MethodType(
        tuple((n, subst_type(b, ren)) for (_, b), n in zip(mt.typeParams, names)),
        tuple(subst_type(p, ren) for p in mt.paramTypes),
        subst_type(mt.ret, ren),
        subst_eff(mt.eff, ren),
    )


def subst_eff(e: Effect, sub: Mapping[str, Type]) -> Effect:
    if not sub or not e.atoms:
        return e
    return eff_of(*(
        EffCall(subst_type(a.receiver, sub), a.method,
                tuple(subst_type(t, sub) for t in a.targs))
        for a in e.atoms
    ))


def subst_value(v: Value, tsub: Mapping[str, Type], vsub: Mapping[str, Value]) -> Value:
    if isinstance(v, Var):
        return vsub.get(v.name, v)
    if vsub:
        fv = fv_value(v)
        vsub = {k: w for k, w in vsub.items() if k in fv}
    if tsub:
        ftv = ftv_value(v)
        tsub = {k: t for k, t in tsub.items() if k in ftv}
    if not tsub and not vsub:
        return v
    if isinstance(v, Obj):
        return Obj(
            tuple(subst_type(p, tsub) for p in v.parents),
            tuple(_subst_methoddef(md, tsub, vsub) for md in v.methods),
        )
    raise TypeError(f"not a value: {v!r}")


def _subst_methoddef(md: MethodDef, tsub, vsub) -> MethodDef:
    mt = subst_mtype(md.mtype, tsub)
    if md.body is None:
        return MethodDef(md.name, md.kind, mt)
    body = subst_expr(md.body, restrict(tsub, (x for x, _ in md.mtype.typeParams)),
                      restrict(vsub, (md.selfVar, *md.params)))
    return MethodDef(md.name, md.kind, mt, md.selfVar, md.params, body)


def subst_expr(e: Expr, tsub: Mapping[str, Type], vsub: Mapping[str, Value]) -> Expr:
    """Simultaneous ``e[tsub][vsub]``.  No value binder is renamed, so the
    values must be closed, as every value a run substitutes is."""
    if vsub:
        fv = fv_expr(e)
        vsub = {k: w for k, w in vsub.items() if k in fv}
    if tsub:
        ftv = ftv_expr(e)
        tsub = {k: t for k, t in tsub.items() if k in ftv}
    if not tsub and not vsub:
        return e
    if isinstance(e, Call):
        return Call(
            subst_value(e.recv, tsub, vsub),
            e.method,
            tuple(subst_type(t, tsub) for t in e.targs),
            tuple(subst_value(a, tsub, vsub) for a in e.args),
        )
    if isinstance(e, Return):
        return Return(subst_value(e.value, tsub, vsub))
    if isinstance(e, Do):
        return Do(e.var, subst_expr(e.first, tsub, vsub),
                  subst_expr(e.rest, tsub, restrict(vsub, (e.var,))))
    if isinstance(e, Try):
        h = e.handler
        return Try(subst_expr(e.body, tsub, vsub), Handler(
            tuple(_subst_clause(c, tsub, vsub) for c in h.clauses),
            h.finalVar,
            subst_expr(h.finalExpr, tsub, restrict(vsub, (h.finalVar,)))))
    raise TypeError(f"not an expression: {e!r}")


def _subst_clause(c: Clause, tsub, vsub) -> Clause:
    body = subst_expr(c.body, restrict(tsub, c.typeParams or ()),
                      restrict(vsub, (c.selfVar, *c.params)))
    return Clause(subst_type(c.ntype, tsub), c.method, c.typeParams,
                  c.selfVar, c.params, body, c.mode)


# ---------------------------------------------------------------------------
# Erasure and alpha-equivalence
# ---------------------------------------------------------------------------


class NotAnObject(Exception):
    pass


def erase_type(v: Value) -> ObjType:
    """The dynamic type of an object: same parents, bodies dropped.

    No well-formedness check happens here; the extracted type may violate
    constraints.
    """
    if not isinstance(v, Obj):
        raise NotAnObject(f"cannot erase {v!r}")
    t = v.__dict__.get("_erased")
    if t is None:
        t = ObjType(v.parents, Sig((m.name, m.kind, m.mtype) for m in v.methods))
        object.__setattr__(v, "_erased", t)
    return t


def align_binders(a: MethodType, b: MethodType, scope=()) -> Optional[tuple]:
    """``(a, b)`` with one list of type-parameter names, or None when their
    arities differ.  The names are ``a``'s, opened where one of them is in
    ``scope`` (the type variables of an enclosing environment) or free in
    ``b``, so that no type variable in scope or free in ``b`` is captured."""
    if len(a.typeParams) != len(b.typeParams):
        return None
    names = tuple(x for x, _ in a.typeParams)
    if names == tuple(x for x, _ in b.typeParams) \
            and not any(x in scope for x in names):
        return a, b
    a = open_binders(a, names, {*scope, *ftv_mtype(b)})
    return a, open_binders(b, (x for x, _ in a.typeParams), ())


def alpha_eq_mtype(a: MethodType, b: MethodType) -> bool:
    aligned = align_binders(a, b)
    return aligned is not None and aligned[0] == aligned[1]
