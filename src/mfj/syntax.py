"""Abstract syntax for the calculus.

Fine-grain discipline: values (variables, objects) are syntactically separate
from computations (calls, return, do, try).  Types are type variables or object
types ``[N...]{s}``; a bare nominal ``N[T...]`` is sugar for an object type with
that single parent and an empty signature.  An effect is ``pure``, ``top`` or a
union of call-effect atoms ``T.m[T...]``, stored in normal form (the set of
its atoms, or the top flag), so ``==`` on effects, and on the types and
method types that contain them, is equality of effects.  ``eff_of`` is the
one way to build an effect; it shares ``PURE`` and ``TOP`` and interns every
other effect, so equal effects are usually the same object.

Everything here is immutable; nodes hash-cons their hash lazily because deeply
nested numerals make repeated deep hashing the dominant cost otherwise.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, Mapping, Optional

ABS = "abs"
DEF = "def"
MGC = "mgc"

CONTINUE = "continue"
STOP = "stop"

_fresh_counter = itertools.count(1)


def fresh_name(base: str) -> str:
    """A fresh identifier derived from ``base`` (used for alpha-renaming)."""
    base = base.split("__")[0] or "x"
    return f"{base}__{next(_fresh_counter)}"


def _cached_hash(cls):
    """Wrap a frozen dataclass's __hash__ with a per-instance cache."""
    raw = cls.__hash__

    def __hash__(self):
        h = self.__dict__.get("_h")
        if h is None:
            h = raw(self)
            object.__setattr__(self, "_h", h)
        return h

    cls.__hash__ = __hash__
    return cls


def node(cls):
    return _cached_hash(dataclass(frozen=True)(cls))


class _Parents:
    @cached_property
    def parent_set(self) -> frozenset:
        """``parents`` as a set, built once per node like its hash."""
        return frozenset(self.parents)


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


@_cached_hash
@dataclass(frozen=True)
class ObjType(Type, _Parents):
    """``[N1,...,Nk]{s}`` — parents are a set, sig maps method names."""

    parents: tuple  # tuple[NominalType, ...]
    sig: "Sig"

    def __eq__(self, other):
        return self is other or (
            isinstance(other, ObjType)
            and self.parent_set == other.parent_set
            and self.sig == other.sig
        )

    def __hash__(self):
        return hash((self.parent_set, self.sig))


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
    """The effect ``atoms[0] \\/ ...``, or ``top``; interned, so equal effects
    are usually one object."""
    if top:
        return TOP
    if not atoms:
        return PURE
    return _interned(frozenset(atoms))


@lru_cache(maxsize=4096)
def _interned(atoms: frozenset) -> Effect:
    return Effect(atoms)


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


@_cached_hash
@dataclass(frozen=True, init=False)
class Sig:
    """A signature: method name -> (kind, MethodType), order-insensitive."""

    entries: tuple  # tuple[(name, kind, MethodType), ...] sorted by name

    def __init__(self, entries: Iterable[tuple]):
        object.__setattr__(self, "entries", tuple(sorted(entries, key=lambda e: e[0])))

    def __hash__(self):
        return hash(self.entries)

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


@_cached_hash
@dataclass(frozen=True, init=False)
class Obj(Value, _Parents):
    """An object ``[N...]{md...}``; parents a set, methods keyed by name."""

    parents: tuple  # tuple[NominalType, ...]
    methods: tuple  # tuple[MethodDef, ...] sorted by name

    def __init__(self, parents: Iterable[NominalType], methods: Iterable[MethodDef] = ()):
        object.__setattr__(self, "parents", tuple(parents))
        object.__setattr__(
            self, "methods", tuple(sorted(methods, key=lambda m: m.name))
        )

    def __eq__(self, other):
        return self is other or (
            isinstance(other, Obj)
            and self.parent_set == other.parent_set
            and self.methods == other.methods
        )

    def __hash__(self):
        return hash((self.parent_set, self.methods))

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


@dataclass(frozen=True, init=False)
class Program:
    decls: tuple  # tuple[TypeDecl, ...]
    main: Optional[Expr]

    def __init__(self, decls: Iterable[TypeDecl], main: Optional[Expr] = None):
        decls = tuple(decls)
        names = [d.name for d in decls]
        dupes = {n for n in names if names.count(n) > 1}
        if dupes:
            raise ValueError(f"duplicate type declarations: {sorted(dupes)}")
        object.__setattr__(self, "decls", decls)
        object.__setattr__(self, "main", main)
        object.__setattr__(self, "_by_name", {d.name: d for d in decls})

    def decl(self, name: str) -> Optional[TypeDecl]:
        return self._by_name.get(name)

    def __hash__(self):
        return hash((self.decls, self.main))

    def __eq__(self, other):
        return (
            isinstance(other, Program)
            and self.decls == other.decls
            and self.main == other.main
        )

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
    # cached on the node: keyed by identity, freed with the term
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


def _restrict(sub: Mapping, bound: Iterable[str]) -> dict:
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
    binders = [x for x, _ in mt.typeParams]
    sub = _restrict(sub, binders)
    if not sub:
        return mt
    clash = set()
    for v in sub.values():
        clash |= ftv_type(v)
    if clash & set(binders):
        binders = [fresh_name(x) if x in clash else x for x in binders]
        mt = rename_binders(mt, binders)
        sub = _restrict(sub, binders)
    return MethodType(
        tuple((x, subst_type(b, sub)) for x, b in mt.typeParams),
        tuple(subst_type(p, sub) for p in mt.paramTypes),
        subst_type(mt.ret, sub),
        subst_eff(mt.eff, sub),
    )


def rename_binders(mt: MethodType, names: Iterable[str]) -> MethodType:
    """``mt`` with its type parameters renamed, in order, to ``names``."""
    names = tuple(names)
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
    binders = [x for x, _ in md.mtype.typeParams]
    (selfVar, *params), body = _subst_under(
        (md.selfVar, *md.params), md.body, _restrict(tsub, binders), vsub)
    return MethodDef(md.name, md.kind, mt, selfVar, tuple(params), body)


def subst_expr(e: Expr, tsub: Mapping[str, Type], vsub: Mapping[str, Value]) -> Expr:
    """Simultaneous capture-avoiding ``e[tsub][vsub]``."""
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
        first = subst_expr(e.first, tsub, vsub)
        (x,), rest = _subst_under((e.var,), e.rest, tsub, vsub)
        return Do(x, first, rest)
    if isinstance(e, Try):
        h = e.handler
        body = subst_expr(e.body, tsub, vsub)
        clauses = tuple(_subst_clause(c, tsub, vsub) for c in h.clauses)
        (x,), final = _subst_under((h.finalVar,), h.finalExpr, tsub, vsub)
        return Try(body, Handler(clauses, x, final))
    raise TypeError(f"not an expression: {e!r}")


def _subst_under(names: tuple, body: Expr, tsub, vsub):
    """Substitute into ``body`` under the value binders ``names``.

    Binders that would capture a free variable of a substituted value are
    renamed first; returns the (possibly renamed) binders and the new body.
    ``tsub`` must already exclude the type binders in scope.
    """
    vsub = _restrict(vsub, names)
    clash = set()
    for w in vsub.values():
        clash |= fv_value(w)
    if clash & set(names):
        ren = {x: Var(fresh_name(x)) for x in names if x in clash}
        body = subst_expr(body, {}, ren)
        names = tuple(ren[x].name if x in ren else x for x in names)
    return names, subst_expr(body, tsub, vsub)


def _subst_clause(c: Clause, tsub, vsub) -> Clause:
    (selfVar, *params), body = _subst_under(
        (c.selfVar, *c.params), c.body, _restrict(tsub, c.typeParams or ()), vsub)
    return Clause(
        subst_type(c.ntype, tsub),
        c.method,
        c.typeParams,
        selfVar,
        tuple(params),
        body,
        c.mode,
    )


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


def canon_mtype(mt: MethodType) -> MethodType:
    """Rename type parameters positionally; the alpha-equivalence canonical form."""
    return rename_binders(mt, (f"%{i}" for i in range(len(mt.typeParams))))


def alpha_eq_mtype(a: MethodType, b: MethodType) -> bool:
    return canon_mtype(a) == canon_mtype(b)
