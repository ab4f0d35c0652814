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
Free variables (``free``) and capture-avoiding substitution (``subst``) are
built on the ``shape`` each node class declares.  Facts derived from a node
(free variables, erasure, numeral value) are cached on it the first time
they are asked for.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Optional

ABS = "abs"
DEF = "def"
MGC = "mgc"

CONTINUE = "continue"
STOP = "stop"


# ---------------------------------------------------------------------------
# Free variables and substitution, over each class's shape
# ---------------------------------------------------------------------------


NO_NAMES = frozenset()
CLOSED = (NO_NAMES, NO_NAMES)  # the free names of every closed node


def free(n) -> tuple:
    """``(fv, ftv)``: the free value and the free type variables of ``n``.

    One pass with an explicit stack, so a term of any depth costs no Python
    recursion; the pair is cached on ``n`` and on every node under it."""
    got = n._free
    if got is not None:
        return got
    todo = [n]
    while n._free is None:
        m = todo[-1]
        inner, scoped = m._kids()
        fresh = [k for k in (*inner, *scoped) if k._free is None]
        if fresh:
            todo += fresh
            continue
        todo.pop()
        pairs = [k._free for k in inner]
        if scoped:
            vb, tb = m._names()
            pairs += [(k._free[0].difference(vb), k._free[1].difference(tb))
                      for k in scoped]
        if isinstance(m, Var):
            pairs = [(frozenset([m.name]), NO_NAMES)]
        elif isinstance(m, TypeVar):
            pairs = [(NO_NAMES, frozenset([m.name]))]
        # a node reached twice, through shared nodes, keeps its first pair
        m.__dict__.setdefault("_free", _union(pairs))
    return n._free


def _union(pairs) -> tuple:
    """The union of ``(fv, ftv)`` pairs; ``CLOSED`` when it is empty."""
    fv, ftv = (NO_NAMES.union(*names) for names in zip(CLOSED, *pairs))
    return (fv, ftv) if fv or ftv else CLOSED


def restrict(sub: Mapping, bound: tuple) -> Mapping:
    """``sub`` less the names ``bound``; ``sub`` itself when it has none."""
    for x in bound:
        if x in sub:
            return {k: v for k, v in sub.items() if k not in bound}
    return sub


def subst(n, tsub: Mapping, vsub: Optional[Mapping] = None):
    """``n[tsub][vsub]``, simultaneously and avoiding capture: a binder that
    would capture a name free in a substituted term is renamed (``_fresh``).
    A node in which neither substitution has a name free is returned itself,
    and so is each such node under ``n``."""
    if not tsub and not vsub:
        return n
    vsub = vsub or {}
    sc = NO_NAMES  # the names free in a substituted term
    for w in (*tsub.values(), *vsub.values()):
        if free(w) is not CLOSED:
            sc = sc.union(*free(w))
    return _s(n, tsub, vsub, sc)


# the name the reducer and the evaluator call it by
subst_expr = subst


def _s(n, ts, vs, sc):
    """``subst`` below the root; ``sc`` holds the names free in the terms
    of ``ts`` and ``vs``."""
    f = n._free or free(n)
    if f is CLOSED or ((not vs or f[0].isdisjoint(vs))
                       and (not ts or f[1].isdisjoint(ts))):
        return n
    return n._sub(ts, vs, sc)


def _enter(n, ts, vs, sc, ren) -> tuple:
    """``(binder fields, ts, vs, sc)`` for substituting into ``n``: its
    binder fields, renamed by ``ren``, or where they would capture a name
    in ``sc``, and the substitution for the fields they scope over."""
    vb, tb = n._names()
    if ren is None and sc and not (sc.isdisjoint(vb) and sc.isdisjoint(tb)):
        ren = _avoid(n, ts, vs, sc, vb, tb)
    ts, vs = restrict(ts, tb), restrict(vs, vb)
    fields = [getattr(n, f) for f, _ in n._binders]
    if ren is None:
        return fields, ts, vs, sc
    for i, ((_, kind), x) in enumerate(zip(n._binders, fields)):
        r = ren[kind]
        if isinstance(x, str):
            fields[i] = r.get(x, x)
        elif isinstance(x, tuple):  # names, or (name, bound) pairs
            fields[i] = tuple(r.get(y, y) if isinstance(y, str)
                              else (r.get(y[0], y[0]), *y[1:]) for y in x)
        elif x is not None and r:  # the method type whose binders these are
            fields[i] = x._sub({}, {}, NO_NAMES, ({}, r))
    vren, tren = ren
    return (fields, {**ts, **{x: TypeVar(y) for x, y in tren.items()}},
            {**vs, **{x: Var(y) for x, y in vren.items()}},
            sc.union(vren.values(), tren.values()))


def _avoid(n, ts, vs, sc, vb, tb) -> Optional[tuple]:
    """``(value renaming, type renaming)`` of ``n``'s binders ``vb`` and
    ``tb`` that keeps them from capturing a name free in what ``ts`` and
    ``vs`` put under them, or None when they capture none."""
    fv, ftv = _union(map(free, n._kids()[1]))
    cv, ct = _union(map(free, [
        *(w for k, w in vs.items() if k in fv and k not in vb),
        *(t for k, t in ts.items() if k in ftv and k not in tb)]))
    if cv.isdisjoint(vb) and ct.isdisjoint(tb):
        return None
    taken = {*sc, *fv, *ftv, *vb, *tb}
    return ({x: _fresh(x, taken) for x in vb if x in cv},
            {x: _fresh(x, taken) for x in tb if x in ct})


def _fresh(x: str, taken: set) -> str:
    """The first of ``x'1``, ``x'2``, ... not ``taken``, which now takes it:
    every binder that is renamed is named here.  No identifier has a ``'``,
    so it never meets a user's name."""
    base, k = x.split("'")[0], 1
    while f"{base}'{k}" in taken:
        k += 1
    taken.add(f"{base}'{k}")
    return f"{base}'{k}"


# ---------------------------------------------------------------------------
# Records and nodes
# ---------------------------------------------------------------------------


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
    """Make ``cls`` an immutable, hash-consed node: a syntax node, or a
    value the machine builds from them (a frame, a result).

    Each class keeps one table from field tuples (defaults filled in) to
    nodes, so building a node equal to an existing one returns that node:
    ``==`` is ``is``, a hash is an id, and neither ever recurses.  A class
    whose constructor normalises its fields defines ``canon(*args)``,
    returning the field tuple; the table is keyed on its result.  The tables
    hold every distinct node the process builds, for the life of the process.

    A syntax node's ``shape`` reads ``CHILDREN; VALUE-BINDERS /
    TYPE-BINDERS > SCOPED``.  A child field is ``f`` (a node), ``f?`` (a
    node or None), ``f*`` (a tuple of nodes), ``f**`` (a tuple of tuples
    ending in a node) or ``f{}`` (a frozenset of nodes).  A binder field
    holds a name, a tuple of names (or None), ``(name, bound)`` pairs, or
    the method type whose type parameters it binds; the binders scope over
    the ``SCOPED`` children.  The shape gives ``_kids`` (the children outside
    and inside the binders), ``_names`` (the names bound) and ``_sub``.
    """
    return _build(cls, True, True)


# a child field's form -> (its nodes in a list display, the field substituted)
_FORMS = {
    "": ("{x}, ", "_s({x}, {s})"),
    "?": ("*(() if {x} is None else ({x},)), ",
          "None if {x} is None else _s({x}, {s})"),
    "*": ("*{x}, ", "tuple([_s(c, {s}) for c in {x}])"),
    "**": ("*[c[-1] for c in {x}], ",
           "tuple([(*c[:-1], _s(c[-1], {s})) for c in {x}])"),
    "{}": ("*{x}, ", "frozenset([_s(c, {s}) for c in {x}])"),
}


def _traversal(cls, names: tuple, shape: str) -> dict:
    """The source of ``_kids``, ``_names`` and ``_sub`` for ``cls``'s
    ``shape``, whose binder fields go to ``cls._binders``.  ``_sub`` builds
    the node from locals named after them, which ``_enter`` may rename."""
    kids, _, binds = shape.partition(";")
    forms = {k.rstrip("?*{}"): k[len(k.rstrip("?*{}")):] for k in kids.split()}
    vfields, _, rest = binds.partition("/")
    tfields, _, scoped = rest.partition(">")
    vfields, tfields, scoped = vfields.split(), tfields.split(), scoped.split()
    binders = (*vfields, *tfields)
    cls._binders = (*((f, 0) for f in vfields), *((f, 1) for f in tfields))
    ann = cls.__dict__["__annotations__"]

    def nodes(fs):
        return "[" + "".join(_FORMS[forms[f]][0].format(x=f"self.{f}")
                             for f in fs) + "]"

    def bound(fs):  # the names that the binder fields ``fs`` hold
        return "(" + "".join(
            f"*[c[0] for c in self.{f}], " if forms.get(f) == "**" else
            f"*self.{f}._names()[1], " if f in forms else
            f"*(self.{f} or ()), " if "tuple" in ann[f] else f"self.{f}, "
            for f in fs) + ")"

    def field(f):
        x = f if f in binders else f"self.{f}"
        if f not in forms:
            return x
        s = "ts1, vs1, sc1" if f in scoped else "ts, vs, sc"
        return _FORMS[forms[f]][1].format(x=x, s=s)

    src = {"_kids": "def _kids(self):\n    return "
                    f"{nodes(f for f in forms if f not in scoped)}, "
                    f"{nodes(f for f in forms if f in scoped)}\n"}
    built = f"    return _cls({', '.join(field(f) for f in names)})\n"
    if not binders:
        src["_sub"] = "def _sub(self, ts, vs, sc):\n" + built
        return src
    src["_names"] = (f"def _names(self):\n"
                     f"    return {bound(vfields)}, {bound(tfields)}\n")
    src["_sub"] = ("def _sub(self, ts, vs, sc, ren=None):\n"
                   f"    ({', '.join(binders)},), ts1, vs1, sc1 = "
                   "_enter(self, ts, vs, sc, ren)\n" + built)
    return src


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
                          "        n.__dict__.update(zip(_order, key))\n"
                          "    return n\n")
        if "shape" in cls.__dict__:  # a syntax node: the traversal too
            src.update(_traversal(cls, names, cls.shape))
            cls._free = None  # until ``free`` caches the pair on the node
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
          "_order": names, "_defaults": defaults, "_cls": cls, "_s": _s,
          "_enter": _enter}
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
    shape = ""

    def _sub(self, ts, vs, sc):
        return ts[self.name]


@node
class NominalType:
    """An instantiated type name ``N[T...]``; lives in parent lists."""

    name: str
    args: tuple = ()
    shape = "args*"


@node
class ObjType(Type):
    """``[N1,...,Nk]{s}`` — parents are a set, sig maps method names."""

    parents: tuple  # tuple[NominalType, ...] in ``_canon_parents`` order
    sig: "Sig"
    shape = "parents* sig"

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
    shape = "receiver targs*"


@node
class Effect:
    """An effect in normal form: ``top``, or the union of its call-effect
    ``atoms`` (``pure`` when there are none).  Build effects with ``eff_of``."""

    atoms: frozenset  # frozenset[EffCall], empty when top
    top: bool = False
    shape = "atoms{}"

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
    shape = ("typeParams** paramTypes* ret eff; "
             "/ typeParams > typeParams paramTypes ret eff")


@node
class Sig:
    """A signature: method name -> (kind, MethodType), order-insensitive."""

    entries: tuple  # tuple[(name, kind, MethodType), ...] sorted by name
    shape = "entries**"

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
    shape = ""

    def _sub(self, ts, vs, sc):
        return vs[self.name]


@node
class MethodDef:
    """A method inside an object literal or type declaration."""

    name: str
    kind: str  # ABS | DEF | MGC
    mtype: MethodType
    selfVar: Optional[str] = None
    params: tuple = ()
    body: Optional[Expr] = None
    shape = "mtype body?; selfVar params / mtype > mtype body"


@node
class Obj(Value):
    """An object ``[N...]{md...}``; parents a set, methods keyed by name."""

    parents: tuple  # tuple[NominalType, ...] in ``_canon_parents`` order
    methods: tuple  # tuple[MethodDef, ...] sorted by name
    shape = "parents* methods*"

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
    shape = "recv targs* args*"


@node
class Return(Expr):
    value: Value
    shape = "value"


@node
class Do(Expr):
    var: str
    first: Expr
    rest: Expr
    shape = "first rest; var / > rest"


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
    shape = "ntype body; selfVar params / typeParams > body"


@node
class Handler:
    clauses: tuple  # tuple[Clause, ...]
    finalVar: str
    finalExpr: Expr
    shape = "clauses* finalExpr; finalVar / > finalExpr"


@node
class Try(Expr):
    body: Expr
    handler: Handler
    shape = "body handler"


# ---------------------------------------------------------------------------
# Declarations and programs
# ---------------------------------------------------------------------------


@node
class TypeDecl:
    name: str
    typeParams: tuple  # tuple[(str, Type), ...]
    parents: tuple  # tuple[NominalType, ...]
    methods: tuple  # tuple[MethodDef, ...] in source order
    shape = ("typeParams** parents* methods*; "
             "/ typeParams > typeParams parents methods")


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


def open_binders(mt: MethodType, names: Iterable[str], scope) -> MethodType:
    """``mt`` with its type parameters renamed, in order, to ``names``; a
    name in ``scope`` (the type variables the result meets: an enclosing
    environment's, or those free in the other side) becomes the ``_fresh``
    one not in scope, not free in ``mt`` and not another binder's."""
    names = list(names)
    if any(n in scope for n in names):
        taken = {*scope, *names, *free(mt)[1]}
        names = [_fresh(n, taken) if n in scope else n for n in names]
    ren = {x: n for (x, _), n in zip(mt.typeParams, names) if x != n}
    return mt._sub({}, {}, NO_NAMES, ({}, ren)) if ren else mt


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
    a = open_binders(a, names, {*scope, *free(b)[1]})
    return a, open_binders(b, (x for x, _ in a.typeParams), ())


def alpha_eq_mtype(a: MethodType, b: MethodType) -> bool:
    aligned = align_binders(a, b)
    return aligned is not None and aligned[0] == aligned[1]
