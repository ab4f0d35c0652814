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
(free variables, substitution plans, erasure, numeral value, typing shape)
are cached on it the first time they are asked for; ``numeral`` sets the
free variables and the value of each level of a tower as it builds it.
``repr`` keeps its own stack, so a node of any depth has one.
"""

from __future__ import annotations

from functools import cache
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
    out = CLOSED
    for p in pairs:  # mostly CLOSED, and a lone other pair is kept as it is
        if p is not CLOSED and p is not out:
            out = p if out is CLOSED else (out[0] | p[0], out[1] | p[1])
    return out if out[0] or out[1] else CLOSED


def subst(n, tsub: Mapping, vsub: Optional[Mapping] = None):
    """``n[tsub][vsub]``, simultaneously and avoiding capture: a binder that
    would capture a name free in a substituted term is renamed (``_fresh``).
    A node in which neither substitution has a name free is returned itself,
    and so is each such node under ``n``.  Runs ``n``'s plan (``_plan``) for
    the substituted names free in it."""
    return _run(n, tsub, vsub or {}, None)


# the name the reducer and the evaluator call it by
subst_expr = subst


def _run(n, ts, vs, sc):
    """``subst`` with ``sc``, the names free in the terms of ``ts`` and
    ``vs`` (worked out here when None)."""
    fv, ftv = n._free or free(n)
    vk = fv.intersection(vs) if fv and vs else NO_NAMES
    tk = ftv.intersection(ts) if ftv and ts else NO_NAMES
    if not (vk or tk):
        return n
    if sc is None:
        sc = NO_NAMES
        for sub in (ts, vs):
            for w in sub.values():
                f = w._free or free(w)
                if f is not CLOSED:
                    sc = sc.union(*f)
    plans = n._plans
    plan = plans.get((vk, tk)) if plans else None
    return (plan or _plan(n, (vk, tk)))(ts, vs, sc)


def _plan(n, key):
    """``n``'s plan for ``key``, the value and the type names substituted
    and free in ``n``: a function of ``(ts, vs, sc)`` that rebuilds ``n``
    and, calling the plans of their children, only the nodes on a path to
    a free occurrence of a name in ``key``; the others are kept as they
    are.  Built the first time it is asked for, after the children's plans
    it calls, and cached on its node.  Building recurses along the path
    that running recurses along, which leads only to free occurrences and
    never into a closed value, so it costs no more depth than a run."""
    kids = []  # a loop, not a comprehension: one frame a level
    for i, j, form, c, ck in _touched(n, key):
        p = c._plans and c._plans.get(ck) or _plan(c, ck)
        kids.append((i, j, form, p))
    if n._plans is None:
        n.__dict__["_plans"] = {}
    plan = n._plans[key] = _compose(n, key, kids)
    return plan


def _touched(m, key) -> list:
    """``(field index, position, form, child, child key)`` for each child
    of ``m`` in which a name of ``key`` is free and not bound by ``m``."""
    inner = key
    if m._binders:  # the names m binds are not substituted below it
        vb, tb = m._names()
        if not (key[0].isdisjoint(vb) and key[1].isdisjoint(tb)):
            inner = (key[0].difference(vb), key[1].difference(tb))
    out = []
    d = m.__dict__
    for i, f, form, scoped in m._children:
        k = inner if scoped else key
        v, t = k
        if not (v or t):  # m binds every name of key
            continue
        x = d[f]
        for j, c in enumerate((x,) if form == "" else _nodes_of(form, x)):
            fv, ftv = c._free
            if v <= fv and t <= ftv:
                out.append((i, j, form, c, k))
            elif not (v.isdisjoint(fv) and t.isdisjoint(ftv)):
                out.append((i, j, form, c, (v & fv, t & ftv)))
    return out


def _nodes_of(form: str, x) -> tuple:
    """The nodes of a child field of the given form (see ``node``)."""
    if form == "?":
        return () if x is None else (x,)
    if form == "**":
        return [c[-1] for c in x]
    return x


# A plan holds what it was built from as default arguments rather than in
# closure cells, which makes it cheaper to build and to run: many plans are
# built for a node that is substituted once, such as a new ``try`` term.


def _compose(m, key, kids):
    """``m``'s plan for ``key`` from its children's: ``kids`` holds
    ``(field index, position, form, the child's plan)`` for each child
    ``_touched`` names (see ``_plan``)."""
    if not kids:  # a variable
        if isinstance(m, Var):
            return lambda ts, vs, sc, x=m.name: vs[x]
        return lambda ts, vs, sc, x=m.name: ts[x]
    fields = m._values()
    got = []  # (field index, the field's plan)
    seqs = {}  # field index -> its form and [(position, the child's plan)]
    for i, j, form, p in kids:
        if form == "" or form == "?":
            got.append((i, p))
        else:
            seqs.setdefault(i, (form, []))[1].append((j, p))
    for i, (form, plans) in seqs.items():
        x = fields[i]
        if form == "*":
            got.append((i, _seq(x, plans)))
        elif form == "**":
            got.append((i, _seq(x, [(j, _seq(x[j], [(len(x[j]) - 1, p)]))
                                    for j, p in plans])))
        else:
            got.append((i, _seq(tuple(x), plans, lambda *a: frozenset(a))))
    return _seq(fields, got, m.__class__, m if m._binders else None, key)


def _seq(items: tuple, plans: list, make=None, binder=None, key=None):
    """The plan that gives ``items`` with ``items[i]`` replaced by what
    ``p`` gives, for each ``(i, p)`` of ``plans``: as a tuple, or as the
    node ``make(*items)``.  When that node has binders, ``binder`` is the
    node, planned for ``key``, and the plan first asks ``_captured``.  A
    node without binders that rebuilds one field gets a closure of its own,
    which saves about 1.5% of ``wide_nd``; other single-child variants
    measured within 1% of the general ``run``."""
    if len(plans) == 1 and make is not None and binder is None:
        [(i, p)] = plans
        return (lambda ts, vs, sc, f=make, a=items[:i], p=p, b=items[i + 1:]:
                f(*a, p(ts, vs, sc), *b))

    def run(ts, vs, sc, items=items, plans=plans, make=make, m=binder, k=key):
        # only an open substitution can meet a binder: a run's are closed
        if m is not None and sc \
                and (got := _captured(m, k, ts, vs, sc)) is not None:
            return got
        got = list(items)
        for i, p in plans:
            got[i] = p(ts, vs, sc)
        return tuple(got) if make is None else make(*got)
    return run


def _captured(n, key, ts, vs, sc):
    """``n`` substituted for ``key``, when one of its binders would capture
    a name free in the substituted terms: the binder is renamed first
    (``_rename``), and then the renamed node's own plan runs, for ``key``'s
    names only (the others are bound above ``n``).  Else None."""
    if not sc.isdisjoint(NO_NAMES.union(*n._names())):
        ren = _avoid(n, key, ts, vs, sc)
        if ren is not None:
            return _run(_rename(n, ren), {x: ts[x] for x in key[1]},
                        {x: vs[x] for x in key[0]}, sc)
    return None


def _avoid(n, key, ts, vs, sc) -> Optional[tuple]:
    """``(value renaming, type renaming)`` of ``n``'s binders that keeps
    them from capturing a name free in what the substitution of ``key``'s
    names puts under them, or None when they capture none."""
    vb, tb = n._names()
    fv, ftv = _union(map(free, n._kids()[1]))
    cv, ct = _union(map(free, [
        *(vs[k] for k in key[0] if k in fv and k not in vb),
        *(ts[k] for k in key[1] if k in ftv and k not in tb)]))
    if cv.isdisjoint(vb) and ct.isdisjoint(tb):
        return None
    taken = {*sc, *fv, *ftv, *vb, *tb}
    return ({x: _fresh(x, taken) for x in vb if x in cv},
            {x: _fresh(x, taken) for x in tb if x in ct})


def _rename(n, ren):
    """``n`` with its binders renamed by ``ren``, ``(value renaming, type
    renaming)``: in its binder fields, and, run as the substitution of the
    new names for the old, in the fields they scope over."""
    vren, tren = ren
    ts = {x: TypeVar(y) for x, y in tren.items()}
    vs = {x: Var(y) for x, y in vren.items()}
    fields = list(n._values())
    for f, kind in n._binders:
        i, x, r = n._fields.index(f), n.__dict__[f], ren[kind]
        if isinstance(x, str):
            fields[i] = r.get(x, x)
        elif isinstance(x, tuple):  # names, or (name, bound) pairs
            fields[i] = tuple(r.get(y, y) if isinstance(y, str)
                              else (r.get(y[0], y[0]), *y[1:]) for y in x)
        elif x is not None and r:  # the method type whose binders these are
            fields[i] = _rename(x, ({}, r))
    for i, _, form, scoped in n._children:
        x = fields[i]
        if not scoped or x is None:
            continue
        if form == "" or form == "?":
            fields[i] = _run(x, ts, vs, None)
        elif form == "**":
            fields[i] = tuple((*c[:-1], _run(c[-1], ts, vs, None)) for c in x)
        else:  # a tuple or a frozenset of nodes
            fields[i] = type(x)(_run(c, ts, vs, None) for c in x)
    return type(n)(*fields)


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


def record(cls):
    """Make ``cls`` a frozen record of the fields it annotates, in order.

    Builds, except where ``cls`` defines its own: ``__init__`` (a class
    attribute is a field's default), ``__repr__`` as ``Cls(f=...)``, ``==``
    by class and fields, a structural ``__hash__``, and an
    ``__setattr__``/``__delattr__`` that refuse.
    """
    return _build(cls, False)


def node(cls):
    """Make ``cls`` an immutable, hash-consed node: a syntax node, or a
    value the machine builds from them (a frame, a result).

    Each class keeps one table from field tuples (defaults filled in) to
    nodes, so building a node equal to an existing one returns that node:
    ``==`` is ``is``, a hash is an id, and neither ever recurses.  A class
    whose constructor normalises its fields defines ``canon(*args)``,
    returning the field tuple; the table is keyed on its result.  The tables
    hold every distinct node the process builds, for the life of the process.

    A syntax node's (or a frame's) ``shape`` reads ``CHILDREN; VALUE-BINDERS /
    TYPE-BINDERS > SCOPED``.  A child field is ``f`` (a node), ``f?`` (a
    node or None), ``f*`` (a tuple of nodes), ``f**`` (a tuple of tuples
    ending in a node) or ``f{}`` (a frozenset of nodes).  A binder field
    holds a name, a tuple of names (or None), ``(name, bound)`` pairs, or
    the method type whose type parameters it binds; the binders scope over
    the ``SCOPED`` children.  The shape gives ``_kids`` (the children outside
    and inside the binders), ``_names`` (the names bound), and the
    ``_children`` and ``_binders`` that substitution plans are built from.
    """
    return _build(cls, True)


# a child field's form -> its nodes in a list display
_FORMS = {
    "": "{x}, ",
    "?": "*(() if {x} is None else ({x},)), ",
    "*": "*{x}, ",
    "**": "*[c[-1] for c in {x}], ",
    "{}": "*{x}, ",
}


def _traversal(cls, names: tuple, shape: str) -> dict:
    """The source of ``_kids`` and ``_names`` for ``cls``'s ``shape``, whose
    child fields go to ``cls._children`` as ``(index, field, form, scoped)``
    and binder fields to ``cls._binders`` as ``(field, 0 for a value or 1
    for a type binder)``."""
    kids, _, binds = shape.partition(";")
    forms = {k.rstrip("?*{}"): k[len(k.rstrip("?*{}")):] for k in kids.split()}
    vfields, _, rest = binds.partition("/")
    tfields, _, scoped = rest.partition(">")
    vfields, tfields, scoped = vfields.split(), tfields.split(), scoped.split()
    cls._binders = (*((f, 0) for f in vfields), *((f, 1) for f in tfields))
    cls._children = tuple((i, f, forms[f], f in scoped)
                          for i, f in enumerate(names) if f in forms)
    ann = cls.__dict__["__annotations__"]

    def nodes(fs):
        return "[" + "".join(_FORMS[forms[f]].format(x=f"self.{f}")
                             for f in fs) + "]"

    def bound(fs):  # the names that the binder fields ``fs`` hold
        return "(" + "".join(
            f"*[c[0] for c in self.{f}], " if forms.get(f) == "**" else
            f"*self.{f}._names()[1], " if f in forms else
            f"*(self.{f} or ()), " if "tuple" in ann[f] else f"self.{f}, "
            for f in fs) + ")"

    src = {"_kids": "def _kids(self):\n    return "
                    f"{nodes(f for f in forms if f not in scoped)}, "
                    f"{nodes(f for f in forms if f in scoped)}\n"}
    if cls._binders:
        src["_names"] = (f"def _names(self):\n"
                         f"    return {bound(vfields)}, {bound(tfields)}\n")
    return src


def _build(cls, hashcons: bool):
    """Write ``record``'s or ``node``'s methods for ``cls`` in one ``exec``,
    each one unless ``cls`` defines its own."""
    names = tuple(cls.__dict__.get("__annotations__", ()))
    defaults = {n: cls.__dict__[n] for n in names if n in cls.__dict__}
    # the fields' own signature, so that defaults and keywords cost no
    # Python-level work on the hot path
    params = ", ".join(f"{n}=_defaults[{n!r}]" if n in defaults else n
                       for n in names)
    mine = "(" + "".join(f"self.{n}, " for n in names) + ")"
    src = {
        "__setattr__": ("def __setattr__(self, name, value):\n    raise "
                        "AttributeError(f'cannot assign to field {name!r}')\n"),
        "__delattr__": ("def __delattr__(self, name):\n    raise "
                        "AttributeError(f'cannot delete field {name!r}')\n"),
    }
    if hashcons:
        cls._tshape = None  # until ``tshape`` caches it on the node
        if "canon" in cls.__dict__:
            params, key = "*args, **kw", "cls.canon(*args, **kw)"
        else:
            key = mine.replace("self.", "")
        fill = "".join(f"        _set(n, {f!r}, key[{i}])\n"
                       for i, f in enumerate(names))
        src["__new__"] = (f"def __new__(cls, {params}):\n"
                          f"    key = {key}\n"
                          "    n = _table.get(key)\n"
                          "    if n is None:\n"
                          "        n = _table[key] = _new(cls)\n"
                          f"{fill}"
                          "    return n\n")
        if "shape" in cls.__dict__:  # a syntax node: the traversal too
            src.update(_traversal(cls, names, cls.shape))
            src["_values"] = f"def _values(self):\n    return {mine}\n"
            cls._free = None  # until ``free`` caches the pair on the node
            cls._plans = None  # until ``_plan`` caches one on the node
    else:
        src["__init__"] = (f"def __init__(self, {params}):\n"
                           + "".join(f"    _set(self, {n!r}, {n})\n" for n in names))
        src["__eq__"] = ("def __eq__(self, other):\n"
                         "    if other.__class__ is not self.__class__:\n"
                         "        return NotImplemented\n"
                         f"    return {mine} == {mine.replace('self.', 'other.')}\n")
        src["__hash__"] = f"def __hash__(self):\n    return hash({mine})\n"
    src = {k: code for k, code in src.items() if cls.__dict__.get(k) is None}
    ns = {"_table": {}, "_new": object.__new__, "_set": object.__setattr__,
          "_defaults": defaults}
    exec("".join(src.values()), ns)
    for k in src:
        setattr(cls, k, ns[k])
    if "__repr__" not in cls.__dict__:
        cls.__repr__ = _repr
    cls._fields = names
    return cls


_LEAVES = frozenset((str, int, bool, type(None)))  # shown at once


def _repr(x) -> str:
    """``Cls(f=..., ...)`` for a record or node ``x``, each field shown with
    ``repr``, from one loop over an explicit stack, so that a term of any
    depth costs no Python recursion.  A string on the stack is output; any
    other entry is a value still to show, and a leaf (a string, a number,
    None or ``()``) is shown as soon as it is met.  An effect shows its
    atoms in ``sorted_atoms`` order."""
    out, todo = [], [x]
    while todo:
        v = todo.pop()
        cls = v.__class__
        names = None
        if cls is str:
            out.append(v)
            continue
        if cls is Effect:
            head, items, tail = "Effect(atoms={", sorted_atoms(v), \
                f"}}, top={v.top})"
        elif cls is tuple:
            head, items, tail = "(", v, ",)" if len(v) == 1 else ")"
        elif cls.__repr__ is _repr:
            head, tail, names = f"{cls.__qualname__}(", ")", cls._fields
            items = [getattr(v, f) for f in names]
        else:
            out.append(repr(v))
            continue
        got, text = [], head
        for i, y in enumerate(items):
            if i:
                text += ", "
            if names:
                text += f"{names[i]}="
            if y.__class__ in _LEAVES or y == ():
                text += repr(y)
            else:
                got += (text, y)
                text = ""
        got.append(text + tail)
        todo += reversed(got)
    return "".join(out)


# one key per parent, cached: a hash-consed parent is its own cache key
@cache
def _parent_key(p) -> tuple:
    """A parent's place in a parent set: by name, then printed arguments."""
    return p.name, repr(p.args)


def _canon_parents(parents) -> tuple:
    """A parent set in one order, ``_parent_key``'s."""
    parents = tuple(parents)
    if len(parents) < 2:
        return parents
    return tuple(sorted(set(parents), key=_parent_key))


# ---------------------------------------------------------------------------
# Types and effects
# ---------------------------------------------------------------------------


class Type:
    """Base class for types."""


@node
class TypeVar(Type):
    name: str
    shape = ""


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


def sorted_atoms(e: Effect):
    """``e``'s atoms in the order of their ``repr``, so that the first one
    shown or reported does not depend on string hashing.  Most effects have
    at most one atom, which needs no ``repr``."""
    return sorted(e.atoms, key=_repr) if len(e.atoms) > 1 else e.atoms


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
        methods = tuple(methods)
        if len(methods) > 1:
            methods = tuple(sorted(methods, key=lambda m: m.name))
        return _canon_parents(parents), methods

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


def erase_type(v: Obj) -> ObjType:
    """The dynamic type of an object: same parents, bodies dropped.

    No well-formedness check happens here; the extracted type may violate
    constraints.
    """
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
    return _rename(mt, ({}, ren)) if ren else mt


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


# ---------------------------------------------------------------------------
# Numerals
# ---------------------------------------------------------------------------


_ZERO = (NominalType("Zero"),)
_SUCC = (NominalType("Succ"),)
_PRED_T = MethodType((), (), nominal("Nat"), PURE)
_TOWER = [Obj(_ZERO)]  # numeral(k) is _TOWER[k]
object.__setattr__(_TOWER[0], "_free", CLOSED)
object.__setattr__(_TOWER[0], "_numeral", 0)


def numeral(n: int) -> Obj:
    """The n-hat encoding, built exactly the way ``Nat.succ`` builds values.

    The levels built so far are kept, in order, in one list, so a numeral
    already built is read by its index and a larger one is built only above
    the top.  Each level's new nodes are marked closed, and the level with
    its value, as they are built, so that neither ``free`` nor
    ``numeral_value`` walks a tower built here."""
    if n < 0:
        raise ValueError(f"no numeral for {n}")
    mark = object.__setattr__
    while len(_TOWER) <= n:
        r = Return(_TOWER[-1])
        md = MethodDef("pred", DEF, _PRED_T, "_", (), r)
        v = Obj(_SUCC, (md,))
        mark(r, "_free", CLOSED)
        mark(md, "_free", CLOSED)
        mark(v, "_free", CLOSED)
        mark(v, "_numeral", len(_TOWER))
        _TOWER.append(v)
    return _TOWER[n]


def numeral_value(v: Value) -> Optional[int]:
    """Inverse of ``numeral`` where it applies, else None.

    The answer is cached on every level of the object, the way
    ``erase_type`` caches ``_erased``, so a walk stops at the first level
    already classified.
    """
    path = []  # the unclassified Succ levels above v, outermost first
    while isinstance(v, Obj) and "_numeral" not in v.__dict__:
        md = v.methods[0] if len(v.methods) == 1 else None
        if (
            v.parents == _SUCC and md is not None and md.name == "pred"
            and md.kind == DEF and not md.params and md.selfVar == "_"
            and md.mtype == _PRED_T and isinstance(md.body, Return)
        ):
            path.append(v)
            v = md.body.value
        else:
            zero = v.parents == _ZERO and not v.methods
            object.__setattr__(v, "_numeral", 0 if zero else None)
    n = v.__dict__["_numeral"] if isinstance(v, Obj) else None
    for w in reversed(path):
        n = None if n is None else n + 1
        object.__setattr__(w, "_numeral", n)
    return n


# ---------------------------------------------------------------------------
# Typing shapes
# ---------------------------------------------------------------------------


COLLAPSED = numeral(3)  # the one tower that stands for every tower above 2
TYPES = (Type, NominalType, MethodType, Sig, EffCall, Effect)  # hold no values


def tshape(n):
    """``n``, a term or frame chain, with every tower above 2 ``COLLAPSED``.

    Every such tower types as ``numeral(2)`` does, and a closed value enters
    a typing only through its type, so ``n`` and its shape type alike: the
    checker keys its memos on the shape.  One pass with an explicit stack
    that skips types; the result is cached on ``n`` and on every term and
    frame under it, the way ``free`` caches its pair."""
    got = n._tshape
    if got is not None:
        return got
    todo = [n]
    while n._tshape is None:
        m = todo[-1]
        if isinstance(m, Obj) and (k := numeral_value(m)) is not None:
            todo.pop()
            object.__setattr__(m, "_tshape", COLLAPSED if k > 2 else m)
            continue
        inner, scoped = m._kids()
        fresh = [c for c in (*inner, *scoped)
                 if c._tshape is None and not isinstance(c, TYPES)]
        if fresh:
            todo += fresh
            continue
        todo.pop()
        fields, moved = list(m._values()), False
        for i, _, form, _ in m._children:
            x = fields[i]
            if form == "*":  # the only forms that terms have: types are kept
                y = tuple(c._tshape or c for c in x)
            elif x is not None:
                y = x._tshape or x
            else:
                continue
            if y != x:  # nodes compare by identity, and so their tuples
                fields[i], moved = y, True
        if m._tshape is None:  # a node reached twice is shaped once
            object.__setattr__(m, "_tshape", type(m)(*fields) if moved else m)
    return n._tshape
