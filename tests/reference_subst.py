"""The reference substitution: the one ``mfj.syntax`` had before it ran
substitution plans, written as one plain recursive function with a case per
node class.  ``tests/test_syntax.py`` requires ``syntax.subst`` to give the
very node this gives, fresh binder names included.

It enters only the children in which a substituted name is free, and it
renames a binder that would capture a name free in a substituted term to the
first of ``x'1``, ``x'2``, ... that is free nowhere near it.
"""

from mfj.syntax import (
    Call, Clause, Do, EffCall, Effect, Handler, MethodDef, MethodType,
    NominalType, Obj, ObjType, Return, Sig, Try, TypeDecl, TypeVar, Var, free,
)

NONE = frozenset()


def reference_subst(n, ts, vs=None):
    """``n[ts][vs]``, simultaneously and avoiding capture."""
    vs = vs or {}
    if not ts and not vs:
        return n
    sc = NONE.union(*(names for w in (*ts.values(), *vs.values())
                      for names in free(w)))
    return _s(n, ts, vs, sc)


def _s(n, ts, vs, sc):
    """The substitution below the root; ``sc`` holds the names free in the
    substituted terms."""
    fv, ftv = free(n)
    if fv.isdisjoint(vs) and ftv.isdisjoint(ts):
        return n
    return _sub(n, ts, vs, sc)


def _sub(n, ts, vs, sc, ren=None):
    """``n``, in which a substituted name is free, substituted; a node with
    binders has them renamed by ``ren`` when it is given."""
    def s(c):
        return _s(c, ts, vs, sc)

    def each(cs):
        return tuple(s(c) for c in cs)

    if isinstance(n, TypeVar):
        return ts[n.name]
    if isinstance(n, Var):
        return vs[n.name]
    if isinstance(n, NominalType):
        return NominalType(n.name, each(n.args))
    if isinstance(n, ObjType):
        return ObjType(each(n.parents), s(n.sig))
    if isinstance(n, EffCall):
        return EffCall(s(n.receiver), n.method, each(n.targs))
    if isinstance(n, Effect):
        return Effect(frozenset(each(n.atoms)), n.top)
    if isinstance(n, Sig):
        return Sig(tuple((m, k, s(mt)) for m, k, mt in n.entries))
    if isinstance(n, Obj):
        return Obj(each(n.parents), each(n.methods))
    if isinstance(n, Call):
        return Call(s(n.recv), n.method, each(n.targs), each(n.args))
    if isinstance(n, Return):
        return Return(s(n.value))
    if isinstance(n, Try):
        return Try(s(n.body), s(n.handler))
    if isinstance(n, MethodType):
        tb = tuple(x for x, _ in n.typeParams)
        vr, tr, s1 = _scope((), tb, [*(b for _, b in n.typeParams),
                                     *n.paramTypes, n.ret, n.eff],
                            ts, vs, sc, ren)
        return MethodType(
            tuple((tr.get(x, x), s1(b)) for x, b in n.typeParams),
            tuple(s1(p) for p in n.paramTypes), s1(n.ret), s1(n.eff))
    if isinstance(n, MethodDef):
        vb = (n.selfVar, *n.params)
        tb = tuple(x for x, _ in n.mtype.typeParams)
        body = () if n.body is None else (n.body,)
        vr, tr, s1 = _scope(vb, tb, [n.mtype, *body], ts, vs, sc, ren)
        mt = _sub(n.mtype, {}, {}, NONE, ({}, tr)) if tr else n.mtype
        return MethodDef(n.name, n.kind, s1(mt), vr.get(n.selfVar, n.selfVar),
                         tuple(vr.get(p, p) for p in n.params),
                         None if n.body is None else s1(n.body))
    if isinstance(n, Do):
        vr, tr, s1 = _scope((n.var,), (), [n.rest], ts, vs, sc, ren)
        return Do(vr.get(n.var, n.var), s(n.first), s1(n.rest))
    if isinstance(n, Clause):
        vb = (n.selfVar, *n.params)
        tb = n.typeParams or ()
        vr, tr, s1 = _scope(vb, tb, [n.body], ts, vs, sc, ren)
        return Clause(s(n.ntype), n.method,
                      None if n.typeParams is None
                      else tuple(tr.get(x, x) for x in n.typeParams),
                      vr.get(n.selfVar, n.selfVar),
                      tuple(vr.get(p, p) for p in n.params), s1(n.body),
                      n.mode)
    if isinstance(n, Handler):
        vr, tr, s1 = _scope((n.finalVar,), (), [n.finalExpr], ts, vs, sc, ren)
        return Handler(each(n.clauses), vr.get(n.finalVar, n.finalVar),
                       s1(n.finalExpr))
    if isinstance(n, TypeDecl):
        tb = tuple(x for x, _ in n.typeParams)
        vr, tr, s1 = _scope((), tb, [*(b for _, b in n.typeParams),
                                     *n.parents, *n.methods],
                            ts, vs, sc, ren)
        return TypeDecl(n.name,
                        tuple((tr.get(x, x), s1(b)) for x, b in n.typeParams),
                        tuple(s1(p) for p in n.parents),
                        tuple(s1(m) for m in n.methods))
    raise TypeError(f"not a syntax node: {n!r}")


def _scope(vb, tb, scoped, ts, vs, sc, ren):
    """``(value renaming, type renaming, s1)`` for the binders ``vb`` and
    ``tb`` over the nodes ``scoped``: ``ren`` when given, else the renaming
    that keeps them from capturing a name free in what is put under them;
    ``s1`` substitutes in what they scope over."""
    if ren is None:
        ren = ({}, {})
        if sc and not (sc.isdisjoint(vb) and sc.isdisjoint(tb)):
            ren = _avoid(vb, tb, scoped, ts, vs, sc) or ren
    vr, tr = ren
    ts1 = {k: t for k, t in ts.items() if k not in tb}
    ts1.update((x, TypeVar(y)) for x, y in tr.items())
    vs1 = {k: v for k, v in vs.items() if k not in vb}
    vs1.update((x, Var(y)) for x, y in vr.items())
    sc1 = sc.union(vr.values(), tr.values())
    return vr, tr, lambda c: _s(c, ts1, vs1, sc1)


def _avoid(vb, tb, scoped, ts, vs, sc):
    """The renaming of the binders that would capture, or None."""
    fv = NONE.union(*(free(c)[0] for c in scoped))
    ftv = NONE.union(*(free(c)[1] for c in scoped))
    put = [*(w for k, w in vs.items() if k in fv and k not in vb),
           *(t for k, t in ts.items() if k in ftv and k not in tb)]
    cv = NONE.union(*(free(w)[0] for w in put))
    ct = NONE.union(*(free(w)[1] for w in put))
    if cv.isdisjoint(vb) and ct.isdisjoint(tb):
        return None
    taken = {*sc, *fv, *ftv, *vb, *tb}
    return ({x: _fresh(x, taken) for x in vb if x in cv},
            {x: _fresh(x, taken) for x in tb if x in ct})


def _fresh(x, taken):
    base, k = x.split("'")[0], 1
    while f"{base}'{k}" in taken:
        k += 1
    taken.add(f"{base}'{k}")
    return f"{base}'{k}"
