"""The reference free names: one plain recursive function with a case per
node class, which caches nothing.  ``tests/test_syntax.py`` requires
``syntax.free``, which caches its answer on each node and finds it on the
levels that ``syntax.numeral`` marks closed as it builds them, to give what
this gives.
"""

from mfj.syntax import (
    Call, Clause, Do, EffCall, Effect, Handler, MethodDef, MethodType,
    NominalType, Obj, ObjType, Return, Sig, Try, TypeDecl, TypeVar, Var,
)

NONE = frozenset()


def reference_free(n) -> tuple:
    """``(fv, ftv)``: the free value and the free type variables of ``n``."""
    if isinstance(n, Var):
        return frozenset([n.name]), NONE
    if isinstance(n, TypeVar):
        return NONE, frozenset([n.name])
    if isinstance(n, NominalType):
        return _all(n.args)
    if isinstance(n, ObjType):
        return _all([*n.parents, n.sig])
    if isinstance(n, EffCall):
        return _all([n.receiver, *n.targs])
    if isinstance(n, Effect):
        return _all(n.atoms)
    if isinstance(n, Sig):
        return _all(mt for _, _, mt in n.entries)
    if isinstance(n, MethodType):
        return _bind(_all([*(b for _, b in n.typeParams), *n.paramTypes,
                           n.ret, n.eff]),
                     (), (x for x, _ in n.typeParams))
    if isinstance(n, MethodDef):
        body = () if n.body is None else (n.body,)
        return _bind(_all([n.mtype, *body]), (n.selfVar, *n.params),
                     (x for x, _ in n.mtype.typeParams))
    if isinstance(n, Obj):
        return _all([*n.parents, *n.methods])
    if isinstance(n, Call):
        return _all([n.recv, *n.targs, *n.args])
    if isinstance(n, Return):
        return reference_free(n.value)
    if isinstance(n, Do):
        return _union([reference_free(n.first),
                       _bind(reference_free(n.rest), (n.var,), ())])
    if isinstance(n, Clause):
        return _union([reference_free(n.ntype),
                       _bind(reference_free(n.body), (n.selfVar, *n.params),
                             n.typeParams or ())])
    if isinstance(n, Handler):
        return _union([*map(reference_free, n.clauses),
                       _bind(reference_free(n.finalExpr), (n.finalVar,), ())])
    if isinstance(n, Try):
        return _all([n.body, n.handler])
    if isinstance(n, TypeDecl):
        return _bind(_all([*(b for _, b in n.typeParams), *n.parents,
                           *n.methods]),
                     (), (x for x, _ in n.typeParams))
    raise TypeError(f"not a syntax node: {n!r}")


def _all(nodes) -> tuple:
    """The free names of all of ``nodes``."""
    return _union([reference_free(c) for c in nodes])


def _union(pairs: list) -> tuple:
    """The union of ``(fv, ftv)`` pairs."""
    return (NONE.union(*(fv for fv, _ in pairs)),
            NONE.union(*(ftv for _, ftv in pairs)))


def _bind(pair, vb, tb) -> tuple:
    """``pair`` without the value names ``vb`` and the type names ``tb``."""
    return pair[0].difference(vb), pair[1].difference(tb)
