"""Pure reduction: method lookup, clause matching, and the seven-rule stepper.

Magic calls and do-expressions not under a try are normal forms here; the
monadic layer (mfj.evaluator) handles them.
"""

from __future__ import annotations

from typing import Optional, Union

from . import faults
from .signatures import SigError, Sigs
from .syntax import (
    DEF, EMPTY_SIG, MGC, STOP,
    Call, Clause, Do, Handler, MethodDef, NominalType, Obj, ObjType, Return,
    Try, Value, erase_type, record, subst, subst_expr,
)


@record
class Magic:
    """The method resolved to a magic declaration, found through the
    receiver's parent ``typeName``: what a raise raises is named after it."""

    typeName: str


# not looked up yet: ``mbody``'s table entry, and ``pure_step``'s ``found``
_UNLOOKED = object()


class AmbiguousLookup(Exception):
    """More than one parent supplies the method; semantically 'undefined'."""


def mbody(sigs: Sigs, v: Value, m: str) -> Optional[Union[MethodDef, Magic]]:
    """Method look-up on a value, as ``mbody`` in Featherweight GJ: the
    ``def`` method itself, an object's own or an inherited one instantiated
    at the receiver's type arguments, else the ``Magic`` it resolves to;
    None encodes 'undefined' (a stuck state).  A look-up above the parents
    is kept in the session's ``sigs.mbodies``."""
    if not isinstance(v, Obj):
        return None
    md = v.method(m)
    if md is not None and md.kind == DEF:
        return md
    key = (v.parents, m)
    r = sigs.mbodies.get(key, _UNLOOKED)
    if r is _UNLOOKED:
        try:
            r = _parents_lookup(sigs, v.parents, m)
        except AmbiguousLookup:
            r = None
        sigs.mbodies[key] = r
    return r


def _parents_lookup(sigs, parents, m, walk=frozenset()):
    """The method ``m`` found above ``parents``, a magic one named after the
    parent it was found through; ``walk`` holds the names of the
    declarations on the way here, so a cyclic hierarchy finds nothing."""
    found = []
    for p in parents:
        r = _nominal_lookup(sigs, p, m, walk)
        if r is not None:
            found.append(Magic(p.name) if isinstance(r, Magic) else r)
    if not found:
        return None
    if len(found) > 1:
        raise AmbiguousLookup(m)
    return found[0]


def _nominal_lookup(sigs, n: NominalType, m: str, walk):
    """``m`` looked up in the declaration ``n`` names, then above it; a
    ``def`` method is instantiated at ``n``'s type arguments by ``subst``,
    under which the method's own type parameters stay bound."""
    if n.name in walk:
        return None
    try:
        decl, sub = sigs.instantiate(n)
    except SigError:
        return None
    for md in decl.methods:
        if md.name != m:
            continue
        if md.kind == DEF:
            return subst_expr(md, sub, {})
        if md.kind == MGC:
            return Magic(n.name)
        break  # abs: fall through to the parents
    return _parents_lookup(
        sigs, tuple(subst(p, sub) for p in decl.parents), m,
        walk | {n.name}
    )


def instance_of(sigs: Sigs, v: Value, n: NominalType) -> bool:
    """Purely syntactic runtime check: erase(v) <= N."""
    if not isinstance(v, Obj):
        return False
    return sigs.sub_type({}, erase_type(v), ObjType((n,), EMPTY_SIG))


def cmatch(sigs: Sigs, recv: Value, m: str, clauses: tuple) -> Optional[Clause]:
    """First clause with the same method name matching the receiver's type."""
    order = reversed(clauses) if faults.ACTIVE.reverse_clause_match else clauses
    for c in order:
        if c.method == m and instance_of(sigs, recv, c.ntype):
            return c
    return None


def invk_subst(body, typeParams, targs, selfVar, recv, params, args):
    tsub = {x: t for (x, _), t in zip(typeParams, targs)} \
        if typeParams and not faults.ACTIVE.skip_invk_type_subst else {}
    vsub = {selfVar: recv, **dict(zip(params, args))}
    return subst_expr(body, tsub, vsub)


def pure_step(sigs: Sigs, e, found=_UNLOOKED) -> Optional[tuple]:
    """One pure-reduction step: (e', rule name), or None when stuck/terminal.

    Rules: invk, try-ret, try-do, catch-continue, catch-stop, fwd, try-ctx;
    the first six take priority over try-ctx.  ``found`` is ``mbody`` of the
    call ``e`` is or ends in under its ``try``s, when the caller has it
    already; invk substitutes into the found method's body, at its
    ``mtype``'s type parameters.
    """
    if isinstance(e, Call):
        r = mbody(sigs, e.recv, e.method) if found is _UNLOOKED else found
        if isinstance(r, MethodDef):
            if len(r.params) != len(e.args):
                return None
            return (
                invk_subst(r.body, r.mtype.typeParams, e.targs, r.selfVar,
                           e.recv, r.params, e.args),
                "invk",
            )
        return None  # magic or undefined: a normal form for pure reduction
    if isinstance(e, (Return, Do)):
        return None
    body, h = e.body, e.handler  # a Try, the last kind
    if isinstance(body, Return):
        return Do(h.finalVar, body, h.finalExpr), "try-ret"
    if isinstance(body, Do):
        inner_handler = Handler(h.clauses, body.var, Try(body.rest, h))
        return Try(body.first, inner_handler), "try-do"
    if isinstance(body, Call):
        if found is _UNLOOKED:
            found = mbody(sigs, body.recv, body.method)
        if isinstance(found, Magic):
            c = cmatch(sigs, body.recv, body.method, h.clauses)
            if c is None:
                return Do(h.finalVar, body, h.finalExpr), "fwd"
            tsub = (
                dict(zip(c.typeParams, body.targs))
                if c.typeParams is not None
                else {}
            )
            vsub = {c.selfVar: body.recv, **dict(zip(c.params, body.args))}
            cbody = subst_expr(c.body, tsub, vsub)
            if c.mode == STOP:
                return cbody, "catch-stop"
            return Do(h.finalVar, cbody, h.finalExpr), "catch-continue"
    inner = pure_step(sigs, body, found)
    if inner is None:
        return None
    e2, rule = inner
    return Try(e2, h), rule
