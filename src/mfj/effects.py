"""Effect simplification, and handler filters with the clause search they
share with the run-time catch rule (``reducer.cmatch``)."""

from __future__ import annotations

from typing import Mapping

from .signatures import SigError, Sigs, UnboundTypeVar, env_key
from .syntax import (
    EMPTY_SIG, MGC, TOP,
    Effect, NominalType, ObjType, Type, TypeVar,
    eff_of, record, subst,
)


class FuelExhausted(SigError):
    pass


# rewrites one simplification may make before it fails
SIMPLIFY_FUEL = 256


def simplify(sigs: Sigs, phi: Mapping[str, Type], eff: Effect) -> Effect:
    """Rewrite ``eff`` until only magic or variable call-effect atoms remain.

    Non-magic atoms T.m[Ts] are replaced by m's declared effect instantiated
    with Ts, recursively.  The rewrite is fuel-bounded; running out is an
    error, not divergence.  Results are memoized in the ``Sigs`` session.
    """
    if eff.top:
        return TOP
    key = (eff, env_key(phi))
    out = sigs.simplify_memo.get(key)
    if out is None:
        out = sigs.simplify_memo[key] = _simplify(sigs, phi, eff)
    return out


def _simplify(sigs, phi, eff) -> Effect:
    # depth first, in the order of each effect's atoms
    fuel, out, work = SIMPLIFY_FUEL, set(), [*eff.atoms][::-1]
    while work:
        atom = work.pop()
        if isinstance(atom.receiver, TypeVar):
            if atom.receiver.name not in phi:
                raise UnboundTypeVar(
                    f"unbound type variable {atom.receiver.name} in effect"
                )
            out.add(atom)
            continue
        kind, mt = sigs.mtype(phi, atom.receiver, atom.method)
        if kind == MGC:
            out.add(atom)
            continue
        if fuel <= 0:
            raise FuelExhausted("effect simplification ran out of fuel")
        fuel -= 1
        sub = {x: t for (x, _), t in zip(mt.typeParams, atom.targs)}
        inner = subst(mt.eff, sub)
        if inner.top:
            return TOP
        work.extend([*inner.atoms][::-1])
    return eff_of(*out)


@record
class ClauseFilter:
    """The static image of one catch clause."""

    ntype: NominalType
    method: str
    typeParams: tuple  # tuple[str, ...]
    effect: Effect


def first_clause(sigs: Sigs, phi: Mapping[str, Type], t: Type, m: str,
                 clauses):
    """The first of ``clauses`` (``Clause``s or ``ClauseFilter``s) for the
    method ``m`` whose nominal type is above ``t``, or None."""
    for c in clauses:
        if c.method == m and sigs.sub_type(phi, t, ObjType((c.ntype,), EMPTY_SIG)):
            return c
    return None


@record
class HandlerFilter:
    """The static image of a handler: clause filters plus the final effect."""

    clauses: tuple  # tuple[ClauseFilter, ...]
    finalEffect: Effect


def apply_filter(
    sigs: Sigs, phi: Mapping[str, Type], H: HandlerFilter, eff: Effect
) -> Effect:
    """F(eff | H): transform caught magic atoms, add the final effect.

    A call-effect atom is rewritten by the FIRST clause filter with the same
    method name and a receiver below the clause's type, yielding the clause's
    effect with the atom's type arguments substituted for the clause's type
    parameters; unmatched atoms pass through.
    """
    out_atoms, out_top = set(), eff.top
    for a in eff.atoms:
        hit = first_clause(sigs, phi, a.receiver, a.method, H.clauses)
        if hit is None:
            out_atoms.add(a)
            continue
        sub = {x: t for x, t in zip(hit.typeParams, a.targs)}
        f = subst(hit.effect, sub)
        out_atoms |= f.atoms
        out_top |= f.top
    out_atoms |= H.finalEffect.atoms
    out_top |= H.finalEffect.top
    return eff_of(*out_atoms, top=out_top)
