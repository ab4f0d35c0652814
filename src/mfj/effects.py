"""Effect simplification and handler filters."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .signatures import SigError, Sigs, UnboundTypeVar
from .syntax import (
    MGC, TOP,
    EffCall, Effect, NominalType, ObjType, Sig, Type, TypeVar,
    eff_of, subst_eff,
)


class FuelExhausted(SigError):
    pass


def simplify(sigs: Sigs, phi: Mapping[str, Type], eff: Effect, fuel: int = 256) -> Effect:
    """Rewrite ``eff`` until only magic or variable call-effect atoms remain.

    Non-magic atoms T.m[Ts] are replaced by m's declared effect instantiated
    with Ts, recursively.  The rewrite is fuel-bounded; running out is an
    error, not divergence.
    """
    if eff.top:
        return TOP
    budget = [fuel]
    out: set = set()
    out_top = [False]

    def go(atom: EffCall) -> None:
        if out_top[0]:
            return
        if isinstance(atom.receiver, TypeVar):
            if atom.receiver.name not in phi:
                raise UnboundTypeVar(
                    f"unbound type variable {atom.receiver.name} in effect"
                )
            out.add(atom)
            return
        kind, mt = sigs.mtype(phi, atom.receiver, atom.method)
        if kind == MGC:
            out.add(atom)
            return
        if budget[0] <= 0:
            raise FuelExhausted("effect simplification ran out of fuel")
        budget[0] -= 1
        sub = {x: t for (x, _), t in zip(mt.typeParams, atom.targs)}
        inner = subst_eff(mt.eff, sub)
        if inner.top:
            out_top[0] = True
            return
        for a in inner.atoms:
            go(a)

    for a in eff.atoms:
        go(a)
    return eff_of(*out, top=out_top[0])


@dataclass(frozen=True)
class ClauseFilter:
    """The static image of one catch clause."""

    ntype: NominalType
    method: str
    typeParams: tuple  # tuple[str, ...]
    bounds: tuple  # tuple[Type, ...]
    effect: Effect
    mode: str


@dataclass(frozen=True)
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
        hit = None
        for cf in H.clauses:
            if cf.method == a.method and sigs.sub_type(
                phi, a.receiver, ObjType((cf.ntype,), Sig(()))
            ):
                hit = cf
                break
        if hit is None:
            out_atoms.add(a)
            continue
        sub = {x: t for x, t in zip(hit.typeParams, a.targs)}
        f = subst_eff(hit.effect, sub)
        out_atoms |= f.atoms
        out_top |= f.top
    out_atoms |= H.finalEffect.atoms
    out_top |= H.finalEffect.top
    return eff_of(*out_atoms, top=out_top)
