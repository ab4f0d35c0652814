"""Signature extraction, signature sums, subtyping and well-formedness.

A ``Sigs`` instance is a per-program checking session: it owns the memo tables
for extraction and subtyping.  Sessions are cheap; build a fresh one per run
(this also keeps fault injection from poisoning caches).
"""

from __future__ import annotations

from typing import Mapping

from . import faults
from .syntax import (
    ABS, DEF, MGC,
    EffCall, Effect, MethodType, NominalType, ObjType, Program, Sig, Type,
    TypeVar, alpha_eq_mtype, eff_of, rename_binders, subst_mtype, subst_type,
)


class SigError(Exception):
    """Base class for extraction/subtyping/well-formedness failures."""


class ConflictError(SigError):
    pass


class OverrideError(SigError):
    pass


class UnknownType(SigError):
    pass


class BoundViolation(SigError):
    pass


class NoSuchMethod(SigError):
    pass


class UnboundTypeVar(SigError):
    pass


class NotMagic(SigError):
    pass


class CyclicInheritance(SigError):
    pass


class ArityMismatch(SigError):
    pass


def _env_key(phi: Mapping[str, Type]) -> tuple:
    return tuple(sorted(phi.items(), key=lambda kv: kv[0]))


def sym_sum(s1: Sig, s2: Sig) -> Sig:
    """Symmetric sum of two signatures (how parents are combined).

    Defined only when shared names carry alpha-equal method types and neither
    side is magic; the kind table is abs+abs = def+def = abs, abs+def = def.
    """
    out = {n: (k, mt) for n, k, mt in s1}
    for n, k2, mt2 in s2:
        if n not in out:
            out[n] = (k2, mt2)
            continue
        k1, mt1 = out[n]
        if k1 == MGC or k2 == MGC:
            raise ConflictError(f"magic method {n!r} inherited more than once")
        if not alpha_eq_mtype(mt1, mt2):
            raise ConflictError(f"conflicting inherited types for method {n!r}")
        if faults.ACTIVE.flip_symsum_kinds:
            # seeded bug: the kind table upside down
            kind = DEF if k1 == k2 else ABS
        else:
            kind = ABS if k1 == k2 else DEF
        out[n] = (kind, mt1)
    return Sig((n, k, mt) for n, (k, mt) in out.items())


class Sigs:
    """Signature/subtyping context bound to one program."""

    def __init__(self, program: Program):
        self.program = program
        self._decl_sig: dict = {}
        self._decl_busy: set = set()
        self._nominal_sig: dict = {}
        self._supers: dict = {}
        self._ancestors: dict = {}
        self._sub_memo: dict = {}

    # -- extraction ---------------------------------------------------------

    def decl_sig(self, name: str) -> Sig:
        """The signature of declaration ``name`` under its own type params."""
        if name in self._decl_sig:
            return self._decl_sig[name]
        if name in self._decl_busy:
            raise CyclicInheritance(f"cyclic inheritance through {name!r}")
        decl = self.program.decl(name)
        if decl is None:
            raise UnknownType(f"unknown type {name!r}")
        self._decl_busy.add(name)
        try:
            own = Sig((m.name, m.kind, m.mtype) for m in decl.methods)
            sig = self.sig_of_type(dict(decl.typeParams), ObjType(decl.parents, own))
        finally:
            self._decl_busy.discard(name)
        self._decl_sig[name] = sig
        return sig

    def sig_of_nominal(self, n: NominalType) -> Sig:
        """Signature of an instantiated nominal type ``N[T...]``."""
        cached = self._nominal_sig.get(n)
        if cached is not None:
            return cached
        decl = self.program.decl(n.name)
        if decl is None:
            raise UnknownType(f"unknown type {n.name!r}")
        if len(n.args) != len(decl.typeParams):
            raise ArityMismatch(
                f"{n.name} expects {len(decl.typeParams)} type arguments, "
                f"got {len(n.args)}"
            )
        sig = self.decl_sig(n.name)
        if n.args:
            sub = {x: t for (x, _), t in zip(decl.typeParams, n.args)}
            sig = Sig((m, k, subst_mtype(mt, sub)) for m, k, mt in sig)
        self._nominal_sig[n] = sig
        return sig

    def sig_of_type(self, phi: Mapping[str, Type], t: Type) -> Sig:
        """typeof: the full signature of a type."""
        if isinstance(t, TypeVar):
            bound = phi.get(t.name)
            if bound is None:
                raise UnboundTypeVar(f"unbound type variable {t.name}")
            return self.sig_of_type(phi, bound)
        if isinstance(t, ObjType):
            combined = Sig(())
            for p in t.parents:
                combined = sym_sum(combined, self.sig_of_nominal(p))
            return self.override_sum(phi, combined, t.sig)
        raise UnknownType(f"not a type: {t!r}")

    def mtype(self, phi: Mapping[str, Type], t: Type, m: str):
        """(kind, MethodType) of ``m`` in ``t``; NoSuchMethod if absent."""
        entry = self.sig_of_type(phi, t).get(m)
        if entry is None:
            raise NoSuchMethod(f"no method {m!r} in {t!r}")
        return entry

    def override_sum(self, phi: Mapping[str, Type], s1: Sig, s2: Sig) -> Sig:
        """Right-preferential sum: ``s2`` overrides ``s1`` where both defined."""
        out = {n: (k, mt) for n, k, mt in s1}
        for n, k2, mt2 in s2:
            if n in out:
                k1, mt1 = out[n]
                self._check_override(phi, n, k1, mt1, k2, mt2)
            out[n] = (k2, mt2)
        return Sig((n, k, mt) for n, (k, mt) in out.items())

    def _check_override(self, phi, name, k1, mt1, k2, mt2):
        if (k1 == MGC) != (k2 == MGC):
            raise OverrideError(
                f"method {name!r}: a magic method may only override "
                f"(and be overridden by) a magic method"
            )
        if k2 == ABS and k1 != ABS:
            raise OverrideError(
                f"method {name!r}: an abstract method may only override "
                f"an abstract method"
            )
        if len(mt1.typeParams) != len(mt2.typeParams):
            raise OverrideError(f"method {name!r}: type-parameter arity differs")
        # align mt2's binders with mt1's names
        mt2 = rename_binders(mt2, (x for x, _ in mt1.typeParams))
        if mt2.typeParams != mt1.typeParams:
            raise OverrideError(f"method {name!r}: type-parameter bounds differ")
        if mt2.paramTypes != mt1.paramTypes:
            raise OverrideError(f"method {name!r}: parameter types differ")
        phi2 = dict(phi)
        phi2.update(mt1.typeParams)
        if k1 == MGC and k2 == MGC:
            if mt2.ret != mt1.ret:
                raise OverrideError(
                    f"method {name!r}: magic overrides must keep the return type"
                )
            return
        if not (self.sub_type(phi2, mt2.ret, mt1.ret)
                and self.sub_eff(phi2, mt2.eff, mt1.eff)):
            raise OverrideError(
                f"method {name!r}: overriding type-and-effect is not a subtype "
                f"of the declared one"
            )

    # -- subtyping ------------------------------------------------------------

    def ancestors(self, name: str) -> frozenset:
        """Names reachable from ``name`` along declared parent edges
        (inclusive), ignoring type arguments; undeclared names are leaves."""
        cached = self._ancestors.get(name)
        if cached is None:
            # a whole worklist per root, memoized only when complete, so the
            # closure stays exact on cyclic (unchecked) hierarchies
            seen, work = set(), [name]
            while work:
                n = work.pop()
                if n not in seen:
                    seen.add(n)
                    decl = self.program.decl(n)
                    if decl is not None:
                        work.extend(p.name for p in decl.parents)
            cached = self._ancestors[name] = frozenset(seen)
        return cached

    def nominal_supers(self, n: NominalType) -> frozenset:
        """Transitive closure of parent edges starting at ``n`` (inclusive)."""
        cached = self._supers.get(n)
        if cached is not None:
            return cached
        decl = self.program.decl(n.name)
        if decl is None:
            raise UnknownType(f"unknown type {n.name!r}")
        out = {n}
        self._supers[n] = frozenset(out)  # cycle guard; real value stored below
        sub = {x: t for (x, _), t in zip(decl.typeParams, n.args)}
        for p in decl.parents:
            out |= self.nominal_supers(subst_type(p, sub))
        result = frozenset(out)
        self._supers[n] = result
        return result

    def sub_type(self, phi: Mapping[str, Type], a, b) -> bool:
        """Subtyping between two types (see also sub_eff/sub_mtype/sub_sig)."""
        if a == b:
            return True
        key = (_env_key(phi), a, b)
        hit = self._sub_memo.get(key)
        if hit is not None:
            return hit
        self._sub_memo[key] = False  # cycle-safe default
        result = self._sub_type(phi, a, b)
        self._sub_memo[key] = result
        return result

    def _sub_type(self, phi, a, b) -> bool:
        if isinstance(a, TypeVar):
            bound = phi.get(a.name)
            return bound is not None and self.sub_type(phi, bound, b)
        if isinstance(b, TypeVar):
            return False
        if isinstance(a, ObjType) and isinstance(b, ObjType):
            supers = set()
            try:
                for p in a.parents:
                    supers |= self.nominal_supers(p)
            except UnknownType:
                return False
            if not all(q in supers for q in b.parents):
                return False
            return self.sub_sig(phi, a.sig, b.sig)
        return False

    def sub_sig(self, phi, s: Sig, s2: Sig) -> bool:
        """s <= s2: wider signature, pointwise subtyped entries."""
        for n, k2, mt2 in s2:
            entry = s.get(n)
            if entry is None:
                return False
            k1, mt1 = entry
            if not _kind_leq(k1, k2):
                return False
            if not self.sub_mtype(phi, mt1, mt2):
                return False
        return True

    def sub_mtype(self, phi, mt1: MethodType, mt2: MethodType) -> bool:
        """Same binders/bounds/parameters up to alpha; covariant result."""
        if len(mt1.typeParams) != len(mt2.typeParams):
            return False
        mt2 = rename_binders(mt2, (x for x, _ in mt1.typeParams))
        if mt2.typeParams != mt1.typeParams or mt2.paramTypes != mt1.paramTypes:
            return False
        phi2 = dict(phi)
        phi2.update(mt1.typeParams)
        return (self.sub_type(phi2, mt1.ret, mt2.ret)
                and self.sub_eff(phi2, mt1.eff, mt2.eff))

    def is_mgc(self, phi, t: Type, m: str) -> bool:
        try:
            kind, _ = self.mtype(phi, t, m)
        except SigError:
            return False
        return kind == MGC

    def sub_eff(self, phi, a: Effect, b: Effect, _depth: int = 0) -> bool:
        """Subeffecting on normal forms plus sub-mgc-call and sub-var-call."""
        if b.top:
            return True
        if a.top:
            return False
        return all(self._atom_leq(phi, x, b, _depth) for x in a.atoms)

    def _atom_leq(self, phi, x: EffCall, b: Effect, depth: int) -> bool:
        if x in b.atoms:
            return True
        for y in b.atoms:
            if y.method != x.method or len(y.targs) != len(x.targs):
                continue
            # sub-mgc-call: refine a magic call-effect covariantly
            if (
                self.is_mgc(phi, x.receiver, x.method)
                and self.is_mgc(phi, y.receiver, y.method)
                and self.sub_type(phi, x.receiver, y.receiver)
                and all(self.sub_type(phi, s, t) for s, t in zip(x.targs, y.targs))
            ):
                return True
        # sub-var-call: replace a variable receiver by its upper bound
        if isinstance(x.receiver, TypeVar) and depth < 16:
            bound = phi.get(x.receiver.name)
            if bound is not None:
                from .effects import simplify

                try:
                    expanded = simplify(
                        self, phi, eff_of(EffCall(bound, x.method, x.targs))
                    )
                except SigError:
                    return False
                if expanded != eff_of(x):
                    return self.sub_eff(phi, expanded, b, depth + 1)
        return False

    # -- well-formedness --------------------------------------------------------

    def wf_check(self, phi: Mapping[str, Type], x) -> None:
        """Raise a SigError when ``x`` is ill-formed under ``phi``."""
        if isinstance(x, TypeVar):
            if x.name not in phi:
                raise UnboundTypeVar(f"unbound type variable {x.name}")
            return
        if isinstance(x, NominalType):
            self._wf_ntype(phi, x)
            return
        if isinstance(x, ObjType):
            for p in x.parents:
                self._wf_ntype(phi, p)
            self.sig_of_type(phi, x)  # extraction must succeed
            self.wf_check(phi, x.sig)
            return
        if isinstance(x, Sig):
            for _, _, mt in x:
                self.wf_check(phi, mt)
            return
        if isinstance(x, MethodType):
            phi2 = dict(phi)
            for xv, bound in x.typeParams:
                self.wf_check(phi2, bound)
                phi2[xv] = bound
            for p in x.paramTypes:
                self.wf_check(phi2, p)
            self.wf_check(phi2, x.ret)
            self.wf_check(phi2, x.eff)
            return
        if isinstance(x, Effect):
            # sorted, so the atom reported first does not depend on hashing
            for a in sorted(x.atoms, key=repr):
                self._wf_call(phi, a)
            return
        raise TypeError(f"cannot well-formedness-check {x!r}")

    def _wf_ntype(self, phi, n: NominalType) -> None:
        decl = self.program.decl(n.name)
        if decl is None:
            raise UnknownType(f"unknown type {n.name!r}")
        if len(n.args) != len(decl.typeParams):
            raise ArityMismatch(
                f"{n.name} expects {len(decl.typeParams)} type arguments, "
                f"got {len(n.args)}"
            )
        for a in n.args:
            self.wf_check(phi, a)
        sub = {x: t for (x, _), t in zip(decl.typeParams, n.args)}
        for a, (_, bound) in zip(n.args, decl.typeParams):
            if not self.sub_type(phi, a, subst_type(bound, sub)):
                raise BoundViolation(
                    f"type argument {a!r} violates the bound of {n.name}"
                )

    def _wf_call(self, phi, atom: EffCall) -> None:
        self.wf_check(phi, atom.receiver)
        for t in atom.targs:
            self.wf_check(phi, t)
        if isinstance(atom.receiver, TypeVar):
            # variable call-effect: the method only has to exist in the bound
            bound = phi[atom.receiver.name]
            if self.sig_of_type(phi, bound).get(atom.method) is None:
                raise NoSuchMethod(
                    f"no method {atom.method!r} in the bound of {atom.receiver.name}"
                )
            return
        kind, mt = self.mtype(phi, atom.receiver, atom.method)
        if kind != MGC:
            raise NotMagic(
                f"{atom.method!r} is not a magic method of the call-effect receiver"
            )
        if len(atom.targs) != len(mt.typeParams):
            raise ArityMismatch(
                f"call-effect {atom.method!r} expects {len(mt.typeParams)} "
                f"type arguments"
            )
        sub = {x: t for (x, _), t in zip(mt.typeParams, atom.targs)}
        for t, (_, bound) in zip(atom.targs, mt.typeParams):
            if not self.sub_type(phi, t, subst_type(bound, sub)):
                raise BoundViolation(
                    f"call-effect type argument {t!r} violates its bound"
                )


def _kind_leq(k1: str, k2: str) -> bool:
    """Kind order: def <= abs; mgc relates only to mgc."""
    if k1 == k2:
        return True
    return k1 == DEF and k2 == ABS
