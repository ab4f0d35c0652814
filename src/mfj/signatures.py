"""Signature extraction, signature sums, subtyping and well-formedness.

A ``Sigs`` instance is a per-program checking session: it owns the memo tables
for extraction and subtyping.  Sessions are cheap; build a fresh one per run
(this also keeps fault injection from poisoning caches).
"""

from __future__ import annotations

from typing import Mapping

from . import faults
from .syntax import (
    ABS, DEF, EMPTY_SIG, MGC,
    EffCall, Effect, MethodType, NominalType, ObjType, Program, Sig, Type,
    TypeVar, align_binders, alpha_eq_mtype, eff_of, sorted_atoms, subst,
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


def env_key(phi: Mapping[str, Type]) -> tuple:
    if not phi:
        return ()
    return tuple(sorted(phi.items(), key=lambda kv: kv[0]))


def sym_sum(s1: Sig, s2: Sig) -> Sig:
    """Symmetric sum of two signatures (how parents are combined).

    Defined only when shared names carry alpha-equal method types and neither
    side is magic; the kind table is abs+abs = def+def = abs, abs+def = def.
    Every ``s2`` is an extracted signature, so its names are distinct and
    the empty sum gives it back as it is.
    """
    if not s1.entries:
        return s2
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
        self._binds: dict = {}  # (binders, type arguments) -> self._bind
        self._supers: dict = {}
        self._sub_memo: dict = {}
        # successes only, so a failing lookup raises again on every call
        self._sig_memo: dict = {}  # (type, env key) -> Sig
        self._sig_busy: set = set()  # the keys of the signatures being built
        self._wf_memo: set = set()  # (node, env key) found well-formed
        self.simplify_memo: dict = {}  # (effect, env key) -> effects.simplify
        self.mbodies: dict = {}  # (parents, method) -> reducer.mbody

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

    def _bind(self, what: str, params: tuple, targs: tuple) -> tuple:
        """``(sub, bounds)``: the substitution of ``targs`` for the binders
        ``params`` of ``what``, and the binders' bounds under it."""
        hit = self._binds.get((params, targs))
        if hit is None:
            if len(targs) != len(params):
                raise ArityMismatch(f"{what} expects {len(params)} type "
                                    f"arguments, got {len(targs)}")
            sub = {x: t for (x, _), t in zip(params, targs)}
            hit = self._binds[params, targs] = (
                sub, tuple(subst(b, sub) for _, b in params))
        return hit

    def instantiate(self, n: NominalType) -> tuple:
        """``(decl, sub)``: the declaration of ``N[T...]`` and the
        substitution of the type arguments for its type parameters."""
        decl = self.program.decl(n.name)
        if decl is None:
            raise UnknownType(f"unknown type {n.name!r}")
        return decl, self._bind(n.name, decl.typeParams, n.args)[0]

    def check_targs(self, phi, what: str, params: tuple, targs: tuple) -> dict:
        """The substitution of ``targs`` for the binders ``params`` of
        ``what``, once their count (ArityMismatch), then their bounds
        (BoundViolation), are checked."""
        sub, bounds = self._bind(what, params, targs)
        for t, bound in zip(targs, bounds):
            if not self.sub_type(phi, t, bound):
                raise BoundViolation(
                    f"type argument {t!r} of {what} violates its bound")
        return sub

    def sig_of_nominal(self, n: NominalType) -> Sig:
        """Signature of an instantiated nominal type ``N[T...]``, not kept:
        ``sig_of_type`` keeps that of each type with ``N`` among its parents."""
        _, sub = self.instantiate(n)
        sig = self.decl_sig(n.name)
        return Sig((m, k, subst(mt, sub)) for m, k, mt in sig) if sub else sig

    def sig_of_type(self, phi: Mapping[str, Type], t: Type) -> Sig:
        """typeof: the full signature of a type."""
        key = (t, env_key(phi))
        sig = self._sig_memo.get(key)
        if sig is None:
            # a bound's signature can ask for itself, through an override's
            # effect that simplifies by looking the bound's methods up
            if key in self._sig_busy:
                raise CyclicInheritance(f"the signature of {t!r} depends "
                                        "on itself")
            self._sig_busy.add(key)
            try:
                sig = self._sig_memo[key] = self._sig_of_type(phi, t)
            finally:
                self._sig_busy.discard(key)
        return sig

    def _sig_of_type(self, phi, t) -> Sig:
        if isinstance(t, TypeVar):
            bound = phi.get(t.name)
            if bound is None:
                raise UnboundTypeVar(f"unbound type variable {t.name}")
            return self.sig_of_type(phi, bound)
        combined = EMPTY_SIG  # an ObjType, the other kind of type
        for p in t.parents:
            combined = sym_sum(combined, self.sig_of_nominal(p))
        return self.override_sum(phi, combined, t.sig)

    def mtype(self, phi: Mapping[str, Type], t: Type, m: str):
        """(kind, MethodType) of ``m`` in ``t``; NoSuchMethod if absent."""
        entry = self.sig_of_type(phi, t).get(m)
        if entry is None:
            raise NoSuchMethod(f"no method {m!r} in {t!r}")
        return entry

    def override_sum(self, phi: Mapping[str, Type], s1: Sig, s2: Sig) -> Sig:
        """Right-preferential sum: ``s2`` overrides ``s1`` where both defined.

        ``s1`` is a sum of extracted signatures, so an empty ``s2`` gives it
        back as it is.  ``s2`` is a signature as written, and the loop reports
        a name it declares twice, so an empty ``s1`` still runs the loop."""
        if not s2.entries:
            return s1
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
        mt1, mt2, phi2 = self._align(phi, name, mt1, mt2)
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

    @staticmethod
    def _align(phi, name, mt1, mt2) -> tuple:
        """``(mt1, mt2, phi2)``: both method types over one list of binders,
        opened against ``phi`` and ``mt2``'s free variables and bound in
        ``phi2``; OverrideError unless arity, bounds and parameters agree."""
        aligned = align_binders(mt1, mt2, phi)
        if aligned is None:
            raise OverrideError(f"method {name!r}: type-parameter arity differs")
        mt1, mt2 = aligned
        if mt2.typeParams != mt1.typeParams:
            raise OverrideError(f"method {name!r}: type-parameter bounds differ")
        if mt2.paramTypes != mt1.paramTypes:
            raise OverrideError(f"method {name!r}: parameter types differ")
        phi2 = dict(phi)
        phi2.update(mt1.typeParams)
        return mt1, mt2, phi2

    # -- subtyping ------------------------------------------------------------

    def nominal_supers(self, n: NominalType) -> frozenset:
        """Transitive closure of parent edges starting at ``n`` (inclusive)."""
        cached = self._supers.get(n)
        if cached is not None:
            return cached
        decl, sub = self.instantiate(n)
        out = {n}
        self._supers[n] = frozenset(out)  # cycle guard; real value stored below
        try:
            for p in decl.parents:
                out |= self.nominal_supers(subst(p, sub))
        except SigError:  # no answer: the guard must not stand for one
            del self._supers[n]
            raise
        result = frozenset(out)
        self._supers[n] = result
        return result

    def sub_type(self, phi: Mapping[str, Type], a, b) -> bool:
        """Subtyping between two types (see also sub_eff/sub_mtype/sub_sig)."""
        if a == b:
            return True
        key = (env_key(phi), a, b)
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
        supers = set()  # both are ObjTypes, the one other kind of type
        try:
            for p in a.parents:
                supers |= self.nominal_supers(p)
        except SigError:
            return False
        if not all(q in supers for q in b.parents):
            return False
        return self.sub_sig(phi, a.sig, b.sig)

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
        try:
            mt1, mt2, phi2 = self._align(phi, "", mt1, mt2)
        except OverrideError:
            return False
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
        if a is b or b.top:
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
        """Raise a SigError when ``x`` is ill-formed under ``phi``.  A check
        that passes is remembered, so a node shared by many declarations is
        checked once per environment; one that fails raises again."""
        key = (x, env_key(phi))
        if key not in self._wf_memo:
            self._wf_check(phi, x)
            self._wf_memo.add(key)

    def _wf_check(self, phi, x) -> None:
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
        for a in sorted_atoms(x):  # an Effect, the last kind checked
            self._wf_call(phi, a)

    def _wf_ntype(self, phi, n: NominalType) -> None:
        decl, _ = self.instantiate(n)
        for a in n.args:
            self.wf_check(phi, a)
        self.check_targs(phi, n.name, decl.typeParams, n.args)

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
        self.check_targs(phi, f"call-effect {atom.method!r}", mt.typeParams,
                         atom.targs)


def _kind_leq(k1: str, k2: str) -> bool:
    """Kind order: def <= abs; mgc relates only to mgc."""
    if k1 == k2:
        return True
    return k1 == DEF and k2 == ABS
