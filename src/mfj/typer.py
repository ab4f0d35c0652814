"""The type-and-effect system: values, expressions, handlers, declarations.

A ``Checker`` is a per-program session (it owns a ``Sigs`` context and memo
tables keyed on a term plus the environment restricted to its free names).  All judgments are syntax-directed functions; there
is no subsumption rule, so subtype checks happen exactly where the rules put
side conditions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from . import faults
from .effects import ClauseFilter, HandlerFilter, apply_filter, simplify
from .signatures import SigError, Sigs
from .syntax import (
    ABS, CONTINUE, DEF, MGC, OBJECT, PURE, STOP,
    Call, Clause, Do, EffCall, Effect, Handler, MethodType, NominalType,
    ObjType, Program, Return, Sig, Try, Type, TypeVar, Value, Var,
    eff_of, eff_union, ftv_expr, ftv_value, fv_expr, fv_value, rename_binders,
    subst_type,
)


@dataclass(frozen=True)
class Diagnostic:
    code: str
    rule: str
    msg: str

    def __str__(self):
        return f"[{self.code}/{self.rule}] {self.msg}"


class TypecheckError(Exception):
    def __init__(self, code: str, rule: str, msg: str):
        super().__init__(f"[{code}/{rule}] {msg}")
        self.code, self.rule, self.msg = code, rule, msg

    def diagnostic(self) -> Diagnostic:
        return Diagnostic(self.code, self.rule, self.msg)


def _sig_error(e: SigError, rule: str) -> TypecheckError:
    return TypecheckError(type(e).__name__, rule, str(e))


class Checker:
    def __init__(self, program: Program):
        self.program = program
        self.sigs = Sigs(program)
        self._val_memo: dict = {}
        self._expr_memo: dict = {}

    # -- values ----------------------------------------------------------------

    @staticmethod
    def _memo_key(phi, gamma, term, fvs, ftvs):
        # typing depends only on the bindings for the term's free names
        return (term,
                tuple(sorted((x, gamma[x]) for x in fvs if x in gamma)),
                tuple(sorted((a, phi[a]) for a in ftvs if a in phi)))

    def type_value(self, phi: Mapping[str, Type], gamma: Mapping[str, Type],
                   v: Value) -> Type:
        key = self._memo_key(phi, gamma, v, fv_value(v), ftv_value(v))
        hit = self._val_memo.get(key)
        if hit is not None:
            return hit
        t = self._type_value(phi, gamma, v)
        self._val_memo[key] = t
        return t

    def _type_value(self, phi, gamma, v) -> Type:
        if isinstance(v, Var):
            t = gamma.get(v.name)
            if t is None:
                raise TypecheckError("UnboundVar", "t-var",
                                     f"unbound variable {v.name}")
            return t
        own = Sig((m.name, m.kind, m.mtype) for m in v.methods)
        for _, k, _ in own:
            if k == MGC:
                raise TypecheckError(
                    "MgcInObject", "t-obj",
                    "objects cannot declare magic methods")
        t = ObjType(v.parents, own)
        try:
            full = self.sigs.sig_of_type(phi, t)
        except SigError as e:
            raise _sig_error(e, "t-obj")
        for n, k, _ in full:
            if k == ABS:
                raise TypecheckError(
                    "UnimplementedMethod", "t-obj",
                    f"object leaves method {n!r} abstract")
        for md in v.methods:
            if md.kind != DEF:
                continue
            mt = md.mtype
            phi2 = dict(phi)
            phi2.update(mt.typeParams)
            gamma2 = dict(gamma)
            gamma2[md.selfVar] = t
            gamma2.update(zip(md.params, mt.paramTypes))
            bt, beff = self.type_expr(phi2, gamma2, md.body)
            self._check_body_fits(phi2, md.name, bt, beff, mt, "t-obj")
        return t

    def _check_body_fits(self, phi, name, bt, beff, mt: MethodType, rule: str):
        try:
            declared_eff = simplify(self.sigs, phi, mt.eff)
        except SigError as e:
            raise _sig_error(e, rule)
        if not self.sigs.sub_type(phi, bt, mt.ret):
            raise TypecheckError(
                "BodyTypeMismatch", rule,
                f"body of {name!r} has type {bt!r}, not a subtype of the "
                f"declared {mt.ret!r}")
        if not self.sigs.sub_eff(phi, beff, declared_eff):
            raise TypecheckError(
                "BodyEffectMismatch", rule,
                f"body of {name!r} has effect {beff!r}, not below the "
                f"declared {mt.eff!r}")

    # -- expressions ------------------------------------------------------------

    def type_expr(self, phi: Mapping[str, Type], gamma: Mapping[str, Type],
                  e) -> tuple:
        """(Type, Effect) of an expression; the effect comes out simplified."""
        key = self._memo_key(phi, gamma, e, fv_expr(e), ftv_expr(e))
        hit = self._expr_memo.get(key)
        if hit is not None:
            return hit
        r = self._type_expr(phi, gamma, e)
        self._expr_memo[key] = r
        return r

    def _type_expr(self, phi, gamma, e) -> tuple:
        if isinstance(e, Return):
            return self.type_value(phi, gamma, e.value), PURE
        if isinstance(e, Call):
            return self._type_call(phi, gamma, e)
        if isinstance(e, Do):
            t1, f1 = self.type_expr(phi, gamma, e.first)
            gamma2 = dict(gamma)
            gamma2[e.var] = t1
            t2, f2 = self.type_expr(phi, gamma2, e.rest)
            return t2, eff_union(f1, f2)
        if isinstance(e, Try):
            bt, beff = self.type_expr(phi, gamma, e.body)
            t2, H = self.type_handler(phi, gamma, bt, e.handler)
            if faults.ACTIVE.filter_before_simplify:
                # seeded bug: filter the raw effect, then simplify
                raw = self._raw_effect(phi, gamma, e.body)
                try:
                    eff = simplify(self.sigs, phi,
                                   apply_filter(self.sigs, phi, H, raw))
                except SigError as err:
                    raise _sig_error(err, "t-try")
            else:
                eff = apply_filter(self.sigs, phi, H, beff)
            return t2, eff
        raise TypecheckError("NotAnExpr", "t-expr", f"not an expression: {e!r}")

    def _type_call(self, phi, gamma, e: Call) -> tuple:
        t0 = self.type_value(phi, gamma, e.recv)
        try:
            kind, mt = self.sigs.mtype(phi, t0, e.method)
        except SigError as err:
            raise _sig_error(err, "t-invk")
        if len(e.targs) != len(mt.typeParams):
            raise TypecheckError(
                "ArityMismatch", "t-invk",
                f"{e.method!r} expects {len(mt.typeParams)} type arguments, "
                f"got {len(e.targs)}")
        if len(e.args) != len(mt.paramTypes):
            raise TypecheckError(
                "ArityMismatch", "t-invk",
                f"{e.method!r} expects {len(mt.paramTypes)} arguments, "
                f"got {len(e.args)}")
        sub = {x: t for (x, _), t in zip(mt.typeParams, e.targs)}
        for targ, (_, bound) in zip(e.targs, mt.typeParams):
            if not self.sigs.sub_type(phi, targ, subst_type(bound, sub)):
                raise TypecheckError(
                    "BoundViolation", "t-invk",
                    f"type argument {targ!r} of {e.method!r} violates its bound")
        for arg, pt in zip(e.args, mt.paramTypes):
            at = self.type_value(phi, gamma, arg)
            if not self.sigs.sub_type(phi, at, subst_type(pt, sub)):
                raise TypecheckError(
                    "ArgTypeMismatch", "t-invk",
                    f"argument {arg!r} of {e.method!r} has type {at!r}, "
                    f"expected a subtype of {subst_type(pt, sub)!r}")
        try:
            eff = simplify(self.sigs, phi, eff_of(EffCall(t0, e.method, e.targs)))
        except SigError as err:
            raise _sig_error(err, "t-invk")
        return subst_type(mt.ret, sub), eff

    def _raw_effect(self, phi, gamma, e) -> Effect:
        """The body effect before simplification (fault-injection path only)."""
        if isinstance(e, Return):
            return PURE
        if isinstance(e, Call):
            t0 = self.type_value(phi, gamma, e.recv)
            return eff_of(EffCall(t0, e.method, e.targs))
        if isinstance(e, Do):
            t1, _ = self.type_expr(phi, gamma, e.first)
            gamma2 = dict(gamma)
            gamma2[e.var] = t1
            return eff_union(self._raw_effect(phi, gamma, e.first),
                             self._raw_effect(phi, gamma2, e.rest))
        if isinstance(e, Try):
            return self._raw_effect(phi, gamma, e.body)
        return PURE

    # -- handlers ----------------------------------------------------------------

    def type_handler(self, phi, gamma, body_type: Type, h: Handler) -> tuple:
        """(handler result type, HandlerFilter)."""
        gamma_f = dict(gamma)
        gamma_f[h.finalVar] = body_type
        t_final, eff_final = self.type_expr(phi, gamma_f, h.finalExpr)

        typed = []
        for c in h.clauses:
            typed.append(self._type_clause(phi, gamma, c))

        # the handler's result type T'': the final expression's type, unless a
        # stop clause forces a join among declared nominals
        t2 = t_final
        stop_types = [tb for (c, _, _, _, tb, _, _) in typed if c.mode == STOP]
        if not all(self.sigs.sub_type(phi, tb, t2) for tb in stop_types):
            t2 = self._join(phi, [t_final, *stop_types])
        for c, names, bounds, ret_t, tb, beff, phi2 in typed:
            if c.mode == CONTINUE:
                if not self.sigs.sub_type(phi2, tb, ret_t):
                    raise TypecheckError(
                        "ClauseTypeMismatch", "t-continue",
                        f"continue-clause body for {c.method!r} has type "
                        f"{tb!r}, not a subtype of the magic result {ret_t!r}")
            else:
                if not self.sigs.sub_type(phi2, tb, t2):
                    raise TypecheckError(
                        "ClauseTypeMismatch", "t-stop",
                        f"stop-clause body for {c.method!r} has type {tb!r}, "
                        f"not a subtype of the handler type {t2!r}")
        filters = tuple(
            ClauseFilter(c.ntype, c.method, tuple(names), tuple(bounds), beff, c.mode)
            for c, names, bounds, _, _, beff, _ in typed
        )
        return t2, HandlerFilter(filters, eff_final)

    def _type_clause(self, phi, gamma, c: Clause):
        ntype_t = ObjType((c.ntype,), Sig(()))
        try:
            self.sigs.wf_check(phi, c.ntype)
            kind, mt = self.sigs.mtype(phi, ntype_t, c.method)
        except SigError as err:
            raise _sig_error(err, "t-handler")
        if kind != MGC:
            raise TypecheckError(
                "NotMagicClause", "t-handler",
                f"clause names non-magic method {c.method!r}")
        if c.typeParams is None:
            names = [x for x, _ in mt.typeParams]
        else:
            if len(c.typeParams) != len(mt.typeParams):
                raise TypecheckError(
                    "ArityMismatch", "t-handler",
                    f"clause for {c.method!r} binds {len(c.typeParams)} type "
                    f"parameters, the method has {len(mt.typeParams)}")
            names = list(c.typeParams)
        mt = rename_binders(mt, names)
        bounds = [b for _, b in mt.typeParams]
        phi2 = dict(phi)
        phi2.update(mt.typeParams)
        if len(c.params) != len(mt.paramTypes):
            raise TypecheckError(
                "ArityMismatch", "t-handler",
                f"clause for {c.method!r} binds {len(c.params)} parameters, "
                f"the method has {len(mt.paramTypes)}")
        gamma2 = dict(gamma)
        gamma2[c.selfVar] = ntype_t
        gamma2.update(zip(c.params, mt.paramTypes))
        tb, beff = self.type_expr(phi2, gamma2, c.body)
        return c, names, bounds, mt.ret, tb, beff, phi2

    def _join(self, phi, types) -> Type:
        candidates = []
        for decl in self.program.decls:
            if decl.typeParams:
                continue
            n = ObjType((NominalType(decl.name),), Sig(()))
            if all(self.sigs.sub_type(phi, t, n) for t in types):
                candidates.append(n)
        # prefer a candidate below every other candidate; otherwise any works
        chosen = None
        for c in candidates:
            if all(self.sigs.sub_type(phi, c, d) for d in candidates):
                chosen = c
                break
        if chosen is None and candidates:
            chosen = candidates[0]
        # Object is above every type, so a join always exists
        return chosen if chosen is not None else OBJECT

    # -- programs -----------------------------------------------------------------

    def check_program(self) -> list:
        """All diagnostics for the program; empty list means well-typed."""
        diags: list = []
        for decl in self.program.decls:
            try:
                self.sigs.decl_sig(decl.name)
            except SigError as e:
                diags.append(_sig_error(e, "t-ntype").diagnostic())
                continue
            phi = dict(decl.typeParams)
            try:
                for _, bound in decl.typeParams:
                    self.sigs.wf_check(phi, bound)
                for p in decl.parents:
                    self.sigs.wf_check(phi, p)
                for md in decl.methods:
                    self.sigs.wf_check(phi, md.mtype)
            except SigError as e:
                diags.append(_sig_error(e, "t-ntype").diagnostic())
                continue
            self_t = ObjType(
                (NominalType(decl.name,
                             tuple(TypeVar(x) for x, _ in decl.typeParams)),),
                Sig(()),
            )
            for md in decl.methods:
                if md.kind != DEF:
                    continue
                mt = md.mtype
                phi2 = dict(phi)
                phi2.update(mt.typeParams)
                gamma = {md.selfVar: self_t}
                gamma.update(zip(md.params, mt.paramTypes))
                try:
                    bt, beff = self.type_expr(phi2, gamma, md.body)
                    self._check_body_fits(phi2, f"{decl.name}.{md.name}",
                                          bt, beff, mt, "t-meth")
                except TypecheckError as e:
                    diags.append(e.diagnostic())
        if self.program.main is not None:
            try:
                self.type_expr({}, {}, self.program.main)
            except TypecheckError as e:
                diags.append(e.diagnostic())
        return diags
