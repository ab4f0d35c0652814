"""The type-and-effect system: values, expressions, handlers, declarations.

A ``Checker`` is a per-program session: it owns a ``Sigs`` context and one
typing memo, keyed on the typing shape (``syntax.tshape``) of a term or frame
chain plus the environment restricted to its free names and the bounds they
reach.  It keeps only successes, so a term that fails is typed as itself.
Only the prelude's diagnostics outlive it: ``check_program`` checks the
prelude once per process and seeded fault.
A closed value is typed after the closed objects inside it, so typing
recurses only as deep as the source nests.
All judgments are syntax-directed functions; there is no subsumption rule,
so subtype checks happen exactly where the rules put side conditions.  The
soundness monitor types evaluator configurations with ``type_conf``, which
reuses the typing of the frames around the focus.
"""

from __future__ import annotations

from typing import Mapping

from . import faults
from .effects import ClauseFilter, HandlerFilter, apply_filter, simplify
from .evaluator import TryFrame
from .parser import pretty
from .prelude import prelude_program
from .signatures import SigError, Sigs
from .syntax import (
    ABS, CLOSED, COLLAPSED, CONTINUE, DEF, EMPTY_SIG, MGC, OBJECT, PURE, STOP,
    TYPES, Call, Clause, Do, EffCall, Effect, Handler, MethodType,
    NominalType, Obj, ObjType, Program, Return, Type, TypeVar, Value, Var,
    eff_of, eff_union, erase_type, free, open_binders, subst, tshape,
)


class TypecheckError(Exception):
    """A diagnostic: its ``code``, the ``rule`` that failed, and ``msg``."""

    def __init__(self, code: str, rule: str, msg: str):
        super().__init__(f"[{code}/{rule}] {msg}")
        self.code, self.rule, self.msg = code, rule, msg


def _sig_error(e: SigError, rule: str) -> TypecheckError:
    return TypecheckError(type(e).__name__, rule, str(e))


# ``faults.ACTIVE`` -> the prelude's diagnostics, filled by the first
# ``check_program`` under those faults of a program that begins with them
_PRELUDE_DIAGS: dict = {}


class Checker:
    def __init__(self, program: Program):
        self.program = program
        self.sigs = Sigs(program)
        # a value's ``_memo_key`` -> its type, an expression's -> its typing,
        # (frame chain shape, hole typing, raw focus effect) -> the typing of
        # the configuration; the keys of the three kinds never collide
        self._memo: dict = {}

    # -- values ----------------------------------------------------------------

    @staticmethod
    def _memo_key(phi, gamma, term, fvs, ftvs):
        # typing depends only on the term's shape (``tshape``: its towers
        # above 2 collapsed, as they all type alike), on the bindings for its
        # free names and on the bounds of the type variables they reach:
        # those free in the term and in the types of its free variables,
        # closed under their bounds.  A closed term's shape is its key, and
        # the free variables are cached on the node, so they come in the
        # same order every time
        shape = term._tshape or tshape(term)
        if not fvs and not ftvs:
            return shape
        env = tuple((x, gamma[x]) for x in fvs if x in gamma)
        if not phi:
            return shape, env, ()
        todo = [*ftvs]
        for _, t in env:
            todo += free(t)[1]
        reached = {}
        while todo:
            a = todo.pop()
            if a not in reached and a in phi:
                reached[a] = phi[a]
                todo += free(phi[a])[1]
        return shape, env, frozenset(reached.items())

    def type_value(self, phi: Mapping[str, Type], gamma: Mapping[str, Type],
                   v: Value) -> Type:
        if isinstance(v, Var):
            t = gamma.get(v.name)
            if t is None:
                raise TypecheckError("UnboundVar", "t-var",
                                     f"unbound variable {v.name}")
            return t
        key = self._memo_key(phi, gamma, v, *free(v))
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        if key is COLLAPSED and v is not COLLAPSED:
            # every level of a tower above 2 runs level 2's t-obj check (its
            # pred returns a Succ), so by induction the tower types as the
            # one collapsed tower does, to the same type or diagnostic
            return self.type_value(phi, gamma, COLLAPSED)
        if key is v._tshape:  # closed
            self._type_closed_inside(v)
        t = self._memo[key] = self._type_obj(phi, gamma, v)
        return t

    def _type_closed_inside(self, v) -> None:
        """Type the closed objects in ``v``, each after those inside it, so
        that typing ``v`` finds them in the memo and recurses only as deep
        as the source nests: a run-time value is closed, and so is every
        value a step substitutes into it.  The walk enters no term already
        typed and no tower above 2, which types as ``COLLAPSED`` does.
        Stop at an ill-typed object: the ordinary typing raises the
        diagnostics in their order."""
        found, todo, seen = [], [(v, False)], set()
        while todo:  # depth first
            n, done = todo.pop()
            if done:
                if n is not v and isinstance(n, Obj) and free(n) is CLOSED:
                    found.append(n)
            elif n not in seen:
                seen.add(n)
                todo.append((n, True))
                todo += [(k, False) for kids in n._kids() for k in kids
                         if not isinstance(k, TYPES)
                         and (s := k._tshape or tshape(k)) is not COLLAPSED
                         and s not in self._memo]
        for k in found:
            try:
                self.type_value({}, {}, k)
            except TypecheckError:
                return

    def _type_obj(self, phi, gamma, v) -> Type:
        if any(m.kind == MGC for m in v.methods):
            raise TypecheckError(
                "MgcInObject", "t-obj", "objects cannot declare magic methods")
        t = erase_type(v)
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
            if md.kind == DEF:
                self._type_body(phi, gamma, md, md.mtype, None, t,
                                (md.name, "t-obj"))
        return t

    def _type_body(self, phi, gamma, m, mt: MethodType, names, self_t,
                   fits=None) -> tuple:
        """``(mt, phi2, body type, body effect)`` of a method or clause ``m``:
        ``mt``'s binders, which the body calls ``names`` (``mt``'s own when
        None), opened under ``phi`` and bound in ``phi2``, self and the
        parameters bound in ``gamma``.  With ``fits = (name, rule)`` the body
        must fit ``mt``.  A nested object costs four Python frames here
        unless it is closed, as ``type_value`` types closed ones first."""
        if names is None:
            names = [x for x, _ in mt.typeParams]
        mt = open_binders(mt, names, phi)
        ren = {u: TypeVar(x) for u, (x, _) in zip(names, mt.typeParams) if u != x}
        phi2 = dict(phi)
        phi2.update(mt.typeParams)
        gamma2 = dict(gamma)
        gamma2[m.selfVar] = self_t
        gamma2.update(zip(m.params, mt.paramTypes))
        bt, beff = self.type_expr(phi2, gamma2,
                                  subst(m.body, ren) if ren else m.body)
        if fits is not None:
            name, rule = fits
            try:
                declared_eff = simplify(self.sigs, phi2, mt.eff)
            except SigError as e:
                raise _sig_error(e, rule)
            if not self.sigs.sub_type(phi2, bt, mt.ret):
                raise TypecheckError(
                    "BodyTypeMismatch", rule,
                    f"body of {name!r} has type {bt!r}, not a subtype of the "
                    f"declared {mt.ret!r}")
            if not self.sigs.sub_eff(phi2, beff, declared_eff):
                raise TypecheckError(
                    "BodyEffectMismatch", rule,
                    f"body of {name!r} has effect {beff!r}, not below the "
                    f"declared {mt.eff!r}")
        return mt, phi2, bt, beff

    # -- expressions ------------------------------------------------------------

    def type_expr(self, phi: Mapping[str, Type], gamma: Mapping[str, Type],
                  e) -> tuple:
        """(Type, Effect) of an expression; the effect comes out simplified."""
        key = self._memo_key(phi, gamma, e, *free(e))
        hit = self._memo.get(key)
        if hit is None:
            hit = self._memo[key] = self._type_expr(phi, gamma, e)
        return hit

    def _type_expr(self, phi, gamma, e) -> tuple:
        if isinstance(e, Return):
            return self.type_value(phi, gamma, e.value), PURE
        if isinstance(e, Call):
            return self._type_call(phi, gamma, e)
        if isinstance(e, Do):
            t1, f1 = self.type_expr(phi, gamma, e.first)
            return self._t_do(phi, gamma, t1, f1, e.var, e.rest)
        bt, beff = self.type_expr(phi, gamma, e.body)  # a Try, the last kind
        return self._t_try(phi, gamma, bt, beff, e.handler,
                           lambda: self._raw_effect(phi, gamma, e.body))

    def _t_do(self, phi, gamma, t1, f1, var: str, rest) -> tuple:
        """t-do, given the typing ``t1 ! f1`` of the bound expression."""
        gamma2 = dict(gamma)
        gamma2[var] = t1
        t2, f2 = self.type_expr(phi, gamma2, rest)
        return t2, eff_union(f1, f2)

    def _t_try(self, phi, gamma, bt, beff, h: Handler, raw_body) -> tuple:
        """t-try, given the typing ``bt ! beff`` of the body; ``raw_body()``
        is the body's unsimplified effect, read only by the seeded fault."""
        t2, H = self.type_handler(phi, gamma, bt, h)
        if faults.ACTIVE.filter_before_simplify:
            # seeded bug: filter the raw effect, then simplify
            try:
                eff = simplify(self.sigs, phi,
                               apply_filter(self.sigs, phi, H, raw_body()))
            except SigError as err:
                raise _sig_error(err, "t-try")
        else:
            eff = apply_filter(self.sigs, phi, H, beff)
        return t2, eff

    def _type_call(self, phi, gamma, e: Call) -> tuple:
        t0 = self.type_value(phi, gamma, e.recv)
        try:
            _, mt = self.sigs.mtype(phi, t0, e.method)
            sub = self.sigs.check_targs(phi, repr(e.method), mt.typeParams,
                                        e.targs)
        except SigError as err:
            raise _sig_error(err, "t-invk")
        if len(e.args) != len(mt.paramTypes):
            raise TypecheckError(
                "ArityMismatch", "t-invk",
                f"{e.method!r} expects {len(mt.paramTypes)} arguments, "
                f"got {len(e.args)}")
        for arg, p in zip(e.args, mt.paramTypes):
            at = self.type_value(phi, gamma, arg)
            pt = subst(p, sub)
            if not self.sigs.sub_type(phi, at, pt):
                raise TypecheckError(
                    "ArgTypeMismatch", "t-invk",
                    f"argument {pretty(arg)} of {e.method!r} has type {at!r}, "
                    f"expected a subtype of {pt!r}")
        try:  # simplified only once the arguments pass
            eff = simplify(self.sigs, phi, eff_of(EffCall(t0, e.method, e.targs)))
        except SigError as err:
            raise _sig_error(err, "t-invk")
        return subst(mt.ret, sub), eff

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
        return self._raw_effect(phi, gamma, e.body)  # a Try, the last kind

    # -- configurations ------------------------------------------------------------

    def type_conf(self, c) -> tuple:
        """(Type, Effect) of a closed configuration (``evaluator.EConf``).

        The focus is typed with ``type_expr``; its typing is then pushed out
        through the frames, innermost first, with t-do and t-try.  Each
        frame's result is memoized on (frame shape, hole typing); a frame
        holds the frames below it, so a hit types the rest of the
        configuration at once and a step retypes only the focus and the
        frames it changed.
        """
        hole = self.type_expr({}, {}, c.focus)
        # read only by the seeded t-try fault: the raw body effect of every
        # try frame is the focus's, because ``EConf`` decomposes no ``do``
        # under a ``try``, so no do frame ever sits inside a try frame
        raw = self._raw_effect({}, {}, c.focus) \
            if faults.ACTIVE.filter_before_simplify else None
        k, missed = c.frames, []
        while k is not None:
            key = (k._tshape or tshape(k), hole, raw)
            hit = self._memo.get(key)
            if hit is not None:
                hole = hit
                break
            missed.append(key)
            if isinstance(k, TryFrame):
                hole = self._t_try({}, {}, *hole, k.handler, lambda: raw)
            else:
                hole = self._t_do({}, {}, *hole, k.var, k.rest)
            k = k.below
        for key in missed:
            self._memo[key] = hole
        return hole

    # -- handlers ----------------------------------------------------------------

    def type_handler(self, phi, gamma, body_type: Type, h: Handler) -> tuple:
        """(handler result type, HandlerFilter)."""
        gamma_f = dict(gamma)
        gamma_f[h.finalVar] = body_type
        t_final, eff_final = self.type_expr(phi, gamma_f, h.finalExpr)

        typed = [self._type_clause(phi, gamma, c) for c in h.clauses]

        # the result type T'': t_final or a join above every stop-clause body
        # type under phi, so t-stop holds under each phi2 (phi + fresh binders)
        t2 = t_final
        stop_types = [tb for (c, _, _, tb, _) in typed if c.mode == STOP]
        if not all(self.sigs.sub_type(phi, tb, t2) for tb in stop_types):
            t2 = self._join(phi, [t_final, *stop_types])
        for c, mt, phi2, tb, _ in typed:
            if c.mode == CONTINUE and not self.sigs.sub_type(phi2, tb, mt.ret):
                raise TypecheckError(
                    "ClauseTypeMismatch", "t-continue",
                    f"continue-clause body for {c.method!r} has type "
                    f"{tb!r}, not a subtype of the magic result {mt.ret!r}")
        filters = tuple(
            ClauseFilter(c.ntype, c.method, tuple(x for x, _ in mt.typeParams),
                         beff)
            for c, mt, _, _, beff in typed
        )
        return t2, HandlerFilter(filters, eff_final)

    def _type_clause(self, phi, gamma, c: Clause) -> tuple:
        """``(c, mt, phi2, body type, body effect)``: ``mt`` is the caught
        magic method's type, opened under ``phi`` with the clause's names."""
        ntype_t = ObjType((c.ntype,), EMPTY_SIG)
        try:
            self.sigs.wf_check(phi, c.ntype)
            kind, mt = self.sigs.mtype(phi, ntype_t, c.method)
        except SigError as err:
            raise _sig_error(err, "t-handler")
        if kind != MGC:
            raise TypecheckError(
                "NotMagicClause", "t-handler",
                f"clause names non-magic method {c.method!r}")
        if c.typeParams is not None and len(c.typeParams) != len(mt.typeParams):
            raise TypecheckError(
                "ArityMismatch", "t-handler",
                f"clause for {c.method!r} binds {len(c.typeParams)} type "
                f"parameters, the method has {len(mt.typeParams)}")
        if len(c.params) != len(mt.paramTypes):
            raise TypecheckError(
                "ArityMismatch", "t-handler",
                f"clause for {c.method!r} binds {len(c.params)} parameters, "
                f"the method has {len(mt.paramTypes)}")
        return (c, *self._type_body(phi, gamma, c, mt, c.typeParams, ntype_t))

    def _join(self, phi, types) -> Type:
        candidates = []
        for decl in self.program.decls:
            if decl.typeParams:
                continue
            n = ObjType((NominalType(decl.name),), EMPTY_SIG)
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
        """All diagnostics (``TypecheckError``s, without the frames they were
        raised through) for the program; empty list means well-typed.

        A program that begins with the prelude's declarations reads their
        diagnostics from a full check of ``prelude_program()``, made once per
        seeded fault: they name only prelude types, no program redeclares
        one, and none has a ``try``, so none reaches ``_join``, which reads
        every declaration of the program."""
        prelude, decls = prelude_program(), self.program.decls
        n, diags = len(prelude.decls), []
        if self.program is not prelude and decls[:n] == prelude.decls:
            done = _PRELUDE_DIAGS.get(faults.ACTIVE)
            if done is None:
                done = _PRELUDE_DIAGS[faults.ACTIVE] = tuple(
                    Checker(prelude).check_program())
            diags, decls = list(done), decls[n:]

        def caught(e: TypecheckError):
            e.__context__ = None
            diags.append(e.with_traceback(None))

        for decl in decls:
            try:
                self.sigs.decl_sig(decl.name)
            except SigError as e:
                diags.append(_sig_error(e, "t-ntype"))
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
                diags.append(_sig_error(e, "t-ntype"))
                continue
            for md in decl.methods:
                # a magic call is interpreted by its monad, which passes it
                # no arguments
                if md.kind == MGC and md.mtype.paramTypes:
                    diags.append(TypecheckError(
                        "MgcWithParams", "t-ntype",
                        f"magic method {decl.name}.{md.name} declares "
                        "parameters; a magic method takes none"))
            self_t = ObjType(
                (NominalType(decl.name,
                             tuple(TypeVar(x) for x, _ in decl.typeParams)),),
                EMPTY_SIG,
            )
            for md in decl.methods:
                if md.kind == DEF:
                    try:
                        self._type_body(phi, {}, md, md.mtype, None, self_t,
                                        (f"{decl.name}.{md.name}", "t-meth"))
                    except TypecheckError as e:
                        caught(e)
        if self.program.main is not None:
            try:
                self.type_expr({}, {}, self.program.main)
            except TypecheckError as e:
                caught(e)
        return diags
