"""Executable soundness: effect denotations, predicate liftings, monadic
result typing, per-step subject-reduction/progress monitors, and the
interpretation-law suite.

The theorems become decidable checks over observed prefixes and supports:

* ``Denotation`` gives the exception-set and nondeterminism-flag readings of
  a ground simplified effect;
* ``EffectInterp`` is a predicate lifting ``(effect, predicate on X) ->
  predicate on M X``: the forall or exists lifting of a monad's
  ``elements``, the forall one also asking the monad's ``allowed`` of the
  rest of an outcome, over one denotation;
* ``type_monadic_result`` types a monadic result value against ``T ! eff``;
* ``check_progress`` / ``check_lifted_step`` monitor a single reduction of
  an evaluator configuration (``EConf``);
* ``interp_law_suite`` brute-forces the four lifting laws on small sets;
* ``check_soundness`` drives everything over one program and monad.

The per-step monitor works on configurations, not plugged terms: it steps
them with ``Evaluator.mon_step`` and types them with ``Checker.type_conf``,
which retypes only the focus and the frames a step changed, so its cost per
step does not grow with the depth of the evaluation context.  A
configuration is typed as a step's result and again when it is stepped; the
typing memo answers the second.  A configuration is plugged (``EConf.expr``)
only to print a witness.
"""

from __future__ import annotations

import json
from itertools import compress, product
from typing import Callable, List, Optional

from .evaluator import APPROX, FUEL, PREFIX, Diverged, EConf, Evaluator, VRes
from .monads import EXC_METHODS, ND_METHODS, Monad, exc_name, get_monad
from .signatures import SigError, Sigs
from .syntax import (
    MGC, PURE,
    Effect, NominalType, ObjType, Program, Return, Type, TypeDecl, TypeVar,
    eff_of, eff_union,
    record,
)
from .typer import Checker, TypecheckError


class UnknownAtom(Exception):
    """A call-effect atom with no exception reading."""


# ---------------------------------------------------------------------------
# Effect denotations
# ---------------------------------------------------------------------------


class Denotation:
    """excSet / ndFlag of ground simplified effects, relative to a program."""

    def __init__(self, sigs: Sigs):
        self.sigs = sigs

    def _receiver_names(self, t: Type) -> Optional[set]:
        """Parent names of the receiver; None means 'any' (Object)."""
        if isinstance(t, ObjType):
            return {p.name for p in t.parents} or None
        raise UnknownAtom(f"non-ground effect receiver {t!r}")

    def _raises(self, d: TypeDecl, m: str, uppers: Optional[set]) -> bool:
        """Does ``d`` have a magic ``m`` and, unless ``uppers`` is None ('any'),
        one of ``uppers`` among the names of its supertypes?"""
        try:
            entry = self.sigs.decl_sig(d.name).get(m)
            if entry is None or entry[0] != MGC:
                return False
            own = NominalType(d.name, tuple(TypeVar(x) for x, _ in d.typeParams))
            return uppers is None or not uppers.isdisjoint(
                n.name for n in self.sigs.nominal_supers(own))
        except SigError:
            return False

    def exc_set(self, eff: Effect) -> Optional[frozenset]:
        """Exception names the effect allows; None encodes 'all' (top)."""
        if eff.top:
            return None
        out = set()
        for a in eff.atoms:
            if a.method not in EXC_METHODS:
                continue  # no exception reading; contributes nothing
            uppers = self._receiver_names(a.receiver)
            for decl in self.sigs.program.decls:
                if self._raises(decl, a.method, uppers):
                    out.add(exc_name(decl.name))
        return frozenset(out)

    def nd_flag(self, eff: Effect) -> int:
        if eff.top:
            return 1
        return 1 if any(a.method in ND_METHODS for a in eff.atoms) else 0


# ---------------------------------------------------------------------------
# Predicate liftings
# ---------------------------------------------------------------------------


@record
class EffectInterp:
    """A family of predicate liftings indexed by effects: the monad's forall
    lifting or, if ``may``, its exists lifting."""

    name: str
    monad: Monad
    den: Denotation
    may: bool = False  # if set, type_monadic_result tolerates a bottom result
    prefix: int = PREFIX

    def lift(self, eff: Effect, pred: Callable) -> Callable:
        """Some observed element satisfies ``pred`` (``may``), or every one
        does and ``eff`` allows the rest (``Monad.allowed``).  Plain loops:
        cheaper than any/all over map on these short lists."""
        elements, prefix = self.monad.elements, self.prefix
        if self.may:
            def some(m) -> bool:
                for x in elements(m, prefix):
                    if pred(x):
                        return True
                return False

            return some
        allowed = self.monad.allowed(self.den, eff)

        def every(m) -> bool:
            elems = elements(m, prefix)
            if allowed is not None and not allowed(m, elems):
                return False
            for x in elems:
                if not pred(x):
                    return False
            return True

        return every


def interps_for(monad_name: str, den: Denotation, prefix: int = PREFIX,
                which: Optional[str] = None) -> List[EffectInterp]:
    """The interpretations applicable to a monad; ``which`` narrows
    'forall'/'exists' for a monad that has both."""
    monad = get_monad(monad_name)
    qs = monad.quantifiers
    return [EffectInterp(monad_name if len(qs) == 1 else f"{monad_name}-{q}",
                         monad, den, q == "exists", prefix)
            for q in qs if which not in qs or which == q]


# ---------------------------------------------------------------------------
# Monadic result typing and step monitors
# ---------------------------------------------------------------------------


@record
class Verdict:
    ok: bool
    witness: str = ""

    def __bool__(self):
        return self.ok


PASS = Verdict(True)


def type_monadic_result(checker: Checker, interp: EffectInterp, mres,
                        T: Type, eff: Effect) -> bool:
    """Does the monadic result satisfy ``T ! eff`` under the lifting?

    Result elements are ``VRes v`` / ``wrong``; a may-interpretation also
    accepts an entirely unfinished (bottom) result.
    """

    def well_typed(r) -> bool:
        if not isinstance(r, VRes):
            return False  # wrong is never well-typed
        try:
            tv = checker.type_value({}, {}, r.value)
        except TypecheckError:
            return False
        return checker.sigs.sub_type({}, tv, T)

    if interp.may and interp.monad.is_bottom(mres):
        return True
    return interp.lift(eff, well_typed)(mres)


def check_progress(c: EConf, stepped) -> Verdict:
    """Well-typed closed configurations are returns or can step; ``stepped``
    is ``ev.mon_step(c)``."""
    if isinstance(c.focus, Return) and c.frames is None:
        return PASS
    if stepped is not None:
        return PASS
    return Verdict(False, f"well-typed expression is stuck: {c.expr!r}")


def check_lifted_step(checker: Checker, den: Denotation, ev: Evaluator,
                      T: Type, eff: Effect, stepped,
                      prefix: int = PREFIX) -> Verdict:
    """Monadic subject reduction for one step of a configuration of type
    ``T ! eff``, whose result ``ev.mon_step`` is ``stepped`` (not None: a
    configuration that does not step is ``check_progress``'s question).

    Every configuration in the step result must retype at some T' ! eff'
    with T' <= T and ehat v eff' <= eff, where ehat is the canonical
    call-effect of a magic step (and pure otherwise); the outcome of a magic
    step must be one the monad's ``allowed`` test passes under the effect.
    The outcome of any other step is a unit, which every lifting allows.
    """
    mv, info = stepped
    monad, ehat = ev.monad, PURE
    elems = monad.elements(mv, prefix)
    if info.mgc_atom is not None:
        ehat = eff_of(info.mgc_atom)
        if not checker.sigs.sub_eff({}, ehat, eff):
            return Verdict(False, f"magic step raises {info.mgc_atom!r}, "
                                  f"not allowed by {eff!r}")
        allowed = monad.allowed(den, eff)
        if allowed is not None and not allowed(mv, elems):
            return Verdict(False, f"magic step outcome {monad.show(mv, prefix)}"
                                  f" not allowed by {eff!r}")
    for c2 in elems:
        try:
            t2, f2 = checker.type_conf(c2)
        except TypecheckError as err:
            return Verdict(False,
                           f"step result {c2.expr!r} is ill-typed: {err}")
        if not checker.sigs.sub_type({}, t2, T):
            return Verdict(
                False, f"step result type {t2!r} not below {T!r}")
        if not checker.sigs.sub_eff({}, eff_union(ehat, f2), eff):
            return Verdict(
                False,
                f"step effect {eff_union(ehat, f2)!r} not below {eff!r}")
    return PASS


# ---------------------------------------------------------------------------
# The interpretation laws
# ---------------------------------------------------------------------------


def _subsets(X):
    """Every subset of X; bit i of the enumeration index selects X[i]."""
    xs = list(X)
    return [frozenset(compress(xs, reversed(bits)))
            for bits in product((0, 1), repeat=len(xs))]


def _functions(X):
    """Every function X -> X as a dict keyed in X's order; X[0]'s image
    varies fastest."""
    xs = list(X)
    return [dict(zip(xs, reversed(ys))) for ys in product(xs, repeat=len(xs))]


def interp_law_suite(interp: EffectInterp, sigs: Sigs, effects,
                     X=(0, 1, 2)) -> list:
    """Brute-force the four lifting laws; returns the list of violations.

    1. naturality: lifting commutes with inverse images along any function;
    2. effect-monotonicity: eff <= eff' implies lift_eff(A) <= lift_eff'(A);
    3. unit: x in A implies unit(x) in lift_pure(A);
    4. multiplication: lifting twice then flattening lands in lift_{eff v eff'}.

    Each lifting ``interp.lift(eff, A)`` of a subset ``A`` is built once and
    evaluated once per value: on each sample (laws 1 and 2) and, for a join
    ``eff v eff'``, on each flattening (law 4).
    """
    monad = interp.monad
    X = tuple(X)
    viol = []
    samples = monad.law_samples(X)
    subsets = _subsets(X)
    funcs = _functions(X)
    # each image map_m(f, m) is built once; f is bound now, because list's
    # map_m is lazy and a closure would see a later f
    images = [[monad.map_m(f.__getitem__, m) for m in samples] for f in funcs]
    joins = [eff_union(eff, eff2) for eff in effects for eff2 in effects]
    lifts = {(eff, A): interp.lift(eff, A.__contains__)
             for eff in dict.fromkeys([*effects, PURE, *joins]) for A in subsets}
    # (eff, A) -> lift(eff, A) on each sample
    on_samples = {(eff, A): [lifts[eff, A](m) for m in samples]
                  for eff in effects for A in subsets}
    # 1: naturality
    for eff in effects:
        for f, f_images in zip(funcs, images):
            for A in subsets:
                lhs_all = on_samples[eff, frozenset(x for x in X if f[x] in A)]
                lift_A = lifts[eff, A]
                for m, image, lhs in zip(samples, f_images, lhs_all):
                    if lhs != lift_A(image):
                        viol.append(
                            f"naturality fails for {interp.name} at eff="
                            f"{eff!r}, f={f}, A={sorted(A)}, m={m!r}")
    # 2: effect-monotonicity
    for eff in effects:
        for eff2 in effects:
            if not sigs.sub_eff({}, eff, eff2):
                continue
            for A in subsets:
                for m, lo, hi in zip(samples, on_samples[eff, A],
                                     on_samples[eff2, A]):
                    if lo and not hi:
                        viol.append(
                            f"monotonicity fails for {interp.name}: "
                            f"{eff!r} <= {eff2!r}, A={sorted(A)}, m={m!r}")
    # 3: unit
    for A in subsets:
        for x in A:
            if not lifts[PURE, A](monad.unit(x)):
                viol.append(
                    f"unit law fails for {interp.name}: x={x}, A={sorted(A)}")
    # 4: multiplication
    mm_samples = ([monad.unit(m) for m in samples]
                  + monad.outer_samples(samples))
    flats = [monad.bind(mm, lambda m: m) for mm in mm_samples]
    on_flats = {(eff, A): [lifts[eff, A](m) for m in flats]  # as on_samples
                for eff in dict.fromkeys(joins) for A in subsets}
    for eff in effects:
        for eff2 in effects:
            for A in subsets:
                lift_out = interp.lift(eff, lifts[eff2, A])
                oks = on_flats[eff_union(eff, eff2), A]
                for mm, ok in zip(mm_samples, oks):
                    if not ok and lift_out(mm):
                        viol.append(
                            f"multiplication fails for {interp.name}: "
                            f"eff={eff!r}, eff'={eff2!r}, A={sorted(A)}, "
                            f"mm={mm!r}")
    return viol


class BrokenExcInterp(EffectInterp):
    """A deliberately broken interpretation: excSet(top) is empty, so
    widening an effect to top can shrink the lifted predicate (law 2)."""

    def __init__(self, den):
        super().__init__("exc", get_monad("exc"), den)

    def lift(self, eff, pred):
        # top read as pure, whose excSet is empty
        return super().lift(PURE if eff.top else eff, pred)


# ---------------------------------------------------------------------------
# The harness
# ---------------------------------------------------------------------------


@record
class CheckRecord:
    program: str
    monad: str
    check: str
    ok: bool
    witness: str = ""


@record
class SoundnessReport:
    records: List[CheckRecord]

    def __init__(self, records: Optional[List[CheckRecord]] = None):
        object.__setattr__(self, "records", [] if records is None else records)

    def add(self, *a, **kw):
        self.records.append(CheckRecord(*a, **kw))

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.records)

    def failures(self) -> List[CheckRecord]:
        return [r for r in self.records if not r.ok]

    def to_json(self) -> str:
        return json.dumps(
            [r.__dict__ for r in self.records], indent=2, sort_keys=True)

    def summary(self) -> str:
        bad = self.failures()
        lines = [f"{len(self.records)} checks, {len(bad)} failures"]
        lines += [f"FAIL {r.program}/{r.monad}/{r.check}: {r.witness}"
                  for r in bad]
        return "\n".join(lines)


class IllTypedProgram(Exception):
    def __init__(self, diags):
        super().__init__("; ".join(map(str, diags)))
        self.diags = diags


def check_soundness(program: Program, monad_name: str, *, name: str = "main",
                    fuel: int = FUEL, approx_to: int = APPROX,
                    prefix: int = PREFIX, which: Optional[str] = None,
                    report: Optional[SoundnessReport] = None) -> SoundnessReport:
    """Run every dynamic soundness check for one program under one monad."""
    rep = report if report is not None else SoundnessReport()
    checker = Checker(program)
    diags = checker.check_program()
    if diags:
        raise IllTypedProgram(diags)
    ev = Evaluator(program, monad_name, prefix=prefix)
    den = Denotation(checker.sigs)
    interps = interps_for(monad_name, den, prefix, which)
    e0 = program.main
    if e0 is None:
        raise ValueError("program has no main expression")
    t0, f0 = checker.type_expr({}, {}, e0)

    # per-step progress and subject reduction, over distinct reachable
    # configurations (equal configurations are equal terms)
    c0 = EConf(e0)
    seen = {c0}
    frontier = [c0]
    budget = fuel
    steps_ok = True
    while frontier and budget > 0:
        cur = frontier.pop()
        try:
            t, f = checker.type_conf(cur)
        except TypecheckError as err:
            rep.add(name, monad_name, "subject-reduction", False,
                    f"reachable expression ill-typed: {err}")
            steps_ok = False
            continue
        stepped = ev.mon_step(cur)
        v = check_progress(cur, stepped)
        if not v:
            rep.add(name, monad_name, "progress", False, v.witness)
            steps_ok = False
        if stepped is None:
            continue
        budget -= 1
        v = check_lifted_step(checker, den, ev, t, f, stepped, prefix)
        if not v:
            rep.add(name, monad_name, "subject-reduction", False, v.witness)
            steps_ok = False
        mv, _ = stepped
        for nxt in ev.monad.elements(mv, prefix):
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    if steps_ok:
        rep.add(name, monad_name, "per-step", True,
                f"{fuel - budget} steps monitored")

    # finitary soundness (divergence detection needs far less fuel than the
    # per-step walk, so it gets its own bound)
    try:
        res = ev.finitary(e0, min(fuel, 1000))
    except Diverged:
        res = None
        rep.add(name, monad_name, "finitary", True, "diverged (vacuous)")
    if res is not None:
        for itp in interps:
            ok = type_monadic_result(checker, itp, res, t0, f0)
            rep.add(name, monad_name, f"finitary/{itp.name}", ok,
                    "" if ok else f"result {res!r} not typed at "
                                  f"{t0!r} ! {f0!r}")

    # infinitary approximations: a chain of well-typed lower bounds
    chain = ev.approx_chain(e0, approx_to)
    ascending = all(map(ev.monad.leq, chain, chain[1:]))
    rep.add(name, monad_name, "approx-chain-ascending", ascending,
            "" if ascending else "approximations not a chain")
    for itp in interps:
        bad = next(
            (i for i, m in enumerate(chain)
             if not (type_monadic_result(checker, itp, m, t0, f0)
                     or ev.monad.is_bottom(m))),
            None,
        )
        ok = bad is None
        rep.add(name, monad_name, f"infinitary/{itp.name}", ok,
                "" if ok else f"approximation {bad} ill-typed: {chain[bad]!r}")
    return rep
