"""Executable soundness: effect denotations, predicate liftings, monadic
result typing, per-step subject-reduction/progress monitors, and the
interpretation-law suite.

The theorems become decidable checks over observed prefixes and supports:

* ``Denotation`` gives the exception-set and nondeterminism-flag readings of
  a ground simplified effect;
* ``EffectInterp`` is a predicate lifting ``(effect, predicate on X) ->
  predicate on M X``: a monad's forall or exists lifting (``Monad.forall``,
  ``Monad.exists``) over one denotation;
* ``type_monadic_result`` types a monadic result value against ``T ! eff``;
* ``check_progress`` / ``check_lifted_step`` monitor a single reduction of
  an evaluator configuration (``EConf``);
* ``interp_law_suite`` brute-forces the four lifting laws on small sets;
* ``check_soundness`` drives everything over one program and monad.

The per-step monitor works on configurations, not plugged terms: it steps
them with ``Evaluator.mon_step`` and types them with ``Checker.type_conf``,
which retypes only the focus and the frames a step changed, so its cost per
step does not grow with the depth of the evaluation context.  A
configuration is plugged (``EConf.expr``) only to print a witness.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import compress, product
from typing import Callable, List, Optional

from .evaluator import Diverged, EConf, Evaluator, VRes
from .monads import EXC_NAMES, Monad, NotAChain, get_monad
from .signatures import SigError, Sigs
from .syntax import (
    MGC, PURE,
    Effect, NominalType, ObjType, Program, Return, Type, eff_of, eff_union,
)
from .typer import Checker, TypecheckError

# method names whose run functions are nondeterministic
ND_METHODS = frozenset({"choose"})


class UnknownAtom(Exception):
    """A call-effect atom with no exception reading."""


# ---------------------------------------------------------------------------
# Effect denotations
# ---------------------------------------------------------------------------


class Denotation:
    """excSet / ndFlag of ground simplified effects, relative to a program."""

    def __init__(self, sigs: Sigs):
        self.sigs = sigs
        self._exc_sets: dict = {}  # effect -> exc_set(effect)

    def _receiver_names(self, t: Type) -> Optional[set]:
        """Parent names of the receiver; None means 'any' (Object)."""
        if isinstance(t, ObjType):
            return {p.name for p in t.parents} or None
        if isinstance(t, NominalType):
            return {t.name}
        raise UnknownAtom(f"non-ground effect receiver {t!r}")

    def _name_leq(self, name: str, uppers: Optional[set]) -> bool:
        return uppers is None or not uppers.isdisjoint(self.sigs.ancestors(name))

    def _has_mgc(self, decl_name: str, m: str) -> bool:
        try:
            s = self.sigs.decl_sig(decl_name)
        except SigError:
            return False
        entry = s.get(m)
        return entry is not None and entry[0] == MGC

    def exc_set(self, eff: Effect) -> Optional[frozenset]:
        """Exception names the effect allows; None encodes 'all' (top)."""
        if eff.top:
            return None
        if eff in self._exc_sets:
            return self._exc_sets[eff]
        out = set()
        for a in eff.atoms:
            if a.method in ND_METHODS:
                continue  # no exception reading; contributes nothing
            uppers = self._receiver_names(a.receiver)
            for decl in self.sigs.program.decls:
                if self._has_mgc(decl.name, a.method) and self._name_leq(
                    decl.name, uppers
                ):
                    out.add(EXC_NAMES.get(decl.name, decl.name))
        self._exc_sets[eff] = frozenset(out)
        return self._exc_sets[eff]

    def nd_flag(self, eff: Effect) -> int:
        if eff.top:
            return 1
        return 1 if any(a.method in ND_METHODS for a in eff.atoms) else 0


# ---------------------------------------------------------------------------
# Predicate liftings
# ---------------------------------------------------------------------------


@dataclass
class EffectInterp:
    """A family of predicate liftings indexed by effects: the monad's forall
    lifting or, if ``may``, its exists lifting."""

    name: str
    monad: Monad
    den: Denotation
    may: bool = False  # if set, type_monadic_result tolerates a bottom result
    prefix: int = 256

    def lift(self, eff: Effect, pred: Callable) -> Callable:
        if self.may:
            return self.monad.exists(pred, self.prefix)
        return self.monad.forall(self.den, eff, pred, self.prefix)


def interps_for(monad_name: str, den: Denotation, prefix: int = 256,
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


@dataclass(frozen=True)
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


# ``stepped`` default: ``ev.mon_step(c)`` not computed yet (None means stuck)
_UNSTEPPED = object()


def check_progress(checker: Checker, ev: Evaluator, c: EConf,
                   stepped=_UNSTEPPED) -> Verdict:
    """Well-typed closed configurations are returns or can step; ``stepped``
    is ``ev.mon_step(c)`` when the caller has it already."""
    if isinstance(c.focus, Return) and c.frames is None:
        return PASS
    if stepped is _UNSTEPPED:
        stepped = ev.mon_step(c)
    if stepped is not None:
        return PASS
    return Verdict(False, f"well-typed expression is stuck: {c.expr!r}")


def check_lifted_step(checker: Checker, den: Denotation, ev: Evaluator,
                      c: EConf, T: Type, eff: Effect, stepped=_UNSTEPPED,
                      prefix: int = 256) -> Verdict:
    """Monadic subject reduction for one step of ``c : T ! eff``.

    Every configuration in the step result must retype at some T' ! eff'
    with T' <= T and ehat v eff' <= eff, where ehat is the canonical
    call-effect of a magic step (and pure otherwise); a raised exception
    must be in ``den``'s excSet of the effect.
    """
    if stepped is _UNSTEPPED:
        stepped = ev.mon_step(c)
    if stepped is None:
        return PASS  # no step: nothing to preserve
    mv, info = stepped
    ehat = eff_of(info.mgc_atom) if info.mgc_atom is not None else PURE
    if info.mgc_atom is not None and not checker.sigs.sub_eff({}, ehat, eff):
        return Verdict(
            False,
            f"magic step raises {info.mgc_atom!r}, not allowed by {eff!r}",
        )
    witness = ev.monad.raise_witness(den, eff, mv)
    if witness is not None:
        return Verdict(False, witness)
    for c2 in ev.monad.elements(mv, prefix):
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
    """
    monad = interp.monad
    X = tuple(X)
    viol = []
    samples = monad.law_samples(X)
    subsets = _subsets(X)
    funcs = _functions(X)

    # 1: naturality
    for eff in effects:
        for f in funcs:
            for A in subsets:
                pre = frozenset(x for x in X if f[x] in A)
                lift_pre = interp.lift(eff, lambda x: x in pre)
                lift_A = interp.lift(eff, lambda x: x in A)
                for m in samples:
                    lhs = lift_pre(m)
                    rhs = lift_A(monad.map_m(lambda x: f[x], m))
                    if lhs != rhs:
                        viol.append(
                            f"naturality fails for {interp.name} at eff="
                            f"{eff!r}, f={f}, A={sorted(A)}, m={m!r}")
    # 2: effect-monotonicity
    for eff in effects:
        for eff2 in effects:
            if not sigs.sub_eff({}, eff, eff2):
                continue
            for A in subsets:
                lo = interp.lift(eff, lambda x: x in A)
                hi = interp.lift(eff2, lambda x: x in A)
                for m in samples:
                    if lo(m) and not hi(m):
                        viol.append(
                            f"monotonicity fails for {interp.name}: "
                            f"{eff!r} <= {eff2!r}, A={sorted(A)}, m={m!r}")
    # 3: unit
    for A in subsets:
        lifted = interp.lift(PURE, lambda x: x in A)
        for x in A:
            if not lifted(monad.unit(x)):
                viol.append(
                    f"unit law fails for {interp.name}: x={x}, A={sorted(A)}")
    # 4: multiplication
    mm_samples = ([monad.unit(m) for m in samples]
                  + monad.outer_samples(samples))
    for eff in effects:
        for eff2 in effects:
            joined = eff_union(eff, eff2)
            for A in subsets:
                lift_in = interp.lift(eff2, lambda x: x in A)
                lift_out = interp.lift(eff, lift_in)
                lift_joined = interp.lift(joined, lambda x: x in A)
                for mm in mm_samples:
                    if lift_out(mm):
                        flat = monad.bind(mm, lambda m: m)
                        if not lift_joined(flat):
                            viol.append(
                                f"multiplication fails for {interp.name}: "
                                f"eff={eff!r}, eff'={eff2!r}, A={sorted(A)}, "
                                f"mm={mm!r}")
    return viol


class BrokenExcInterp(EffectInterp):
    """A deliberately broken interpretation: excSet(top) is empty, so
    widening an effect to top can shrink the lifted predicate (law 2)."""

    def __init__(self, den, prefix=256):
        super().__init__("exc", get_monad("exc"), den, False, prefix)

    def lift(self, eff, pred):
        # top read as pure, whose excSet is empty
        return super().lift(PURE if eff.top else eff, pred)


# ---------------------------------------------------------------------------
# The harness
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CheckRecord:
    program: str
    monad: str
    check: str
    ok: bool
    witness: str = ""


@dataclass
class SoundnessReport:
    records: List[CheckRecord] = field(default_factory=list)

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
                    fuel: int = 10000, approx_to: int = 64,
                    prefix: int = 256, which: Optional[str] = None,
                    registry=None,
                    report: Optional[SoundnessReport] = None) -> SoundnessReport:
    """Run every dynamic soundness check for one program under one monad."""
    rep = report if report is not None else SoundnessReport()
    checker = Checker(program)
    diags = checker.check_program()
    if diags:
        raise IllTypedProgram(diags)
    ev = Evaluator(program, monad_name, registry=registry, prefix=prefix)
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
        v = check_progress(checker, ev, cur, stepped)
        if not v:
            rep.add(name, monad_name, "progress", False, v.witness)
            steps_ok = False
        if stepped is None:
            continue
        budget -= 1
        v = check_lifted_step(checker, den, ev, cur, t, f, stepped, prefix)
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
    try:
        ev.monad.sup_chain(chain)
        ascending = True
    except NotAChain:
        ascending = False
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
