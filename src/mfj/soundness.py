"""Executable soundness: effect denotations, predicate liftings, monadic
result typing, per-step subject-reduction/progress monitors, and the
interpretation-law suite.

The theorems become decidable checks over observed prefixes and supports:

* ``Denotation`` gives the exception-set and nondeterminism-flag readings of
  a ground simplified effect;
* ``EffectInterp`` is a predicate lifting ``(effect, predicate on X) ->
  predicate on M X``; five are built in (exc, list-forall/exists,
  dist-forall/exists) plus an identity one;
* ``type_monadic_result`` types a monadic result value against ``T ! eff``;
* ``check_progress`` / ``check_lifted_step`` monitor a single reduction;
* ``interp_law_suite`` brute-forces the four lifting laws on small sets;
* ``check_soundness`` drives everything over one program and monad.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, List, Optional

from .evaluator import Diverged, Evaluator, VRes
from .monads import (
    EXC_NAMES, ID_BOTTOM, Dist, ExcValue, IdValue, LazyList, Monad, get_monad,
)
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
        return frozenset(out)

    def nd_flag(self, eff: Effect) -> int:
        if eff.top:
            return 1
        return 1 if any(a.method in ND_METHODS for a in eff.atoms) else 0


# ---------------------------------------------------------------------------
# Predicate liftings
# ---------------------------------------------------------------------------


@dataclass
class EffectInterp:
    """A family of predicate liftings indexed by effects."""

    name: str
    monad: Monad
    den: Denotation
    may: bool = False  # if set, type_monadic_result tolerates a bottom result
    prefix: int = 256

    def lift(self, eff: Effect, pred: Callable) -> Callable:
        raise NotImplementedError


class ExcInterp(EffectInterp):
    def __init__(self, den, prefix=256):
        super().__init__("exc", get_monad("exc"), den, False, prefix)

    def lift(self, eff, pred):
        allowed = self.den.exc_set(eff)

        def ok(m: ExcValue) -> bool:
            if m.tag == "pure":
                return bool(pred(m.payload))
            if m.tag == "raised":
                return allowed is None or m.payload in allowed
            return True  # bottom

        return ok


class ListForall(EffectInterp):
    def __init__(self, den, prefix=256):
        super().__init__("list-forall", get_monad("list"), den, False, prefix)

    def lift(self, eff, pred):
        det = self.den.nd_flag(eff) == 0

        def ok(m: LazyList) -> bool:
            elems = m.take(self.prefix)
            if det and len(elems) > 1:
                return False
            return all(pred(x) for x in elems)

        return ok


class ListExists(EffectInterp):
    def __init__(self, den, prefix=256):
        super().__init__("list-exists", get_monad("list"), den, True, prefix)

    def lift(self, eff, pred):
        def ok(m: LazyList) -> bool:
            return any(pred(x) for x in m.take(self.prefix))

        return ok


class DistForall(EffectInterp):
    def __init__(self, den, prefix=256):
        super().__init__("dist-forall", get_monad("dist"), den, False, prefix)

    def lift(self, eff, pred):
        # no determinism test on the support: map_m merges equal values, so
        # one would not commute with map_m (naturality); the per-step monitor
        # still rejects a choose step under a deterministic effect
        def ok(m) -> bool:
            return all(pred(x) for x in m.support())

        return ok


class DistExists(EffectInterp):
    def __init__(self, den, prefix=256):
        super().__init__("dist-exists", get_monad("dist"), den, True, prefix)

    def lift(self, eff, pred):
        def ok(m) -> bool:
            return any(pred(x) for x in m.support())

        return ok


class IdInterp(EffectInterp):
    def __init__(self, den, prefix=256):
        super().__init__("id", get_monad("id"), den, False, prefix)

    def lift(self, eff, pred):
        def ok(m) -> bool:
            return m.tag == "bottom" or bool(pred(m.payload))

        return ok


def interps_for(monad_name: str, den: Denotation, prefix: int = 256,
                which: Optional[str] = None) -> List[EffectInterp]:
    """The interpretations applicable to a monad; ``which`` narrows
    'forall'/'exists' for the nondeterministic monads."""
    if monad_name == "exc":
        return [ExcInterp(den, prefix)]
    if monad_name == "id":
        return [IdInterp(den, prefix)]
    if monad_name == "list":
        out = [ListForall(den, prefix), ListExists(den, prefix)]
    elif monad_name == "dist":
        out = [DistForall(den, prefix), DistExists(den, prefix)]
    else:
        raise KeyError(monad_name)
    if which == "forall":
        return out[:1]
    if which == "exists":
        return out[1:]
    return out


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


# ``stepped`` default: ``ev.step_expr(e)`` not computed yet (None means stuck)
_UNSTEPPED = object()


def check_progress(checker: Checker, ev: Evaluator, e,
                   stepped=_UNSTEPPED) -> Verdict:
    """Well-typed closed expressions are returns or can step; ``stepped`` is
    ``ev.step_expr(e)`` when the caller has it already."""
    if isinstance(e, Return):
        return PASS
    if stepped is _UNSTEPPED:
        stepped = ev.step_expr(e)
    if stepped is not None:
        return PASS
    return Verdict(False, f"well-typed expression is stuck: {e!r}")


def check_lifted_step(checker: Checker, ev: Evaluator, e, T: Type,
                      eff: Effect, stepped=_UNSTEPPED, prefix: int = 256) -> Verdict:
    """Monadic subject reduction for one step of ``e : T ! eff``.

    Every expression in the step result must retype at some T' ! eff' with
    T' <= T and ehat v eff' <= eff, where ehat is the canonical call-effect
    of a magic step (and pure otherwise); a raised exception must be allowed
    by the effect.
    """
    if stepped is _UNSTEPPED:
        stepped = ev.step_expr(e)
    if stepped is None:
        return PASS  # no step: nothing to preserve
    mv, info = stepped
    ehat = eff_of(info.mgc_atom) if info.mgc_atom is not None else PURE
    den = Denotation(checker.sigs)
    if info.mgc_atom is not None and not checker.sigs.sub_eff({}, ehat, eff):
        return Verdict(
            False,
            f"magic step raises {info.mgc_atom!r}, not allowed by {eff!r}",
        )
    if isinstance(mv, ExcValue) and mv.tag == "raised":
        allowed = den.exc_set(eff)
        if allowed is not None and mv.payload not in allowed:
            return Verdict(
                False, f"raised {mv.payload} outside excSet({eff!r})")
        return PASS
    for e2 in ev.monad.elements(mv, prefix):
        try:
            t2, f2 = checker.type_expr({}, {}, e2)
        except TypecheckError as err:
            return Verdict(False, f"step result {e2!r} is ill-typed: {err}")
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


def _exc_samples(X, names=("E", "MyE", "Fail")):
    out = [ExcValue("pure", x) for x in X]
    out += [ExcValue("raised", n) for n in names]
    out.append(ExcValue("bottom"))
    return out


def _list_samples(X):
    out = [LazyList.of()]
    out += [LazyList.of(x) for x in X]
    out += [LazyList.of(x, y) for x in X for y in X]
    return out


def _dist_samples(X):
    half = Fraction(1, 2)
    out = [Dist({})]
    out += [Dist({x: 1}) for x in X]
    out += [Dist({x: half}) for x in X]
    out += [Dist({x: half, y: half}) for x in X for y in X if x != y]
    return out


def _id_samples(X):
    return [IdValue("val", x) for x in X] + [ID_BOTTOM]


def monad_samples(monad_name: str, X):
    return {
        "exc": _exc_samples,
        "list": _list_samples,
        "dist": _dist_samples,
        "id": _id_samples,
    }[monad_name](X)


def _subsets(X):
    xs = list(X)
    out = []
    for mask in range(1 << len(xs)):
        out.append(frozenset(x for i, x in enumerate(xs) if mask >> i & 1))
    return out


def _functions(X, Y):
    xs, ys = list(X), list(Y)
    if not xs:
        return [{}]
    out = []
    idx = [0] * len(xs)
    while True:
        out.append({x: ys[i] for x, i in zip(xs, idx)})
        j = 0
        while j < len(xs):
            idx[j] += 1
            if idx[j] < len(ys):
                break
            idx[j] = 0
            j += 1
        else:
            break
        if j == len(xs):
            break
    return out


def interp_law_suite(interp: EffectInterp, sigs: Sigs, effects,
                     X=(0, 1, 2)) -> list:
    """Brute-force the four lifting laws; returns the list of violations.

    1. naturality: lifting commutes with inverse images along any function;
    2. effect-monotonicity: eff <= eff' implies lift_eff(A) <= lift_eff'(A);
    3. unit: x in A implies unit(x) in lift_pure(A);
    4. multiplication: lifting twice then flattening lands in lift_{eff v eff'}.
    """
    monad = interp.monad
    mname = monad.name
    X = tuple(X)
    Y = X
    viol = []
    samples = monad_samples(mname, X)
    subsets = _subsets(X)
    funcs = _functions(X, Y)

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
    inner = samples
    mm_samples = [monad.unit(m) for m in inner]
    if mname == "exc":
        mm_samples += [m for m in inner
                       if getattr(m, "tag", None) in ("raised", "bottom")]
    if len(inner) >= 2:
        # two-element outer containers, where the monad has them
        if mname == "list":
            mm_samples += [LazyList.of(a, b) for a in inner[:4] for b in inner[:4]]
        elif mname == "dist":
            half = Fraction(1, 2)
            mm_samples += [
                Dist([(a, half), (b, half)])
                for a in inner[:4] for b in inner[:4] if a is not b
            ]
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


class BrokenExcInterp(ExcInterp):
    """A deliberately broken interpretation: excSet(top) is empty, so
    widening an effect to top can shrink the lifted predicate (law 2)."""

    def lift(self, eff, pred):
        allowed = frozenset() if eff.top else self.den.exc_set(eff)

        def ok(m: ExcValue) -> bool:
            if m.tag == "pure":
                return bool(pred(m.payload))
            if m.tag == "raised":
                return allowed is not None and m.payload in allowed
            return True

        return ok


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
                    fuel: int = 10000, finitary_fuel: Optional[int] = None,
                    approx_to: int = 64,
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

    # per-step progress and subject reduction, over distinct reachable exprs
    seen = {e0}
    frontier = [e0]
    budget = fuel
    steps_ok = True
    while frontier and budget > 0:
        cur = frontier.pop()
        try:
            t, f = checker.type_expr({}, {}, cur)
        except TypecheckError as err:
            rep.add(name, monad_name, "subject-reduction", False,
                    f"reachable expression ill-typed: {err}")
            steps_ok = False
            continue
        stepped = ev.step_expr(cur)
        v = check_progress(checker, ev, cur, stepped)
        if not v:
            rep.add(name, monad_name, "progress", False, v.witness)
            steps_ok = False
        if stepped is None:
            continue
        budget -= 1
        v = check_lifted_step(checker, ev, cur, t, f, stepped, prefix)
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
    # per-step walk, so it gets its own default bound)
    if finitary_fuel is None:
        finitary_fuel = min(fuel, 1000)
    try:
        res = ev.finitary(e0, finitary_fuel)
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
    ascending = all(
        ev.monad.leq(a, b) for a, b in zip(chain, chain[1:]))
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
