"""The monadic operational semantics.

An ``Evaluator`` lifts the pure stepper into a chosen monad:

* ``mon_step`` performs one monadic reduction step on an expression
  (pure step, magic call, do-return, or do-context);
* ``step_config_traced``/``big_step`` run the step on configurations
  ``E e | R r``;
* ``finitary`` iterates to a monadic *result* under a fuel bound and a
  prefix/support bound, raising ``Diverged`` when fuel runs out;
* ``approx`` / ``approx_chain`` give the n-step lower approximations of the
  infinitary semantics (unresolved configurations truncated to bottom).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from .monads import LazyList, Monad, RunRegistry, default_registry, get_monad
from .parser import pretty_expr, pretty_value
from .reducer import Magic, mbody, pure_step
from .signatures import Sigs
from .syntax import Call, Do, EffCall, Program, Return, erase_type, subst_expr


# ---------------------------------------------------------------------------
# Configurations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VRes:
    value: Any

    def __repr__(self):
        return f"V {pretty_value(self.value)}"


class _Wrong:
    def __repr__(self):
        return "wrong"


WRONG = _Wrong()


@dataclass(frozen=True)
class EConf:
    expr: Any

    def __repr__(self):
        return f"E {pretty_expr(self.expr)}"


@dataclass(frozen=True)
class RConf:
    result: Any  # VRes | WRONG

    def __repr__(self):
        return f"R {self.result!r}"


@dataclass(frozen=True)
class StepInfo:
    rule: str  # pure | catch-stop | catch-continue | fwd | mgc | ret
    mgc_atom: Optional[EffCall] = None


@dataclass(frozen=True)
class TraceLine:
    rule: str
    text: str

    def render(self, n: int) -> str:
        return f"{n}: [{self.rule}] {self.text}"


class Diverged(Exception):
    def __init__(self, steps: int):
        super().__init__(f"no result after {steps} steps")
        self.steps = steps


class PrefixExceeded(Exception):
    pass


_CLAUSE_RULES = ("catch-stop", "catch-continue", "fwd")


# ---------------------------------------------------------------------------
# The evaluator
# ---------------------------------------------------------------------------


class Evaluator:
    def __init__(self, program: Program, monad: str = "exc",
                 registry: Optional[RunRegistry] = None, prefix: int = 256):
        self.program = program
        self.sigs = Sigs(program)
        self.monad: Monad = get_monad(monad) if isinstance(monad, str) else monad
        self.registry = registry if registry is not None \
            else default_registry(self.monad, self.sigs)
        self.prefix = prefix

    # -- expression-level stepping ------------------------------------------

    def mon_step(self, e) -> Optional[tuple]:
        """One monadic step: (monadic value of expressions, StepInfo), or
        None when the expression is a normal form or stuck."""
        ps = pure_step(self.sigs, e)
        if ps is not None:
            e2, rule = ps
            label = rule if rule in _CLAUSE_RULES else "pure"
            return self.monad.unit(e2), StepInfo(label)
        if isinstance(e, Call):
            r = mbody(self.sigs, e.recv, e.method)
            if not isinstance(r, Magic):
                return None
            mv = self.registry.run(r.typeName, e.method, e.recv, e.args)
            if mv is None:
                return None
            atom = EffCall(erase_type(e.recv), e.method, e.targs)
            return self.monad.map_m(Return, mv), StepInfo("mgc", atom)
        if isinstance(e, Do):
            if isinstance(e.first, Return):
                e2 = subst_expr(e.rest, {}, {e.var: e.first.value})
                return self.monad.unit(e2), StepInfo("ret")
            inner = self.mon_step(e.first)
            if inner is None:
                return None
            mv, info = inner
            var, rest = e.var, e.rest
            return self.monad.map_m(lambda e1: Do(var, e1, rest), mv), info
        return None

    # -- configuration-level stepping ---------------------------------------

    def step_config_traced(self, c) -> tuple:
        """stepConfig with its rule label: (monadic configurations, label)."""
        if isinstance(c, RConf):
            return self.monad.unit(c), "res"
        e = c.expr
        if isinstance(e, Return):
            return self.monad.unit(RConf(VRes(e.value))), "ret"
        stepped = self.mon_step(e)
        if stepped is None:
            return self.monad.unit(RConf(WRONG)), "wrong"
        mv, info = stepped
        return self.monad.map_m(EConf, mv), info.rule

    def big_step(self, mc, labels: Optional[set] = None):
        """Step every configuration of ``mc`` once; ``labels``, if given,
        collects the rule of each expression configuration stepped."""

        def step(c):
            m, rule = self.step_config_traced(c)
            if labels is not None and isinstance(c, EConf):
                labels.add(rule)
            return m

        mc2 = self.monad.bind(mc, step)
        if isinstance(mc2, LazyList):
            mc2.take(self.prefix)  # keep the generator nesting shallow
        return mc2

    # -- whole runs ----------------------------------------------------------

    def initial(self, e):
        return self.monad.unit(EConf(e))

    def _configs(self, mc) -> list:
        elems = self.monad.elements(mc, self.prefix + 1)
        if len(elems) > self.prefix:
            raise PrefixExceeded(
                f"more than {self.prefix} branches; raise --prefix")
        return elems

    def finitary(self, e, fuel: int = 10000, trace: Optional[list] = None):
        """Iterate ``big_step`` until every branch is a result.

        Returns the monadic value of results (``VRes`` / ``WRONG``).  A trace
        list, if given, receives one ``TraceLine`` per step taken.
        """
        mc = self.initial(e)
        for n in range(fuel + 1):
            if all(isinstance(c, RConf) for c in self._configs(mc)):
                return self.monad.map_m(lambda c: c.result, mc)
            if n == fuel:
                raise Diverged(fuel)
            labels = set() if trace is not None else None
            mc = self.big_step(mc, labels)
            if trace is not None:
                # a lazy bind steps configurations as it is forced; _show
                # forces one past the prefix, so either every configuration
                # has been labelled or the next _configs raises
                text = self._show(mc)
                trace.append(TraceLine(",".join(sorted(labels)), text))

    def approx(self, e, n: int):
        """The n-step approximation: unfinished branches become bottom."""
        mc = self.initial(e)
        for _ in range(n):
            mc = self.big_step(mc)
        return self._truncate(mc)

    def approx_chain(self, e, upto: int) -> list:
        """[approx(e, 0), ..., approx(e, upto)] computed incrementally."""
        out = []
        mc = self.initial(e)
        out.append(self._truncate(mc))
        for _ in range(upto):
            mc = self.big_step(mc)
            out.append(self._truncate(mc))
        return out

    def _truncate(self, mc):
        u, bot = self.monad.unit, self.monad.bottom
        return self.monad.bind(
            mc, lambda c: u(c.result) if isinstance(c, RConf) else bot()
        )

    def _show(self, mc) -> str:
        if isinstance(mc, LazyList):
            elems = mc.take(self.prefix)
            inner = ", ".join(repr(c) for c in elems)
            more = "" if mc.exhausted_within(self.prefix) else ", ..."
            return f"[{inner}{more}]"
        return repr(mc)
