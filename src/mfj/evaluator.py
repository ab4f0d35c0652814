"""The monadic operational semantics, run as a frame-stack machine.

An expression configuration is a *focus* plus a persistent stack of frames
around it, innermost first: ``DoFrame(var, rest)`` for ``do var = []; rest``
and ``TryFrame(handler)`` for ``try [] with handler``.  ``EConf(e, frames)``
plugs ``e`` into ``frames`` and decomposes the result once more down to the
place where the next step of the semantics happens (refocusing, Danvy &
Nielsen 2004): through every ``try``, and through a ``do`` unless the frame
just outside it is a ``try`` (there ``try-do`` fires first).  So every
configuration is in that one decomposition, and two configurations are equal
exactly when their plugged terms, ``EConf.expr``, are equal; ``EConf`` is a
hash-consed node, so equal configurations are one object.

An ``Evaluator`` lifts the pure stepper into a chosen monad:

* ``mon_step`` performs one monadic step on a configuration (a pure rule,
  a magic call, or do-return), looking only at the focus and its top frame,
  so a step costs the same at any context depth; a table of up to
  ``prefix + 1`` recent steps, emptied when full, reduces equal branches of
  a big step once, and they share its result, which must never change.
  Under a ``try`` frame it takes the ``try``'s own rules with the frame's
  handler (``reducer.try_step``), and a call to a ``def`` method reduces in
  place, under the same frames: that is try-ctx, and ``EConf`` makes the
  result the same configuration as plugging it back into the ``try``;
* ``run_magic`` gives a magic call its result straight from the monad's
  ``magic`` table, the one place a magic method gets its meaning, from the
  lookup ``mon_step`` has done;
* ``step_config`` is stepConfig, the one map from a configuration to the
  monadic configurations it steps to (a final return to ``R V``, a stuck
  configuration to ``R wrong``, any other to ``mon_step``'s value), and
  the stepper ``big_step`` binds, traced or not; it finds ``mon_step`` on
  the evaluator each time it steps, so a wrapper installed later sees
  every step;
* ``finitary`` iterates to a monadic *result* under a fuel bound and a
  prefix/support bound, raising ``Diverged`` when fuel runs out;
* ``approx`` / ``approx_chain`` give the n-step lower approximations of the
  infinitary semantics (unresolved configurations truncated to bottom).
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Optional

from .monads import Monad, get_monad
from .parser import pretty
from .reducer import Magic, mbody, pure_step, try_step
from .signatures import Sigs
from .syntax import (
    Call, Do, EffCall, Handler, Program, Return, Try, erase_type, node,
    record, subst_expr,
)


# ---------------------------------------------------------------------------
# Configurations
# ---------------------------------------------------------------------------


@node
class VRes:
    value: Any

    def __repr__(self):
        return f"V {pretty(self.value)}"


class _Wrong:
    def __repr__(self):
        return "wrong"


WRONG = _Wrong()


@node
class DoFrame:
    """``do var = []; rest``, inside the frames ``below``."""

    var: str
    rest: Any
    below: Any  # the next frame out, or None
    shape = "rest below?; var / > rest"


@node
class TryFrame:
    """``try [] with handler``, inside the frames ``below``."""

    handler: Handler
    below: Any
    shape = "handler below?"


@node
class EConf:
    """An expression configuration: a focus and the frames around it."""

    focus: Any
    frames: Any  # DoFrame | TryFrame | None

    @staticmethod
    def canon(e, frames=None):
        while True:
            if isinstance(e, Try):
                frames, e = TryFrame(e.handler, frames), e.body
            elif isinstance(e, Do) and not isinstance(frames, TryFrame):
                frames, e = DoFrame(e.var, e.rest, frames), e.first
            else:
                return e, frames

    @property
    def expr(self):
        """The whole expression: the focus plugged into its frames."""
        e, k = self.focus, self.frames
        while k is not None:
            e = Do(k.var, e, k.rest) if isinstance(k, DoFrame) \
                else Try(e, k.handler)
            k = k.below
        return e

    def __repr__(self):
        return f"E {pretty(self.expr)}"


@node
class RConf:
    result: Any  # VRes | WRONG

    def __repr__(self):
        return f"R {self.result!r}"


@record
class StepInfo:
    rule: str  # pure | catch-stop | catch-continue | fwd | mgc | ret
    mgc_atom: Optional[EffCall] = None


@record
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


# the StepInfo of each rule ``pure_step`` names, and of do-return, built once
_INFO = {**dict.fromkeys(("invk", "try-ret", "try-do"), StepInfo("pure")),
         **{r: StepInfo(r) for r in ("catch-stop", "catch-continue", "fwd",
                                     "ret")}}

# a run's default step bound, prefix/support bound and approximation length
FUEL, PREFIX, APPROX = 10000, 256, 64


def bound(n: int, least: int = 0) -> int:
    """``n``, a step count or bound, if it is at least ``least`` (0 or 1);
    else a ``ValueError`` worded as the CLI words it."""
    if n < 0:
        raise ValueError(f"must not be negative: {n}")
    if n < least:
        raise ValueError(f"must be positive: {n}")
    return n


# ---------------------------------------------------------------------------
# The evaluator
# ---------------------------------------------------------------------------


class Evaluator:
    def __init__(self, program: Program, monad: str = "exc",
                 prefix: int = PREFIX):
        self.program = program
        self.sigs = Sigs(program)
        self.monad: Monad = get_monad(monad)
        self.prefix = bound(prefix, 1)
        self._steps: dict = {}  # configuration -> mon_step's result

    # -- stepping ------------------------------------------------------------

    def mon_step(self, c: EConf) -> Optional[tuple]:
        """One monadic step: (monadic value of configurations, StepInfo), or
        None when the configuration is a normal form or stuck.  A step
        depends only on its configuration, so ``_steps`` keeps recent ones,
        keyed on the configuration (a node: by identity).  One big
        step has at most ``prefix + 1`` configurations; the table holds as
        many and is emptied when full, so no eviction order is kept."""
        steps = self._steps
        stepped = steps.get(c, steps)  # the table itself: not there
        if stepped is steps:
            if len(steps) > self.prefix:
                steps.clear()
            stepped = steps[c] = self._reduce(c)
        return stepped

    def _reduce(self, c: EConf) -> Optional[tuple]:
        """``mon_step`` without the table.  The method of a call in focus
        is looked up once, here.  Under a ``try`` frame the rules of the
        ``try`` itself come first (``try_step``, given the frame's
        handler); failing those, a call steps by invk in place, under the
        same frames, which is try-ctx without rebuilding the ``try``."""
        f, top = c.focus, c.frames
        found = mbody(self.sigs, f.recv, f.method) if isinstance(f, Call) \
            else None
        if isinstance(top, TryFrame):
            ps = try_step(self.sigs, f, top.handler, found)
            if ps is not None:
                e2, rule = ps
                return self.monad.unit(EConf(e2, top.below)), _INFO[rule]
        # a call whose method is found: invk, if it is a def method
        ps = pure_step(self.sigs, f, found) if found is not None else None
        if ps is not None:
            e2, rule = ps
            return self.monad.unit(EConf(e2, top)), _INFO[rule]
        # under a try, a magic call or a return has taken a rule above
        if isinstance(found, Magic):
            mv = self.run_magic(f, found)
            if mv is None:
                return None
            atom = EffCall(erase_type(f.recv), f.method, f.targs)
            return (self.monad.map_m(lambda v: EConf(Return(v), top), mv),
                    StepInfo("mgc", atom))
        if isinstance(f, Return) and top is not None:
            e2 = subst_expr(top.rest, {}, {top.var: f.value})
            return self.monad.unit(EConf(e2, top.below)), _INFO["ret"]
        return None

    def run_magic(self, call: Call, found: Magic):
        """The monadic result of ``call``, whose method ``mbody`` has
        ``found`` magic: the monad's ``magic`` entry for the method, given
        the name of the type it was found through, or None (stuck) when the
        monad has none or the call passes arguments."""
        result = self.monad.magic.get(call.method)
        if result is None or call.args:
            return None
        return result(found.typeName)

    def step_config(self, c: EConf, labels: Optional[set] = None):
        """stepConfig: the monadic configurations ``c`` steps to, a final
        return its result, a stuck configuration ``wrong`` and any other
        ``mon_step``'s value; ``labels``, if given, collects the rule."""
        if c.frames is None and isinstance(c.focus, Return):
            mv, rule = self.monad.unit(RConf(VRes(c.focus.value))), "ret"
        else:
            stepped = self.mon_step(c)
            if stepped is None:
                mv, rule = self.monad.unit(RConf(WRONG)), "wrong"
            else:
                mv, rule = stepped[0], stepped[1].rule
        if labels is not None:
            labels.add(rule)
        return mv

    def big_step(self, mc, labels: Optional[set] = None):
        """Step every expression configuration of ``mc`` once and pass the
        results through; ``labels``, if given, collects the rule of each
        configuration stepped."""
        # the method itself, not a closure made per call; it is not kept on
        # the evaluator, which would then be a reference cycle, freed only
        # by the cyclic collector
        step = self.step_config if labels is None \
            else partial(self.step_config, labels=labels)
        mc2 = self.monad.bind_unless(mc, step, RConf)
        self.monad.force(mc2, self.prefix)
        return mc2

    # -- whole runs ----------------------------------------------------------

    def initial(self, e):
        return self.monad.unit(EConf(e))

    def finitary(self, e, fuel: int = FUEL,
                 trace: Optional[Callable[[TraceLine], Any]] = None):
        """Iterate ``big_step`` until every branch is a result.

        Returns the monadic value of results (``VRes`` / ``WRONG``).  A trace
        callback, if given, is called with one ``TraceLine`` per step, as
        soon as the step is taken.  A negative ``fuel`` is a ``ValueError``.
        """
        bound(fuel)
        mc = self.initial(e)
        elements, prefix = self.monad.elements, self.prefix
        for n in range(fuel + 1):
            elems = elements(mc, prefix + 1)
            if len(elems) > prefix:
                raise PrefixExceeded(
                    f"more than {prefix} branches; raise --prefix")
            for c in elems:
                if isinstance(c, EConf):
                    break
            else:
                return self.monad.map_m(lambda c: c.result, mc)
            if n == fuel:
                raise Diverged(fuel)
            labels = set() if trace is not None else None
            mc = self.big_step(mc, labels)
            if trace is not None:
                # a lazy bind steps configurations as it is forced; showing
                # forces one past the prefix, so either every configuration
                # has been labelled or the next elements raise
                text = self.monad.show(mc, self.prefix)
                trace(TraceLine(",".join(sorted(labels)), text))

    def approx(self, e, n: int):
        """The n-step approximation: unfinished branches become bottom."""
        bound(n)
        mc = self.initial(e)
        for _ in range(n):
            mc = self.big_step(mc)
        return self._truncate(mc)

    def approx_chain(self, e, upto: int) -> list:
        """[approx(e, 0), ..., approx(e, upto)] computed incrementally."""
        bound(upto)
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
