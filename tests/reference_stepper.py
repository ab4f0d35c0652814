"""The reference stepper: the monadic step of the semantics on whole
expressions, as the paper states it.

It finds the redex again on every step, going down through every enclosing
``do`` and rebuilding each level with ``map_m``, so a step costs time in
proportion to the depth of the evaluation context.  ``Evaluator.mon_step``
must take exactly the same steps; ``test_machine.py`` checks that it does.
"""

from mfj.evaluator import StepInfo
from mfj.reducer import Magic, mbody, pure_step
from mfj.syntax import Call, Do, EffCall, Return, erase_type, subst_expr

_CLAUSE_RULES = ("catch-stop", "catch-continue", "fwd")


def reference_step(ev, e):
    """One monadic step of ``e`` under ``ev``'s monad: (monadic value of
    expressions, StepInfo), or None."""
    ps = pure_step(ev.sigs, e)
    if ps is not None:
        e2, rule = ps
        label = rule if rule in _CLAUSE_RULES else "pure"
        return ev.monad.unit(e2), StepInfo(label)
    if isinstance(e, Call):
        found = mbody(ev.sigs, e.recv, e.method)
        if not isinstance(found, Magic):
            return None
        mv = ev.run_magic(e, found)
        if mv is None:
            return None
        atom = EffCall(erase_type(e.recv), e.method, e.targs)
        return ev.monad.map_m(Return, mv), StepInfo("mgc", atom)
    if isinstance(e, Do):
        if isinstance(e.first, Return):
            e2 = subst_expr(e.rest, {}, {e.var: e.first.value})
            return ev.monad.unit(e2), StepInfo("ret")
        inner = reference_step(ev, e.first)
        if inner is None:
            return None
        mv, info = inner
        var, rest = e.var, e.rest
        return ev.monad.map_m(lambda e1: Do(var, e1, rest), mv), info
    return None
