"""The acceptance gate: end-to-end behaviors the toolchain must exhibit.

Each test pins one observable contract — concrete traces and results for the
worked examples, the effect-polymorphic typing, the dynamic soundness sweep,
the lifting laws, and the requirement that every seeded fault breaks at
least one of the other checks.
"""

import time
from fractions import Fraction

import pytest

from mfj import faults
from mfj.evaluator import Diverged, Evaluator, VRes
from mfj.monads import Pure, Raised
from mfj.parser import numeral, parse_effect, parse_expr, parse_type
from mfj.prelude import prelude_program
from mfj.soundness import (
    BrokenExcInterp, Denotation, EffectInterp, IllTypedProgram,
    check_soundness, interp_law_suite, interps_for,
)
from mfj.syntax import PURE
from mfj.typer import Checker

from conftest import load
from golden import broken_violations, load_golden

# which monads each corpus program is meaningful under
APPLICABLE = {
    "bool_not": ["exc", "list", "dist", "id"],
    "nat_sum": ["exc", "list", "dist", "id"],
    "even_visitor": ["exc", "list", "dist", "id"],
    "lambda_apply": ["exc", "list", "dist", "id"],
    "diamond": ["exc", "list", "dist", "id"],
    "exc_e1": ["exc"],
    "exc_e2": ["exc"],
    "exc_effpoly": ["exc"],
    "failure_continue": ["exc"],
    "failure_stop": ["exc"],
    "failure_order": ["exc"],
    "handler_final": ["exc"],
    "generic_raise": ["exc"],
    "clause_order": ["exc"],
    "nd_m1": ["list", "dist"],
    "nd_m2": ["list", "dist"],
}


def run_exc(name, fuel=1000, trace=None):
    prog = load(name)
    ev = Evaluator(prog, "exc")
    return ev.finitary(prog.main, fuel, trace=trace)


# -- criterion 1: the exceptions example, caught ------------------------------


def test_e1_reaches_one_with_the_expected_trace():
    trace = []
    start = time.perf_counter()
    res = run_exc("exc_e1", fuel=15, trace=trace.append)
    elapsed = time.perf_counter() - start
    assert res == Pure(VRes(numeral(1)))
    assert len(trace) == 10
    assert [t.rule for t in trace] == ["pure"] * 8 + ["catch-stop", "ret"]
    assert elapsed < 1.0


# -- criterion 2: the exceptions example, uncaught ----------------------------


def test_e2_forwards_to_the_monad():
    assert run_exc("exc_e2") == Raised("E")


# -- criterion 3: failure, resumed and discarded ------------------------------


def test_failure_continue_resumes_with_zero():
    assert run_exc("failure_continue") == Pure(VRes(numeral(1)))


def test_failure_stop_discards_the_sum():
    assert run_exc("failure_stop") == Pure(VRes(numeral(0)))


# -- criterion 4: nondeterminism under the list monad -------------------------


def test_m1_list_results_in_order():
    prog = load("nd_m1")
    res = Evaluator(prog, "list").finitary(prog.main, 1000)
    assert res.to_list() == [VRes(numeral(1)), VRes(numeral(0))]


def test_m2_diverges_under_fuel():
    prog = load("nd_m2")
    with pytest.raises(Diverged):
        Evaluator(prog, "list").finitary(prog.main, 1000)


def test_m2_approximation_enumerates_naturals():
    prog = load("nd_m2")
    approx = Evaluator(prog, "list").approx(prog.main, 40)
    assert approx.take(3) == [VRes(numeral(0)), VRes(numeral(1)),
                              VRes(numeral(2))]


# -- criterion 5: probability under the distribution monad --------------------


def test_m1_is_a_fair_coin():
    prog = load("nd_m1")
    res = Evaluator(prog, "dist").finitary(prog.main, 1000)
    assert res.as_dict() == {
        VRes(numeral(1)): Fraction(1, 2),
        VRes(numeral(0)): Fraction(1, 2),
    }


def test_m2_weights_are_geometric():
    prog = load("nd_m2")
    weights = Evaluator(prog, "dist").approx(prog.main, 64).as_dict()
    for n in range(6):
        assert weights[VRes(numeral(n))] == Fraction(1, 2 ** (n + 1))


# -- criterion 6: effect-polymorphic conditional ------------------------------


def test_conditional_effect_is_exactly_the_branch_effect():
    checker = Checker(load("exc_effpoly"))
    gamma = {"b": parse_type("Bool")}
    t, eff = checker.type_expr(
        {}, gamma, parse_expr("b.if[Nat MyTEType](MyTE)"))
    assert checker.sigs.sub_type({}, t, parse_type("Nat"))
    assert eff == parse_effect("MyException.throw[Nat]")


def test_conditional_effect_is_fully_discharged_by_a_handler():
    # the handler filter must act on the simplified effect
    checker = Checker(load("exc_effpoly"))
    gamma = {"b": parse_type("Bool")}
    e = parse_expr(
        "try b.if[Nat MyTEType](MyTE) "
        "with MyException.throw : [X] <x, return 0> stop")
    _, eff = checker.type_expr({}, gamma, e)
    assert eff == PURE


# -- criterion 7: the soundness theorems, executed ----------------------------


def test_soundness_sweep_over_the_corpus():
    assert len(APPLICABLE) >= 12
    golden = load_golden()
    start = time.perf_counter()
    failures = []
    changed = []
    for name, monads in APPLICABLE.items():
        prog = load(name)
        for monad in monads:
            rep = check_soundness(prog, monad, name=name, fuel=10000,
                                  approx_to=64)
            failures.extend(rep.failures())
            if rep.to_json() != golden[f"{name}/{monad}"]["soundness"]:
                changed.append(f"{name}/{monad}")
    elapsed = time.perf_counter() - start
    assert failures == []
    # the reports, witnesses included, are the ones recorded in the golden
    assert changed == []
    assert elapsed < 60.0


# -- criterion 8: the interpretation laws -------------------------------------


LAW_EFFECTS = [
    "pure", "top", "Exception.throw[Nat]", "MyException.throw[Nat]",
    "Failure[Nat].fail", "Chooser.choose",
    "Exception.throw[Nat] \\/ Chooser.choose",
]


def _law_setup():
    prog = prelude_program()
    sigs = Checker(prog).sigs
    den = Denotation(sigs)
    effects = [parse_effect(src) for src in LAW_EFFECTS]
    return sigs, den, effects


@pytest.mark.parametrize("monad,idx", [
    ("exc", 0), ("list", 0), ("list", 1), ("dist", 0), ("dist", 1), ("id", 0),
])
def test_interp_laws_hold(monad, idx):
    sigs, den, effects = _law_setup()
    interp = interps_for(monad, den)[idx]
    assert interp_law_suite(interp, sigs, effects) == []


def test_the_law_suite_builds_each_lifting_once(monkeypatch):
    # one lifting per (effect, subset), the 7 effects and their 7 new
    # joins, and one per (effect, effect, subset) for law 4's outer
    # lifting: 8 * (7 + 7) + 8 * 7 * 7; two per law instance would be 4,560
    built = []
    real = EffectInterp.lift

    def counted(self, eff, pred):
        built.append(eff)
        return real(self, eff, pred)

    monkeypatch.setattr(EffectInterp, "lift", counted)
    sigs, den, effects = _law_setup()
    assert interp_law_suite(interps_for("exc", den)[0], sigs, effects) == []
    assert len(built) == 504


def test_broken_interp_fails_monotonicity():
    sigs, den, effects = _law_setup()
    violations = interp_law_suite(BrokenExcInterp(den), sigs, effects)
    assert violations
    assert any("monotonicity" in v for v in violations)
    assert violations == load_golden()["laws/broken-exc"]


@pytest.mark.parametrize("monad", ["list", "dist"])
def test_broken_liftings_report_the_recorded_violations(monad):
    # the same naturality and multiplication violations, in the same order
    violations = broken_violations(monad)
    assert {v.split()[0] for v in violations} == {"naturality",
                                                  "multiplication"}
    assert violations == load_golden()[f"laws/broken-{monad}"]


# -- criterion 9: every seeded fault is observable ----------------------------


def test_fault_reverse_clause_match_breaks_soundness():
    with faults.inject("reverse_clause_match"):
        rep = check_soundness(load("clause_order"), "exc", fuel=1000)
    assert not rep.ok


def test_fault_skip_invk_type_subst_breaks_soundness():
    with faults.inject("skip_invk_type_subst"):
        rep = check_soundness(load("generic_raise"), "exc", fuel=1000)
    assert not rep.ok


def test_fault_flip_symsum_kinds_breaks_the_diamond():
    with faults.inject("flip_symsum_kinds"):
        with pytest.raises(IllTypedProgram):
            check_soundness(load("diamond"), "exc", fuel=1000)


def test_fault_filter_before_simplify_breaks_handler_typing():
    with faults.inject("filter_before_simplify"):
        checker = Checker(load("exc_effpoly"))
        e = parse_expr(
            "try b.if[Nat MyTEType](MyTE) "
            "with MyException.throw : [X] <x, return 0> stop")
        _, eff = checker.type_expr({}, {"b": parse_type("Bool")}, e)
    assert eff != PURE


def test_fault_swap_list_bind_breaks_list_order():
    with faults.inject("swap_list_bind"):
        prog = load("nd_m1")
        res = Evaluator(prog, "list").finitary(prog.main, 1000)
        observed = res.to_list()
    assert observed != [VRes(numeral(1)), VRes(numeral(0))]


def test_all_faults_are_off_by_default():
    assert faults.ACTIVE == faults.Faults()


def test_an_unknown_fault_is_refused_and_changes_nothing():
    with pytest.raises(ValueError, match="^unknown fault 'no_such_fault'$"):
        with faults.inject("no_such_fault"):
            pass
    assert faults.ACTIVE == faults.Faults()
