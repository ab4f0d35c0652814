"""Tests of the benchmark itself:  python3 -m pytest perfbench -q

The generators and references must reproduce the acceptance constants at
small sizes, generated programs must get the verdicts recorded for them,
and tracing must count the same things twice, change no result, and leave
the toolchain exactly as it found it.
"""

import json
import random
import signal
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import mfj  # noqa: E402
import calib  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import work  # noqa: E402


def evaluate(source, monad, prefix=256):
    prog = mfj.load_program(source)
    assert mfj.Checker(prog).check_program() == []
    return work.observe(work.force(
        mfj.Evaluator(prog, monad, prefix=prefix).finitary(prog.main, 10000)))


# -- generators and references --------------------------------------------------


@pytest.mark.parametrize("monad", ["exc", "id"])
@pytest.mark.parametrize("wrapped", [False, True])
def test_small_sum_is_five(monad, wrapped):
    assert evaluate(gen.sum_source(2, 3, wrapped), monad) == 5


def test_one_coin_matches_nd_m1():
    assert gen.coin_list([1]) == [1, 0]
    assert gen.coin_dist([1]) == {1: Fraction(1, 2), 0: Fraction(1, 2)}
    src = gen.coin_source([1])
    assert evaluate(src, "list", prefix=2) == [1, 0]
    assert evaluate(src, "dist") == {1: Fraction(1, 2), 0: Fraction(1, 2)}


def test_weighted_coins_match_enumeration():
    weights = [3, 1, 2]
    src = gen.coin_source(weights)
    assert evaluate(src, "list", prefix=8) == gen.coin_list(weights)
    assert evaluate(src, "dist") == gen.coin_dist(weights)
    assert gen.coin_dist([1, 1, 1])[1] == Fraction(3, 8)  # a binomial weight


def test_nd_m2_approximation_is_geometric():
    prog = mfj.load_program((HERE.parent / "corpus" / "nd_m2.mfj").read_text())
    for monad in ("list", "dist"):
        got = work.observe(work.force(
            mfj.Evaluator(prog, monad).approx(prog.main, 64)))
        assert work._geometric(got)
    assert gen.geometric(0) == Fraction(1, 2)


def test_same_seed_same_items():
    corpus = work.load_corpus()
    for w in gen.WORKLOADS:
        a = gen.make_items(w, 7, corpus)
        b = gen.make_items(w, 7, corpus)
        assert [(i.name, i.source) for i in a] == [(i.name, i.source) for i in b]
    assert gen.deep_eval(7) != gen.deep_eval(8)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_generated_programs_get_their_recorded_verdicts(seed):
    rng = random.Random(seed)
    for broken in (False, True):
        src, bad = gen.large_program(rng, 40, broken)
        assert (bad is not None) == broken
        item = gen.Item("p", "check", source=src,
                        expect=["OverrideError"] if bad else [],
                        params={"bad": bad})
        diags = mfj.Checker(mfj.load_program(src)).check_program()
        ok, _, why = work.verify(item, diags)
        assert ok, why


def test_a_wrong_result_is_a_failure():
    item = gen.Item("s", "sum", "exc", gen.sum_source(2, 3, False), 6)
    prog = mfj.load_program(item.source)
    raw = mfj.Evaluator(prog, "exc").finitary(prog.main, 1000)
    ok, out, _ = work.verify(item, raw)
    assert not ok and out == "5"


# -- tracing ---------------------------------------------------------------------


def snapshot():
    """Every attribute of every mfj module and of the classes they define."""
    out = {}
    for mod in tracer._mfj_modules():
        for key, val in vars(mod).items():
            out[(mod.__name__, key)] = val
            if isinstance(val, type) and val.__module__ == mod.__name__:
                for attr, member in vars(val).items():
                    out[(mod.__name__, key, attr)] = member
    return out


def test_tracing_restores_every_patched_attribute():
    before = snapshot()
    tr = tracer.Tracer()
    with pytest.raises(RuntimeError):
        with tr:
            assert tr._patched
            raise RuntimeError("stop half way")
    after = snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert tr.missing == []


def test_counting_steps_restores_mon_step():
    orig = mfj.Evaluator.__dict__["mon_step"]
    with tracer.count_steps() as steps:
        evaluate(gen.sum_source(3, 2, False), "exc")
    assert mfj.Evaluator.__dict__["mon_step"] is orig
    assert steps[0] == 5 * 3 + 1


def traced_sum(a, monad="exc"):
    prog = mfj.load_program(gen.sum_source(a, a, False))
    tr = tracer.Tracer()
    with tr:
        res = mfj.Evaluator(prog, monad).finitary(prog.main, 100000)
    return tr, work.observe(res)


def test_traced_counts_repeat_and_results_match():
    tr1, out1 = traced_sum(40)
    tr2, out2 = traced_sum(40)
    m1, m2 = tr1.metrics(), tr2.metrics()
    counts = [k for k in m1 if not k.endswith("_s")]
    assert {k: m1[k] for k in counts} == {k: m2[k] for k in counts}
    assert out1 == out2 == evaluate(gen.sum_source(40, 40, False), "exc") == 80
    assert m1["evaluator.steps"] == 5 * 40 + 1
    assert m1["evaluator.big_step.calls"] == m1["evaluator.steps"] + 1
    assert m1["evaluator.max_context_depth"] == 40
    assert m1["monads.max_width"] == 1


def test_self_times_add_up_from_the_spans(tmp_path):
    tr, _ = traced_sum(20)
    tr.write_spans(tmp_path / "s.spans")
    spans = tracer.load_spans(tmp_path / "s.spans")
    n = len(spans["fid"])
    assert n == sum(tr.calls)
    dur = [spans["end"][i] - spans["start"][i] for i in range(n)]
    child = [0.0] * n
    for i in range(n):
        if spans["parent"][i] >= 0:
            child[spans["parent"][i]] += dur[i]
    self_s = [0.0] * len(tr.names)
    for i in range(n):
        self_s[spans["fid"][i]] += dur[i] - child[i]
    total_self = sum(tr.self_s)
    # the walk after big_step is no one's self time and no span
    assert sum(self_s) == pytest.approx(total_self + tr.walk_s, rel=1e-6, abs=1e-6)
    roots = sum(dur[i] for i in range(n) if spans["parent"][i] < 0)
    assert total_self + tr.walk_s == pytest.approx(roots, rel=1e-6)


# -- run.py: turning events into results ------------------------------------


def test_a_dead_child_fails_its_unfinished_items():
    events = [
        {"ev": "items", "names": ["a", "b", "c"]},
        {"ev": "item", "pass": 0, "i": 0, "ok": True, "ms": 1.0, "out": "1", "err": ""},
        {"ev": "item", "pass": 0, "i": 1, "ok": True, "ms": 1.0, "out": "2", "err": ""},
    ]
    s = run.summarize(events, -11)
    assert (s["attempted"], s["failed"], s["correct"]) == (3, 1, False)
    assert run.summarize([], 1)["attempted"] == 1


def test_an_output_that_changes_between_passes_is_not_correct():
    events = [{"ev": "items", "names": ["a"]}]
    for p, out in enumerate(["1", "2"]):
        events.append({"ev": "item", "pass": p, "i": 0, "ok": True, "ms": 1.0,
                       "out": out, "err": ""})
        events.append({"ev": "pass", "pass": p, "wall_s": 0.1, "timed": p > 0})
    s = run.summarize(events, 0)
    assert s["inconsistent"] == ["a"] and not s["correct"]


def test_benchmark_json_lists_what_the_runs_print():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in bench["end_to_end"]] == list(run.UNITS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == tracer.metric_units()
    assert [w["name"] for w in bench["workloads"]] == list(gen.WORKLOADS)


def test_times_are_scaled_by_the_reference_around_them():
    nominal = calib.NOMINAL_S * 1000.0
    events = [{"ev": "items", "names": ["a", "b"]}]
    for p in (0, 1):
        for i, (ms, ref) in enumerate([(10.0, nominal), (30.0, 2 * nominal)]):
            events.append({"ev": "item", "pass": p, "i": i, "ok": True,
                           "ms": ms, "ref_ms": ref, "out": "x", "err": ""})
        events.append({"ev": "pass", "pass": p, "wall_s": 0.04, "timed": p > 0})
    s = run.summarize(events, 0)
    assert s["walls_nominal"] == [pytest.approx(0.025)]
    assert s["item_ms_nominal"] == [pytest.approx(10.0), pytest.approx(15.0)]
    assert calib.harmonic_mean([1.0, 3.0]) == pytest.approx(1.5)


def test_the_sampler_samples_and_puts_the_timer_back():
    before = signal.getsignal(signal.SIGALRM)
    with calib.Sampler(period=0.005) as sampler:
        start = calib.time.perf_counter()
        while len(sampler.samples) < 3:
            evaluate(gen.sum_source(5, 5, False), "exc")
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert 0 < sampler.stolen < calib.time.perf_counter() - start
    assert len(sampler.since(start)) == len(sampler.samples)
    assert sampler.since(calib.time.perf_counter()) == []
