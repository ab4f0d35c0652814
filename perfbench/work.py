"""One workload, run in a fresh process; ``run.py`` starts it.

    python3 perfbench/work.py --workload W --seed N --seconds S --trace 0|1

It writes one JSON event per line on standard output and leaves every
statistic to ``run.py``, so that if this process dies, what it reported
before dying still counts:

    {"ev": "items", "names": [...]}
    {"ev": "item", "pass": P, "i": I, "ms": ..., "ref_ms": ..., "ok": ...,
     "out": ..., "err": ...}
    {"ev": "pass", "pass": P, "wall_s": ..., "timed": true|false}
    {"ev": "steps", "n": ...}                   (untraced run: steps per pass)
    {"ev": "rss", "mb": ...}                     (peak resident memory)
    {"ev": "layers", "metrics": {...}}           (traced run)

Without tracing, pass 0 is an untimed warm-up that also counts reduction
steps; later passes are timed, one after another, until ``--seconds`` have
passed.  Meanwhile ``calib.Sampler`` times the reference loop every 150 ms;
an item's ``ref_ms`` is the harmonic mean of its times during the item and
the three seconds before, and item and pass times leave out the time the
sampler took.  With tracing, pass 0 runs traced, after a traced first load of the
prelude, and the untimed passes that follow give the overhead ratio.
"""

from __future__ import annotations

import argparse
import json
import re
import resource
import statistics
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import calib  # noqa: E402
import gen  # noqa: E402
import tracer  # noqa: E402

FUEL = 100000
# how far back before an item the reference samples that scale it reach
REF_LEAD_S = 3.0


def emit(**event) -> None:
    sys.stdout.write(json.dumps(event) + "\n")
    sys.stdout.flush()


# ---------------------------------------------------------------------------
# Reading results without mfj's own printers
# ---------------------------------------------------------------------------


class Mismatch(Exception):
    pass


def nat(v) -> int:
    """The natural number a Zero/Succ object denotes."""
    n = 0
    while True:
        names = [p.name for p in v.parents]
        if names == ["Zero"]:
            return n
        if names != ["Succ"]:
            raise Mismatch(f"not a numeral: parents {names}")
        pred = [m for m in v.methods if m.name == "pred"]
        if len(pred) != 1 or type(pred[0].body).__name__ != "Return":
            raise Mismatch("numeral without a plain pred body")
        v = pred[0].body.value
        n += 1


def result_nat(r) -> int:
    """A ``V v`` result; anything else (``wrong``) is a mismatch."""
    if not hasattr(r, "value"):
        raise Mismatch(f"result is {r!r}")
    return nat(r.value)


def observe(mres):
    """A monadic result as plain Python: int, list of ints, or int -> weight."""
    if hasattr(mres, "to_list"):
        return [result_nat(r) for r in mres.to_list()]
    if hasattr(mres, "weights"):
        out = {}
        for r, w in mres.weights:
            out[result_nat(r)] = w
        return out
    if mres.tag in ("pure", "val"):
        return result_nat(mres.payload)
    raise Mismatch(f"no value: {mres!r}")


def force(mres):
    """Finish any lazy work inside the timed region."""
    if hasattr(mres, "to_list"):
        mres.to_list()
    return mres


def canon(x) -> str:
    if isinstance(x, dict):
        return "{" + ", ".join(f"{k}: {canon(v)}" for k, v in sorted(x.items())) + "}"
    if isinstance(x, Fraction):
        return str(x)
    return repr(x)


# ---------------------------------------------------------------------------
# Running one item
# ---------------------------------------------------------------------------


def run_item(mfj, item: gen.Item):
    """Call the item's entry point and return its raw result.  The caller's
    clock around this covers exactly what a user waits for."""
    if item.kind == "laws":
        sigs = mfj.Checker(mfj.prelude_program()).sigs
        interp = mfj.soundness.interps_for(
            item.monad, mfj.soundness.Denotation(sigs))[item.params["idx"]]
        effects = [mfj.parse_effect(src) for src in gen.LAW_EFFECTS]
        return mfj.interp_law_suite(interp, sigs, effects)
    prog = mfj.load_program(item.source)
    if item.kind == "soundness":
        return mfj.check_soundness(prog, item.monad, name=item.name,
                                   fuel=10000, approx_to=64).failures()
    diags = mfj.Checker(prog).check_program()
    if item.kind == "check" or diags:
        return diags
    prefix = 2 ** item.params["k"] if item.kind == "coins" else 256
    ev = mfj.Evaluator(prog, item.monad, prefix=prefix)
    if item.kind == "approx":
        return force(ev.approx(prog.main, item.params["n"]))
    return force(ev.finitary(prog.main, FUEL))


def verify(item: gen.Item, raw):
    """(ok, canonical output, why not) against the item's reference."""
    if item.kind in ("soundness", "laws"):
        out = [str(r) for r in raw]
        return out == [], canon(len(out)) + " failures", (
            "; ".join(out[:3]) + (f" (+{len(out) - 3} more)" if len(out) > 3 else ""))
    if item.kind == "check":
        codes = [d.code for d in raw]
        ok = codes == item.expect
        bad = item.params["bad"]
        if ok and bad is not None and not re.search(rf"\b{bad[1]}\b", raw[0].msg):
            return False, canon(codes), f"diagnostic does not name {bad[1]}: {raw[0]}"
        return ok, canon(codes), "" if ok else f"diagnostics {[str(d) for d in raw]}"
    if isinstance(raw, list):  # diagnostics from the check before running
        return False, "ill-typed", "; ".join(map(str, raw))
    try:
        got = observe(raw)
    except Mismatch as e:
        return False, "mismatch", str(e)
    if item.expect == "geometric":
        ok = _geometric(got)
    else:
        ok = got == item.expect
    return ok, canon(got), "" if ok else f"expected {canon(item.expect)}"


def _geometric(got) -> bool:
    """nd_m2's n-step approximation: results 0..K in order (K >= 1), each
    with weight 1/2^(n+1) under the distribution monad."""
    if isinstance(got, list):
        return len(got) >= 2 and got == list(range(len(got)))
    return (len(got) >= 2 and sorted(got) == list(range(len(got)))
            and all(w == gen.geometric(n) for n, w in got.items()))


def run_pass(mfj, items, index: int, sampler=None) -> float:
    """Run every item once; returns the summed time of the entry calls, less
    the sampler's share of it.  Each item's event carries the harmonic mean
    of the reference times sampled during it and in the ``REF_LEAD_S``
    before it (see ``calib.py``)."""
    wall = 0.0
    for i, item in enumerate(items):
        stolen = sampler.stolen if sampler else 0.0
        start = time.perf_counter()
        try:
            raw = run_item(mfj, item)
        except Exception as e:  # noqa: BLE001 -- a failing item is data
            secs = time.perf_counter() - start
            raw, err = None, e
        else:
            secs = time.perf_counter() - start
            err = None
        ref = None
        if sampler:
            secs -= sampler.stolen - stolen
            ref = mean_ms(sampler.since(start - REF_LEAD_S))
        if err is None:
            ok, out, why = verify(item, raw)
        else:
            ok, out = False, type(err).__name__
            why = traceback.format_exception_only(type(err), err)[-1].strip()
        wall += secs
        emit(ev="item", i=i, ok=ok, ms=secs * 1000.0, out=out, err=why,
             ref_ms=ref, **{"pass": index})
    return wall


def mean_ms(samples: list):
    return calib.harmonic_mean(samples) * 1000.0 if samples else None


def timed_passes(mfj, items, first: int, seconds: float, sampler) -> list:
    """Timed passes, one after another, until ``seconds`` have passed."""
    start = time.perf_counter()
    walls = []
    index = first
    while True:
        wall = run_pass(mfj, items, index, sampler)
        walls.append(wall)
        emit(ev="pass", wall_s=wall, timed=True, **{"pass": index})
        index += 1
        if time.perf_counter() - start >= seconds:
            return walls


def load_corpus() -> dict:
    return {p.stem: p.read_text(encoding="utf-8")
            for p in sorted((ROOT / "corpus").glob("*.mfj"))}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--spans", default=None, help="file for the traced spans")
    args = ap.parse_args(argv)

    import mfj
    import mfj.soundness  # noqa: F401  (interps_for, Denotation)

    items = gen.make_items(args.workload, args.seed, load_corpus())
    emit(ev="items", names=[it.name for it in items])

    passes = 0
    if args.trace:
        tr = tracer.Tracer()
        with tr:
            mfj.prelude_program()  # the first load parses the prelude
            traced_wall = run_pass(mfj, items, passes)
        emit(ev="pass", wall_s=traced_wall, timed=False, **{"pass": passes})
        passes += 1
        if args.spans:
            tr.write_spans(Path(args.spans))
        walls = timed_passes(mfj, items, passes, args.seconds, None)
    else:
        with calib.Sampler() as sampler:
            with tracer.count_steps() as steps:
                wall = run_pass(mfj, items, passes, sampler)
            emit(ev="pass", wall_s=wall, timed=False, **{"pass": passes})
            passes += 1
            if args.workload == "check_large":
                emit(ev="steps", n=sum(it.params["decls"] for it in items))
            else:
                emit(ev="steps", n=steps[0])
            walls = timed_passes(mfj, items, passes, args.seconds, sampler)

    # ru_maxrss is in KiB on Linux
    emit(ev="rss", mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    if args.trace:
        metrics = tr.metrics()
        metrics["bench.trace_overhead"] = traced_wall / statistics.median(walls)
        emit(ev="layers", metrics=metrics, missing=tr.missing)
    return 0


if __name__ == "__main__":
    sys.exit(main())
