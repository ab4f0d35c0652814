"""The mfj benchmark: one workload, end-to-end metrics or per-layer metrics.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run it from anywhere inside a checkout; it builds nothing and reads the
toolchain from ``src/`` and the corpus from ``corpus/``.  The workload runs
in a fresh child process (``work.py``); separate fresh interpreters time the
set-up.  Workload times are scaled by a reference loop timed alongside them
(``calib.py``), so that the machine's own swings in speed cancel.  With ``--trace 0`` the last line of output is a JSON object with
the end-to-end metrics, with ``--trace 1`` one with the per-layer metrics.
The lines before it are a readable report; ``perfbench/out/`` gets the
full record of the run.  See ``perfbench/README.md`` for the definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import calib  # noqa: E402  (the reference loop; none of these imports mfj)
import gen  # noqa: E402  (workload names)
import tracer  # noqa: E402  (per-layer metric names and units)

# half before the workload and half after, as the machine's speed drifts
SETUP_PROBES = 5
SETUP_PROBE = ("import sys; sys.path.insert(0, 'src'); import mfj; "
               "mfj.prelude_program()")
# the child stops itself after --seconds plus one pass; this is the backstop
CHILD_TIMEOUT_S = 165.0

UNITS = {"setup_s": "s", "wall_s": "s", "item_p50_ms": "ms",
         "item_p90_ms": "ms", "steps_per_s": "1/s", "peak_rss_mb": "MB",
         "pass_ratio": "ratio"}


def fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def measure_setup() -> list:
    """Seconds from starting an interpreter to mfj imported and the prelude
    parsed, once per fresh interpreter (``SETUP_PROBES`` of them).

    These are not scaled by the reference loop: start-up time hardly
    follows the machine's swings in speed (process creation and reading
    files do not slow down as the interpreter's loop does)."""
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_PROBE], cwd=ROOT,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              timeout=60)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise RuntimeError("set-up probe failed:\n"
                               + proc.stderr.decode(errors="replace"))
    return times


def run_child(args) -> tuple:
    """(events, exit code) of the workload process."""
    cmd = [sys.executable, str(HERE / "work.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans", str(OUT / f"{args.workload}.spans")]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE)
    try:
        stdout, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        stdout, _ = proc.communicate()
    events = []
    for line in stdout.decode(errors="replace").splitlines():
        try:
            events.append(json.loads(line))
        except json.JSONDecodeError:
            continue  # a line the child printed half of before dying
    return events, proc.returncode


def summarize(events: list, code: int) -> dict:
    """Item and pass statistics from the child's events.

    Items of a pass the child never finished count as attempted and failed.
    """
    names = next((e["names"] for e in events if e["ev"] == "items"), [])
    items = [e for e in events if e["ev"] == "item"]
    passes = [e for e in events if e["ev"] == "pass"]
    done = {(e["pass"], e["i"]) for e in items}
    started = {e["pass"] for e in items} | {e["pass"] for e in passes}
    n = len(names)
    lost = sum(1 for p in started for i in range(n) if (p, i) not in done)
    if not started:
        lost = max(n, 1)
    failures = [f"pass {e['pass']} {names[e['i']]}: {e['out']} {e['err']}".rstrip()
                for e in items if not e["ok"]]
    # the same item must give the same output in every pass, traced or not
    outs: dict = {}
    for e in items:
        outs.setdefault(e["i"], set()).add(e["out"])
    inconsistent = [names[i] for i, o in sorted(outs.items()) if len(o) > 1]
    timed = {e["pass"] for e in passes if e["timed"]}
    nominal: dict = {}  # pass -> its items' times in nominal ms
    for e in items:
        if e["pass"] in timed and e.get("ref_ms"):
            nominal.setdefault(e["pass"], []).append(
                e["ms"] * calib.NOMINAL_S * 1000.0 / e["ref_ms"])
    return {
        "names": names,
        "attempted": len(items) + lost,
        "failed": len(failures) + lost,
        "failures": failures,
        "inconsistent": inconsistent,
        "walls": [e["wall_s"] for e in passes if e["timed"]],
        "item_ms": [e["ms"] for e in items if e["pass"] in timed],
        # each timed pass's time and its items' times, in nominal seconds
        "walls_nominal": [sum(ms) / 1000.0 for p, ms in sorted(nominal.items())
                          if len(ms) == n],
        "item_ms_nominal": [x for ms in nominal.values() for x in ms],
        "ref_ms": [e["ref_ms"] for e in items if e["pass"] in timed and e.get("ref_ms")],
        "steps": next((e["n"] for e in events if e["ev"] == "steps"), None),
        "layers": next((e for e in events if e["ev"] == "layers"), None),
        "rss_mb": next((e["mb"] for e in events if e["ev"] == "rss"), None),
        "correct": code == 0 and not lost and not inconsistent,
    }


def percentile(xs: list, q: int) -> float:
    if len(xs) < 2:
        return xs[0] if xs else 0.0
    return statistics.quantiles(xs, n=100, method="inclusive")[q - 1]


def end_to_end(s: dict, setup: list) -> dict:
    wall = statistics.median(s["walls_nominal"] or [0.0])
    steps = s["steps"] or 0
    rss = s["rss_mb"]
    if rss is None:
        # the child died before reporting its own peak; the largest of this
        # process's children is at least the workload's figure so far
        rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    return {
        "setup_s": statistics.median(setup),
        "wall_s": wall,
        "item_p50_ms": percentile(s["item_ms_nominal"], 50),
        "item_p90_ms": percentile(s["item_ms_nominal"], 90),
        "steps_per_s": steps / wall if wall else 0.0,
        "peak_rss_mb": rss,
        "pass_ratio": 1.0 - s["failed"] / s["attempted"] if s["attempted"] else 0.0,
    }


def context(args, s: dict, setup: list) -> dict:
    rev = "unknown"  # a checkout need not be a git repository
    if (ROOT / ".git").exists():
        try:
            git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, timeout=30)
            rev = git.stdout.strip() or rev
        except (OSError, subprocess.TimeoutExpired):
            pass
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted((ROOT / "src").rglob("*.py")))
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "commit": rev, "src_lines": src_lines,
        "items_per_pass": len(s["names"]), "timed_passes": len(s["walls"]),
        "item_samples": len(s["item_ms"]), "setup_samples": len(setup),
        "steps_per_pass": s["steps"],
        # the unscaled figures, and the reference loop's time behind the scale
        "measured_wall_s": statistics.median(s["walls"]) if s["walls"] else None,
        "reference_ms": statistics.median(s["ref_ms"]) if s["ref_ms"] else None,
        "nominal_reference_ms": calib.NOMINAL_S * 1000.0,
        "fail_ratio": s["failed"] / s["attempted"] if s["attempted"] else 1.0,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if not 1 <= args.seconds <= 60:
        return fail("--seconds must be between 1 and 60")
    if not (ROOT / "src" / "mfj" / "__init__.py").is_file():
        return fail(f"no toolchain source under {ROOT / 'src'}")
    if not any((ROOT / "corpus").glob("*.mfj")):
        return fail(f"no corpus programs under {ROOT / 'corpus'}")

    try:
        setup = measure_setup()
        events, code = run_child(args)
        setup += measure_setup()
    except (RuntimeError, subprocess.TimeoutExpired) as e:
        return fail(str(e))
    s = summarize(events, code)
    ctx = context(args, s, setup)

    if args.trace:
        layers = s["layers"]
        units = tracer.metric_units()
        metrics = {k: layers["metrics"][k] if layers else 0 for k in units}
        if layers is None or layers["missing"]:
            ctx["missing_layers"] = layers["missing"] if layers else "all"
    else:
        metrics = end_to_end(s, setup)
        units = UNITS

    result = {
        "correct": s["correct"],
        "attempted": s["attempted"],
        "failed": s["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    record = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"context": ctx, "result": result,
                                  "failures": s["failures"],
                                  "inconsistent": s["inconsistent"],
                                  "walls": s["walls"], "setup": setup,
                                  "item_ms": s["item_ms"]}, indent=1))

    print(f"# {args.workload} seed {args.seed}: child exit {code}")
    for k, v in ctx.items():
        print(f"#   {k}: {v}")
    for line in s["failures"] + [f"inconsistent output: {n}" for n in s["inconsistent"]]:
        print(f"# FAIL {line}")
    for k, v in metrics.items():
        print(f"{k:40s} {v:14.6g} {units[k]}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
