"""A fixed reference loop that measures how fast the machine is right now.

The shared machine the benchmark runs on changes speed by a third and more
over minutes, and the change slows every Python program alike.  The loop
here does the same kind of work as the toolchain's interpreter (frozen
dataclass nodes built, hashed, compared and rebuilt by a recursive walk)
but none of its code, so its time moves with the machine and never with a
change to ``mfj``.  ``Sampler`` times it at a fixed rate while a workload
runs, and ``run.py`` scales each measured time by ``NOMINAL_S`` over the
harmonic mean of the reference times sampled during it and just before.

    python3 perfbench/calib.py     # mean and best of 500 reference times, ms
"""

from __future__ import annotations

import gc
import signal
import time
from dataclasses import dataclass

# about the reference loop's mean time on a 2-vCPU x86-64 VM under CPython
# 3.11; scaled times are seconds on a machine that runs the loop this fast
NOMINAL_S = 0.003
# how often the sampler times the loop: about 2% of the run at NOMINAL_S
PERIOD_S = 0.15
ARITH_ROUNDS = 30000
ARITH_SUM = sum(i * i % 7 for i in range(ARITH_ROUNDS))


@dataclass(frozen=True)
class Leaf:
    name: str


@dataclass(frozen=True)
class Node:
    op: str
    left: object
    right: object


def _build(depth: int, i: int):
    if depth == 0:
        return Leaf(f"x{i % 5}")
    return Node("ab"[depth % 2], _build(depth - 1, 2 * i), _build(depth - 1, 2 * i + 1))


def _subst(t, name: str, by):
    if isinstance(t, Leaf):
        return by if t.name == name else t
    return Node(t.op, _subst(t.left, name, by), _subst(t.right, name, by))


def reference() -> float:
    """Seconds the fixed reference work takes, measured now.

    Four fifths of it is a plain arithmetic loop and one fifth a tree of
    frozen dataclass nodes rebuilt by substitution.  On its own the tree
    work slows down more than the toolchain does when the machine gets
    slower, and the loop slightly less; this mix tracks the toolchain on
    both the evaluator and the soundness workloads.  The collector is off
    meanwhile: a collection would scan whatever the interrupted workload
    holds, and its time would depend on the workload.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        t = _build(6, 0)
        seen = set()
        for k in range(5):
            t = _subst(t, f"x{k}", Leaf(f"y{k}"))
            seen.add(hash(t))
        assert len(seen) == 5 and t == _subst(t, "x0", Leaf("z"))
        acc = 0
        for i in range(ARITH_ROUNDS):
            acc += i * i % 7
        assert acc == ARITH_SUM
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def harmonic_mean(samples: list) -> float:
    """The reference time that scales an interval correctly when the samples
    are spread evenly over it: an interval of length T holds about
    T / period samples, and its nominal length is the sum over them of
    period * NOMINAL_S / sample."""
    return len(samples) / sum(1.0 / x for x in samples)


class Sampler:
    """Times ``reference`` every ``period`` seconds from a SIGALRM handler
    while the main thread runs something else, so that the machine's speed
    is sampled evenly in time across everything the main thread does.

    ``samples`` holds (when, seconds) pairs, ``when`` on the
    ``time.perf_counter`` clock.  ``stolen`` is the time spent in the
    handler; subtract its growth from a measured interval to get the time
    the measured code itself took.
    """

    def __init__(self, period: float = PERIOD_S):
        self.period = period
        self.samples: list = []
        self.stolen = 0.0
        self._old = None

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        self.samples.append((start, reference()))
        self.stolen += time.perf_counter() - start

    def since(self, when: float) -> list:
        """Reference times sampled from ``when`` on."""
        i = len(self.samples)
        while i and self.samples[i - 1][0] >= when:
            i -= 1
        return [secs for _, secs in self.samples[i:]]

    def __enter__(self) -> "Sampler":
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)


if __name__ == "__main__":
    xs = [reference() for _ in range(500)]
    print(f"mean {sum(xs) / len(xs) * 1000:.3f} best {min(xs) * 1000:.3f}")
