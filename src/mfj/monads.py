"""The monads powering the operational semantics.

Four monads are built in: exceptions, lazy (possibly unbounded) lists,
finite subdistributions with exact rational weights, and identity.  Each is an
object exposing ``unit``/``bind``/``map_m`` plus the ordered structure
(``bottom``, ``is_bottom``, ``leq``, ``sup_chain``) needed by the infinitary
semantics, and observation helpers used by the evaluator and the soundness
harness.

The run registry maps (type name, method name) pairs of magic methods to the
monadic interpretation of calling them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Iterable, Iterator, Optional

from . import faults
from .syntax import NominalType, Obj, Value


class NotAChain(Exception):
    pass


# ---------------------------------------------------------------------------
# Monadic containers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExcValue:
    """Exception monad: a value, a raised exception name, or bottom."""

    tag: str  # "pure" | "raised" | "bottom"
    payload: Any = None

    def __repr__(self):
        if self.tag == "pure":
            return f"Pure({self.payload!r})"
        if self.tag == "raised":
            return f"Raised({self.payload})"
        return "Bottom"


def Pure(x) -> ExcValue:
    return ExcValue("pure", x)


def Raised(name: str) -> ExcValue:
    return ExcValue("raised", name)


EXC_BOTTOM = ExcValue("bottom")


class LazyList:
    """A possibly-unbounded list: a pull-based generator with a memoized
    prefix.  All observation goes through ``take``."""

    def __init__(self, source: Iterable):
        self._memo: list = []
        self._it: Optional[Iterator] = iter(source)

    @staticmethod
    def of(*xs) -> "LazyList":
        return LazyList(xs)

    def _force(self, k: Optional[int]) -> None:
        while self._it is not None and (k is None or len(self._memo) < k):
            try:
                self._memo.append(next(self._it))
            except StopIteration:
                self._it = None

    def take(self, k: int) -> list:
        """The first ``k`` elements (fewer if the list is shorter)."""
        self._force(k)
        return self._memo[:k]

    def exhausted_within(self, k: int) -> bool:
        """True if the whole list has at most ``k`` elements."""
        self._force(k + 1)
        return self._it is None and len(self._memo) <= k

    def to_list(self) -> list:
        """Force the entire list; only call on lists known to be finite."""
        self._force(None)
        return list(self._memo)

    def __iter__(self):
        i = 0
        while True:
            self._force(i + 1)
            if i >= len(self._memo) and self._it is None:
                return
            yield self._memo[i]
            i += 1

    def __repr__(self):
        head = self.take(5)
        more = "" if self.exhausted_within(5) else ", ..."
        return "[" + ", ".join(map(repr, head)) + more + "]"


@dataclass(frozen=True, init=False)
class Dist:
    """A finite subdistribution: value -> positive rational, total <= 1."""

    weights: tuple  # tuple[(value, Fraction), ...]

    def __init__(self, weights):
        items = [(v, Fraction(w)) for v, w in
                 (weights.items() if isinstance(weights, dict) else weights)
                 if w != 0]
        for _, w in items:
            if w < 0:
                raise ValueError("negative weight")
        if sum((w for _, w in items), Fraction(0)) > 1:
            raise ValueError("total weight exceeds 1")
        object.__setattr__(self, "weights", tuple(items))

    @classmethod
    def _trusted(cls, items):
        """Skip validation for weights already known to form a
        subdistribution (bind/unit of valid inputs)."""
        d = cls.__new__(cls)
        object.__setattr__(d, "weights", tuple(items))
        return d

    def as_dict(self) -> dict:
        return dict(self.weights)

    def weight(self, v) -> Fraction:
        return self.as_dict().get(v, Fraction(0))

    def total(self) -> Fraction:
        return sum((w for _, w in self.weights), Fraction(0))

    def support(self) -> list:
        return [v for v, _ in self.weights]

    def __eq__(self, other):
        return isinstance(other, Dist) and self.as_dict() == other.as_dict()

    def __hash__(self):
        return hash(frozenset(self.weights))

    def __repr__(self):
        return "{" + ", ".join(f"{w}: {v!r}" for v, w in self.weights) + "}"


@dataclass(frozen=True)
class IdValue:
    """Identity monad element, with an artificial flat bottom."""

    tag: str  # "val" | "bottom"
    payload: Any = None

    def __repr__(self):
        return "Bottom" if self.tag == "bottom" else f"Id({self.payload!r})"


ID_BOTTOM = IdValue("bottom")


# ---------------------------------------------------------------------------
# Monad interfaces
# ---------------------------------------------------------------------------


class Monad:
    name: str

    def unit(self, x):
        raise NotImplementedError

    def bind(self, m, f):
        raise NotImplementedError

    def map_m(self, f, m):
        """Functorial action; by default bind-derived."""
        return self.bind(m, lambda x: self.unit(f(x)))

    def bottom(self):
        raise NotImplementedError

    def is_bottom(self, m) -> bool:
        """Is ``m`` the least element (no result, not even a partial one)?"""
        return m == self.bottom()

    def leq(self, a, b) -> bool:
        raise NotImplementedError

    def sup_chain(self, chain: list):
        """Least upper bound of a finite ascending chain."""
        if not chain:
            return self.bottom()
        out = chain[0]
        for m in chain[1:]:
            if not self.leq(out, m):
                raise NotAChain(f"{out!r} !<= {m!r}")
            out = m
        return out

    def elements(self, m, bound: int) -> list:
        """The observed elements of ``m`` (prefix/support-limited)."""
        raise NotImplementedError


class ExcMonad(Monad):
    name = "exc"

    def unit(self, x):
        return Pure(x)

    def bind(self, m, f):
        if m.tag == "pure":
            return f(m.payload)
        return m

    def bottom(self):
        return EXC_BOTTOM

    def leq(self, a, b):
        return a == b or a.tag == "bottom"

    def elements(self, m, bound):
        return [m.payload] if m.tag == "pure" else []


class ListMonad(Monad):
    name = "list"

    def unit(self, x):
        return LazyList.of(x)

    def bind(self, m, f):
        if faults.ACTIVE.swap_list_bind:
            # seeded bug: concatenate continuations right-to-left
            items = list(m)
            def gen_swapped():
                for x in reversed(items):
                    yield from f(x)
            return LazyList(gen_swapped())

        def gen():
            for x in m:
                yield from f(x)

        return LazyList(gen())

    def map_m(self, f, m):
        # native map: keeps laziness and is independent of bind's order
        return LazyList(f(x) for x in m)

    def bottom(self):
        return LazyList.of()

    def is_bottom(self, m):
        return not m.take(1)

    def leq(self, a, b, bound: int = 1024):
        """Prefix order, decided on observed prefixes."""
        pa = a.take(bound)
        pb = b.take(bound)
        return pa == pb[: len(pa)]

    def elements(self, m, bound):
        return m.take(bound)


class DistMonad(Monad):
    name = "dist"

    def unit(self, x):
        return Dist._trusted([(x, Fraction(1))])

    def bind(self, m, f):
        acc: dict = {}
        for x, w in m.weights:
            for y, u in f(x).weights:
                acc[y] = acc.get(y, Fraction(0)) + w * u
        return Dist._trusted(acc.items())

    def bottom(self):
        return Dist({})

    def leq(self, a, b):
        bd = b.as_dict()
        return all(w <= bd.get(v, Fraction(0)) for v, w in a.weights)

    def elements(self, m, bound):
        return m.support()


class IdMonad(Monad):
    name = "id"

    def unit(self, x):
        return IdValue("val", x)

    def bind(self, m, f):
        if m.tag == "bottom":
            return m
        return f(m.payload)

    def bottom(self):
        return ID_BOTTOM

    def leq(self, a, b):
        return a == b or a.tag == "bottom"

    def elements(self, m, bound):
        return [m.payload] if m.tag == "val" else []


MONADS = {
    "exc": ExcMonad(),
    "list": ListMonad(),
    "dist": DistMonad(),
    "id": IdMonad(),
}


def get_monad(name: str) -> Monad:
    try:
        return MONADS[name]
    except KeyError:
        raise KeyError(f"unknown monad {name!r}; pick one of {sorted(MONADS)}")


# ---------------------------------------------------------------------------
# Run registry
# ---------------------------------------------------------------------------

# Exception-name mapping; unlisted exception nominals map to their own name.
EXC_NAMES = {"Exception": "E", "MyException": "MyE", "Failure": "Fail"}


def exc_name_of(v: Value) -> str:
    """The exception name associated with an exception object."""
    if isinstance(v, Obj) and v.parents:
        n = v.parents[0].name
        return EXC_NAMES.get(n, n)
    return "E"


TRUE = Obj((NominalType("True"),))
FALSE = Obj((NominalType("False"),))


class RunRegistry:
    """(type name, method name) -> run function, or None when undefined."""

    def __init__(self):
        self._runs: dict = {}

    def register(self, tname: str, mname: str, fn):
        self._runs[(tname, mname)] = fn

    def lookup(self, tname: str, mname: str):
        return self._runs.get((tname, mname))

    def run(self, tname: str, mname: str, recv, args):
        fn = self._runs.get((tname, mname))
        if fn is None:
            return None
        return fn(recv, args)


def default_registry(monad: Monad, sigs) -> RunRegistry:
    """The built-in interpretations of the prelude's magic methods.

    ``sigs`` is a signature context (mfj.signatures.Sigs) for the program,
    used for the instance-of partiality conditions.
    """
    from .reducer import has_nominal_super

    reg = RunRegistry()
    prog = sigs.program

    def run_of(decl_name, result):
        def run(recv, args):
            if args or not has_nominal_super(sigs, recv, decl_name):
                return None  # partiality: wrong shape of call
            return result(recv)

        return run

    half = Fraction(1, 2)
    results = {
        ("exc", "throw"): lambda recv: Raised(exc_name_of(recv)),
        ("exc", "fail"): lambda recv: Raised("Fail"),
        ("list", "choose"): lambda recv: LazyList.of(TRUE, FALSE),
        ("dist", "choose"): lambda recv: Dist({TRUE: half, FALSE: half}),
    }
    for decl in prog.decls:
        for md in decl.methods:
            result = results.get((monad.name, md.name))
            if md.kind == "mgc" and result is not None:
                reg.register(decl.name, md.name, run_of(decl.name, result))
    return reg
