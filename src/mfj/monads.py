"""The monads powering the operational semantics, one plug-in each.

Four monads are built in: exceptions, lazy (possibly unbounded) lists,
finite subdistributions with exact rational weights, and identity.  All
that is particular to a monad is a hook of its ``Monad`` subclass, so the
evaluator, the soundness harness and the CLI name no monad.  The hooks:
the monad (``unit``, ``bind``, ``map_m``) and its order (``bottom``,
``is_bottom``, ``leq``, ``sup_chain``); observation (``elements``, ``force``,
``show`` for a trace line, ``render`` for a result); ``magic``, the results
of its magic methods; its predicate liftings (``quantifiers``, ``forall``
with its test ``allowed`` on outcomes that are not elements, ``exists``, and
``raise_witness`` for a raised outcome of a step); and ``law_samples`` and
``outer_samples`` for the lifting laws.  Adding a monad is a subclass and an
entry in ``MONADS``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import Any, Callable, Iterable, Iterator, Optional

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
        """A finite list, already forced: no iterator behind it."""
        ll = LazyList.__new__(LazyList)
        ll._memo, ll._it = list(xs), None
        return ll

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
        while self._it is not None:
            self._force(i + 1)
            if i < len(self._memo):
                yield self._memo[i]
                i += 1
        # forced: the memo is complete and no longer grows
        yield from islice(self._memo, i, None)

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
_ONE = Fraction(1)
_HALF = Fraction(1, 2)


# ---------------------------------------------------------------------------
# Monad interfaces
# ---------------------------------------------------------------------------


class Monad:
    name: str
    # the predicate liftings it has, forall first
    quantifiers: tuple = ("forall", "exists")
    # magic method name -> (receiver -> monadic value)
    magic: dict = {}

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
        """The order: by default flat, bottom below every other value."""
        return a == b or self.is_bottom(a)

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

    def force(self, m, bound: int) -> None:
        """Do now the work that observing ``m`` up to ``bound`` would do."""

    def show(self, m, bound: int) -> str:
        """``m`` as one line of a trace."""
        return repr(m)

    def render(self, m, show_elem: Callable, bound: int) -> str:
        """``m`` as a result, each element rendered by ``show_elem``."""
        raise NotImplementedError

    def allowed(self, den, eff) -> Optional[Callable]:
        """``(m, elements) -> bool`` on the rest of ``m``; None: all pass."""
        return None

    def forall(self, den, eff, pred: Callable, prefix: int) -> Callable:
        """Every element satisfies ``pred``; ``eff`` allows the rest."""
        # plain loops: cheaper than any/all over map on these short lists
        elements, allowed = self.elements, self.allowed(den, eff)

        def every(m) -> bool:
            elems = elements(m, prefix)
            if allowed is not None and not allowed(m, elems):
                return False
            for x in elems:
                if not pred(x):
                    return False
            return True

        return every

    def exists(self, pred: Callable, prefix: int) -> Callable:
        """Some observed element satisfies ``pred``."""
        elements = self.elements

        def some(m) -> bool:
            for x in elements(m, prefix):
                if pred(x):
                    return True
            return False

        return some

    def raise_witness(self, den, eff, m) -> Optional[str]:
        """Why a step's outcome ``m`` raises what ``eff`` does not allow."""
        return None

    def law_samples(self, X) -> list:
        """Monadic values over ``X`` that the laws are checked on."""
        raise NotImplementedError

    def outer_samples(self, samples) -> list:
        """Outer values for the multiplication law, besides units."""
        return []


class ExcMonad(Monad):
    name = "exc"
    quantifiers = ("forall",)
    magic = {"throw": lambda recv: Raised(exc_name_of(recv)),
             "fail": lambda recv: Raised("Fail")}

    def unit(self, x):
        return Pure(x)

    def bind(self, m, f):
        if m.tag == "pure":
            return f(m.payload)
        return m

    def bottom(self):
        return EXC_BOTTOM

    def elements(self, m, bound):
        return [m.payload] if m.tag == "pure" else []

    def render(self, m, show_elem, bound):
        if m.tag == "pure":
            return show_elem(m.payload)
        return f"raise {m.payload}" if m.tag == "raised" else "bottom"

    def forall(self, den, eff, pred, prefix):
        # the one element is read directly, not through elements
        names = den.exc_set(eff)

        def every(m) -> bool:
            if m.tag == "pure":
                return pred(m.payload)
            return m.tag == "bottom" or names is None or m.payload in names

        return every

    def raise_witness(self, den, eff, m):
        # forall decides a raise without calling pred
        if m.tag == "raised" and not self.forall(den, eff, None, 0)(m):
            return f"raised {m.payload} outside excSet({eff!r})"
        return None

    def law_samples(self, X):
        return ([Pure(x) for x in X] + [Raised(n) for n in EXC_NAMES.values()]
                + [EXC_BOTTOM])

    def outer_samples(self, samples):
        # a raised exception and bottom are values of M (M X) as they are
        return [m for m in samples if m.tag != "pure"]


class ListMonad(Monad):
    name = "list"
    magic = {"choose": lambda recv: LazyList.of(TRUE, FALSE)}

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

    def force(self, m, bound):
        m.take(bound)  # keep the generator nesting shallow

    def show(self, m, bound):
        return self.render(m, repr, bound)

    def render(self, m, show_elem, bound):
        head = ", ".join(map(show_elem, m.take(bound)))
        more = "" if m.exhausted_within(bound) else ", ..."
        return f"[{head}{more}]"

    def allowed(self, den, eff):
        if den.nd_flag(eff) == 0:
            return lambda m, elems: len(elems) <= 1
        return None

    def law_samples(self, X):
        return ([LazyList.of()] + [LazyList.of(x) for x in X]
                + [LazyList.of(x, y) for x in X for y in X])

    def outer_samples(self, samples):
        return [LazyList.of(a, b) for a in samples[:4] for b in samples[:4]]


class DistMonad(Monad):
    name = "dist"
    magic = {"choose": lambda recv: Dist({TRUE: _HALF, FALSE: _HALF})}

    def unit(self, x):
        return Dist._trusted([(x, _ONE)])

    def bind(self, m, f):
        # no products by 1 and no zero start value: a finished branch is
        # re-bound to its unit on every step of a run
        acc: dict = {}
        for x, w in m.weights:
            for y, u in f(x).weights:
                p = w if u == 1 else w * u
                acc[y] = acc[y] + p if y in acc else p
        return Dist._trusted(acc.items())

    def map_m(self, f, m):
        # native map: the same weights as bind's, without the products by 1
        acc: dict = {}
        for x, w in m.weights:
            y = f(x)
            acc[y] = acc[y] + w if y in acc else w
        return Dist._trusted(acc.items())

    def bottom(self):
        return Dist({})

    def leq(self, a, b):
        bd = b.as_dict()
        return all(w <= bd.get(v, Fraction(0)) for v, w in a.weights)

    def elements(self, m, bound):
        return m.support()

    def render(self, m, show_elem, bound):
        items = ", ".join(f"{show_elem(v)}: {w}" for v, w in m.weights)
        return "{" + items + "}"

    # no ``allowed`` test of determinism on the support: map_m merges equal
    # values, so one would not commute with map_m (naturality); the per-step
    # monitor still rejects a choose step under a deterministic effect

    def law_samples(self, X):
        return ([Dist({})] + [Dist({x: 1}) for x in X]
                + [Dist({x: _HALF}) for x in X]
                + [Dist({x: _HALF, y: _HALF}) for x in X for y in X if x != y])

    def outer_samples(self, samples):
        return [Dist([(a, _HALF), (b, _HALF)])
                for a in samples[:4] for b in samples[:4] if a is not b]


class IdMonad(Monad):
    name = "id"
    quantifiers = ("forall",)

    def unit(self, x):
        return IdValue("val", x)

    def bind(self, m, f):
        if m.tag == "bottom":
            return m
        return f(m.payload)

    def bottom(self):
        return ID_BOTTOM

    def elements(self, m, bound):
        return [m.payload] if m.tag == "val" else []

    def render(self, m, show_elem, bound):
        return "bottom" if m.tag == "bottom" else show_elem(m.payload)

    def forall(self, den, eff, pred, prefix):
        return lambda m: m.tag == "bottom" or pred(m.payload)

    def law_samples(self, X):
        return [IdValue("val", x) for x in X] + [ID_BOTTOM]


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
    """The monad's interpretations of the program's magic methods.

    ``sigs`` is a signature context (mfj.signatures.Sigs) for the program,
    used for the instance-of partiality conditions.
    """
    from .reducer import has_nominal_super

    reg = RunRegistry()

    def run_of(decl_name, result):
        def run(recv, args):
            if args or not has_nominal_super(sigs, recv, decl_name):
                return None  # partiality: wrong shape of call
            return result(recv)

        return run

    for decl in sigs.program.decls:
        for md in decl.methods:
            result = monad.magic.get(md.name)
            if md.kind == "mgc" and result is not None:
                reg.register(decl.name, md.name, run_of(decl.name, result))
    return reg
