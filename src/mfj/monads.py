"""The monads powering the operational semantics, one plug-in each.

Four monads are built in: exceptions, lazy (possibly unbounded) lists,
finite subdistributions with exact rational weights, and identity.  All
that is particular to a monad is a hook of its ``Monad`` subclass, so the
evaluator, the soundness harness and the CLI name no monad.  The hooks:
the monad (``unit`` and ``bind_unless``, a bind that passes finished
elements through, from which ``bind`` and ``map_m`` derive) and its order
(``bottom``, ``is_bottom``, ``leq``); observation (``elements``, ``force``,
``show`` for a trace line, ``render`` for a result); ``magic``, the only
place its magic methods get a meaning, each given the name of the type the
method was found through; ``quantifiers`` (which of forall and exists it
has) and ``allowed``, its one lifting hook (``soundness.EffectInterp.lift``
builds both liftings from ``elements`` and ``allowed``); and
``law_samples`` and ``outer_samples`` for the lifting laws.  Adding a monad
is a subclass and an entry in ``MONADS``.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice
from typing import Any, Callable, Iterable, Iterator, Optional

from . import faults
from .syntax import NominalType, Obj, record


# ---------------------------------------------------------------------------
# Monadic containers
# ---------------------------------------------------------------------------


@record
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
        if self._it is None or (k is not None and len(self._memo) >= k):
            return
        want = None if k is None else k - len(self._memo)
        # what the source yields before it raises stays in the memo
        self._memo.extend(islice(self._it, want))
        if want is None or len(self._memo) < k:  # fewer came: it is done
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
        # forced: the memo is complete and no longer grows
        return iter(self._memo) if self._it is None else self._pull()

    def _pull(self):
        i = 0
        while self._it is not None:
            self._force(i + 1)
            if i < len(self._memo):
                yield self._memo[i]
                i += 1
        yield from islice(self._memo, i, None)

    def __repr__(self):
        head = self.take(5)
        more = "" if self.exhausted_within(5) else ", ..."
        return "[" + ", ".join(map(repr, head)) + more + "]"


@record
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

    def support(self) -> list:
        return [v for v, _ in self.weights]

    def __eq__(self, other):
        return isinstance(other, Dist) and self.as_dict() == other.as_dict()

    def __hash__(self):
        return hash(frozenset(self.weights))

    def __repr__(self):
        return "{" + ", ".join(f"{w}: {v!r}" for v, w in self.weights) + "}"


@record
class IdValue:
    """Identity monad element, with an artificial flat bottom."""

    tag: str  # "val" | "bottom"
    payload: Any = None

    def __repr__(self):
        return "Bottom" if self.tag == "bottom" else f"Id({self.payload!r})"


ID_BOTTOM = IdValue("bottom")


# Exception-name mapping; unlisted exception nominals map to their own name.
EXC_NAMES = {"Exception": "E", "MyException": "MyE", "Failure": "Fail"}


def exc_name(type_name: str) -> str:
    """The name of the exception raised through the type ``type_name``."""
    return EXC_NAMES.get(type_name, type_name)


TRUE = Obj((NominalType("True"),))
FALSE = Obj((NominalType("False"),))
_ONE = Fraction(1)
_HALF = Fraction(1, 2)
# Dist is immutable: build these once, through the validating constructor
_COIN = Dist({TRUE: _HALF, FALSE: _HALF})
DIST_BOTTOM = Dist({})


# ---------------------------------------------------------------------------
# Monad interfaces
# ---------------------------------------------------------------------------


class Monad:
    """Each subclass defines ``unit``, ``bind_unless`` (``bind_unless(m, f,
    done)`` binds ``m`` to ``f``, but passes an element of the class, or
    tuple of classes, ``done`` through as its unit, without a call of
    ``f``), ``bottom``, ``elements`` (the observed elements of ``m``, prefix-
    or support-limited), ``render`` (``m`` as a result, each element
    rendered by ``show_elem``) and ``law_samples`` (monadic values over
    ``X`` for the laws); the other hooks have defaults here."""

    name: str
    # the predicate liftings it has, forall first
    quantifiers: tuple = ("forall", "exists")
    # magic method -> (name of the type it is found through -> monadic value)
    magic: dict = {}

    def bind(self, m, f):
        """The monad's bind: ``bind_unless`` with nothing passed through."""
        return self.bind_unless(m, f, ())

    def map_m(self, f, m):
        """Functorial action; by default bind-derived."""
        return self.bind(m, lambda x: self.unit(f(x)))

    def is_bottom(self, m) -> bool:
        """Is ``m`` the least element (no result, not even a partial one)?"""
        return m == self.bottom()

    def leq(self, a, b) -> bool:
        """The order: by default flat, bottom below every other value."""
        return a == b or self.is_bottom(a)

    def force(self, m, bound: int) -> None:
        """Do now the work that observing ``m`` up to ``bound`` would do."""

    def show(self, m, bound: int) -> str:
        """``m`` as one line of a trace."""
        return repr(m)

    def allowed(self, den, eff) -> Optional[Callable]:
        """``(m, elements) -> bool``: does ``eff`` allow what ``m`` is beyond
        its ``elements``?  None: every outcome is allowed."""
        return None

    def outer_samples(self, samples) -> list:
        """Outer values for the multiplication law, besides units."""
        return []


class ExcMonad(Monad):
    name = "exc"
    quantifiers = ("forall",)
    magic = dict.fromkeys(("throw", "fail"),
                          lambda type_name: Raised(exc_name(type_name)))

    def unit(self, x):
        return Pure(x)

    def bind_unless(self, m, f, done):
        if m.tag == "pure" and not isinstance(m.payload, done):
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

    def allowed(self, den, eff):
        names = den.exc_set(eff)
        if names is None:
            return None
        return lambda m, elems: m.tag != "raised" or m.payload in names

    def law_samples(self, X):
        return ([Pure(x) for x in X] + [Raised(exc_name(n)) for n in EXC_NAMES]
                + [EXC_BOTTOM])

    def outer_samples(self, samples):
        # a raised exception and bottom are values of M (M X) as they are
        return [m for m in samples if m.tag != "pure"]


class ListMonad(Monad):
    name = "list"
    magic = {"choose": lambda type_name: LazyList.of(TRUE, FALSE)}

    def unit(self, x):
        return LazyList.of(x)

    def bind_unless(self, m, f, done):
        if faults.ACTIVE.swap_list_bind:
            # seeded bug: concatenate continuations right-to-left
            m = reversed(list(m))

        def gen():
            for x in m:
                if isinstance(x, done):
                    yield x
                else:
                    yield from f(x)

        return LazyList(gen())

    def map_m(self, f, m):
        # native map: keeps laziness and is independent of bind's order
        return LazyList(f(x) for x in m)

    def bottom(self):
        return LazyList.of()

    def is_bottom(self, m):
        return not m.take(1)

    def leq(self, a, b):
        """Prefix order, decided on the first 1024 elements."""
        pa = a.take(1024)
        return pa == b.take(1024)[: len(pa)]

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
    magic = {"choose": lambda type_name: _COIN}

    def unit(self, x):
        return Dist._trusted([(x, _ONE)])

    def bind_unless(self, m, f, done):
        # no products by 1 and no zero start value
        acc: dict = {}
        for x, w in m.weights:
            if isinstance(x, done):
                acc[x] = acc[x] + w if x in acc else w
                continue
            for y, u in f(x).weights:
                p = w if u == 1 else w * u
                acc[y] = acc[y] + p if y in acc else p
        return Dist._trusted(acc.items())

    def bottom(self):
        return DIST_BOTTOM

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


# the magic methods that raise, whose atoms have an exception reading, and
# those that choose, whose atoms set the nondeterminism flag
EXC_METHODS = frozenset(ExcMonad.magic)
ND_METHODS = frozenset(ListMonad.magic) | frozenset(DistMonad.magic)


class IdMonad(Monad):
    name = "id"
    quantifiers = ("forall",)

    def unit(self, x):
        return IdValue("val", x)

    def bind_unless(self, m, f, done):
        if m.tag == "bottom" or isinstance(m.payload, done):
            return m
        return f(m.payload)

    def bottom(self):
        return ID_BOTTOM

    def elements(self, m, bound):
        return [m.payload] if m.tag == "val" else []

    def render(self, m, show_elem, bound):
        return "bottom" if m.tag == "bottom" else show_elem(m.payload)

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
