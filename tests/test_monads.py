"""The four monads, their orders, and the results of their magic methods."""

import contextlib
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from mfj import faults
from mfj.evaluator import EConf, Evaluator, RConf, VRes
from mfj.monads import (
    EXC_BOTTOM, ID_BOTTOM, MONADS, TRUE, FALSE,
    Dist, ExcValue, IdValue, LazyList, Pure, Raised, get_monad,
)
from mfj.parser import numeral
from mfj.prelude import load_program, prelude_program
from mfj.reducer import Magic, mbody
from mfj.syntax import Call, NominalType, Obj, nominal


def observe(monad_name, m):
    """A comparable view of a monadic value."""
    if isinstance(m, LazyList):
        return m.to_list()
    if isinstance(m, Dist):
        return m.as_dict()
    return m


MONAD_NAMES = sorted(MONADS)


def is_chain(monad, chain) -> bool:
    """Is each approximation below the next, as check_soundness tests?"""
    return all(map(monad.leq, chain, chain[1:]))

fs = st.sampled_from([
    lambda x: x + 1,
    lambda x: x % 3,
    lambda x: 0,
])


def lifted(monad, f):
    # a Kleisli arrow that exercises multi-branch structure where possible
    if monad.name == "list":
        return lambda x: LazyList.of(f(x), f(x) + 10)
    if monad.name == "dist":
        return lambda x: Dist({f(x): Fraction(1, 2),
                               f(x) + 10: Fraction(1, 2)})
    return lambda x: monad.unit(f(x))


@pytest.mark.parametrize("name", MONAD_NAMES)
@given(x=st.integers(0, 5), f=fs)
def test_left_identity(name, x, f):
    monad = get_monad(name)
    k = lifted(monad, f)
    assert observe(name, monad.bind(monad.unit(x), k)) == observe(name, k(x))


@pytest.mark.parametrize("name", MONAD_NAMES)
@given(x=st.integers(0, 5), f=fs)
def test_right_identity(name, x, f):
    monad = get_monad(name)
    m = lifted(monad, f)(x)
    assert observe(name, monad.bind(m, monad.unit)) == observe(name, m)


@pytest.mark.parametrize("name", MONAD_NAMES)
@given(x=st.integers(0, 5), f=fs, g=fs)
def test_associativity(name, x, f, g):
    monad = get_monad(name)
    m = monad.unit(x)
    kf, kg = lifted(monad, f), lifted(monad, g)
    lhs = monad.bind(monad.bind(m, kf), kg)
    rhs = monad.bind(m, lambda y: monad.bind(kf(y), kg))
    assert observe(name, lhs) == observe(name, rhs)


def test_map_is_bind_with_unit():
    monad = get_monad("list")
    m = LazyList.of(1, 2, 3)
    assert monad.map_m(lambda x: x * 2, m).to_list() == [2, 4, 6]


# -- exceptions ---------------------------------------------------------------

def test_exc_raised_short_circuits():
    monad = get_monad("exc")
    assert monad.bind(Raised("E"), lambda x: Pure(x + 1)) == Raised("E")
    assert monad.bind(EXC_BOTTOM, lambda x: Pure(x)) == EXC_BOTTOM


def test_exc_order():
    monad = get_monad("exc")
    assert monad.leq(EXC_BOTTOM, Pure(1))
    assert monad.leq(Raised("E"), Raised("E"))
    assert not monad.leq(Pure(1), Pure(2))
    assert is_chain(monad, [EXC_BOTTOM, EXC_BOTTOM, Pure(3)])
    assert not is_chain(monad, [Pure(1), Pure(2)])


# -- lazy lists ---------------------------------------------------------------

def test_lazylist_is_lazy_and_memoized():
    pulls = []

    def gen():
        for i in range(5):
            pulls.append(i)
            yield i

    ll = LazyList(gen())
    assert ll.take(2) == [0, 1]
    assert pulls == [0, 1]
    assert ll.take(2) == [0, 1]
    assert pulls == [0, 1]  # no recomputation
    assert ll.to_list() == [0, 1, 2, 3, 4]


def test_lazylist_survives_unbounded_sources():
    def naturals():
        i = 0
        while True:
            yield i
            i += 1

    ll = LazyList(naturals())
    assert ll.take(4) == [0, 1, 2, 3]
    assert not ll.exhausted_within(1000)


def test_lazylist_take_pulls_exactly_what_it_returns():
    pulls = []

    def counting():
        for i in range(10):
            pulls.append(i)
            yield i

    ll = LazyList(counting())
    for k, pulled in ((0, 0), (3, 3), (3, 3), (5, 5), (1, 5)):
        assert ll.take(k) == list(range(k))
        assert len(pulls) == pulled
    assert not ll.exhausted_within(9) and len(pulls) == 10
    assert ll.exhausted_within(10) and list(ll) == list(range(10))


def test_lazylist_keeps_what_a_raising_source_gave():
    def two_then_fail():
        yield 1
        yield 2
        raise RuntimeError("source failed")

    ll = LazyList(two_then_fail())
    with pytest.raises(RuntimeError):
        ll.take(5)
    assert ll.take(2) == [1, 2]
    # the source is finished, so the list ends with what it gave
    assert ll.to_list() == [1, 2]


def test_lazylist_prefix_order():
    monad = get_monad("list")
    assert monad.leq(LazyList.of(), LazyList.of(1, 2))
    assert monad.leq(LazyList.of(1), LazyList.of(1, 2))
    assert not monad.leq(LazyList.of(2), LazyList.of(1, 2))
    assert is_chain(monad, [LazyList.of(1), LazyList.of(1, 2)])
    assert not is_chain(monad, [LazyList.of(1, 2), LazyList.of(2)])


def test_list_bind_preserves_order():
    monad = get_monad("list")
    m = monad.bind(LazyList.of(0, 10), lambda x: LazyList.of(x, x + 1))
    assert m.to_list() == [0, 1, 10, 11]


def test_list_bind_fault_reverses_order():
    monad = get_monad("list")
    with faults.inject("swap_list_bind"):
        m = monad.bind(LazyList.of(0, 10), lambda x: LazyList.of(x, x + 1))
        out = m.to_list()
    assert out == [10, 11, 0, 1]


def test_list_map_is_unaffected_by_the_bind_fault():
    monad = get_monad("list")
    with faults.inject("swap_list_bind"):
        out = monad.map_m(lambda x: x + 1, LazyList.of(1, 2)).to_list()
    assert out == [2, 3]


# -- distributions ------------------------------------------------------------

def test_dist_rejects_bad_weights():
    with pytest.raises(ValueError):
        Dist({1: Fraction(-1, 2)})
    with pytest.raises(ValueError):
        Dist({1: Fraction(2, 3), 2: Fraction(2, 3)})


def test_dist_drops_zero_weights():
    d = Dist({1: Fraction(1, 2), 2: Fraction(0)})
    assert d.support() == [1]
    assert d.as_dict() == {1: Fraction(1, 2)}


def test_equal_distributions_hash_alike():
    # ``==`` compares weights as a mapping, so their order must not reach
    # the hash either
    a = Dist([(1, Fraction(1, 2)), (2, Fraction(1, 4))])
    b = Dist([(2, Fraction(1, 4)), (1, Fraction(1, 2))])
    assert a.weights != b.weights
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1


def test_dist_bind_merges_outcomes():
    monad = get_monad("dist")
    coin = Dist({0: Fraction(1, 2), 1: Fraction(1, 2)})
    d = monad.bind(coin, lambda x: monad.unit(x % 1))
    assert d.as_dict() == {0: Fraction(1)}


@st.composite
def small_dists(draw):
    """A subdistribution over 0..5 with at most four points; a lone point
    has weight 1 unless a remainder is drawn."""
    points = draw(st.lists(st.tuples(st.integers(0, 5), st.integers(1, 3)),
                           max_size=4, unique_by=lambda p: p[0]))
    total = sum(n for _, n in points) + draw(st.integers(0, 2))
    return Dist([(v, Fraction(n, total)) for v, n in points])


def product_bind(m, f):
    """bind by the product formula: the weight of y is the sum over x of
    m(x) * f(x)(y), accumulated from zero in first-seen order."""
    acc = {}
    for x, w in m.weights:
        for y, u in f(x).weights:
            acc[y] = acc.get(y, Fraction(0)) + w * u
    return list(acc.items())


@given(m=small_dists(), ks=st.lists(small_dists(), min_size=6, max_size=6))
def test_dist_bind_is_the_product_formula(m, ks):
    got = get_monad("dist").bind(m, ks.__getitem__)
    want = product_bind(m, ks.__getitem__)
    assert list(got.weights) == want
    assert repr(got) == repr(Dist(want))


# -- bind_unless: bind, with the elements of a class passed through -----------

# strs play the finished elements; a continuation may make finished ones too
mixed = st.one_of(st.integers(0, 3), st.sampled_from(["a", "b"]))


def bind_with_units(monad, m, f, done):
    """``bind_unless``'s definition."""
    return monad.bind(m, lambda x: monad.unit(x) if isinstance(x, done)
                      else f(x))


@pytest.mark.parametrize("fault", [None, "swap_list_bind"])
@given(xs=st.lists(mixed, max_size=5), k=st.integers(0, 12))
def test_list_bind_unless_is_bind_with_units(fault, xs, k):
    monad = get_monad("list")

    def f(x):
        return LazyList(iter([x + 1, "ab"[x % 2]]))

    with faults.inject(fault) if fault else contextlib.nullcontext():
        got = monad.bind_unless(LazyList(iter(xs)), f, str)
        want = bind_with_units(monad, LazyList(iter(xs)), f, str)
        assert got.take(k) == want.take(k)
        assert got.exhausted_within(k) == want.exhausted_within(k)
        assert repr(got) == repr(want)


@given(points=st.lists(st.tuples(mixed, st.integers(1, 3)), max_size=4,
                       unique_by=lambda p: p[0]),
       ks=st.lists(small_dists(), min_size=4, max_size=4))
def test_dist_bind_unless_is_bind_with_units(points, ks):
    monad = get_monad("dist")
    total = sum(n for _, n in points) + 1
    m = Dist([(v, Fraction(n, total)) for v, n in points])

    def f(x):
        # values above 2 become finished ones, to merge with those of m
        return monad.map_m(lambda v: v if v <= 2 else "ab"[v % 2], ks[x])

    got = monad.bind_unless(m, f, str)
    want = bind_with_units(monad, m, f, str)
    assert list(got.weights) == list(want.weights)
    assert repr(got) == repr(want)


def test_dist_bind_unless_merges_a_finished_branch_with_an_equal_stepped_one():
    monad = get_monad("dist")
    one, two = RConf(VRes(numeral(1))), RConf(VRes(numeral(2)))
    steps = {"s": Dist([(two, Fraction(1, 3)), (one, Fraction(2, 3))])}
    # the finished branch comes first: it keeps its place, and the stepped
    # branch's equal result adds to its weight
    got = monad.bind_unless(
        Dist([(one, Fraction(1, 3)), ("s", Fraction(1, 2)),
              (two, Fraction(1, 6))]), steps.__getitem__, RConf)
    assert list(got.weights) == [(one, Fraction(2, 3)), (two, Fraction(1, 3))]
    # the stepped branch comes first: its results keep their order
    got = monad.bind_unless(
        Dist([("s", Fraction(1, 2)), (one, Fraction(1, 3)),
              (two, Fraction(1, 6))]), steps.__getitem__, RConf)
    assert list(got.weights) == [(two, Fraction(1, 3)), (one, Fraction(2, 3))]


@pytest.mark.parametrize("name", ["exc", "id"])
@given(x=mixed)
def test_bind_unless_is_bind_with_units(name, x):
    monad = get_monad(name)

    def f(y):
        return monad.unit(str(y))

    raised = (Raised("E"),) if name == "exc" else ()
    for m in (monad.unit(x), monad.bottom(), *raised):
        assert monad.bind_unless(m, f, str) == \
            bind_with_units(monad, m, f, str)


@given(xs=st.lists(st.integers(0, 9), max_size=6), k=st.integers(0, 8))
def test_a_list_built_forced_observes_like_a_lazy_one(xs, k):
    forced = LazyList.of(*xs)
    assert forced._it is None  # nothing left to force
    lazy, partial = LazyList(iter(xs)), LazyList(iter(xs))
    partial.take(k)  # iteration then starts from a partly forced memo
    for other in (lazy, partial):
        assert forced.take(k) == other.take(k)
        assert forced.exhausted_within(k) == other.exhausted_within(k)
        assert list(forced) == list(other)
        assert forced.to_list() == other.to_list()
        assert get_monad("list").is_bottom(forced) == \
            get_monad("list").is_bottom(other)
        assert repr(forced) == repr(other)


def test_dist_pointwise_order():
    monad = get_monad("dist")
    lo = Dist({1: Fraction(1, 2)})
    hi = Dist({1: Fraction(1, 2), 2: Fraction(1, 2)})
    assert monad.leq(lo, hi)
    assert not monad.leq(hi, lo)
    assert monad.leq(monad.bottom(), lo)


# -- identity -----------------------------------------------------------------

def test_id_monad():
    monad = get_monad("id")
    assert monad.bind(monad.unit(1), lambda x: monad.unit(x + 1)) == \
        IdValue("val", 2)
    assert monad.bind(ID_BOTTOM, lambda x: monad.unit(x)) == ID_BOTTOM
    assert monad.elements(monad.unit(1), 10) == [1]
    assert monad.elements(ID_BOTTOM, 10) == []


def test_get_monad_unknown():
    with pytest.raises(KeyError):
        get_monad("state")


# -- magic methods ------------------------------------------------------------

@pytest.fixture(scope="module")
def evs():
    """An evaluator over the prelude under each monad."""
    return {name: Evaluator(prelude_program(), name) for name in MONAD_NAMES}


def run_magic(ev, call):
    """``call``'s result under ``ev``, from ``mbody``'s lookup of it."""
    return ev.run_magic(call, mbody(ev.sigs, call.recv, call.method))


def test_registry_throw(evs):
    # the raise is named after the receiver's parent, mapped by EXC_NAMES
    for parent, raised in (("MyException", "MyE"), ("Exception", "E")):
        exc = Obj((NominalType(parent),))
        assert run_magic(evs["exc"], Call(exc, "throw")) == Raised(raised)


def test_registry_throw_of_an_unlisted_exception():
    ev = Evaluator(load_program("Weird <| Exception { }\n"), "exc")
    weird = Obj((NominalType("Weird"),))
    assert run_magic(ev, Call(weird, "throw")) == Raised("Weird")


def test_registry_fail(evs):
    failure = Obj((NominalType("Failure", (nominal("Nat"),)),))
    assert run_magic(evs["exc"], Call(failure, "fail")) == Raised("Fail")


def test_registry_partiality(evs):
    ev = evs["exc"]
    exc = Obj((NominalType("MyException"),))
    # wrong receiver, extra arguments, or no meaning in the monad: undefined
    assert ev.mon_step(EConf(Call(numeral(0), "throw"))) is None
    assert run_magic(ev, Call(exc, "throw", (), (numeral(0),))) is None
    assert ev.run_magic(Call(exc, "nope"), Magic("MyException")) is None


def test_registry_choose_per_monad(evs):
    chooser = Call(Obj((NominalType("Chooser"),)), "choose")
    assert run_magic(evs["list"], chooser).to_list() == [TRUE, FALSE]
    # the exception monad gives choose no meaning
    assert run_magic(evs["exc"], chooser) is None

    d = run_magic(evs["dist"], chooser)
    assert d.as_dict() == {TRUE: Fraction(1, 2), FALSE: Fraction(1, 2)}
