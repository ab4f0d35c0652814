"""Seeded benchmark inputs and their expected outputs.

Nothing here imports ``mfj``: every expected output is computed in plain
Python (integer addition, exhaustive enumeration, exact ``Fraction``s), so a
wrong answer from the toolchain cannot also end up in its own reference.

Sizes are drawn from narrow strata spread over each range rather than
uniformly.  The seed still changes every term, but the total work of a pass
and its latency quantiles barely move between seeds, which is what lets
runs with different seeds be compared.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product

# the corpus programs and the monads each is meaningful under (the same
# table as the acceptance sweep; copied so that the workload stays fixed)
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

# the effects the interpretation-law suite is brute-forced over
LAW_EFFECTS = [
    "pure", "top", "Exception.throw[Nat]", "MyException.throw[Nat]",
    "Failure[Nat].fail", "Chooser.choose",
    "Exception.throw[Nat] \\/ Chooser.choose",
]

# every interpretation of the four monads: (monad, index into interps_for)
LAW_INTERPS = [("exc", 0), ("list", 0), ("list", 1), ("dist", 0), ("dist", 1),
               ("id", 0)]

HANDLER = "Exception.throw : [X] <x, return 0> stop"


@dataclass
class Item:
    """One unit of work: what to run, and what it must produce.

    ``expect`` uses plain Python values: an int for a natural-number result,
    a list of ints for the list monad, a dict int -> Fraction for the
    distribution monad, a list of diagnostic codes for a typecheck, and an
    empty list of failures/violations for the soundness checks.
    """

    name: str
    kind: str
    monad: str = ""
    source: str = ""
    expect: object = None
    params: dict = field(default_factory=dict)


def _jitter(rng: random.Random, base: int, width: int) -> int:
    return base + rng.randrange(width)


# ---------------------------------------------------------------------------
# deep_eval: a.sum(b), some under a handler that never fires
# ---------------------------------------------------------------------------

# three plain items and two under the handler: five items, so that the
# median item time falls inside the cluster of one item's times, not in the
# gap between two; both monads in each group, fixed per size, because the
# monad changes an item's time by a fifth
SUM_BASES = ((100, "exc"), (250, "id"), (392, "exc"))
WRAPPED_BASES = ((150, "id"), (350, "exc"))
SUM_B = 250


def sum_source(a: int, b: int, wrapped: bool) -> str:
    call = f"{a}.sum({b})"
    if wrapped:
        call = f"try {call} with {HANDLER}"
    return f"main = {call}\n"


def deep_eval(seed: int) -> list:
    rng = random.Random(seed)
    items = []
    for bases, wrapped in ((SUM_BASES, False), (WRAPPED_BASES, True)):
        for base, monad in bases:
            a = _jitter(rng, base, 4)
            b = _jitter(rng, SUM_B, 4)
            items.append(Item(
                f"{'try-' if wrapped else ''}{a}.sum({b})/{monad}", "sum", monad,
                sum_source(a, b, wrapped), a + b, {"a": a, "b": b}))
    rng.shuffle(items)
    return items


# ---------------------------------------------------------------------------
# wide_nd: k independent coin flips, summed with seeded weights
# ---------------------------------------------------------------------------

COIN_PRELUDE = """\
CoinTE <| ThenElse[Nat] {
  then : abs -> Nat ! pure
  else : abs -> Nat ! pure
}

Flip {
  add : def Nat Nat -> Nat ! Chooser.choose
    <_ acc w, do b = Chooser.choose();
      b.if[Nat CoinTE](CoinTE{
        then : def -> Nat ! pure <_, w.sum(acc)>
        else : def -> Nat ! pure <_, return acc>
      })>
}
"""


COIN_WEIGHTS = (1, 3, 2, 1, 3, 2)


def coin_source(weights: list) -> str:
    steps = " ".join(f"do s{i + 1} = Flip.add(s{i}, {w});"
                     for i, w in enumerate(weights))
    return f"{COIN_PRELUDE}\nmain = do s0 = return 0; {steps} return s{len(weights)}\n"


def coin_list(weights: list) -> list:
    """Results in list-monad order: ``choose`` yields True (heads) first."""
    return [sum(w for w, heads in zip(weights, flips) if heads)
            for flips in product((True, False), repeat=len(weights))]


def coin_dist(weights: list) -> dict:
    """Exact result distribution of fair, independent flips."""
    out: dict = {}
    p = Fraction(1, 2 ** len(weights))
    for s in coin_list(weights):
        out[s] = out.get(s, Fraction(0)) + p
    return out


def geometric(n: int) -> Fraction:
    """Weight of result n in nd_m2 (flip until heads): 1/2^(n+1)."""
    return Fraction(1, 2 ** (n + 1))


def wide_nd(seed: int, nd_m2_source: str) -> list:
    rng = random.Random(seed)
    items = []
    for k in (6, 7, 8):
        # an item's cost grows with the weights added, and fifteen
        # sixteenths of the additions happen at the last four coins: those
        # keep weight 2, and the seed orders a fixed set of weights for the
        # others, which moves the cost by under 2%
        weights = rng.sample(COIN_WEIGHTS[: k - 4], k - 4) + [2, 2, 2, 2]
        src = coin_source(weights)
        wtxt = "".join(map(str, weights))
        items.append(Item(f"coins{k}[{wtxt}]/list", "coins", "list", src,
                          coin_list(weights), {"k": k}))
        items.append(Item(f"coins{k}[{wtxt}]/dist", "coins", "dist", src,
                          coin_dist(weights), {"k": k}))
    for monad in ("list", "dist"):
        n = _jitter(rng, 448, 16)
        items.append(Item(f"nd_m2~{n}/{monad}", "approx", monad, nd_m2_source,
                          "geometric", {"n": n}))
    rng.shuffle(items)
    return items


# ---------------------------------------------------------------------------
# soundness_sweep: the corpus soundness sweep and the law suite
# ---------------------------------------------------------------------------


def soundness_sweep(seed: int, corpus: dict) -> list:
    """The whole fixed sweep; the seed only orders it."""
    items = [Item(f"{name}/{monad}", "soundness", monad, corpus[name], [])
             for name, monads in APPLICABLE.items() for monad in monads]
    items += [Item(f"laws/{monad}#{idx}", "laws", monad, "", [], {"idx": idx})
              for monad, idx in LAW_INTERPS]
    random.Random(seed).shuffle(items)
    return items


# ---------------------------------------------------------------------------
# check_large: long inheritance chains, a quarter with one bad override
# ---------------------------------------------------------------------------

# effects from the widest to the narrowest; an override may keep its
# parent's effect or move right, never left
EFFECTS = [
    "top",
    "Exception.throw[Nat] \\/ Chooser.choose \\/ Failure[Nat].fail",
    "Exception.throw[Nat] \\/ Chooser.choose",
    "Exception.throw[Nat]",
    "MyException.throw[Nat]",
    "pure",
]
METHODS = ("m0", "m1", "m2")
DECL_BASES = tuple(100 + 41 * i for i in range(8))  # 100..387


def large_program(rng: random.Random, n_decls: int, broken: bool):
    """Source text of ``n_decls`` declarations, and the broken override.

    Each chain's root declares m0 (a plain body), m1 (calls m0) and m2
    (abstract); the second link defines m2, and every later link overrides
    one or two methods with an effect no wider than its parent's (m1 also
    no narrower than m0, whose effect its body has).  A broken program gives
    one chain's last link an override widened to ``top`` where the inherited
    effect is narrower, so exactly one declaration fails to extend.
    Returns the source and the broken (declaration, method), or None.
    """
    chains = []
    left = n_decls
    while left:
        length = min(left, rng.randrange(8, 25))
        if left - length == 1:
            length = left
        chains.append(length)
        left -= length
    bad_chain = rng.randrange(len(chains)) if broken else None
    bad = None
    decls = []
    leaves = []
    for c, length in enumerate(chains):
        level = {"m0": rng.randrange(2, 5), "m2": rng.randrange(1, 5)}
        level["m1"] = rng.randrange(1, level["m0"] + 1)
        parent = f"C{c}x0"
        decls.append(
            f"{parent} {{\n"
            f"  m0 : def Nat -> Nat ! {EFFECTS[level['m0']]} <s x, x.succ()>\n"
            f"  m1 : def Nat -> Nat ! {EFFECTS[level['m1']]}"
            f" <s x, do y = s.m0(x); y.succ()>\n"
            f"  m2 : abs Nat -> Nat ! {EFFECTS[level['m2']]}\n"
            f"}}\n")
        for j in range(1, length):
            name = f"C{c}x{j}"
            changed = {"m2"} if j == 1 else set(rng.sample(METHODS, rng.randrange(1, 3)))
            if c == bad_chain and j == length - 1:
                m = rng.choice([m for m in METHODS if level[m] > 0])
                changed.add(m)
                bad = (name, m)
            body = []
            for m in METHODS:
                if m not in changed:
                    continue
                if bad == (name, m):
                    body.append(f"  {m} : def Nat -> Nat ! top <s x, return x>\n")
                    continue
                hi = level["m0"] if m == "m1" else len(EFFECTS) - 1
                level[m] = rng.randrange(level[m], hi + 1)
                expr = {"m0": "return x", "m1": "do y = s.m0(x); return y",
                        "m2": "x.succ()"}[m]
                body.append(f"  {m} : def Nat -> Nat ! {EFFECTS[level[m]]}"
                            f" <s x, {expr}>\n")
            decls.append(f"{name} <| {parent} {{\n{''.join(body)}}}\n")
            parent = name
        leaves.append(parent)
    clean_leaf = leaves[1] if bad_chain == 0 else leaves[0]
    return "\n".join(decls) + f"\nmain = {clean_leaf}.m1(2)\n", bad


def check_large(seed: int) -> list:
    rng = random.Random(seed)
    broken = {rng.randrange(4), 4 + rng.randrange(4)}  # one in each half
    items = []
    for i, base in enumerate(DECL_BASES):
        n = _jitter(rng, base, 10)
        src, bad = large_program(rng, n, i in broken)
        expect = ["OverrideError"] if bad else []
        label = f"decls{n}" + (f"!{bad[0]}.{bad[1]}" if bad else "")
        items.append(Item(label, "check", "", src, expect,
                          {"decls": n, "bad": bad}))
    rng.shuffle(items)
    return items


WORKLOADS = ("deep_eval", "wide_nd", "soundness_sweep", "check_large")


def make_items(workload: str, seed: int, corpus: dict) -> list:
    if workload == "deep_eval":
        return deep_eval(seed)
    if workload == "wide_nd":
        return wide_nd(seed, corpus["nd_m2"])
    if workload == "soundness_sweep":
        return soundness_sweep(seed, corpus)
    if workload == "check_large":
        return check_large(seed)
    raise KeyError(workload)
