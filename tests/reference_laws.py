"""The four lifting laws stated straight from their definitions: the
reference ``soundness.interp_law_suite`` is compared against.

Every law instance builds the liftings it reads with ``interp.lift`` and
evaluates them on its own values, with no table and nothing shared between
instances.  The instances are met in the suite's order (effects, then
functions or effects, then subsets, then values), and each violation is
worded as the suite words it, so the two lists must be equal string for
string.  Not a test module: pytest does not collect it.
"""

from itertools import compress, product

from mfj.syntax import PURE, eff_union


def subsets(X) -> list:
    """Every subset of X; bit i of the enumeration index selects X[i]."""
    return [frozenset(compress(X, reversed(bits)))
            for bits in product((0, 1), repeat=len(X))]


def functions(X) -> list:
    """Every function X -> X as a dict; X[0]'s image varies fastest."""
    return [dict(zip(X, reversed(ys))) for ys in product(X, repeat=len(X))]


def law_violations(interp, sigs, effects, X=(0, 1, 2)) -> list:
    monad, name, X = interp.monad, interp.name, tuple(X)
    samples = monad.law_samples(X)

    def lift(eff, A):
        return interp.lift(eff, A.__contains__)

    viol = []
    # 1: naturality, lift_eff(f^-1 A) = f^-1 lift_eff(A)
    for eff in effects:
        for f in functions(X):
            for A in subsets(X):
                pre = frozenset(x for x in X if f[x] in A)
                for m in samples:
                    image = monad.map_m(f.__getitem__, m)
                    if lift(eff, pre)(m) != lift(eff, A)(image):
                        viol.append(
                            f"naturality fails for {name} at eff={eff!r}, "
                            f"f={f}, A={sorted(A)}, m={m!r}")
    # 2: effect-monotonicity, eff <= eff' gives lift_eff(A) <= lift_eff'(A)
    for eff in effects:
        for eff2 in effects:
            if not sigs.sub_eff({}, eff, eff2):
                continue
            for A in subsets(X):
                for m in samples:
                    if lift(eff, A)(m) and not lift(eff2, A)(m):
                        viol.append(
                            f"monotonicity fails for {name}: {eff!r} <= "
                            f"{eff2!r}, A={sorted(A)}, m={m!r}")
    # 3: unit, x in A gives unit(x) in lift_pure(A)
    for A in subsets(X):
        for x in A:
            if not lift(PURE, A)(monad.unit(x)):
                viol.append(f"unit law fails for {name}: x={x}, A={sorted(A)}")
    # 4: multiplication, lift_eff(lift_eff'(A)) flattens into
    # lift_{eff v eff'}(A)
    outer = [monad.unit(m) for m in samples] + monad.outer_samples(samples)
    for eff in effects:
        for eff2 in effects:
            for A in subsets(X):
                for mm in outer:
                    twice = interp.lift(eff, lift(eff2, A))(mm)
                    flat = monad.bind(mm, lambda m: m)
                    if twice and not lift(eff_union(eff, eff2), A)(flat):
                        viol.append(
                            f"multiplication fails for {name}: eff={eff!r}, "
                            f"eff'={eff2!r}, A={sorted(A)}, mm={mm!r}")
    return viol
