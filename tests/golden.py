"""The corpus golden: what ``mfj`` prints and reports for every corpus
program, kept byte for byte so that a refactor can show it changed none of it.

For each program of ``test_acceptance.APPLICABLE`` and each built-in monad,
``corpus_golden.json`` holds the ``run --trace`` output (the numbered trace,
then the rendered result; ``run --approx 40`` for ``nd_m2``, which diverges)
and, under the program's applicable monads, the ``check_soundness`` report
JSON.  Its ``laws/broken-exc`` entry is the law suite's violation list for
``BrokenExcInterp`` over the acceptance effects, and ``laws/broken-list`` and
``laws/broken-dist`` are those of the two broken liftings below, which fail
naturality and multiplication, so the lists show in what order the suite
meets its images and flattenings.  Rewrite it, only for an intended change of
output, with

    PYTHONPATH=src python tests/golden.py
"""

import contextlib
import io
import json
import pathlib

from mfj.cli import main
from mfj.monads import get_monad
from mfj.soundness import EffectInterp

HERE = pathlib.Path(__file__).resolve().parent
GOLDEN = HERE / "corpus_golden.json"
MONADS = ("exc", "list", "dist", "id")
DIVERGING = {"nd_m2": 40}  # program -> approximation reported instead


def load_golden() -> dict:
    return json.loads(GOLDEN.read_text())


def run_output(name: str, monad: str) -> str:
    """The standard output of ``mfj run`` on a corpus program."""
    path = HERE.parent / "corpus" / f"{name}.mfj"
    mode = (["--approx", str(DIVERGING[name])] if name in DIVERGING
            else ["--trace"])
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["run", str(path), "--monad", monad, *mode])
    assert code == 0, (name, monad, code)
    return out.getvalue()


def soundness_json(name: str, monad: str) -> str:
    """The report JSON of the corpus sweep's ``check_soundness`` call."""
    from conftest import load
    from mfj.soundness import check_soundness

    return check_soundness(load(name), monad, name=name, fuel=10000,
                           approx_to=64).to_json()


class BrokenListInterp(EffectInterp):
    """A broken list lifting: it reads only the head, and it rejects repeated
    elements, which ``map_m`` can make out of distinct ones."""

    def lift(self, eff, pred):
        def lifted(m):
            elems = m.take(self.prefix)
            return (len(set(elems)) == len(elems)
                    and (not elems or pred(elems[0])))

        return lifted


class BrokenDistInterp(EffectInterp):
    """A broken dist lifting: it reads only the first value of the support,
    and a deterministic effect bounds the support to one value, which
    ``map_m`` can reach by merging values."""

    def lift(self, eff, pred):
        nd = self.den.nd_flag(eff)

        def lifted(m):
            support = m.support()
            return ((nd or len(support) <= 1)
                    and (not support or pred(support[0])))

        return lifted


def broken_violations(which: str) -> list:
    """The law suite's violations for ``BrokenExcInterp`` ('exc') or one of
    the broken liftings above ('list', 'dist'; over X = (0, 1), to keep the
    list short)."""
    from mfj.soundness import BrokenExcInterp, interp_law_suite
    from test_acceptance import _law_setup

    sigs, den, effects = _law_setup()
    if which == "exc":
        return interp_law_suite(BrokenExcInterp(den), sigs, effects)
    cls = BrokenListInterp if which == "list" else BrokenDistInterp
    interp = cls(f"broken-{which}", get_monad(which), den)
    return interp_law_suite(interp, sigs, effects, X=(0, 1))


def record() -> dict:
    from test_acceptance import APPLICABLE

    out = {f"laws/broken-{m}": broken_violations(m)
           for m in ("exc", "list", "dist")}
    for name, applicable in APPLICABLE.items():
        for monad in MONADS:
            entry = {"run": run_output(name, monad)}
            if monad in applicable:
                entry["soundness"] = soundness_json(name, monad)
            out[f"{name}/{monad}"] = entry
    return out


if __name__ == "__main__":
    import sys

    sys.path.insert(0, str(HERE))
    GOLDEN.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n")
