"""Dump what ``mfj`` prints for every corpus program, as one JSON file, so
that a refactor's byte-identity is one ``diff`` between two checkouts:

    PYTHONPATH=src python tests/outputs.py OUT.json
    PYTHONPATH=src python tests/outputs.py --compare A.json B.json

The second form prints the first keys whose outputs differ, or that only
one of the two dumps has, and exits 1 if there are any.

It records the exit code, standard output and standard error of:

- ``parse`` and ``check --json`` of every corpus file, and ``run --trace``,
  ``run --trace --json`` and ``soundness --json`` of every corpus file under
  every monad;
- with each ``mfj.faults`` switch on: ``check --json`` of every corpus file,
  and ``soundness --json`` and ``run --unchecked`` of every corpus file under
  every monad.

It also records ``run`` and ``run --trace`` (the ``finitary`` result as
the monad renders it, and the trace text before it) of every coin program
of the benchmark's ``wide_nd`` seeds 1-6 under list and dist, each written
to a file of its own name in a temporary directory; their branches meet
equal configurations, which the corpus programs almost never do.

It also records the diagnostics (``str`` and ``repr``, in order) of every
``check_large`` benchmark program of seeds 1-6, built by the benchmark's own
generator, ``perfbench/gen.py``, and the ``type_conf`` typing (the ``repr``
of the type and of the effect, or the diagnostic) of every configuration
along the first ``WALK_STEPS`` steps of a monitored walk of every corpus
program under every monad, so that the typing memos are compared directly.

For the parser it records ``parse`` of every ``check_large`` program of
seeds 1-6 (each written to a file of its own name in a temporary
directory), and the outcome of ``parse_program`` (the ``ParseError`` text,
or the printed program) of each corpus file with one of its tokens deleted,
for every token, so that the parser's error paths are compared too.

Commands run in-process, in this order, with paths relative to the
repository root, so the output does not depend on where the checkout is.
Not a test module: pytest does not collect it.
"""

import contextlib
import io
import json
import os
import pathlib
import sys
import tempfile

from conftest import perfbench_gen
from mfj import faults
from mfj.cli import main
from mfj.monads import MONADS
from mfj.parser import ParseError, parse_program, pretty
from mfj.prelude import load_program
from mfj.typer import Checker, TypecheckError

from reference_tokenizer import token_spans
from test_memo_twin import walk

ROOT = pathlib.Path(__file__).resolve().parent.parent
CHECK_LARGE_SEEDS = range(1, 7)
WIDE_ND_SEEDS = range(1, 7)
WALK_STEPS = 200


def outcome(argv: list) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def commands() -> list:
    """``(fault or None, argv)`` for every output, in the order they run."""
    files = sorted(str(p.relative_to(ROOT))
                   for p in (ROOT / "corpus").glob("*.mfj"))
    plain = [(None, argv) for f in files
             for argv in (["parse", f], ["check", "--json", f])]
    plain += [(None, argv) for f in files for m in MONADS for argv in (
        ["run", "--trace", f, "--monad", m],
        ["run", "--trace", "--json", f, "--monad", m],
        ["soundness", "--json", f, "--monad", m])]
    faulty = [(name, argv) for name in faults.NAMES for argv in (
        *(["check", "--json", f] for f in files),
        *(argv for f in files for m in MONADS for argv in (
            ["soundness", "--json", f, "--monad", m],
            ["run", "--unchecked", f, "--monad", m])))]
    return plain + faulty


def dump() -> dict:
    got = {}
    for fault, argv in commands():
        key = " ".join(argv) if fault is None \
            else f"[{fault}] {' '.join(argv)}"
        with faults.inject(fault) if fault else contextlib.nullcontext():
            got[key] = outcome(argv)
    got.update(coin_outputs())
    got.update(parser_outputs())
    for seed in CHECK_LARGE_SEEDS:
        for i, item in enumerate(perfbench_gen().check_large(seed)):
            diags = Checker(load_program(item.source)).check_program()
            got[f"check_large seed {seed} item {i} {item.name}"] = {
                "diagnostics": [[str(d), repr(d)] for d in diags]}
    for f in sorted((ROOT / "corpus").glob("*.mfj")):
        prog = load_program(f.read_text())
        for m in MONADS:
            got[f"type_conf {f.relative_to(ROOT)} --monad {m}"] = {
                "typings": typings(prog, m)}
    return got


def coin_outputs() -> dict:
    """``run`` and ``run --trace`` of each distinct ``wide_nd`` coin program,
    with the prefix the benchmark gives it."""
    got = {}
    with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp):
        for seed in WIDE_ND_SEEDS:
            for item in perfbench_gen().wide_nd(seed, ""):
                if item.kind != "coins":
                    continue
                path = f"{item.name.split('/')[0]}.mfj"
                with open(path, "w", encoding="utf-8") as f:
                    f.write(item.source)
                for argv in (["run"], ["run", "--trace"]):
                    argv += [path, "--monad", item.monad,
                             "--prefix", str(2 ** item.params["k"])]
                    got[" ".join(argv)] = outcome(argv)
    return got


def parser_outputs() -> dict:
    """``parse`` of each ``check_large`` program, and what each corpus file
    with one token deleted parses to."""
    got = {}
    with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp):
        for seed in CHECK_LARGE_SEEDS:
            for i, item in enumerate(perfbench_gen().check_large(seed)):
                path = f"check_large-{seed}-{i}.mfj"
                with open(path, "w", encoding="utf-8") as f:
                    f.write(item.source)
                got[f"parse {path} {item.name}"] = outcome(["parse", path])
    for f in sorted((ROOT / "corpus").glob("*.mfj")):
        text = f.read_text()
        for n, (i, j) in enumerate(token_spans(text)):
            try:
                parsed = pretty(parse_program(text[:i] + text[j:]))
            except ParseError as e:
                parsed = str(e)
            got[f"parse {f.relative_to(ROOT)} without token {n}"] = {
                "parse": parsed}
    return got


def typings(prog, monad: str) -> list:
    """The ``type_conf`` typing of each configuration along the walk."""
    ck, out = Checker(prog), []
    for c in walk(prog, monad, WALK_STEPS):
        try:
            t, f = ck.type_conf(c)
            out.append(f"{t!r} ! {f!r}")
        except TypecheckError as err:
            out.append(str(err))
    return out


def compare(a: dict, b: dict, shown: int = 10) -> list:
    """Lines naming the first ``shown`` keys where dumps ``a`` and ``b``
    differ, in key order, and how many differ in all; empty if none."""
    keys = sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))
    lines = []
    for k in keys[:shown]:
        if k not in a or k not in b:
            lines.append(f"{k}: only in {'B' if k not in a else 'A'}")
        else:
            parts = [p for p in ("code", "stdout", "stderr", "diagnostics",
                                 "typings", "parse")
                     if a[k].get(p) != b[k].get(p)]
            lines.append(f"{k}: {', '.join(parts)} differ")
    if keys:
        lines.append(f"{len(keys)} of {len(a.keys() | b.keys())} keys differ")
    return lines


if __name__ == "__main__":
    if len(sys.argv) == 4 and sys.argv[1] == "--compare":
        dumps = []
        for path in sys.argv[2:]:
            with open(path, encoding="utf-8") as f:
                dumps.append(json.load(f))
        diff = compare(*dumps)
        print("\n".join(diff) if diff else "identical")
        sys.exit(1 if diff else 0)
    if len(sys.argv) != 2:
        sys.exit(f"usage: {sys.argv[0]} OUT.json | --compare A.json B.json")
    target = os.path.abspath(sys.argv[1])
    os.chdir(ROOT)
    with open(target, "w", encoding="utf-8") as f:
        json.dump(dump(), f, indent=1, sort_keys=True)
        f.write("\n")
