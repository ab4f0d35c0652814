"""Command-line interface.

    mfj check file.mfj... [--json]
    mfj run file.mfj [--monad exc|list|dist|id] [--fuel N] [--prefix K]
                     [--approx N] [--trace] [--json] [--unchecked]
    mfj soundness file.mfj... [--monad M] [--fuel N] [--prefix K]
                     [--approx N] [--interp forall|exists] [--json]
    mfj parse file.mfj...

Exit codes: 0 success, 1 parse error (a numeral above
``parser.MAX_NUMERAL`` among them) or check/soundness failure, 2 usage (an
option the subcommand does not read, ``--trace`` or ``--fuel`` with ``run
--approx``, a negative N or K), a file that is missing or cannot be read as
UTF-8, precondition error (among them more branches than ``--prefix`` and a
free variable under ``run --unchecked``), or, under check, run and
soundness, source nested too deeply for the recursive typer ("term too
deep"; a numeral, however large, is never too deep).
``run --trace`` prints each step as it is taken; with ``--json`` it prints
JSON lines, one per step, then the result.
``--no-prelude`` (check, run, soundness) drops the standard prelude.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import sys
from typing import Optional

from .evaluator import (
    APPROX, FUEL, PREFIX, Diverged, Evaluator, PrefixExceeded, VRes,
)
from .monads import MONADS
from .parser import ParseError, pretty
from .prelude import load_program
from .syntax import free
from .typer import Checker


def count(text: str) -> int:
    """argparse type: a non-negative integer."""
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"must not be negative: {n}")
    return n


def _arg_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="mfj", description=__doc__.split("\n")[0])
    sub = p.add_subparsers(dest="command", required=True)
    check, run, snd, parse = (
        sub.add_parser(name) for name in ("check", "run", "soundness", "parse"))
    for sp in (check, run, snd, parse):
        sp.add_argument("files", nargs="+", help="source files (.mfj)")
    for sp in (run, snd):
        sp.add_argument("--monad", default="exc", choices=list(MONADS))
        sp.add_argument("--prefix", type=count, default=PREFIX)
    run.add_argument("--fuel", type=count, default=None,
                     help=f"step bound (default {FUEL}); not with --approx")
    snd.add_argument("--fuel", type=count, default=FUEL)
    run.add_argument("--approx", type=count, default=None,
                     help="report the N-step approximation instead")
    snd.add_argument("--approx", type=count, default=APPROX,
                     help="length of the approximation chain to check")
    snd.add_argument("--interp", choices=["forall", "exists"], default=None)
    run.add_argument("--trace", action="store_true")
    run.add_argument("--unchecked", action="store_true",
                     help="skip the typechecker before running")
    for sp in (check, run, snd):
        sp.add_argument("--json", action="store_true")
        sp.add_argument("--no-prelude", action="store_true")
    return p


def _read(path: str) -> str:
    """The text of ``path``; a missing or unreadable file exits 2."""
    try:
        with open(path, encoding="utf-8") as f:
            return f.read()
    except FileNotFoundError:
        print(f"mfj: no such file: {path}", file=sys.stderr)
    except (OSError, UnicodeDecodeError) as e:
        print(f"mfj: {path}: cannot read: {e}", file=sys.stderr)
    raise SystemExit(2)


def _load(path: str, use_prelude: bool):
    try:
        return load_program(_read(path), use_prelude)
    except ParseError as e:
        print(f"mfj: {path}: parse error: {e}", file=sys.stderr)
        raise SystemExit(1)


@contextlib.contextmanager
def _depth_guard(path: str):
    """Raise the recursion limit for ``type_expr`` and substitution plans,
    which recurse on the source nesting of ``path``, and turn running out of
    it into exit 2.  Parsing and printing need no raised limit."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 100_000))
    try:
        yield
    except RecursionError:
        print(f"mfj: {path}: term too deep", file=sys.stderr)
        raise SystemExit(2)
    finally:
        sys.setrecursionlimit(limit)


def _show_result(r) -> str:
    return pretty(r.value) if isinstance(r, VRes) else "wrong"


def cmd_check(args) -> int:
    bad = 0
    out = []
    for path in args.files:
        with _depth_guard(path):
            diags = Checker(_load(path, not args.no_prelude)).check_program()
        out.append({"file": path, "ok": not diags,
                    "diagnostics": [str(d) for d in diags]})
        if diags:
            bad += 1
            if not args.json:
                for d in diags:
                    print(f"{path}: {d}")
        elif not args.json:
            print(f"{path}: ok")
    if args.json:
        import json

        print(json.dumps(out, indent=2))
    return 1 if bad else 0


def cmd_run(args) -> int:
    if len(args.files) != 1:
        print("mfj run: expected exactly one file", file=sys.stderr)
        return 2
    with _depth_guard(args.files[0]):
        return _run(args)


def _unbound(prog) -> Optional[str]:
    """Where the program is open: the first free value variable of a method
    (whose shape binds self and the parameters) or of main.  A run renames
    no binder when it substitutes, so it needs a closed program."""
    methods = [(f"{d.name}.{md.name}", md) for d in prog.decls for md in d.methods]
    for where, term in [*methods, ("main", prog.main)]:
        free_vars = free(term)[0]
        if free_vars:
            return f"unbound variable {min(free_vars)} in {where}"
    return None


def _run(args) -> int:
    import json

    prog = _load(args.files[0], not args.no_prelude)
    if prog.main is None:
        print(f"mfj run: {args.files[0]}: no main expression", file=sys.stderr)
        return 2
    if not args.unchecked:
        diags = Checker(prog).check_program()
        if diags:
            for d in diags:
                print(f"{args.files[0]}: {d}", file=sys.stderr)
            print("mfj run: cannot run an ill-typed program "
                  "(use --unchecked to force)", file=sys.stderr)
            return 2
    elif (unbound := _unbound(prog)) is not None:
        print(f"mfj run: {args.files[0]}: {unbound}", file=sys.stderr)
        return 2
    ev = Evaluator(prog, args.monad, prefix=args.prefix)
    if args.approx is not None:
        mres = ev.approx(prog.main, args.approx)
        payload = {"approx": args.approx,
                   "result": ev.monad.render(mres, _show_result, args.prefix)}
        print(json.dumps(payload) if args.json
              else f"approx[{args.approx}] = {payload['result']}")
        return 0
    step = itertools.count(1)

    def show(line):
        n = next(step)
        print(json.dumps({"step": n, "rule": line.rule, "text": line.text})
              if args.json else line.render(n), flush=True)

    fuel = FUEL if args.fuel is None else args.fuel
    try:
        mres = ev.finitary(prog.main, fuel, trace=show if args.trace else None)
    except Diverged:
        print(json.dumps({"diverged": True, "fuel": fuel})
              if args.json else f"diverged (fuel {fuel})")
        return 0
    except PrefixExceeded as e:
        print(f"mfj run: {e}", file=sys.stderr)
        return 2
    rendered = ev.monad.render(mres, _show_result, args.prefix)
    print(json.dumps({"result": rendered}) if args.json else rendered)
    return 0


def cmd_soundness(args) -> int:
    from .soundness import IllTypedProgram, SoundnessReport, check_soundness

    report = SoundnessReport()
    for path in args.files:
        with _depth_guard(path):
            prog = _load(path, not args.no_prelude)
            if prog.main is None:
                print(f"mfj soundness: {path}: no main expression",
                      file=sys.stderr)
                return 2
            try:
                check_soundness(
                    prog, args.monad, name=path, fuel=args.fuel,
                    prefix=args.prefix, which=args.interp,
                    approx_to=args.approx,
                    report=report,
                )
            except IllTypedProgram as e:
                print(f"mfj soundness: cannot check soundness of ill-typed "
                      f"program {path}: {e}", file=sys.stderr)
                return 2
            except PrefixExceeded as e:
                print(f"mfj soundness: {path}: {e}", file=sys.stderr)
                return 2
    print(report.to_json() if args.json else report.summary())
    return 0 if report.ok else 1


def cmd_parse(args) -> int:
    for path in args.files:
        # parse the file alone (no prelude): the output should re-parse;
        # neither parsing nor printing recurses on source nesting
        print(pretty(_load(path, False)), end="")
    return 0


def main(argv=None) -> int:
    parser = _arg_parser()
    args = parser.parse_args(argv)
    if args.command == "run" and args.approx is not None:
        unread = [opt for opt, given in (("--trace", args.trace),
                                         ("--fuel", args.fuel is not None))
                  if given]
        if unread:
            parser.error("unrecognized arguments with --approx: "
                         + " ".join(unread))
    cmd = {"check": cmd_check, "run": cmd_run,
           "soundness": cmd_soundness, "parse": cmd_parse}[args.command]
    try:
        code = cmd(args)
    except SystemExit as e:
        code = e.code if isinstance(e.code, int) else 2
    if argv is None:
        sys.exit(code)
    return code


if __name__ == "__main__":
    main()
