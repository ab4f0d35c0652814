"""The ``mfj`` command-line interface, driven through ``main(argv)``."""

import json
import os
import runpy
import subprocess
import sys

import pytest

from mfj.cli import main
from mfj.parser import MAX_NUMERAL, parse_program

from conftest import CORPUS, ROOT
from golden import load_golden, run_output
from test_signatures import SELF_BOUND
from test_typer import (
    BOX_TOWER, SHADOWING, memo_hole_program, shadowing_program,
)

GOLDEN = load_golden()


def mfj(capsys, *args):
    code = main([str(a) for a in args])
    out, err = capsys.readouterr()
    return code, out, err


def corpus(name):
    return CORPUS / f"{name}.mfj"


# -- check --------------------------------------------------------------------

def test_check_ok(capsys):
    code, out, _ = mfj(capsys, "check", corpus("bool_not"))
    assert code == 0
    assert out.strip().endswith("bool_not.mfj: ok")


def test_check_reports_diagnostics(capsys):
    code, out, _ = mfj(capsys, "check", corpus("bad_override"))
    assert code == 1
    assert "[OverrideError/t-ntype] method 'succ'" in out
    assert "[OverrideError/t-obj] method 'succ'" in out


def test_check_json(capsys):
    code, out, _ = mfj(capsys, "check", "--json", corpus("bool_not"))
    assert code == 0
    (rec,) = json.loads(out)
    assert rec["ok"] and rec["diagnostics"] == []


@pytest.mark.parametrize("order", ["AB", "BA"])
def test_check_retypes_a_body_under_another_bound(capsys, tmp_path, order):
    path = tmp_path / "bounds.mfj"
    path.write_text(memo_hole_program(order))
    code, out, _ = mfj(capsys, "check", path)
    assert code == 1
    assert out == (f"{path}: [NoSuchMethod/t-invk] no method 'succ' in "
                   "TypeVar(name='Y')\n")


def test_check_refuses_a_magic_method_with_parameters(capsys, tmp_path):
    # it used to check ok and then run to wrong, its call stuck
    path = tmp_path / "magic.mfj"
    path.write_text("Out { choose : mgc Nat -> Bool }\nmain = Out.choose(3)\n")
    assert mfj(capsys, "check", path) == (
        1, f"{path}: [MgcWithParams/t-ntype] magic method Out.choose declares "
           "parameters; a magic method takes none\n", "")
    assert mfj(capsys, "run", path, "--monad", "list")[:2] == (2, "")


def test_missing_file(capsys):
    code, _, err = mfj(capsys, "check", corpus("nope"))
    assert code == 2
    assert "no such file" in err


# -- run ----------------------------------------------------------------------

def test_run_pure(capsys):
    code, out, _ = mfj(capsys, "run", corpus("nat_sum"))
    assert code == 0
    assert out == "5\n"


def test_run_raised(capsys):
    code, out, _ = mfj(capsys, "run", corpus("exc_e2"))
    assert code == 0
    assert out == "raise E\n"


@pytest.mark.parametrize("text", ["ab", "²"])
def test_a_string_that_is_not_a_decimal_fails_to_convert(capsys, tmp_path, text):
    # "²" is a digit to str.isdigit but no decimal, and int() refuses it
    src = tmp_path / "s.mfj"
    src.write_text(f'main = "{text}".toNat()\n')
    code, out, _ = mfj(capsys, "run", src)
    assert (code, out) == (0, "raise Fail\n")


def test_run_list_monad(capsys):
    code, out, _ = mfj(capsys, "run", corpus("nd_m1"), "--monad", "list")
    assert code == 0
    assert out == "[1, 0]\n"


def test_run_dist_monad(capsys):
    code, out, _ = mfj(capsys, "run", corpus("nd_m1"), "--monad", "dist")
    assert code == 0
    assert out == "{1: 1/2, 0: 1/2}\n"


def test_run_diverged(capsys):
    code, out, _ = mfj(capsys, "run", corpus("nd_m2"),
                       "--monad", "list", "--fuel", "50")
    assert code == 0
    assert out == "diverged (fuel 50)\n"


def test_run_approx(capsys):
    code, out, _ = mfj(capsys, "run", corpus("nd_m2"),
                       "--monad", "list", "--approx", "40")
    assert code == 0
    assert out == "approx[40] = [0, 1, 2, 3, 4]\n"


def test_run_refuses_ill_typed(capsys):
    code, _, err = mfj(capsys, "run", corpus("bad_override"))
    assert code == 2
    assert "cannot run an ill-typed program" in err


def test_run_unchecked(capsys):
    code, out, _ = mfj(capsys, "run", corpus("bad_override"), "--unchecked")
    assert code == 0
    assert out == "Weird\n"


@pytest.mark.parametrize("src, where", [
    ("main = do y = return x; return y", "x in main"),
    ("A { m : def -> Nat ! pure <s, return z> } main = A.m()", "z in A.m"),
], ids=["main", "method"])
def test_run_unchecked_refuses_an_open_program(capsys, tmp_path, src, where):
    # runtime substitution renames no binder, so it runs closed terms only
    path = tmp_path / "open.mfj"
    path.write_text(src)
    code, out, err = mfj(capsys, "run", path, "--unchecked")
    assert code == 2
    assert out == ""
    assert err == f"mfj run: {path}: unbound variable {where}\n"


@pytest.mark.parametrize("src", [
    "A <| B { }  B <| A { }  main = A.m()",
    "A <| B { }  B <| C { }  C <| A { }  main = A.m()",
], ids=["2-cycle", "3-cycle"])
def test_run_unchecked_of_a_call_up_a_cyclic_hierarchy_is_stuck(
        capsys, tmp_path, src):
    path = tmp_path / "cycle.mfj"
    path.write_text(src)
    assert mfj(capsys, "run", path, "--unchecked") == (0, "wrong\n", "")


@pytest.mark.parametrize("i", range(len(SHADOWING)))
def test_run_refuses_a_program_whose_binder_shadows(capsys, tmp_path, i):
    path = tmp_path / "shadow.mfj"
    path.write_text(shadowing_program(i))
    code, out, err = mfj(capsys, "run", path)
    assert (code, out) == (2, "")
    assert f"[{SHADOWING[i][2]}]" in err


def test_opened_binder_names_are_the_same_in_every_process(capsys, tmp_path):
    path = tmp_path / "shadow.mfj"
    path.write_text(shadowing_program(0))
    outs = [mfj(capsys, "check", path)[1] for _ in range(2)]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for _ in range(2):
        done = subprocess.run([sys.executable, "-m", "mfj", "check", str(path)],
                              env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == 1
        outs.append(done.stdout)
    assert len(set(outs)) == 1
    assert "TypeVar(name=\"Y'1\")" in outs[0]


def test_run_trace(capsys):
    code, out, _ = mfj(capsys, "run", corpus("exc_e1"), "--trace")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 11  # ten numbered steps, then the result
    assert lines[0].startswith("1: [pure] ")
    assert lines[8].startswith("9: [catch-stop] ")
    assert lines[9].startswith("10: [ret] ")
    assert lines[10] == "1"


def test_run_trace_json_is_json_lines(capsys):
    code, out, _ = mfj(capsys, "run", corpus("exc_e1"), "--trace", "--json")
    assert code == 0
    recs = [json.loads(line) for line in out.splitlines()]
    assert len(recs) == 11
    assert recs[0]["step"] == 1 and recs[0]["rule"] == "pure"
    assert [r["rule"] for r in recs[8:10]] == ["catch-stop", "ret"]
    assert recs[-1] == {"result": "1"}


def test_run_trace_json_of_a_diverging_run(capsys):
    code, out, _ = mfj(capsys, "run", corpus("nd_m2"), "--monad", "list",
                       "--fuel", "3", "--trace", "--json")
    assert code == 0
    recs = [json.loads(line) for line in out.splitlines()]
    assert [r.get("step") for r in recs] == [1, 2, 3, None]
    assert recs[-1] == {"diverged": True, "fuel": 3}


def test_run_trace_is_kept_when_the_prefix_is_exceeded(capsys):
    path = corpus("nd_m1")
    code, out, err = mfj(capsys, "run", path, "--monad", "list",
                         "--trace", "--prefix", "1")
    assert code == 2
    lines = out.splitlines()
    assert lines and all(line.startswith(f"{i}: [")
                         for i, line in enumerate(lines, 1))
    assert lines[-1].endswith(", ...]")
    assert err == (f"mfj run: {path}: more than 1 branches; "
                   "raise --prefix\n")


def test_run_json(capsys):
    code, out, _ = mfj(capsys, "run", corpus("nat_sum"), "--json")
    assert code == 0
    assert json.loads(out) == {"result": "5"}


def test_run_wants_one_file(capsys):
    code, _, err = mfj(capsys, "run", corpus("nat_sum"), corpus("exc_e1"))
    assert code == 2
    assert "exactly one file" in err


@pytest.mark.parametrize("key", sorted(k for k, v in GOLDEN.items()
                                       if "run" in v))
def test_run_output_matches_the_golden(capsys, key):
    # the trace and the rendered result, byte for byte
    assert run_output(*key.split("/")) == GOLDEN[key]["run"]


# -- soundness ----------------------------------------------------------------

def test_soundness_ok(capsys):
    code, out, _ = mfj(capsys, "soundness", corpus("bool_not"),
                       "--fuel", "500")
    assert code == 0
    assert out == "4 checks, 0 failures\n"


def test_soundness_json(capsys):
    code, out, _ = mfj(capsys, "soundness", corpus("bool_not"),
                       "--fuel", "200", "--json")
    assert code == 0
    recs = json.loads(out)
    assert {r["check"] for r in recs} >= {"per-step", "finitary/exc"}
    assert all(r["ok"] for r in recs)


def test_soundness_refuses_ill_typed(capsys):
    code, _, err = mfj(capsys, "soundness", corpus("bad_override"))
    assert code == 2
    assert "ill-typed" in err


def test_soundness_reports_an_exceeded_prefix(capsys):
    path = corpus("nd_m1")
    code, _, err = mfj(capsys, "soundness", path, "--monad", "list",
                       "--prefix", "1")
    assert code == 2
    assert err == (f"mfj soundness: {path}: more than 1 branches; "
                   "raise --prefix\n")


@pytest.mark.parametrize("cmd", ["run", "soundness"])
def test_a_program_without_main_is_refused_with_its_name(capsys, tmp_path,
                                                         cmd):
    path = tmp_path / "no_main.mfj"
    path.write_text("My { m : def -> Nat ! pure <_, return 0> }\n")
    code, out, err = mfj(capsys, cmd, path)
    assert code == 2 and out == ""
    assert err == f"mfj {cmd}: {path}: no main expression\n"


# -- parse --------------------------------------------------------------------

def test_parse_prints_a_reparsable_program(capsys):
    code, out, _ = mfj(capsys, "parse", corpus("handler_final"))
    assert code == 0
    reparsed = parse_program(out)
    assert parse_program(corpus("handler_final").read_text()) == reparsed


def test_parse_of_the_simplest_program(capsys):
    code, out, _ = mfj(capsys, "parse", corpus("bool_not"))
    assert code == 0
    assert out == "main = True.not()\n"


def test_parse_prints_a_term_too_deep_to_check(tmp_path):
    # in child processes, so that a C stack overflow cannot take pytest
    # down: the parser and the printer keep their own stacks, so ``parse``
    # prints the chain, while ``type_expr`` recurses on it, so ``check``
    # runs out of the raised recursion limit and exits 2
    n = 110000
    src = tmp_path / "deep.mfj"
    text = "main = " + "do x = " * n + "return 0" + "; return x" * n
    src.write_text(text)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = {cmd: subprocess.run([sys.executable, "-m", "mfj", cmd, str(src)],
                                env=env, capture_output=True, text=True,
                                timeout=120)
            for cmd in ("parse", "check")}
    assert (done["parse"].returncode, done["parse"].stderr) == (0, "")
    assert done["parse"].stdout == text + "\n"
    assert (done["check"].returncode, done["check"].stdout) == (2, "")
    assert done["check"].stderr == f"mfj: {src}: term too deep\n"


@pytest.mark.parametrize("cmd", ["check", "run", "soundness", "parse"])
@pytest.mark.parametrize("kind", ["directory", "not-utf8"])
def test_an_unreadable_file_is_a_clean_diagnostic(tmp_path, cmd, kind):
    path = tmp_path / "bad.mfj"
    if kind == "directory":
        path.mkdir()
    else:
        path.write_bytes(b"main = \xff\n")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-m", "mfj", cmd, str(path)],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 2
    assert "Traceback" not in done.stderr
    assert done.stderr.startswith(f"mfj: {path}: cannot read: ")


DUPLICATES = {"A": "A { }\nA { }\nmain = return 0\n",
              "Nat": "Nat { }\nmain = return 0\n"}


@pytest.mark.parametrize("cmd", ["check", "run", "soundness", "parse"])
@pytest.mark.parametrize("name", sorted(DUPLICATES))
def test_a_duplicate_type_declaration_is_a_parse_error(capsys, tmp_path, cmd,
                                                       name):
    path = tmp_path / "dup.mfj"
    path.write_text(DUPLICATES[name])
    code, out, err = mfj(capsys, cmd, path)
    if cmd == "parse" and name == "Nat":  # parse reads no prelude
        assert (code, out) == (0, DUPLICATES[name].replace("\n", "\n\n", 1))
        return
    assert (code, out) == (1, "")
    assert "Traceback" not in err
    assert err == {
        "A": f"mfj: {path}: parse error: 2:1: duplicate type declaration A\n",
        "Nat": f"mfj: {path}: parse error: type Nat is already declared by "
               "the prelude\n"}[name]


# a name repeated in one binder group, and where it is reported; these
# checked ``ok`` (and the first ran to 2) while a binder group could repeat
# a name
REPEATED = {
    "parameter": ("A { m : def Nat Nat -> Nat ! pure <_ x x, return x> }\n"
                  "main = A.m(1, 2)\n", "1:40: duplicate variable x"),
    "declaration type parameter": (
        "A[X X] { }\nmain = return 0\n", "1:5: duplicate type parameter X"),
    "method type parameter": (
        "A { m : def [X X] -> Nat ! pure <_, return 0> }\nmain = A.m[Nat Nat]()\n",
        "1:16: duplicate type parameter X"),
}


@pytest.mark.parametrize("cmd", ["parse", "check", "run"])
@pytest.mark.parametrize("name", sorted(REPEATED))
def test_a_repeated_binder_name_is_a_parse_error(capsys, tmp_path, cmd, name):
    src, msg = REPEATED[name]
    path = tmp_path / "repeated.mfj"
    path.write_text(src)
    code, out, err = mfj(capsys, cmd, path)
    assert (code, out) == (1, "")
    assert err == f"mfj: {path}: parse error: {msg}\n"


@pytest.mark.parametrize("methods, where, dupes", [
    ("m m", "3:3", "['m']"),
    ("m n k n m", "5:3", "['m', 'n']"),
])
def test_a_duplicate_method_is_a_parse_error_where_its_name_repeats(
        capsys, tmp_path, methods, where, dupes):
    path = tmp_path / "dup.mfj"
    path.write_text("A {\n" + "".join(f"  {m} : abs -> Nat ! pure\n"
                                     for m in methods.split()) + "}\n")
    code, out, err = mfj(capsys, "check", path)
    assert (code, out) == (1, "")
    assert err == (f"mfj: {path}: parse error: {where}: "
                   f"duplicate methods in A: {dupes}\n")


def test_python_dash_m_runs_the_cli():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-m", "mfj", "parse", "corpus/nat_sum.mfj"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "main = 2.sum(3)\n"


def test_the_dash_m_entry_exits_with_the_clis_code(monkeypatch, capsys):
    # in this process, so that a line tracer sees ``mfj.__main__`` run
    monkeypatch.setattr(sys, "argv",
                        ["mfj", "parse", str(CORPUS / "nat_sum.mfj")])
    monkeypatch.delitem(sys.modules, "mfj.__main__", raising=False)
    with pytest.raises(SystemExit) as done:
        runpy.run_module("mfj", run_name="__main__")
    assert done.value.code == 0
    assert capsys.readouterr().out == "main = 2.sum(3)\n"


def test_the_package_lends_the_soundness_names():
    import mfj
    from mfj import soundness

    for name in ("SoundnessReport", "check_soundness", "interp_law_suite"):
        assert getattr(mfj, name) is getattr(soundness, name)
    with pytest.raises(AttributeError, match="no attribute 'nosuch'"):
        mfj.nosuch


IMPORT_BOUNDARY = """
import sys
def loaded():
    print("loaded", sorted({"dataclasses", "mfj.soundness"} & set(sys.modules)))
import mfj
mfj.prelude_program()
loaded()
from mfj import cli
cli.main(["run", "corpus/nat_sum.mfj"])
loaded()
cli.main(["check", "corpus/nat_sum.mfj"])
loaded()
cli.main(["soundness", "corpus/nat_sum.mfj"])
from mfj import SoundnessReport, check_soundness
print(check_soundness.__name__, SoundnessReport().ok, mfj.soundness.interps_for.__name__)
"""


def test_run_and_check_load_neither_dataclasses_nor_the_soundness_harness():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", IMPORT_BOUNDARY], cwd=ROOT,
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [
        "loaded []", "5", "loaded []", "corpus/nat_sum.mfj: ok", "loaded []",
        "4 checks, 0 failures",
        "check_soundness True interps_for"]


# -- options ------------------------------------------------------------------

@pytest.mark.parametrize("argv", [
    ["check", "--monad", "dist"],
    ["check", "--fuel", "3"],
    ["check", "--trace"],
    ["check", "--unchecked"],
    ["run", "--interp", "forall"],
    ["soundness", "--trace"],
    ["soundness", "--unchecked"],
    ["parse", "--unchecked"],
    ["parse", "--json"],
    ["parse", "--no-prelude"],
    ["run", "--approx", "5", "--trace"],
    ["run", "--approx", "5", "--fuel", "10"],
    ["run", "--approx", "5", "--fuel", "10000"],
])
def test_options_a_subcommand_does_not_read_are_rejected(capsys, argv):
    cmd, *opts = argv
    with pytest.raises(SystemExit) as exc:
        mfj(capsys, cmd, corpus("nat_sum"), *opts)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["run", "--fuel", "-5"],
    ["run", "--prefix", "-1"],
    ["run", "--approx", "-2"],
    ["soundness", "--fuel", "-5"],
    ["soundness", "--prefix", "-1"],
    ["soundness", "--approx", "-2"],
])
def test_negative_counts_are_rejected(capsys, argv):
    cmd, *opts = argv
    with pytest.raises(SystemExit) as exc:
        mfj(capsys, cmd, corpus("nat_sum"), *opts)
    assert exc.value.code == 2
    assert "must not be negative" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["run", "--prefix", "0"],
    ["run", "--approx", "8", "--prefix", "0"],
    ["soundness", "--prefix", "0"],
])
def test_a_zero_prefix_is_rejected(capsys, argv):
    cmd, *opts = argv
    with pytest.raises(SystemExit) as exc:
        mfj(capsys, cmd, corpus("nd_m1"), "--monad", "list", *opts)
    assert exc.value.code == 2
    assert "must be positive: 0" in capsys.readouterr().err


def test_zero_fuel_is_rejected_by_soundness(capsys):
    # a walk of no steps would pass every check it makes
    with pytest.raises(SystemExit) as exc:
        mfj(capsys, "soundness", corpus("nat_sum"), "--fuel", "0")
    assert exc.value.code == 2
    assert "must be positive: 0" in capsys.readouterr().err


def test_zero_fuel_is_accepted(capsys):
    code, out, _ = mfj(capsys, "run", corpus("nat_sum"), "--fuel", "0")
    assert code == 0
    assert out == "diverged (fuel 0)\n"


# -- depth --------------------------------------------------------------------

@pytest.mark.parametrize("cmd", ["parse", "check", "run", "soundness"])
def test_a_numeral_above_the_limit_is_a_parse_error(tmp_path, cmd):
    # in a child process, so that building the numeral cannot hang pytest
    src = tmp_path / "big.mfj"
    src.write_text("// a large numeral\nmain = return 9999999999999\n")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-m", "mfj", cmd, str(src)],
                          env=env, capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr == (f"mfj: {src}: parse error: "
                           f"2:15: numeral larger than {MAX_NUMERAL}\n")


def _run_all(src, cmds=("check", "run", "soundness")) -> dict:
    """``{cmd: (stdout, stderr, exit code)}`` of ``mfj cmd src``, the
    commands run side by side, each in its own process, so that a C stack
    overflow cannot take pytest down."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    procs = {
        cmd: subprocess.Popen(
            [sys.executable, "-m", "mfj", *cmd.split(), str(src)], env=env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        for cmd in cmds
    }
    try:
        return {cmd: (*p.communicate(timeout=120), p.returncode)
                for cmd, p in procs.items()}
    finally:
        for p in procs.values():
            p.kill()


@pytest.mark.parametrize("n", [5000, 20000, 100000, MAX_NUMERAL])
def test_a_deep_numeral_ends_in_a_result_or_a_clean_diagnostic(tmp_path, n):
    # a numeral's depth is a run-time depth, which no traversal recurses on,
    # so every numeral up to the limit ends in a result
    src = tmp_path / "deep.mfj"
    src.write_text(f"main = {n}.succ()\n")
    done = _run_all(src)
    for cmd, (_, err, code) in done.items():
        assert "Traceback" not in err, (cmd, err[-500:])
        assert code == 0, (cmd, code, err[-500:])
    assert done["run"][0] == f"{n + 1}\n"
    assert done["soundness"][0] == "4 checks, 0 failures\n"


@pytest.mark.parametrize("kind", ["do chain", "nested objects",
                                  "deep substitution"])
def test_deep_source_nesting_passes_under_the_cli_limit(tmp_path, kind):
    # the parser and type_expr follow source nesting, and so do building
    # and running the plan of an invk that substitutes along all of it;
    # the CLI raises the recursion limit for them
    n = 3000
    decls = ""
    if kind == "do chain":
        main = "do x = " * n + "return 0" + "; return x" * n
    else:
        main = "return Object{}" if kind == "nested objects" else "return o"
        for _ in range(n):
            main = f"return Object{{m : def -> Object ! pure <_, {main}>}}"
    if kind == "deep substitution":
        decls = f"A {{ m : def Object -> Object ! pure <_ o, {main}> }}\n"
        main = "A.m(Object{})"
    src = tmp_path / "deep.mfj"
    src.write_text(f"{decls}main = {main}\n")
    for cmd, (out, err, code) in _run_all(src).items():
        assert (code, err) == (0, ""), (cmd, code, err[-500:])
        assert out, cmd


def test_a_bound_whose_signature_asks_for_itself_is_a_diagnostic(tmp_path):
    src = tmp_path / "bound.mfj"
    src.write_text(SELF_BOUND)
    ((out, err, code),) = _run_all(src, ["check"]).values()
    assert code == 1 and "term too deep" not in err, err[-500:]
    assert "[OverrideError/t-ntype] method 'm'" in out


def test_a_deep_result_prints(tmp_path):
    # the printer keeps its own stack, so a result of any depth prints
    src = tmp_path / "box.mfj"
    src.write_text(BOX_TOWER)
    ((out, err, code),) = _run_all(src, ["run --fuel 1000000"]).values()
    assert (code, err) == (0, ""), err[-500:]
    assert out == ("Box{get : def -> Object ! pure <_, return " * 20001
                   + "Object{}" + ">}" * 20001 + "\n")


def test_a_deep_argument_is_quoted_as_source(tmp_path):
    src = tmp_path / "arg.mfj"
    src.write_text("A { m : def Bool -> Bool ! pure <_ b, return b> }\n"
                   "main = A.m(20000)\n")
    ((out, err, code),) = _run_all(src, ["check"]).values()
    assert code == 1 and "Traceback" not in err, err[-500:]
    assert "[ArgTypeMismatch/t-invk] argument 20000 of 'm' has type " in out


def test_a_deep_parameter_type_is_quoted(tmp_path):
    # a diagnostic shows types with repr, which keeps its own stack
    t = "Bool"
    for _ in range(6000):
        t = f"Bool{{ m : def -> {t} ! pure }}"
    src = tmp_path / "param.mfj"
    src.write_text(f"A {{ m : def {t} -> Object ! pure <_ b, return b> }}\n"
                   "main = A.m(True)\n")
    ((out, err, code),) = _run_all(src, ["check"]).values()
    assert code == 1 and "Traceback" not in err, err[-500:]
    assert ("[ArgTypeMismatch/t-invk] argument True of 'm' has type "
            "ObjType(parents=(NominalType(name='True', ") in out
    assert out.count("ObjType(parents=(NominalType(name='Bool', ") == 6001


def test_neither_import_nor_a_command_changes_the_recursion_limit(tmp_path):
    src = tmp_path / "p.mfj"
    src.write_text("main = 3.succ()\n")
    code = (
        "import sys\n"
        "before = sys.getrecursionlimit()\n"
        "import mfj, mfj.soundness\n"
        "after_import = sys.getrecursionlimit()\n"
        "from mfj.cli import main\n"
        "main(['soundness', sys.argv[1]])\n"
        "print(before, after_import, sys.getrecursionlimit())\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", code, str(src)], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    out = done.stdout.splitlines()
    assert out[0] == "4 checks, 0 failures"
    before, after_import, after_main = out[1].split()
    assert before == after_import == after_main


def test_outputs_compare_names_the_first_keys_that_differ(tmp_path):
    a = {"check x": {"code": 0, "stdout": "ok\n", "stderr": ""},
         "run x": {"code": 0, "stdout": "1\n", "stderr": ""}}
    b = {"check x": {"code": 1, "stdout": "ok\n", "stderr": "no\n"},
         "run y": {"code": 0, "stdout": "1\n", "stderr": ""}}
    paths = []
    for name, d in (("a", a), ("a2", a), ("b", b)):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(d))

    def compare(x, y):
        return subprocess.run(
            [sys.executable, str(ROOT / "tests" / "outputs.py"), "--compare",
             str(x), str(y)], capture_output=True, text=True)

    same = compare(paths[0], paths[1])
    assert (same.returncode, same.stdout) == (0, "identical\n")
    diff = compare(paths[0], paths[2])
    assert diff.returncode == 1
    assert diff.stdout.splitlines() == [
        "check x: code, stderr differ", "run x: only in A",
        "run y: only in B", "3 of 3 keys differ"]
