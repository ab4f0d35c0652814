"""The ``mfj`` command-line interface, driven through ``main(argv)``."""

import json
import os
import subprocess
import sys

import pytest

from mfj.cli import main
from mfj.parser import parse_program

from conftest import CORPUS, ROOT
from golden import load_golden, run_output

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
    code, out, err = mfj(capsys, "run", corpus("nd_m1"), "--monad", "list",
                         "--trace", "--prefix", "1")
    assert code == 2
    lines = out.splitlines()
    assert lines and all(line.startswith(f"{i}: [")
                         for i, line in enumerate(lines, 1))
    assert lines[-1].endswith(", ...]")
    assert "more than 1 branches" in err


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


def test_python_dash_m_runs_the_cli():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-m", "mfj", "parse", "corpus/nat_sum.mfj"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "main = 2.sum(3)\n"


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


def test_zero_fuel_is_accepted(capsys):
    code, out, _ = mfj(capsys, "run", corpus("nat_sum"), "--fuel", "0")
    assert code == 0
    assert out == "diverged (fuel 0)\n"
