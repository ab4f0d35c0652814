"""A reference toolchain for an effectful object-oriented calculus.

Parse ``.mfj`` programs, typecheck them with a type-and-effect system,
run them under pluggable monads, and dynamically check the soundness
theorems.  The soundness harness, ``mfj.soundness``, loads on first use.
"""

from .evaluator import Diverged, Evaluator
from .monads import MONADS, get_monad
from .parser import ParseError, parse_effect, parse_expr, parse_program, parse_type, pretty
from .prelude import load_program, prelude_program
from .signatures import SigError, Sigs
from .typer import Checker, TypecheckError

__all__ = [
    "Checker", "Diverged", "Evaluator", "MONADS", "ParseError", "SigError",
    "Sigs", "SoundnessReport", "TypecheckError", "check_soundness",
    "get_monad", "interp_law_suite", "load_program",
    "parse_effect", "parse_expr", "parse_program", "parse_type", "pretty",
    "prelude_program",
]

__version__ = "0.1.0"

_SOUNDNESS = ("SoundnessReport", "check_soundness", "interp_law_suite")


def __getattr__(name):
    if name == "soundness" or name in _SOUNDNESS:
        import importlib

        soundness = importlib.import_module(".soundness", __name__)
        return soundness if name == "soundness" else getattr(soundness, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
