"""Seeded-bug switches for mutation testing.

Each flag flips one deliberately wrong behaviour at a single site in the
implementation.  They exist so the test suite can demonstrate that the
acceptance checks actually notice these bugs; all flags are off in normal
operation.  Construct checkers/evaluators inside the ``inject`` context so
per-run memo tables cannot leak state across a toggle.
"""

from __future__ import annotations

import contextlib

from .syntax import record


@record
class Faults:
    # cmatch scans clauses in reverse (last-match instead of first-match)
    reverse_clause_match: bool = False
    # rule invk drops the method-level type substitution
    skip_invk_type_subst: bool = False
    # symmetric sum's kind table is flipped (abs+def yields abs, etc.)
    flip_symsum_kinds: bool = False
    # t-try applies the handler filter to the raw, unsimplified body effect
    filter_before_simplify: bool = False
    # list-monad bind concatenates continuations in reverse order
    swap_list_bind: bool = False


ACTIVE = Faults()

NAMES = list(Faults._fields)


@contextlib.contextmanager
def inject(name: str):
    """Enable one seeded bug for the duration of the block: ``ACTIVE`` is a
    copy with the flag set, and the previous ``ACTIVE`` comes back when the
    block ends, also when it raises.  Every site reads ``faults.ACTIVE``."""
    global ACTIVE
    if name not in NAMES:
        raise ValueError(f"unknown fault {name!r}")
    prev = ACTIVE
    ACTIVE = Faults(**{**prev.__dict__, name: True})
    try:
        yield
    finally:
        ACTIVE = prev
