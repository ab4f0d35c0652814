"""The standard prelude: booleans, naturals, matchers, and the magic types.

Programs are normally checked and run against these declarations; pass
``use_prelude=False`` (or ``--no-prelude`` on the CLI) to opt out.
"""

from __future__ import annotations

from functools import cache

from .parser import ParseError, parse_program
from .syntax import Program

PRELUDE_TEXT = """\
// booleans, with an effect-polymorphic conditional
Bool {
  if : abs [X Y <: ThenElse[X]] Y -> X ! Y.then \\/ Y.else
  not : abs -> Bool ! pure
}

True <| Bool {
  if : def [X Y <: ThenElse[X]] Y -> X ! Y.then <_ te, te.then()>
  not : def -> Bool ! pure <_, return False>
}

False <| Bool {
  if : def [X Y <: ThenElse[X]] Y -> X ! Y.else <_ te, te.else()>
  not : def -> Bool ! pure <_, return True>
}

ThenElse[X] {
  then : abs -> X ! top
  else : abs -> X ! top
}

// naturals in the Zero/Succ encoding; numerals in source desugar to these
Nat {
  succ : def -> Nat ! pure <n, return Succ{pred : def -> Nat ! pure <_, return n>}>
  sum : abs Nat -> Nat ! pure
  match : abs [X Z <: NatMatch[X]] Z -> X ! Z.zero \\/ Z.succ
}

Zero <| Nat {
  match : def [X Z <: NatMatch[X]] Z -> X ! Z.zero <_ nm, nm.zero()>
  sum : def Nat -> Nat ! pure <_ n, return n>
}

Succ <| Nat {
  pred : abs -> Nat ! pure
  match : def [X Z <: NatMatch[X]] Z -> X ! Z.succ <n nm, do p = n.pred(); nm.succ(p)>
  sum : def Nat -> Nat ! pure <n m, do p = n.pred(); do q = p.sum(m); q.succ()>
}

NatMatch[X] {
  zero : abs -> X ! top
  succ : abs Nat -> X ! top
}

// magic types: the chosen monad's magic table gives their calls a meaning
Exception {
  throw : mgc [X] -> X
}

MyException <| Exception { }

Failure[X] {
  fail : mgc -> X
}

Chooser {
  choose : mgc -> Bool
}

// string literals desugar to String objects whose toNat may fail
String {
  toNat : abs -> Nat ! Failure[Nat].fail
}
"""


@cache
def prelude_program() -> Program:
    return parse_program(PRELUDE_TEXT)


def load_program(text: str, use_prelude: bool = True) -> Program:
    """Parse a source text, prepending the prelude declarations."""
    prog = parse_program(text)
    if not use_prelude:
        return prog
    prelude = prelude_program()
    for d in prog.decls:
        if prelude.decl(d.name) is not None:
            raise ParseError(f"type {d.name} is already declared by the "
                             "prelude")
    return prelude.extend(prog)

