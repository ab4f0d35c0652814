"""The reference tokenizer: the one ``mfj.parser`` had before it scanned
with a single pattern and computed positions on demand.

It walks the text one token or whitespace run at a time and records each
token's line and column as it goes.  ``parser.tokenize`` must give the same
``(kind, text)`` sequence and ``parser._token_line_col`` the same positions,
and both must raise the same ``ParseError`` text; ``test_tokenizer.py``
checks that they do.
"""

import re
from dataclasses import dataclass

from mfj.parser import ParseError


@dataclass
class Token:
    kind: str
    text: str
    line: int
    col: int


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+|//[^\n]*)
  | (?P<num>\d+)
  | (?P<str>"[^"\n]*")
  | (?P<id>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<sym><\||<:|\\/|->|=>|[:,;.\[\]{}()<>=!])
    """,
    re.VERBOSE,
)

KEYWORDS = {
    "return", "do", "try", "with", "final", "continue", "stop",
    "pure", "top", "abs", "def", "mgc", "main", "fn", "Object",
}


def reference_tokenize(text: str):
    toks = []
    pos, line, linestart = 0, 1, 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise ParseError(f"unexpected character {text[pos]!r}",
                             line, pos - linestart + 1)
        col = pos - linestart + 1
        pos = m.end()
        if m.lastgroup == "ws":
            line += m.group().count("\n")
            if "\n" in m.group():
                linestart = m.start() + m.group().rindex("\n") + 1
            continue
        kind = m.lastgroup
        txt = m.group()
        if kind == "sym":
            kind = txt
        elif kind == "id":
            if txt in KEYWORDS:
                kind = txt
            elif txt[0].isupper():
                kind = "typeid"
        toks.append(Token(kind, txt, line, col))
    toks.append(Token("eof", "", line, pos - linestart + 1))
    return toks


def token_spans(text: str):
    """The ``(start, end)`` of each token of ``text``, which must tokenize."""
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m.lastgroup != "ws":
            yield m.span()
        pos = m.end()
