"""The tokenizer against ``reference_tokenizer``, its former self.

``parser.tokenize`` scans with one pattern, and the parser finds a token's
line and column (``parser._token_line_col``) only when it reports an error.
For every input both must agree with the reference: the same ``(kind,
text)`` sequence, the same position for every token, and the same
``ParseError`` text where either one raises.
"""

import pytest
from hypothesis import given, settings, strategies as st

from mfj import parser
from mfj.parser import ParseError
from mfj.prelude import PRELUDE_TEXT

from conftest import CORPUS
from reference_tokenizer import reference_tokenize

# token pieces, blanks (a line separator among them, which is a blank but
# starts no line) and comments, the halves of two-character symbols, and
# characters on both sides of the edge: ``٣`` is a decimal digit (``\d``
# matches it and ``int`` reads it), while ``²`` and ``É`` are not tokens
PIECES = [
    "return", "do", "try", "with", "final", "continue", "stop", "pure", "top",
    "abs", "def", "mgc", "main", "fn", "Object", "x", "y1", "_", "_2", "X",
    "Nat", "0", "7", "42", "<|", "<:", "\\/", "->", "=>", *":,;.[]{}()<>=!",
    "|", "\\", "/", "-", " ", "\t", "\n", "\r", "\u2028", "//", '"', "٣", "²",
    "É", "@",
]
sources = st.lists(st.sampled_from(PIECES), max_size=30).map("".join)


def outcome(tokenize, text):
    try:
        return tokenize(text)
    except ParseError as e:
        return str(e)


def assert_agrees(text):
    ref = outcome(reference_tokenize, text)
    new = outcome(parser.tokenize, text)
    if isinstance(ref, str):
        assert new == ref
        return
    assert new == [(t.kind, t.text) for t in ref]
    for i, t in enumerate(ref):
        assert parser._token_line_col(text, i) == (t.line, t.col), (i, t)


@settings(max_examples=400, deadline=None)
@given(sources)
def test_the_tokenizer_agrees_with_the_reference(text):
    assert_agrees(text)


@pytest.mark.parametrize("fname", sorted(f.name for f in CORPUS.glob("*.mfj")))
def test_the_tokenizer_agrees_with_the_reference_on_the_corpus(fname):
    assert_agrees((CORPUS / fname).read_text())


def test_the_tokenizer_agrees_with_the_reference_on_the_prelude():
    assert_agrees(PRELUDE_TEXT)
