"""The compiled scanner against the character-at-a-time reference lexer.

``tests/lexer_reference.py`` keeps the lexer that
:mod:`repro.lexer.lexer` replaced.  Both must give field-for-field
equal tokens — kind, text, file, line, column and layout — from
``lex``, ``lex_logical_lines`` and ``Lexer(...).tokens()``, and equal
``LexerError`` messages and positions, on random texts built from the
characters that steer the scanner, on every file of the synthetic
kernel corpora and on ``examples/``.
"""

import hashlib
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.corpus import KernelSpec, generate_kernel
from repro.lexer import Lexer, LexerError, TokenKind, lex, lex_logical_lines
from repro.serve.incremental import file_token_digest
from tests import lexer_reference as reference

EXAMPLES = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                        "examples")

# Continuations (LF and CRLF), a lone CR, comment delimiters, both
# quotes, the wide prefix, pp-number characters, the hash operators,
# `$`, characters that are no C token and a non-ASCII letter.
ALPHABET = ["\\\n", "\\\r\n", "\r", "\n", "/*", "*/", "//", "/", "*",
            "'", '"', "L", ".", "0", "7", "e", "E", "p", "P", "+", "-",
            "#", "##", "$", "@", "é", "\\", " ", "\t", "x", "<",
            "=", ">", "&"]


def fields(tokens):
    return [(t.kind, t.text, t.file, t.line, t.col, t.layout)
            for t in tokens]


def outcome(function):
    try:
        return "ok", function()
    except LexerError as error:
        return "error", str(error), error.file, error.line, error.col


def assert_same_as_reference(text, filename="f.c"):
    expected = outcome(lambda: fields(reference.lex(text, filename)))
    assert outcome(lambda: fields(lex(text, filename))) == expected
    assert outcome(lambda: fields(Lexer(text, filename).tokens())) \
        == expected
    assert outcome(lambda: [fields(line) for line in
                            lex_logical_lines(text, filename)]) == \
        outcome(lambda: [fields(line) for line in
                         reference.lex_logical_lines(text, filename)])
    return expected


@settings(max_examples=2000, deadline=None)
@given(st.lists(st.sampled_from(ALPHABET), max_size=24).map("".join))
def test_random_texts_match_reference(text):
    expected = assert_same_as_reference(text)
    if expected[0] == "ok":
        assert expected[1][-1][0].value == "eof"


def corpus_files():
    for seed in (1, 2012, 4242):
        corpus = generate_kernel(KernelSpec(seed=seed))
        for path, text in sorted(corpus.files.items()):
            yield f"seed{seed}:{path}", text
    for root, _, names in sorted(os.walk(EXAMPLES)):
        for name in sorted(names):
            path = os.path.join(root, name)
            with open(path, encoding="utf-8") as handle:
                yield os.path.relpath(path, EXAMPLES), handle.read()


def test_corpus_and_examples_match_reference():
    count = 0
    for name, text in corpus_files():
        assert_same_as_reference(text, name)
        count += 1
    assert count > 100


def reference_digest(text, name):
    """``file_token_digest`` as it hashed before the scanner: one
    update per field of every token but NEWLINE and EOF."""
    digest = hashlib.sha256()
    try:
        tokens = reference.lex(text, name)
    except LexerError:
        return None
    for token in tokens:
        if token.kind in (TokenKind.NEWLINE, TokenKind.EOF):
            continue
        digest.update(token.kind.value.encode())
        digest.update(b"\x00")
        digest.update(token.text.encode())
        digest.update(b"\x01")
    return digest.hexdigest()


def test_token_digests_match_reference_on_corpus():
    """Fingerprints journaled before the scanner stay valid."""
    digests = 0
    for name, text in corpus_files():
        expected = reference_digest(text, name)
        assert file_token_digest(text, name) == expected, name
        digests += expected is not None
    assert digests > 100


class TestPinnedTraps:
    def test_escaped_newline_in_literal_counts_toward_line(self):
        # The splice removes the second backslash's CRLF, so the first
        # backslash escapes the real newline after it: the literal
        # spans a line and the identifier after it is on line 3.
        text = "'a\\" + "\\\r\n" + "\n' b"
        expected = assert_same_as_reference(text)
        tokens = expected[1]
        assert [t[1] for t in tokens] == ["'a\\\n'", "b", ""]
        assert tokens[1][3:5] == (3, 3)

    def test_escaped_newline_at_end_is_unterminated(self):
        expected = assert_same_as_reference("'a\\" + "\\\r\n" + "\n")
        assert expected[:1] + expected[2:] == ("error", "f.c", 1, 1)

    @pytest.mark.parametrize("text,line", [
        ("a\\\n", 1), ("a\\\r\n", 1), ("\\\n", 1),
        ("a \\\n\\\n", 1), ("a\n\\\n", 1), ("a\nb\\\n", 2),
    ])
    def test_splice_at_end_keeps_eof_line(self, text, line):
        # EOF reports the line of the last character that survives
        # splicing, so a trailing continuation does not move it.
        eof = assert_same_as_reference(text)[1][-1]
        assert eof[3] == line

    @pytest.mark.parametrize("text", ["/* a\nb", "x\n/* \\\n",
                                      "L'x", 'y L"\\"', "a /* b */ '"])
    def test_unterminated_errors(self, text):
        assert assert_same_as_reference(text)[0] == "error"
