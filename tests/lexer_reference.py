"""The character-at-a-time reference lexer, for the scanner equivalence test.

This is the hand-written maximal-munch lexer that
:mod:`repro.lexer.lexer` replaced with one compiled scanner: it splices
continuations through a per-character line map and walks the spliced
text one character at a time.  ``tests/test_lexer_reference.py`` lexes
the same texts with both and requires field-for-field equal tokens and
equal errors, so token positions, layout and diagnostics do not depend
on the scanner.
"""

from __future__ import annotations

from typing import Iterator, List, Tuple

from repro.lexer.lexer import LexerError
from repro.lexer.tokens import Token, TokenKind

# Multi-character punctuators, longest first so maximal munch works by
# scanning this list in order.
_PUNCTUATORS = [
    "...", "<<=", ">>=",
    "->", "++", "--", "<<", ">>", "<=", ">=", "==", "!=", "&&", "||",
    "+=", "-=", "*=", "/=", "%=", "&=", "^=", "|=",
    "[", "]", "(", ")", "{", "}", ".", "&", "*", "+", "-", "~", "!",
    "/", "%", "<", ">", "^", "|", "?", ":", ";", "=", ",",
]

_IDENT_START = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_$")
_IDENT_CONT = _IDENT_START | frozenset("0123456789")
_DIGITS = frozenset("0123456789")


class Lexer:
    """Tokenizes one translation-unit text."""

    def __init__(self, text: str, filename: str = "<input>"):
        self.filename = filename
        self._text, self._line_map = _splice_continuations(text)
        self._pos = 0
        self._col_base = 0  # offset of current physical line start

    # -- public API ----------------------------------------------------

    def tokens(self) -> Iterator[Token]:
        """Yield all tokens including NEWLINEs, ending with EOF."""
        text = self._text
        length = len(text)
        while True:
            layout = self._consume_layout()
            if self._pos >= length:
                yield self._make(TokenKind.EOF, "", layout)
                return
            char = text[self._pos]
            if char == "\n":
                token = self._make(TokenKind.NEWLINE, "\n", layout)
                self._pos += 1
                yield token
                continue
            yield self._lex_token(layout)

    # -- layout ----------------------------------------------------------

    def _consume_layout(self) -> str:
        """Consume horizontal whitespace and comments (not newlines)."""
        text = self._text
        length = len(text)
        start = self._pos
        while self._pos < length:
            char = text[self._pos]
            if char in " \t\v\f\r":
                self._pos += 1
            elif text.startswith("/*", self._pos):
                end = text.find("*/", self._pos + 2)
                if end < 0:
                    line, col = self._where(self._pos)
                    raise LexerError("unterminated comment",
                                     self.filename, line, col)
                self._pos = end + 2
            elif text.startswith("//", self._pos):
                end = text.find("\n", self._pos)
                self._pos = length if end < 0 else end
            else:
                break
        return text[start:self._pos]

    # -- tokens ----------------------------------------------------------

    def _lex_token(self, layout: str) -> Token:
        text = self._text
        pos = self._pos
        char = text[pos]
        # Wide literals: L'x' and L"x".
        if char == "L" and pos + 1 < len(text) and text[pos + 1] in "'\"":
            return self._lex_literal(layout, prefix="L")
        if char in _IDENT_START:
            end = pos + 1
            while end < len(text) and text[end] in _IDENT_CONT:
                end += 1
            token = self._make(TokenKind.IDENTIFIER, text[pos:end], layout)
            self._pos = end
            return token
        if char in _DIGITS or (char == "." and pos + 1 < len(text)
                               and text[pos + 1] in _DIGITS):
            return self._lex_pp_number(layout)
        if char in "'\"":
            return self._lex_literal(layout, prefix="")
        if text.startswith("##", pos):
            token = self._make(TokenKind.HASHHASH, "##", layout)
            self._pos = pos + 2
            return token
        if char == "#":
            token = self._make(TokenKind.HASH, "#", layout)
            self._pos = pos + 1
            return token
        for punct in _PUNCTUATORS:
            if text.startswith(punct, pos):
                token = self._make(TokenKind.PUNCTUATOR, punct, layout)
                self._pos = pos + len(punct)
                return token
        token = self._make(TokenKind.OTHER, char, layout)
        self._pos = pos + 1
        return token

    def _lex_pp_number(self, layout: str) -> Token:
        """A C preprocessing number: more permissive than C constants."""
        text = self._text
        pos = self._pos
        end = pos + 1
        while end < len(text):
            char = text[end]
            if char in "eEpP" and end + 1 < len(text) and text[end + 1] in "+-":
                end += 2
            elif char in _IDENT_CONT or char == ".":
                end += 1
            else:
                break
        token = self._make(TokenKind.NUMBER, text[pos:end], layout)
        self._pos = end
        return token

    def _lex_literal(self, layout: str, prefix: str) -> Token:
        text = self._text
        pos = self._pos
        quote_pos = pos + len(prefix)
        quote = text[quote_pos]
        end = quote_pos + 1
        terminated = False
        while end < len(text):
            char = text[end]
            if char == "\\":
                # An escape consumes the next character even if it is
                # the quote; a backslash at EOF leaves the literal open.
                end += 2
                continue
            if char == quote:
                end += 1
                terminated = True
                break
            if char == "\n":
                break
            end += 1
        end = min(end, len(text))
        if not terminated:
            line, col = self._where(pos)
            kind = "character" if quote == "'" else "string"
            raise LexerError(f"unterminated {kind} constant",
                             self.filename, line, col)
        kind = TokenKind.CHARACTER if quote == "'" else TokenKind.STRING
        token = self._make(kind, text[pos:end], layout)
        self._pos = end
        return token

    # -- positions ---------------------------------------------------------

    def _where(self, pos: int) -> Tuple[int, int]:
        line = self._line_map[pos] if pos < len(self._line_map) else (
            self._line_map[-1] if self._line_map else 1)
        # Column: distance back to the previous newline in spliced text.
        newline = self._text.rfind("\n", 0, pos)
        return line, pos - newline

    def _make(self, kind: TokenKind, text: str, layout: str) -> Token:
        line, col = self._where(self._pos)
        return Token(kind, text, self.filename, line, col, layout)


def _splice_continuations(text: str) -> Tuple[str, List[int]]:
    """Remove backslash-newline pairs, keeping a char->line map."""
    out: List[str] = []
    line_map: List[int] = []
    line = 1
    i = 0
    length = len(text)
    while i < length:
        if text[i] == "\\" and i + 1 < length and text[i + 1] == "\n":
            line += 1
            i += 2
            continue
        # Also handle backslash + CRLF.
        if text[i] == "\\" and text.startswith("\r\n", i + 1):
            line += 1
            i += 3
            continue
        out.append(text[i])
        line_map.append(line)
        if text[i] == "\n":
            line += 1
        i += 1
    return "".join(out), line_map


def lex(text: str, filename: str = "<input>") -> List[Token]:
    """Tokenize ``text``, returning all tokens including the final EOF."""
    return list(Lexer(text, filename).tokens())


def lex_logical_lines(text: str,
                      filename: str = "<input>") -> List[List[Token]]:
    """Tokenize and group into logical lines (NEWLINE/EOF stripped).

    Empty lines are preserved as empty lists so the preprocessor can
    track conditional nesting by line.
    """
    lines: List[List[Token]] = []
    current: List[Token] = []
    for token in Lexer(text, filename).tokens():
        if token.kind is TokenKind.NEWLINE:
            lines.append(current)
            current = []
        elif token.kind is TokenKind.EOF:
            if current:
                lines.append(current)
        else:
            current.append(token)
    return lines
