"""A maximal-munch C lexer with layout preservation.

Lexing is the first of the paper's three steps (Table 1).  The lexer:

* splices line continuations (backslash-newline) while keeping the
  splice points, so every token still reports its physical line,
* strips whitespace and comments into per-token ``layout`` annotations
  instead of discarding them (so refactorings can restore source text),
* produces ``NEWLINE`` tokens at the end of every logical line, which
  the preprocessor needs to delimit directives, and
* lexes C preprocessing numbers (not C numeric constants), as the
  standard requires before preprocessing.

The scanner is one compiled pattern, matched once per token: a layout
run (horizontal whitespace, ``/*…*/`` and ``//…`` comments) followed by
one alternation of token classes.  Maximal munch falls out of the
order of that alternation, since the regular-expression engine commits
to the first alternative that matches and every class is greedy:
``L``-prefixed and plain literals come before identifiers (so ``L"x"``
is one string), identifiers before pp-numbers, a pp-number tries the
two-character ``[eEpP][+-]`` before a single character (so ``1e+5`` is
one number), ``##`` comes before ``#``, the punctuators are tried
longest first (so ``<<=`` is never ``<<`` ``=``), and any other single
character is a token of its own.  An unterminated literal or comment
matches an error alternative, and :class:`LexerError` reports the
position of its opening delimiter.

Continuations are spliced only when the text contains one, and the
splice points are kept.  A token's line is the newlines and splice
points before it, counted as the scan passes them; columns are
measured in the spliced text.

Keywords are not distinguished here — any identifier may be a macro
name — so keyword classification happens in the parser front-end.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from itertools import accumulate
from typing import Iterator, List, Optional, Tuple

from repro.lexer.tokens import Token, TokenKind

# Multi-character punctuators, longest first so maximal munch works by
# trying this list in order.
_PUNCTUATORS = [
    "...", "<<=", ">>=",
    "->", "++", "--", "<<", ">>", "<=", ">=", "==", "!=", "&&", "||",
    "+=", "-=", "*=", "/=", "%=", "&=", "^=", "|=",
    "[", "]", "(", ")", "{", "}", ".", "&", "*", "+", "-", "~", "!",
    "/", "%", "<", ">", "^", "|", "?", ":", ";", "=", ",",
]

_SPLICE = re.compile(r"\\\r?\n")

# Group 1 is the layout; exactly one later group matches the token.
# The layout can never be followed by a failing alternation (some
# alternative matches every character, and EOF matches the end), so
# the engine never backtracks into it.
_SCANNER = re.compile(r"""
    ( (?: [ \t\v\f\r]+ | /\*.*?\*/ | //[^\n]* )* )
    (?: (\n)                                # 2  NEWLINE
      | (L?'(?:\\.|[^'\\\n])*')             # 3  CHARACTER
      | (L?"(?:\\.|[^"\\\n])*")             # 4  STRING
      | (L?['"])                            # 5  unterminated literal
      | (/\*)                               # 6  unterminated comment
      | (\Z)                                # 7  EOF
      | ([A-Za-z_$][A-Za-z0-9_$]*)          # 8  IDENTIFIER
      | (\.?[0-9](?:[eEpP][+-]|[A-Za-z0-9_$.])*)  # 9  NUMBER
      | (\#\#)                              # 10 HASHHASH
      | (\#)                                # 11 HASH
      | (%s)                                # 12 PUNCTUATOR
      | (.)                                 # 13 OTHER
    )""" % "|".join(re.escape(p) for p in _PUNCTUATORS),
    re.VERBOSE | re.DOTALL)

_NEWLINE, _CHARACTER, _STRING, _OPEN_LITERAL, _OPEN_COMMENT, _EOF = \
    range(2, 8)
# Token kind by group number, for the groups from 8 on.
_KINDS = (None,) * 8 + (TokenKind.IDENTIFIER, TokenKind.NUMBER,
                        TokenKind.HASHHASH, TokenKind.HASH,
                        TokenKind.PUNCTUATOR, TokenKind.OTHER)


class LexerError(Exception):
    """Raised on malformed input such as an unterminated literal."""

    def __init__(self, message: str, file: str, line: int, col: int):
        super().__init__(f"{file}:{line}:{col}: {message}")
        self.file = file
        self.line = line
        self.col = col


class Lexer:
    """Tokenizes one translation-unit text."""

    def __init__(self, text: str, filename: str = "<input>"):
        self.filename = filename
        self._text = text

    def tokens(self) -> Iterator[Token]:
        """Yield all tokens including NEWLINEs, ending with EOF."""
        yield from lex(self._text, self.filename)


def _scan(text: str, filename: str, newlines: Optional[List[Token]]) \
        -> Tuple[List[List[Token]], Token]:
    """Scan ``text`` into logical lines and the EOF token.

    Every NEWLINE ends a line of the result, and the tokens after the
    last NEWLINE form one more line when there are any.  With a
    ``newlines`` list, the NEWLINE tokens are appended to it.
    """
    end = len(text)
    splices: List[int] = []
    if "\\\n" in text or "\\\r\n" in text:
        pieces = _SPLICE.split(text)
        text = "".join(pieces)
        end = len(text)
        # Offsets in the spliced text at which a continuation was cut.
        splices = list(accumulate(map(len, pieces[:-1])))
    # The line moves only at a newline or a splice point, so the tokens
    # of one line share one int (past 256, each sum would be a new one).
    pending = iter(splices + [end + 1])
    next_splice = next(pending)
    line = 1
    line_start = 0             # offset just past the last newline seen
    lines: List[List[Token]] = []
    current: List[Token] = []
    kinds = _KINDS
    for match in _SCANNER.finditer(text):
        group = match.lastindex
        layout, value = match.group(1, group)
        start = match.end(1)
        if "\n" in layout:     # a block comment spanning lines
            line += layout.count("\n")
            line_start = match.start() + layout.rindex("\n") + 1
        while next_splice <= start:
            line += 1
            next_splice = next(pending)
        if group > _EOF:
            current.append(Token(kinds[group], value, filename, line,
                                 start - line_start + 1, layout))
        elif group == _NEWLINE:
            if newlines is not None:
                newlines.append(Token(TokenKind.NEWLINE, "\n", filename,
                                      line, start - line_start + 1,
                                      layout))
            lines.append(current)
            current = []
            line += 1
            line_start = start + 1
        elif group <= _STRING:
            current.append(Token(
                TokenKind.CHARACTER if group == _CHARACTER
                else TokenKind.STRING,
                value, filename, line, start - line_start + 1, layout))
            if "\n" in value:  # an escaped newline the splice left
                line += value.count("\n")
                line_start = start + value.rindex("\n") + 1
        elif group == _EOF:
            break
        else:
            if group == _OPEN_COMMENT:
                message = "unterminated comment"
            elif value[-1] == "'":
                message = "unterminated character constant"
            else:
                message = "unterminated string constant"
            raise LexerError(message, filename, line,
                             start - line_start + 1)
    if current:
        lines.append(current)
    # EOF reports the line of the text's last character.
    line = 1
    if end:
        line += text.count("\n", 0, end - 1) + \
            bisect_right(splices, end - 1)
    eof = Token(TokenKind.EOF, "", filename, line, end - line_start + 1,
                layout)
    return lines, eof


def lex(text: str, filename: str = "<input>") -> List[Token]:
    """Tokenize ``text``, returning all tokens including the final EOF."""
    newlines: List[Token] = []
    lines, eof = _scan(text, filename, newlines)
    tokens: List[Token] = []
    for line, newline in zip(lines, newlines):
        tokens.extend(line)
        tokens.append(newline)
    if len(lines) > len(newlines):
        tokens.extend(lines[-1])
    tokens.append(eof)
    return tokens


def lex_logical_lines(text: str,
                      filename: str = "<input>") -> List[List[Token]]:
    """Tokenize and group into logical lines (NEWLINE/EOF stripped).

    Empty lines are preserved as empty lists so the preprocessor can
    track conditional nesting by line.
    """
    return _scan(text, filename, None)[0]
