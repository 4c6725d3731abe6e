"""Token representation shared by the lexer, preprocessor, and parser.

The lexer annotates every token with the layout (whitespace and
comments) that precedes it, so that automated refactorings can restore
source text (Table 1, "Layout" row).  The preprocessor additionally
attaches line/warning/pragma directives as annotations rather than
passing them to the parser.
"""

from __future__ import annotations

import enum
from typing import List, Optional, Tuple


class TokenKind(enum.Enum):
    """Lexical classes produced by the lexer.

    Keywords are lexed as IDENTIFIER; the parser front-end classifies
    them (and typedef names, via the context plug-in) into grammar
    terminals.  This matters for the preprocessor, where any identifier
    — including C keywords — may be a macro name.
    """

    IDENTIFIER = "identifier"
    NUMBER = "number"              # a C preprocessing number
    CHARACTER = "character"        # character constant, incl. L'x'
    STRING = "string"              # string literal, incl. L"x"
    PUNCTUATOR = "punctuator"
    HASH = "hash"                  # '#' introducing a directive or stringify
    HASHHASH = "hashhash"          # '##' token pasting
    NEWLINE = "newline"            # end of a logical line
    EOF = "eof"
    OTHER = "other"                # any unrecognized character
    # Parser-internal kinds:
    TYPEDEF_NAME = "typedef-name"  # produced by reclassify, never the lexer
    PLACEMENT = "placement"        # internal marker token


class Token:
    """One lexical token with position and layout information."""

    __slots__ = ("kind", "text", "file", "line", "col", "layout",
                 "annotations", "no_expand", "version")

    def __init__(self, kind: TokenKind, text: str, file: str = "<input>",
                 line: int = 1, col: int = 1, layout: str = "",
                 annotations: Optional[Tuple[str, ...]] = None,
                 no_expand: Optional[frozenset] = None,
                 version: int = 0):
        self.kind = kind
        self.text = text
        self.file = file
        self.line = line
        self.col = col
        self.layout = layout
        self.annotations = annotations or ()
        # The "hide set" used to prevent recursive macro expansion; a
        # frozenset of macro names this token must not expand as.
        self.no_expand = no_expand or frozenset()
        # Macro-table version at which this token entered the stream;
        # expansion is deferred, so lookups must replay table history.
        self.version = version

    # -- derived views -------------------------------------------------

    @property
    def has_space_before(self) -> bool:
        """True if any whitespace or comment precedes this token."""
        return bool(self.layout)

    def is_identifier(self, text: Optional[str] = None) -> bool:
        if self.kind is not TokenKind.IDENTIFIER:
            return False
        return text is None or self.text == text

    def is_punctuator(self, text: str) -> bool:
        return self.kind is TokenKind.PUNCTUATOR and self.text == text

    # -- copying -------------------------------------------------------

    def with_layout(self, layout: str) -> "Token":
        clone = self.copy()
        clone.layout = layout
        return clone

    def copy(self) -> "Token":
        return Token(self.kind, self.text, self.file, self.line, self.col,
                     self.layout, self.annotations, self.no_expand,
                     self.version)

    # -- equality: structural on kind+text (positions differ after
    #    expansion, and the FMLR merge rule compares token identity by
    #    stream position, not by this) ---------------------------------

    def same_text(self, other: "Token") -> bool:
        return self.kind is other.kind and self.text == other.text

    def __repr__(self) -> str:
        return (f"Token({self.kind.value!r}, {self.text!r}, "
                f"{self.file}:{self.line}:{self.col})")


def render_tokens(tokens: List[Token], with_layout: bool = True) -> str:
    """Reassemble tokens into program text.

    With ``with_layout`` the original whitespace/comments are restored;
    without it, a single space separates tokens that would otherwise
    glue together into a different token.
    """
    parts: List[str] = []
    previous: Optional[Token] = None
    for token in tokens:
        if token.kind in (TokenKind.NEWLINE, TokenKind.EOF):
            if with_layout and token.layout:
                parts.append(token.layout)
            if token.kind is TokenKind.NEWLINE:
                parts.append("\n")
            previous = None
            continue
        if with_layout and token.layout:
            parts.append(token.layout)
        elif previous is not None and _needs_space(previous, token):
            parts.append(" ")
        parts.append(token.text)
        previous = token
    return "".join(parts)


def _needs_space(left: Token, right: Token) -> bool:
    """Conservative token-glue check for layout-free rendering."""
    wordy = (TokenKind.IDENTIFIER, TokenKind.NUMBER, TokenKind.TYPEDEF_NAME)
    if left.kind in wordy and right.kind in wordy:
        return True
    # An identifier glued onto a literal can form a prefixed literal
    # (`L` + `"x"` -> the wide string `L"x"`).
    if left.kind in wordy and right.kind in (TokenKind.STRING,
                                             TokenKind.CHARACTER):
        return True
    if not left.text or not right.text:
        return False
    # Avoid creating multi-character punctuators (e.g. '+' '+' -> '++',
    # '<' '=' -> '<=') or pasting a number suffix onto an identifier.
    if left.kind is TokenKind.NUMBER and right.text[0] in ".+-":
        return True
    # '.' before a digit would lex as one pp-number ('.' '0' -> '.0').
    if left.text.endswith(".") and right.kind is TokenKind.NUMBER:
        return True
    glue_risk = "+-<>=&|#.*/%^!:"
    return left.text[-1] in glue_risk and right.text[0] in glue_risk
