"""File includes: search paths, guard detection, reinclusion (§2.1).

The preprocessor resolves ``#include`` directives against a
:class:`FileSystem` abstraction (real directories for checked-out
code, an in-memory mapping for tests and the synthetic corpus).

Guard macros are detected gcc-style: a header whose first directive is
``#ifndef G`` (or ``#if !defined(G)``), immediately followed by
``#define G``, and whose matching ``#endif`` ends the file, has guard
``G``.  Guards feed two behaviours: rule 4a of the condition conversion
(``defined(G)`` for free G is *false*, §3.2) and the skip-reinclusion
optimization ("Reinclude when guard macro is not false", Table 1).

:class:`ReadRecorder` logs what one preprocessor run read, failed
search-path probes included: that read-set is the only record of a
unit's dependencies (computed includes, §2.1, resolve only once the
preprocessor has run), and every cache keyed on a parse validates
against it.
"""

from __future__ import annotations

import hashlib
import os
import posixpath
from typing import Dict, List, Optional, Sequence, Tuple

from repro.lexer import lex_logical_lines
from repro.lexer.tokens import Token, TokenKind


def text_digest(text: str) -> str:
    """Content digest of one file, as read-sets record it."""
    return hashlib.sha256(text.encode()).hexdigest()


class FileSystem:
    """Abstract file access for the preprocessor."""

    def read(self, path: str) -> Optional[str]:
        raise NotImplementedError

    def exists(self, path: str) -> bool:
        return self.read(path) is not None

    def digest(self, path: str) -> Optional[str]:
        """:func:`text_digest` of ``path``, or None when missing."""
        text = self.read(path)
        return None if text is None else text_digest(text)


class DictFileSystem(FileSystem):
    """In-memory files keyed by normalized posix paths."""

    def __init__(self, files: Dict[str, str]):
        self.files = {posixpath.normpath(path): text
                      for path, text in files.items()}

    def read(self, path: str) -> Optional[str]:
        return self.files.get(posixpath.normpath(path))

    def exists(self, path: str) -> bool:
        return posixpath.normpath(path) in self.files


class RealFileSystem(FileSystem):
    """Reads from the actual filesystem."""

    def read(self, path: str) -> Optional[str]:
        try:
            with open(path, "r", encoding="utf-8", errors="replace") as f:
                return f.read()
        except OSError:
            return None

    def exists(self, path: str) -> bool:
        return os.path.isfile(path)


class ReadRecorder(FileSystem):
    """Wraps a file system for one preprocessor run and logs every
    ``read``/``exists`` it answers in :attr:`reads`: path -> content
    digest, or None for a path that was missing (a failed search-path
    probe).  Texts are kept for the run, so a header read twice is
    read and hashed once."""

    def __init__(self, base: FileSystem):
        self.base = base
        self.reads: Dict[str, Optional[str]] = {}
        self._texts: Dict[str, Optional[str]] = {}

    def read(self, path: str) -> Optional[str]:
        if path in self._texts:
            return self._texts[path]
        text = self.base.read(path)
        self._texts[path] = text
        self.reads[path] = None if text is None else text_digest(text)
        return text


class IncludeResolver:
    """Maps ``#include`` operands to paths, per C search rules."""

    def __init__(self, fs: FileSystem, include_paths: Sequence[str] = ()):
        self.fs = fs
        self.include_paths = list(include_paths)

    def resolve(self, name: str, quoted: bool,
                includer: Optional[str]) -> Optional[str]:
        """Resolve an include operand to a readable path, or None.

        Quoted includes search the including file's directory first,
        then the include paths; angle includes only the include paths.
        """
        candidates: List[str] = []
        if quoted and includer is not None:
            directory = posixpath.dirname(includer)
            candidates.append(posixpath.join(directory, name)
                              if directory else name)
        elif quoted:
            candidates.append(name)
        for root in self.include_paths:
            candidates.append(posixpath.join(root, name))
        for candidate in candidates:
            normalized = posixpath.normpath(candidate)
            if self.fs.exists(normalized):
                return normalized
        return None


def detect_guard(text: str, filename: str = "<header>") -> Optional[str]:
    """Return the guard macro name if the file is guard-protected."""
    try:
        lines = lex_logical_lines(text, filename)
    except Exception:
        return None
    return guard_of_lines(lines)


def guard_of_lines(lines: Sequence[Sequence[Token]]) -> Optional[str]:
    """:func:`detect_guard` on a file's already-lexed logical lines."""
    lines = [line for line in lines if line]
    directives = [line for line in lines
                  if line and line[0].kind is TokenKind.HASH]
    if len(directives) < 3:
        return None
    first = directives[0]
    guard = _guard_of_opening(first)
    if guard is None:
        return None
    # The guard's #define must be the next directive.
    second = directives[1]
    if len(second) < 3 or second[1].text != "define" or \
            second[2].text != guard:
        return None
    # The last directive must be #endif, the last line of the file,
    # and it must close the opening conditional (depth balance).
    last = directives[-1]
    if len(last) < 2 or last[1].text != "endif":
        return None
    if lines[0] is not first or lines[-1] is not last:
        return None
    depth = 0
    for line in directives:
        keyword = line[1].text if len(line) > 1 else ""
        if keyword in ("if", "ifdef", "ifndef"):
            depth += 1
        elif keyword == "endif":
            depth -= 1
            if depth == 0 and line is not last:
                return None  # the opening conditional closes early
    if depth != 0:
        return None
    return guard


def _guard_of_opening(line) -> Optional[str]:
    """Extract G from `#ifndef G` or `#if !defined(G)` / `#if !defined G`."""
    if len(line) < 3:
        return None
    keyword = line[1].text
    if keyword == "ifndef" and line[2].kind is TokenKind.IDENTIFIER:
        return line[2].text
    if keyword != "if":
        return None
    rest = line[2:]
    texts = [token.text for token in rest]
    if texts[:2] == ["!", "defined"]:
        if len(texts) >= 5 and texts[2] == "(" and texts[4] == ")":
            return texts[3]
        if len(texts) >= 3 and rest[2].kind is TokenKind.IDENTIFIER:
            return texts[2]
    return None
