"""Incremental re-parse support: layout-insensitive token fingerprints.

Invalidation needs no graph of its own: every warm entry holds the
read-set its parse recorded (:class:`repro.serve.state.ParseEntry`),
so ``invalidate(header)`` demotes exactly the entries whose read-set
holds the header — computed includes and missing probes included —
by a scan of the entries.  What this module adds keeps re-parse
latency after an edit proportional to what actually changed:

* **Token-level fingerprints** — :func:`token_fingerprint` hashes the
  lexed token stream (kind + text) of a unit and its read-set,
  ignoring layout: whitespace and comments live in token ``layout``
  and newlines are not hashed.  After an edit the content digest
  changes, but if the token fingerprint is unchanged (comment or
  formatting edit — the common case while typing documentation), the
  preprocessor would read the same files to the same tokens, so the
  previous parse is provably still valid and the server re-serves it
  without re-parsing.  Line numbers inside cached diagnostics may then
  be stale; that is the usual incremental-parsing trade, and a
  ``fresh=true`` request field forces a real re-parse.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Optional

from repro.lexer import lex_logical_lines


def file_token_digest(text: str, filename: str = "<input>") \
        -> Optional[str]:
    """Layout-insensitive digest of one file's token stream; None when
    the file does not lex (fingerprinting then falls back to content
    digests, which never short-circuit).  Each token contributes
    ``kind NUL text SOH``, in one buffer hashed with one update."""
    try:
        buffer = "".join(f"{token.kind.value}\x00{token.text}\x01"
                         for line in lex_logical_lines(text, filename)
                         for token in line).encode()
    except Exception:
        return None
    return hashlib.sha256(buffer).hexdigest()


def token_fingerprint(read, unit: str,
                      paths: Iterable[str]) -> Optional[str]:
    """Combined token digest of ``unit`` and ``paths`` (its read-set).

    ``read`` is a ``path -> Optional[str]`` callable (a FileSystem
    ``read`` method).  Membership itself is part of the fingerprint,
    and a member that is missing (a failed probe) counts as such, so
    creating it changes the fingerprint.  Returns None whenever any
    member fails to lex.
    """
    combined = hashlib.sha256()
    for path in sorted(set(paths) | {unit}):
        text = read(path)
        if text is None:
            combined.update(f"<missing:{path}>".encode())
            continue
        file_digest = file_token_digest(text, path)
        if file_digest is None:
            return None
        combined.update(path.encode())
        combined.update(file_digest.encode())
    return combined.hexdigest()
