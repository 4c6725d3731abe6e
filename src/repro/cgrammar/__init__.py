"""The C grammar, token classification, and typedef context."""

from __future__ import annotations

import hashlib
import os
from typing import Optional

from repro.cgrammar.classify import (CONSTANT, IDENTIFIER, STRING,
                                     TYPEDEF_NAME, classify)
from repro.cgrammar.grammar_def import (C_KEYWORDS, GNU_ALIASES,
                                        build_c_grammar)
from repro.cgrammar.typedefs import (CContext, SymbolStats,
                                     make_context_factory)
from repro.parser.lalr import (TABLE_BLOB_VERSION, TableBlobError,
                               Tables, from_blob, generate, to_blob)

_TABLES: Optional[Tables] = None
_TABLES_KEY: Optional[str] = None


def cache_root() -> str:
    """Directory for persistent caches (grammar tables, batch results).

    ``REPRO_CACHE_DIR`` overrides the default ``~/.cache/repro-superc``;
    everything inside is derived data and safe to delete."""
    return os.environ.get("REPRO_CACHE_DIR") or os.path.join(
        os.path.expanduser("~"), ".cache", "repro-superc")


def _cache_path(key: str) -> str:
    return os.path.join(cache_root(),
                        f"ctables-{key}-v{TABLE_BLOB_VERSION}.tables")


def _grammar_key(grammar) -> str:
    digest = hashlib.sha256()
    for production in grammar.productions:
        digest.update(repr((production.lhs, production.rhs,
                            production.build.value,
                            production.node_name)).encode())
    digest.update(repr(sorted(grammar.complete)).encode())
    return digest.hexdigest()[:16]


def c_tables_key() -> str:
    """Content hash of the C grammar (the table cache key), computed
    once per process."""
    global _TABLES_KEY
    if _TABLES_KEY is None:
        _TABLES_KEY = _grammar_key(build_c_grammar())
    return _TABLES_KEY


def c_tables_cache_path() -> str:
    """Where the C grammar's table blob lives on disk."""
    return _cache_path(c_tables_key())


def c_tables(use_cache: bool = True) -> Tables:
    """LALR tables for the C grammar (generated once per process and
    cached on disk — versioned blobs, see ``repro.parser.lalr`` — so
    other processes deserialize instead of regenerating)."""
    global _TABLES, _TABLES_KEY
    if _TABLES is not None:
        return _TABLES
    grammar = build_c_grammar()
    key = _TABLES_KEY = _grammar_key(grammar)
    path = _cache_path(key)
    if use_cache and os.path.exists(path):
        try:
            with open(path, "rb") as handle:
                _TABLES = from_blob(handle.read())
            return _TABLES
        except (TableBlobError, OSError):
            pass  # fall through to regeneration
    _TABLES = generate(grammar)
    if use_cache:
        try:
            os.makedirs(os.path.dirname(path), exist_ok=True)
            tmp = path + f".tmp.{os.getpid()}"
            with open(tmp, "wb") as handle:
                handle.write(to_blob(_TABLES))
            os.replace(tmp, path)  # atomic: concurrent workers race safely
        except OSError:
            pass
    return _TABLES


__all__ = [
    "CContext", "CONSTANT", "C_KEYWORDS", "GNU_ALIASES", "IDENTIFIER",
    "STRING", "SymbolStats", "TYPEDEF_NAME", "build_c_grammar",
    "c_tables", "c_tables_cache_path", "c_tables_key", "cache_root",
    "classify", "make_context_factory",
]
