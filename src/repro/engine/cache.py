"""Persistent caches for corpus-scale runs.

Two caches, both living under ``repro.cgrammar.cache_root()`` (or an
explicit ``cache_dir``), both derived data that is safe to delete:

* the **grammar-table cache** — versioned LALR table blobs
  (``repro.parser.lalr.to_blob``) keyed by a content hash of the C
  grammar, so a new process deserializes prebuilt tables instead of
  regenerating the LR(0) automaton and DeRemer–Pennello lookaheads;
* the **result cache** — per-unit parse summaries keyed by the source
  file's hash, the hash of its include closure, and a fingerprint of
  the job configuration (include paths, builtin/extra macros,
  optimization level), so a re-run over an unchanged corpus skips
  straight to the recorded statistics.

Cached result records are the engine's summary dicts (status, timing
breakdown, subparser counts, preprocessor statistics) — not ASTs — so
hits are cheap JSON reads.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from typing import Dict, FrozenSet, Optional, Sequence, Tuple

from repro import chaos
from repro.cgrammar import cache_root
from repro.cpp import FileSystem, IncludeResolver
from repro.obs.tracer import NULL_TRACER

# Bump to invalidate every cached result record (schema or semantics
# change in what the engine records per unit).
# 2: records gained "diagnostics"/"invalid_configs"; guarded failures
#    became STATUS_DEGRADED.
# 3: timing gained "total"; records gained "profile" (repro.obs
#    per-unit profile summary, None when not profiling).
RESULT_CACHE_VERSION = 3

_INCLUDE_RE = re.compile(
    r'^[ \t]*#[ \t]*include\w*[ \t]+([<"])([^>"\n]+)[>"]', re.MULTILINE)


def config_fingerprint(include_paths: Sequence[str],
                       builtins: Optional[Dict[str, str]],
                       extra_definitions: Optional[Dict[str, str]],
                       optimization: str) -> str:
    """Hash of everything besides the sources that shapes a parse."""
    payload = json.dumps({
        "version": RESULT_CACHE_VERSION,
        "include_paths": list(include_paths),
        "builtins": builtins,
        "extra_definitions": extra_definitions,
        "optimization": optimization,
    }, sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def include_closure(fs: FileSystem, unit: str,
                    include_paths: Sequence[str]) \
        -> Tuple[str, FrozenSet[str]]:
    """Digest *and* member set of ``unit``'s transitive include closure.

    A conservative textual approximation: every ``#include`` operand is
    chased regardless of the conditionals around it (computed includes
    contribute their operand text instead of a file).  Over-approximate
    is the safe direction for a cache key — editing any header a unit
    could see in any configuration invalidates the unit's entry.

    The member set (every path visited, the unit included) is what the
    serve layer's reverse-invalidation index consumes: ``invalidate(h)``
    must drop exactly the units whose closure contains ``h``.
    """
    resolver = IncludeResolver(fs, include_paths)
    digest = hashlib.sha256()
    seen = set()
    stack = [unit]
    while stack:
        path = stack.pop()
        if path in seen:
            continue
        seen.add(path)
        text = fs.read(path)
        if text is None:
            continue
        digest.update(path.encode())
        digest.update(hashlib.sha256(text.encode()).digest())
        for match in sorted(_INCLUDE_RE.findall(text)):
            delim, name = match
            resolved = resolver.resolve(name, delim == '"', path)
            if resolved is None:
                digest.update(f"<unresolved:{name}>".encode())
            else:
                stack.append(resolved)
    return digest.hexdigest(), frozenset(seen)


def include_closure_digest(fs: FileSystem, unit: str,
                           include_paths: Sequence[str]) -> str:
    """Hash the transitive include closure of ``unit`` (digest only)."""
    return include_closure(fs, unit, include_paths)[0]


class ResultCache:
    """On-disk per-unit result records, one JSON file per key.

    Every read is fault-confined: a truncated, corrupt, or
    wrong-shaped record — a crashed writer, a full disk, manual
    tampering — is treated as a miss, the bad blob is deleted so it
    cannot poison later runs, and ``engine.result_cache.corrupt``
    counts the event.  A cache must never raise into a parse.
    """

    def __init__(self, cache_dir: Optional[str], fingerprint: str,
                 tracer: object = None):
        root = cache_dir or cache_root()
        self.directory = os.path.join(root, "results", fingerprint)
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.hits = 0
        self.misses = 0
        self.corrupt = 0

    def key_for(self, unit: str, source_text: str,
                closure_digest: str) -> str:
        digest = hashlib.sha256()
        digest.update(unit.encode())
        digest.update(hashlib.sha256(source_text.encode()).digest())
        digest.update(closure_digest.encode())
        return digest.hexdigest()[:32]

    def _path(self, key: str) -> str:
        return os.path.join(self.directory, f"{key}.json")

    def get(self, key: str) -> Optional[dict]:
        path = self._path(key)
        if chaos.ACTIVE is not None:
            chaos.fire("cache.get", path=path)
        try:
            with open(path, "rb") as handle:
                data = handle.read()
        except OSError:
            self.misses += 1
            return None
        try:
            record = json.loads(data.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            record = None
        if not isinstance(record, dict):
            # Truncated write, bit rot, or a non-record blob: miss,
            # and delete the evidence so it cannot poison later runs.
            self.corrupt += 1
            self.misses += 1
            if self.tracer.enabled:
                self.tracer.count("engine.result_cache.corrupt")
            try:
                os.remove(path)
            except OSError:
                pass
            return None
        self.hits += 1
        return record

    def put(self, key: str, record: dict) -> None:
        """Atomically publish one record.

        The record is serialized to a private temp file first and only
        then renamed over the final path (``os.replace`` is atomic on
        POSIX), so a concurrent reader — a daemon sharing the cache
        with a ``superc-batch`` run — either sees the previous complete
        entry or the new complete entry, never interleaved partial
        JSON.  Failures (including unserializable records) are
        swallowed and leave no temp litter behind: cache writes are
        best-effort.
        """
        tmp = self._path(key) + f".tmp.{os.getpid()}"
        try:
            if chaos.ACTIVE is not None:
                chaos.fire("cache.put", path=self._path(key))
            os.makedirs(self.directory, exist_ok=True)
            with open(tmp, "w", encoding="utf-8") as handle:
                json.dump(record, handle)
            os.replace(tmp, self._path(key))
        except (OSError, TypeError, ValueError):
            try:
                os.remove(tmp)
            except OSError:
                pass

    def delete(self, key: str) -> bool:
        """Drop one record (serve-layer invalidation); True if it
        existed."""
        try:
            os.remove(self._path(key))
            return True
        except OSError:
            return False

    def clear(self) -> int:
        """Delete this fingerprint's records; return how many."""
        removed = 0
        try:
            names = os.listdir(self.directory)
        except OSError:
            return 0
        for name in names:
            if name.endswith(".json"):
                try:
                    os.remove(os.path.join(self.directory, name))
                    removed += 1
                except OSError:
                    pass
        return removed
