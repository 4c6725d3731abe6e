"""Persistent caches for corpus-scale runs.

Two caches, both living under ``repro.cgrammar.cache_root()`` (or an
explicit ``cache_dir``), both derived data that is safe to delete:

* the **grammar-table cache** — versioned LALR table blobs
  (``repro.parser.lalr.to_blob``) keyed by a content hash of the C
  grammar, so a new process deserializes prebuilt tables instead of
  regenerating the LR(0) automaton and DeRemer–Pennello lookaheads;
* the **result cache** — one blob per ``(unit, source digest)`` under
  a directory named by :func:`config_fingerprint` (include paths,
  builtin/extra macros, optimization level, grammar and code
  identity).  A blob is ``{"reads": ..., "record": ...}``: the record
  plus the read-set the preprocessor logged while producing it
  (``SuperCResult.reads``: every file it read, with its digest, and
  every search-path probe that found nothing, as None).  A probe is a
  hit only while :func:`include_closure_digest` finds every digest
  unchanged and every missing path still missing — computed includes
  (§2.1) included, since the set is what the parse actually read.

Cached result records are the engine's summary dicts (status, timing
breakdown, subparser counts, preprocessor statistics) — not ASTs — so
hits are cheap JSON reads.  A :class:`ResultCache` counts its probes
into its owner's :class:`repro.obs.Counters` (a daemon's or a batch
run's) as ``result_cache.{hits,misses,corrupt}``.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Callable, Dict, Mapping, Optional, Sequence

import repro
from repro import chaos
from repro.cgrammar import c_tables_key, cache_root
from repro.cpp import FileSystem
from repro.obs.counters import Counters

# Bump to invalidate every cached result record (schema or semantics
# change in what the engine records per unit).
# 2: records gained "diagnostics"/"invalid_configs"; guarded failures
#    became STATUS_DEGRADED.
# 3: timing gained "total"; records gained "profile" (repro.obs
#    per-unit profile summary, None when not profiling).
# 4: blobs became {"reads", "record"}, keyed by unit + source digest.
RESULT_CACHE_VERSION = 4

_CODE_HASH: Optional[str] = None


def code_hash() -> str:
    """Hash of the ``repro`` package's Python sources, computed once
    per process: a record is only as current as the code that made
    it."""
    global _CODE_HASH
    if _CODE_HASH is None:
        root = os.path.dirname(os.path.abspath(repro.__file__))
        digest = hashlib.sha256()
        for directory, dirnames, filenames in os.walk(root):
            dirnames.sort()
            for name in sorted(filenames):
                if not name.endswith(".py"):
                    continue
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as handle:
                    digest.update(hashlib.sha256(handle.read()).digest())
        _CODE_HASH = digest.hexdigest()[:16]
    return _CODE_HASH


def config_fingerprint(include_paths: Sequence[str],
                       builtins: Optional[Dict[str, str]],
                       extra_definitions: Optional[Dict[str, str]],
                       optimization: str) -> str:
    """Hash of everything besides the files read that shapes a
    record: the job configuration, the C grammar and the code."""
    payload = json.dumps({
        "version": RESULT_CACHE_VERSION,
        "include_paths": list(include_paths),
        "builtins": builtins,
        "extra_definitions": extra_definitions,
        "optimization": optimization,
        "grammar": c_tables_key(),
        "code": code_hash(),
    }, sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def result_key(unit: str, source_text: str) -> str:
    """Result-cache key: the unit's path and its source digest."""
    digest = hashlib.sha256()
    digest.update(unit.encode())
    digest.update(hashlib.sha256(source_text.encode()).digest())
    return digest.hexdigest()[:32]


def include_closure_digest(fs: FileSystem,
                           reads: Mapping[str, Optional[str]]) -> bool:
    """The read-set check: True while every path of ``reads`` still
    has its recorded digest on ``fs`` (None: is still missing).

    Keeps the name of the include-closure digest it replaced, which
    perfbench's trace wraps as the probe's dependency check."""
    for path, digest in reads.items():
        if fs.digest(path) != digest:
            return False
    return True


def is_read_set(reads: object) -> bool:
    """True for a well-formed read-set: path -> digest or None."""
    return isinstance(reads, dict) and all(
        isinstance(path, str) and (digest is None
                                   or isinstance(digest, str))
        for path, digest in reads.items())


class ResultCache:
    """On-disk per-unit result records, one JSON file per key.

    Every read is fault-confined: a truncated, corrupt, or
    wrong-shaped record — a crashed writer, a full disk, manual
    tampering — is treated as a miss, the bad blob is deleted so it
    cannot poison later runs, and ``result_cache.corrupt`` counts the
    event.  A cache must never raise into a parse.
    """

    def __init__(self, cache_dir: Optional[str], fingerprint: str,
                 counters: Optional[Counters] = None):
        root = cache_dir or cache_root()
        self.directory = os.path.join(root, "results", fingerprint)
        self.counters = counters if counters is not None else Counters()
        self.counters.declare("result_cache.hits", "result_cache.misses",
                              "result_cache.corrupt")

    def _path(self, key: str) -> str:
        return os.path.join(self.directory, f"{key}.json")

    def get(self, key: str,
            current: Optional[Callable[[dict], bool]] = None) \
            -> Optional[dict]:
        """The blob ``{"reads", "record"}`` stored under ``key``, or
        None.  With ``current``, a blob whose read-set it rejects is
        stale: a miss, left for the re-parse to overwrite."""
        path = self._path(key)
        if chaos.ACTIVE is not None:
            chaos.fire("cache.get", path=path)
        try:
            with open(path, "rb") as handle:
                data = handle.read()
        except OSError:
            self.counters.inc("result_cache.misses")
            return None
        try:
            blob = json.loads(data.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            blob = None
        if not isinstance(blob, dict) \
                or not is_read_set(blob.get("reads")) \
                or not isinstance(blob.get("record"), dict):
            # Truncated write, bit rot, or a non-record blob: miss,
            # and delete the evidence so it cannot poison later runs.
            self.counters.inc("result_cache.corrupt")
            self.counters.inc("result_cache.misses")
            try:
                os.remove(path)
            except OSError:
                pass
            return None
        if current is not None and not current(blob["reads"]):
            self.counters.inc("result_cache.misses")
            return None
        self.counters.inc("result_cache.hits")
        return blob

    def put(self, key: str, reads: Mapping[str, Optional[str]],
            record: dict) -> None:
        """Atomically publish one record with its read-set.

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
                json.dump({"reads": dict(reads), "record": record},
                          handle)
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
