"""Warm server state: tables, fingerprinted files, parse entries.

Everything a cold ``superc-parse`` run pays per invocation is held
here once, for the life of the daemon:

* **Warm LALR tables** — built (or blob-deserialized) at startup and
  injected into one long-lived :class:`repro.api.Session`, so every
  request skips grammar-table construction entirely.
* **Content-fingerprinted file store** — :class:`FileStore` overlays
  any base :class:`repro.cpp.FileSystem` with a text + SHA-256 cache,
  so parses and read-set checks of back-to-back requests re-read and
  re-hash nothing.  ``invalidate``/``put`` are the edit entry points;
  the store remembers every path they touched, and each pooled parse
  ships that overlay (:meth:`FileStore.edits`) to its worker.
* **Parse entries** — per-unit records keyed exactly like the batch
  engine's result cache, by unit and source digest, each holding the
  read-set its parse recorded (``SuperCResult.reads``: every file the
  preprocessor read, computed includes too, plus missing probes).
  ``invalidate(path)`` demotes exactly the entries whose read-set
  holds ``path``, so the in-memory map answers repeat requests without
  touching a file.  A :class:`repro.engine.ResultCache` underneath
  persists every fresh parse with its read-set, so a daemon warms
  subsequent ``superc-batch`` runs and vice versa — one result cache,
  two front ends.

Lookup resolution order for a ``parse`` request:

1. same key in memory, not demoted since — ``cache=hit, tier=memory``;
2. same key on disk (engine cache) with every read-set digest still
   current — ``cache=hit, tier=disk``;
3. a demoted entry whose token fingerprint over its read-set is
   unchanged (layout-only edit) — ``cache=hit, tier=token``: the old
   record is re-published in memory under the new key without
   re-parsing;
4. miss — parse with the warm session, publish to memory + disk.

**Counters.**  The state owns the daemon's one
:class:`repro.obs.Counters` registry: every serve component (service,
admission queue, worker pool, journal, HTTP frontend, result cache)
counts into ``ServerState.counters``, and the ``stats`` op is its
snapshot.  The state itself counts ``parses`` (fresh parses),
``token_short_circuits`` (tier-3 answers) and ``journal.resumed``.
"""

from __future__ import annotations

import os
import threading
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.api import Config, Session
from repro.cpp import FileSystem, RealFileSystem, text_digest
from repro.engine import DEFAULT_OPTIMIZATION
from repro.engine.cache import (ResultCache, config_fingerprint,
                                include_closure_digest, result_key)
from repro.engine.results import record_from_result
from repro.obs.counters import Counters
from repro.parser.fmlr import OPTIMIZATION_LEVELS
from repro.serve.incremental import token_fingerprint
from repro.serve.journal import ParseJournal
# One status taxonomy for the whole service: which statuses may never
# be published to the warm tiers is part of the protocol, not of any
# one transport or cache layer.
from repro.serve.protocol import UNCACHEABLE_STATUSES

TIER_MEMORY = "memory"
TIER_DISK = "disk"
TIER_TOKEN = "token"

JOURNAL_NAME = "serve-journal.jsonl"

Reads = Dict[str, Optional[str]]


class FileStore(FileSystem):
    """Content-fingerprinted overlay over a base file system.

    Reads are served from the in-memory cache after the first access;
    ``put`` installs an overlay text (an editor buffer, a test edit)
    and ``invalidate`` drops both overlay and cache so the next read
    hits the base again.  Both remember the path: :meth:`edits` is
    this store's view of everything edited since it was made.
    """

    def __init__(self, base: Optional[FileSystem] = None):
        self.base = base if base is not None else RealFileSystem()
        self._text: Dict[str, Optional[str]] = {}
        self._digest: Dict[str, str] = {}
        self._edited: Set[str] = set()
        self._lock = threading.Lock()

    def read(self, path: str) -> Optional[str]:
        with self._lock:
            if path in self._text:
                return self._text[path]
        text = self.base.read(path)
        with self._lock:
            self._text[path] = text
            if text is not None:
                self._digest[path] = text_digest(text)
        return text

    def exists(self, path: str) -> bool:
        return self.read(path) is not None

    def digest(self, path: str) -> Optional[str]:
        if self.read(path) is None:
            return None
        with self._lock:
            return self._digest.get(path)

    def put(self, path: str, text: Optional[str]) -> None:
        """Overlay ``path`` with new content (in-memory edit); None
        overlays it as missing."""
        with self._lock:
            self._text[path] = text
            self._digest.pop(path, None)
            if text is not None:
                self._digest[path] = text_digest(text)
            self._edited.add(path)

    def invalidate(self, path: str) -> bool:
        """Forget cached content for ``path``; True if it was known."""
        with self._lock:
            known = path in self._text
            self._text.pop(path, None)
            self._digest.pop(path, None)
            self._edited.add(path)
            return known

    def edits(self) -> Dict[str, Optional[str]]:
        """Current text (None: missing) of every path put or
        invalidated so far — what a worker forked from this store
        must overlay to share its view."""
        with self._lock:
            paths = sorted(self._edited)
        return {path: self.read(path) for path in paths}

    def known_files(self) -> Dict[str, str]:
        """Every path with known (readable) content."""
        with self._lock:
            return {path: text for path, text in self._text.items()
                    if text is not None}


class ParseEntry:
    """One unit's warm result plus the read-set that keys it.

    ``record`` may be ``None`` for an entry resumed from the on-disk
    journal: the metadata (key, read-set, token fingerprint) came
    back, and the record itself is fetched lazily from the result
    cache the first time a tier needs it.  A demoted entry has key
    ``""``: it only serves the token tier.
    """

    __slots__ = ("key", "record", "reads", "token_fp")

    def __init__(self, key: str, record: Optional[dict], reads: Reads,
                 token_fp: Optional[str]):
        self.key = key
        self.record = record
        self.reads = reads
        self.token_fp = token_fp


class ServerState:
    """All warm state behind one running parse server."""

    def __init__(self, config: Optional[Config] = None,
                 optimization: str = DEFAULT_OPTIMIZATION,
                 cache_dir: Optional[str] = None,
                 use_result_cache: bool = True,
                 use_journal: bool = True,
                 **overrides: Any):
        if config is None:
            config = Config(**overrides)
        elif overrides:
            config = config.replace(**overrides)
        if optimization not in OPTIMIZATION_LEVELS:
            raise ValueError(f"unknown optimization {optimization!r}")
        if config.options is None:
            config = config.replace(
                options=OPTIMIZATION_LEVELS[optimization])
        self.optimization = optimization
        self.counters = Counters()
        self.counters.declare("parses", "token_short_circuits")
        self.files = FileStore(config.resolved_fs())
        # One warm Session: tables built once, reused by every request.
        # The session reads through the fingerprinting store so request
        # N+1 re-reads nothing request N already saw.
        self.session = Session(config.replace(fs=self.files, files=None))
        self.config = self.session.config
        self.fingerprint = config_fingerprint(
            list(config.include_paths), config.builtins,
            config.extra_definitions, optimization)
        self.result_cache = (ResultCache(cache_dir, self.fingerprint,
                                         self.counters)
                             if use_result_cache else None)
        self.entries: Dict[str, ParseEntry] = {}
        self._lock = threading.Lock()
        # Installed by ParseServer when a worker pool is active: a
        # callable (unit, text, overlay files, deadline) -> record that
        # runs the parse out of process.  None -> parse inline.
        self.executor: Optional[Callable[..., dict]] = None
        # Warm-state journal: lives inside the result cache's
        # fingerprint directory (which clear() leaves alone — it only
        # removes *.json), so journal and records travel together.
        self.journal: Optional[ParseJournal] = None
        if use_journal and self.result_cache is not None:
            self.journal = ParseJournal(
                os.path.join(self.result_cache.directory, JOURNAL_NAME),
                self.counters)
            self._resume_from_journal()

    def _resume_from_journal(self) -> None:
        """Rebuild warm-entry metadata from a previous daemon's life.

        Records stay on disk (the result cache); what comes back here
        is the per-unit key, read-set, and token fingerprint — enough
        for invalidation and for the disk and token tiers to
        short-circuit the first request after a restart instead of
        re-parsing cold."""
        entries = self.journal.load()
        with self._lock:
            for unit, meta in entries.items():
                self.entries[unit] = ParseEntry(
                    meta["key"], None, meta["reads"], meta["token_fp"])
        self.counters.inc("journal.resumed", len(entries))

    def reset_after_fork(self) -> None:
        """Make inherited state safe inside a freshly forked worker.

        Locks can be forked while held by another thread; replace them
        so the child can't deadlock on a lock nobody will release.  The
        child parses only — it must not write the parent's journal or
        result cache, so both are detached."""
        self._lock = threading.Lock()
        self.files._lock = threading.Lock()
        self.counters._lock = threading.Lock()
        self.journal = None
        self.result_cache = None
        self.executor = None

    # -- lookup / store ------------------------------------------------

    def unit_key(self, unit: str, text: str) -> str:
        """The cache key of ``unit`` with source ``text``."""
        return result_key(unit, text)

    def _current(self, reads: Reads) -> bool:
        return include_closure_digest(self.files, reads)

    def lookup(self, unit: str, key: str,
               allow_token_hit: bool = True) \
            -> Tuple[Optional[dict], Optional[str]]:
        """(record, tier) for a warm answer, or (None, None)."""
        with self._lock:
            entry = self.entries.get(unit)
        if entry is not None and entry.key == key \
                and entry.record is not None:
            return entry.record, TIER_MEMORY
        if self.result_cache is not None:
            blob = self.result_cache.get(key, self._current)
            if blob is not None:
                self._remember(unit, key, blob["record"], blob["reads"])
                return blob["record"], TIER_DISK
        if allow_token_hit and entry is not None \
                and entry.token_fp is not None:
            # The content moved but maybe only layout changed: compare
            # layout-insensitive token fingerprints over the entry's
            # read-set before paying for a re-parse.  Token-identical
            # files make the preprocessor read the same set again.
            fresh_fp = token_fingerprint(self.files.read, unit,
                                         entry.reads)
            if fresh_fp is not None and fresh_fp == entry.token_fp:
                record = entry.record
                if record is None and entry.key \
                        and self.result_cache is not None:
                    # Journal-resumed entry: the record lives on disk
                    # under its key, unless a later parse replaced it.
                    blob = self.result_cache.get(entry.key)
                    if blob is not None and blob["reads"] == entry.reads:
                        record = blob["record"]
                if record is not None:
                    self.counters.inc("token_short_circuits")
                    # Re-publish under the new key with the read-set's
                    # current digests, so the next request hits tier 1.
                    # The disk keeps the blob of the last real parse,
                    # unless no digest moved (that blob was lost).
                    reads = {path: self.files.digest(path)
                             for path in entry.reads}
                    if self._remember(unit, key, record, reads,
                                      token_fp=fresh_fp) \
                            and reads == entry.reads \
                            and self.result_cache is not None:
                        self.result_cache.put(key, reads, record)
                    return record, TIER_TOKEN
        return None, None

    def parse(self, unit: str, text: str, key: str,
              deadline: object = None) -> dict:
        """Fresh parse; publishes the record unless it is a failure.

        With an ``executor`` installed (worker pool), the parse runs in
        a supervised child process, handed the store's edits, and the
        supervisor enforces ``deadline``; otherwise it runs inline on
        the warm session.  Failure records (error / timeout / crashed)
        are returned but never published to the warm tiers or the
        journal — they describe one attempt, not the unit."""
        if self.executor is not None:
            record = self.executor(unit, text, self.files.edits(),
                                   deadline)
        else:
            record = self._parse_inline(unit, text)
        reads = record.pop("reads", None)
        self.counters.inc("parses")
        if reads is None or record.get("status") in UNCACHEABLE_STATUSES:
            return record
        fp = token_fingerprint(self.files.read, unit, reads)
        if self._remember(unit, key, record, reads, token_fp=fp) \
                and self.result_cache is not None:
            self.result_cache.put(key, reads, record)
        return record

    def _parse_inline(self, unit: str, text: str) -> dict:
        """One parse on the warm in-process session.  The record
        carries the parse's read-set under ``"reads"``, which
        :meth:`parse` pops (a pool worker sends it the same way)."""
        result = self.session.parse(text, unit)
        record = record_from_result(unit, result,
                                    seconds=result.timing.total)
        record["reads"] = result.reads
        return record

    def _remember(self, unit: str, key: str, record: Optional[dict],
                  reads: Reads, token_fp: Optional[str] = None) -> bool:
        """Publish one warm entry; False (nothing stored) when a file
        of ``reads`` changed since it was read — an edit raced the
        parse, and :meth:`invalidate` may already have passed."""
        with self._lock:
            if not self._current(reads):
                return False
            previous = self.entries.get(unit)
            if token_fp is None and previous is not None \
                    and previous.key == key:
                token_fp = previous.token_fp
            self.entries[unit] = ParseEntry(key, record, reads, token_fp)
        if self.journal is not None:
            self.journal.append(unit, key, reads, token_fp)
        return True

    # -- invalidation --------------------------------------------------

    def invalidate(self, path: str,
                   text: Optional[str] = None) -> List[str]:
        """Apply an edit to ``path`` and demote exactly the warm
        entries whose read-set holds it (or whose unit it is); returns
        those units, sorted.

        ``text`` installs new content (in-memory edit); without it the
        store just forgets the path so the next read re-hits the base
        file system (on-disk edit, or a file created where a probe
        found nothing).  Demoted entries keep record, read-set and
        token fingerprint for the tier-3 check, but their key is
        cleared, so no request is answered from memory again.
        """
        if text is not None:
            self.files.put(path, text)
        else:
            self.files.invalidate(path)
        demoted = []
        with self._lock:
            for unit, entry in self.entries.items():
                if unit == path or path in entry.reads:
                    self.entries[unit] = ParseEntry(
                        "", entry.record, entry.reads, entry.token_fp)
                    demoted.append((unit, entry))
        if self.journal is not None:
            # Journal the demotion too: a daemon restarted after an
            # edit must not resume the stale pre-edit key.
            for unit, entry in demoted:
                self.journal.append(unit, "", entry.reads,
                                    entry.token_fp)
        return sorted(unit for unit, _entry in demoted)

    def units_warm(self) -> int:
        """Warm entries (a gauge for the ``stats`` op)."""
        with self._lock:
            return len(self.entries)
