"""Crash-surviving warm-state journal for the parse daemon.

The daemon's parse *records* already survive restarts in the on-disk
:class:`repro.engine.ResultCache`; what used to die with the process
was the metadata that makes the warm tiers work — which key each unit
was last published under, its read-set with digests (what
``invalidate`` scans and the token tier fingerprints), and its
layout-insensitive token fingerprint (the tier-3 short-circuit).
:class:`ParseJournal` persists exactly that
:class:`~repro.serve.state.ParseEntry` metadata as JSON lines beside
the result cache, so a restarted daemon resumes memory/disk/token-tier
short-circuiting immediately instead of re-parsing its whole working
set cold.

Design points:

* **Append-only with compaction.**  Every publish appends one line;
  the newest line per unit wins on load.  When the file grows past
  ~4x the live entry count it is compacted by an atomic
  write-temp-then-rename, so a crash mid-compaction leaves the old
  journal intact.
* **Per-record validation.**  A torn final line (the process died
  mid-append) or a corrupted record is discarded *individually* —
  counted as ``journal.discarded`` in the daemon's counters registry,
  beside ``journal.writes`` and ``journal.compactions`` — and every
  other line still resumes.  So is a line in an older format (a ``closure`` path list
  without digests): it cannot say whether its files changed, so it
  is never resumed.  A journal must never take down the daemon it
  exists to protect.
* **Best-effort writes.**  Append and compaction failures (``ENOSPC``,
  permissions) are swallowed: the daemon keeps serving from memory and
  simply resumes colder next time.
"""

from __future__ import annotations

import json
import os
import threading
from typing import Dict, Mapping, Optional

from repro import chaos
from repro.engine.cache import is_read_set
from repro.obs.counters import Counters


class ParseJournal:
    """JSON-lines journal of per-unit warm-entry metadata."""

    def __init__(self, path: str, counters: Optional[Counters] = None):
        self.path = path
        self.counters = counters if counters is not None else Counters()
        self.counters.declare("journal.writes", "journal.discarded",
                              "journal.compactions")
        self._lock = threading.Lock()
        self._entries: Dict[str, dict] = {}
        self._appends = 0

    # -- load ----------------------------------------------------------

    @staticmethod
    def _validate(meta: object) -> Optional[dict]:
        """The journal-record shape, or None for anything else."""
        if not isinstance(meta, dict):
            return None
        unit = meta.get("unit")
        key = meta.get("key")
        reads = meta.get("reads")
        token_fp = meta.get("token_fp")
        if not isinstance(unit, str) or not isinstance(key, str):
            return None
        if not is_read_set(reads):
            return None
        if token_fp is not None and not isinstance(token_fp, str):
            return None
        return {"unit": unit, "key": key, "reads": reads,
                "token_fp": token_fp}

    def load(self) -> Dict[str, dict]:
        """Validated entries from disk, newest line per unit winning.
        Corrupt or torn lines are discarded individually (counted as
        ``journal.discarded``), never raised."""
        try:
            with open(self.path, "rb") as handle:
                data = handle.read()
        except OSError:
            return {}
        entries: Dict[str, dict] = {}
        for line in data.splitlines():
            if not line.strip():
                continue
            meta = None
            try:
                meta = self._validate(json.loads(line.decode("utf-8")))
            except (ValueError, UnicodeDecodeError):
                meta = None
            if meta is None:
                self.counters.inc("journal.discarded")
                continue
            entries[meta["unit"]] = meta
        with self._lock:
            self._entries = dict(entries)
            self._appends = len(entries)
        return entries

    # -- write ---------------------------------------------------------

    def append(self, unit: str, key: str,
               reads: Mapping[str, Optional[str]],
               token_fp: Optional[str]) -> None:
        """Record one publish (best effort; never raises)."""
        meta = {"unit": unit, "key": key,
                "reads": dict(reads), "token_fp": token_fp}
        with self._lock:
            self._entries[unit] = meta
            self._appends += 1
            try:
                if chaos.ACTIVE is not None:
                    chaos.fire("journal.append", path=self.path)
                os.makedirs(os.path.dirname(self.path) or ".",
                            exist_ok=True)
                with open(self.path, "a", encoding="utf-8") as handle:
                    handle.write(json.dumps(meta) + "\n")
                self.counters.inc("journal.writes")
            except OSError:
                return
            if self._appends > 4 * len(self._entries) + 64:
                self._compact_locked()

    def forget(self, unit: str) -> None:
        """Drop a unit from the live set (takes effect at the next
        compaction; the append-only tail still names it until then)."""
        with self._lock:
            self._entries.pop(unit, None)

    def _compact_locked(self) -> None:
        tmp = self.path + f".tmp.{os.getpid()}"
        try:
            with open(tmp, "w", encoding="utf-8") as handle:
                for meta in self._entries.values():
                    handle.write(json.dumps(meta) + "\n")
            os.replace(tmp, self.path)
            self._appends = len(self._entries)
            self.counters.inc("journal.compactions")
        except OSError:
            try:
                os.remove(tmp)
            except OSError:
                pass
