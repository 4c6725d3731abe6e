"""Process counters: one locked name -> int registry per owner.

A daemon's :class:`~repro.serve.state.ServerState` and each
:meth:`repro.engine.BatchEngine.run` own one :class:`Counters`; every
component that counts events for them (the parse service, admission
queue, worker pool, journal, HTTP frontend, result cache) takes that
registry and calls :meth:`Counters.inc`.  The readers are the same
registry's :meth:`Counters.snapshot`: the daemon's ``stats`` op
renders it through :func:`nest`, and the Chrome exporter turns it into
``"ph": "C"`` samples.

Counter names are dotted ``stats`` paths (``cache_hits``,
``pool.crashes``, ``result_cache.corrupt``), so the ``stats`` body is
the snapshot split on ``.``.  A component declares its names at 0 when
it is built: a fresh daemon already reports every counter it has.

The registry is not process-global — tests run several daemons in one
process — and it is fork-aware only through its owner: a forked pool
worker's ``reset_after_fork`` replaces the inherited lock.
"""

from __future__ import annotations

import threading
from typing import Dict, Mapping


class Counters:
    """Thread-safe named integer counters."""

    __slots__ = ("_values", "_lock")

    def __init__(self) -> None:
        self._values: Dict[str, int] = {}
        self._lock = threading.Lock()

    def declare(self, *names: str) -> None:
        """Make ``names`` present (at 0 unless already counted)."""
        with self._lock:
            for name in names:
                self._values.setdefault(name, 0)

    def inc(self, name: str, n: int = 1) -> None:
        """Add ``n`` to ``name``: one lock, one dict add."""
        with self._lock:
            values = self._values
            values[name] = values.get(name, 0) + n

    def snapshot(self) -> Dict[str, int]:
        """A consistent copy of every counter."""
        with self._lock:
            return dict(self._values)


def nest(flat: Mapping[str, object]) -> dict:
    """``{"a.b": 1, "c": 2}`` -> ``{"a": {"b": 1}, "c": 2}``."""
    tree: dict = {}
    for name in sorted(flat):
        node = tree
        *parents, leaf = name.split(".")
        for part in parents:
            node = node.setdefault(part, {})
        node[leaf] = flat[name]
    return tree
