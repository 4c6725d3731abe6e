"""Corpus shapes of the in-process workloads, and the set-up probe.

Run as a script, this is one fresh set-up as a user pays it: import
the package, generate the workload's corpus from the seed, build the
grammar tables (the cache directory is empty, so they are generated),
and construct a ready ``Session``.  It prints one JSON line when ready;
the caller times it from spawn to that line::

    python3 perfbench/setup_probe.py WORKLOAD SEED
"""

from __future__ import annotations

import json
import os
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")

# KernelSpec keyword arguments per workload; the seed comes from the
# command line.  Every tree but variability-heavy's has the shape of
# BENCH_SPEC, the corpus of the pytest benches (4 subsystems x 3
# drivers, 12 units); the trees are small so that every unit is parsed
# several times in a run.
TREE = dict(subsystems=4, drivers_per_subsystem=3, figure6_entries=10)
SPECS = {
    "kernel-batch": TREE,
    "variability-heavy": dict(subsystems=2, drivers_per_subsystem=3,
                              figure6_entries=32, functions_per_driver=4),
    "serve-warm": TREE,
    "serve-edit": TREE,
}


def make_corpus(workload: str, seed: int):
    from repro.corpus import KernelSpec, generate_kernel
    return generate_kernel(KernelSpec(seed=seed, **SPECS[workload]))


def main(argv) -> int:
    workload, seed = argv[0], int(argv[1])
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    from repro.api import Config, Session
    from repro.cgrammar import c_tables
    corpus = make_corpus(workload, seed)
    start = time.perf_counter()
    tables = c_tables()
    tables_s = time.perf_counter() - start
    Session(Config(files=corpus.files,
                   include_paths=tuple(corpus.include_paths),
                   tables=tables))
    print(json.dumps({"tables_s": tables_s}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
