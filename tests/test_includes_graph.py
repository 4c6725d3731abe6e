"""Tests for the corpus's include structure, as the preprocessor's
read-sets see it (Table 2b counts headers per C file)."""

from repro.corpus import KernelSpec, generate_kernel
from repro.eval import top_included_headers


class TestOnCorpus:
    def test_corpus_graph(self):
        corpus = generate_kernel(KernelSpec(subsystems=2,
                                            drivers_per_subsystem=2))
        counts = {name: hits for name, hits, _pct in
                  top_included_headers(corpus,
                                       count=len(corpus.headers()))}
        # Core headers reach every driver, down the chain
        # module.h -> kernel.h -> types.h.
        for header in ("include/linux/module.h", "include/linux/kernel.h",
                       "include/linux/types.h"):
            assert counts[header] == len(corpus.units), header
        # Headers are re-preprocessed per unit.
        assert sum(counts.values()) > len(corpus.units) * 5
