"""Start ``superc-serve``, optionally under benchmark-side span wrappers.

    python3 perfbench/serve_launcher.py [--spans FILE] -- SERVE_ARGS...

With ``--spans`` the launcher wraps the daemon's public functions
(``measure.DAEMON_WRAPPERS``, plus ``ParseService.handle`` as the
per-request root span carrying the request id), runs
``repro.tools.serve_cli.main`` and writes the spans to FILE when the
daemon exits.  Pool workers are forked from this process but their
spans are never written: their lex, preprocess and parse times come
back in each response's ``timing``.
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))


def main(argv) -> int:
    spans_file = None
    if argv[:1] == ["--spans"]:
        spans_file, argv = argv[1], argv[2:]
    if argv[:1] == ["--"]:
        argv = argv[1:]
    from repro.tools import serve_cli
    if spans_file is None:
        return serve_cli.main(argv)

    import measure
    from repro.serve.server import ParseService

    recorder = measure.SpanRecorder()
    measure.install(recorder, measure.DAEMON_WRAPPERS)
    handle = ParseService.handle

    def traced_handle(self, request, *args, **kwargs):
        with recorder.span("serve.request",
                           rid=getattr(request, "id", None)):
            return handle(self, request, *args, **kwargs)

    ParseService.handle = traced_handle
    try:
        return serve_cli.main(argv)
    finally:
        measure.write_spans(spans_file, recorder.spans)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
