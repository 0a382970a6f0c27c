"""Traced ``repro serve``: wrap the layer calls, then run the real server.

Used by the ``serve`` workload when ``--trace 1``; untraced runs start
plain ``python -m repro serve``.  Spans and GC passes stay in memory and
are written to ``--spans-out`` once the server has drained on SIGTERM::

    PYTHONPATH=src python3 perfbench/serve_launcher.py --spans-out spans.json
"""

from __future__ import annotations

import argparse
import functools

import spans


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--spans-out", required=True)
    args = ap.parse_args(argv)
    rec = spans.SpanRecorder()
    rec.install()
    from repro.service.server import serve

    code = serve(port=0, announce=functools.partial(print, flush=True))
    rec.dump(args.spans_out)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
