"""Record the expected output digest of every ``build`` world.

Run once from the repository root when the worlds or the digest change::

    PYTHONPATH=src python3 perfbench/record_digests.py

It writes ``perfbench/build_digests.json``; the ``build`` workload
compares every op's ΘALG edge set and conflict CSR against it.
"""

from __future__ import annotations

import json

import worker


def main() -> int:
    digests = {}
    for w in range(worker.BUILD_WORLDS):
        topo, sets = worker.build_world(w)
        digests[str(w)] = worker.build_digest(topo, sets)
    doc = {
        "worlds": f"uniform_points({worker.BUILD_N}, rng=w) for w in range({worker.BUILD_WORLDS})",
        "digest": "sha256 of int64 ΘALG edges, then conflict indptr, then conflict indices",
        "digests": digests,
    }
    (worker.HERE / "build_digests.json").write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
