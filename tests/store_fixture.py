"""A small, fully deterministic durable deployment, for format tests.

``write_stores(directory)`` runs three organisations over the simulator
with file stores under ``directory/<org>/{evidence,journal,checkpoints}.jsonl``:
an overwrite, single updates and a batched update of one object.  Keys,
nonces and virtual time all derive from fixed seeds, so the same program
writes the same bytes.  Two copies are kept:

* ``tests/fixtures/stores/`` — record format 1, written by the two-pass
  encoder before record format 2 (every signed part in full);
* ``tests/fixtures/stores_v2/`` — record format 2 (each signed part once
  per store), written by the current code.  Regenerate it with::

    PYTHONPATH=src python tests/store_fixture.py tests/fixtures/stores_v2
"""

from __future__ import annotations

import sys

from repro.core.community import Community
from repro.core.object import DictB2BObject
from repro.core.runtime import SimRuntime
from repro.transport.inmemory import LinkProfile

ORGS = ["A", "B", "C"]
OBJECT = "ledger"
KINDS = ("evidence", "journal", "checkpoints")


def write_stores(directory: str) -> Community:
    runtime = SimRuntime(seed=11, profile=LinkProfile(latency=0.005))
    community = Community(ORGS, runtime=runtime, seed="store-fixture",
                          storage_dir=directory)
    objects = {name: DictB2BObject({"count": 0}) for name in ORGS}
    community.found_object(OBJECT, objects)
    community.node("A").propagate_new_state(
        OBJECT, {"count": 1, "owner": "A", "note": "café ☃"})
    community.settle(1.0)
    community.node("B").propagate_update(
        OBJECT, {"count": 2, "blob": b"\x00\xff", "ratio": 0.5})
    community.settle(1.0)
    node = community.node("C")
    # The first update proposes at once; the next two queue behind it
    # and go out as one batched run.
    node.submit_update(OBJECT, {"count": 3})
    node.submit_update(OBJECT, {"count": 4, "tags": ["x", "y"]})
    node.submit_update(OBJECT, {"count": 5})
    community.settle(1.0)
    community.close()
    for node in community.nodes.values():
        node.ctx.evidence.close()
        node.ctx.journal.close()
        node.ctx.checkpoints.close()
    return community


if __name__ == "__main__":
    write_stores(sys.argv[1])
