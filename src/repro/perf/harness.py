"""The result digest behind the byte-identical-results contract.

A simulation result is seed-deterministic, so its sha256 digest is the
same from run to run and from engine to engine.  A performance change
must never move one: ``tests/test_determinism_guard.py`` pins the
committed digests, and the benchmark in ``perfbench/`` checks every
timed unit's digest against its own pins.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any

from repro.bench.export import to_jsonable


def result_digest(value: Any) -> str:
    """sha256 over the canonical JSON form of a simulation result."""
    payload = json.dumps(to_jsonable(value), sort_keys=True,
                         separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()
