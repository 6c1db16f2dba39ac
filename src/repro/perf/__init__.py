"""The simulation-result digest (:func:`result_digest`) that the tier-1
golden tests and the ``perfbench/`` benchmark compare results by.
Host time is measured by ``perfbench/`` (docs/performance.md).
"""

from repro.perf.harness import result_digest

__all__ = ["result_digest"]
