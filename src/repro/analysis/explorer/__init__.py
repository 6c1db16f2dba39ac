"""Exhaustive crash-state model checking (docs/crash-exploration.md).

The package records a run's persist-event stream, enumerates every
legal persist-order crash cut (pruned by each scheme's branch order,
canonical state hashing, and branch commutativity), and verifies each
reachable crash state with a two-sided recovery oracle.

Import surface: the seam constants load eagerly (reprolint's RPL010
needs them without dragging in the simulator); everything else resolves
lazily on first attribute access.
"""

from __future__ import annotations

from importlib import import_module

from repro.analysis.explorer.seams import (   # noqa: F401
    EXPLORED_ROOT_REGISTERS, SEAM_METHODS,
)

_LAZY = {
    "PersistEvent": "record",
    "PersistRecorder": "record",
    "Recording": "record",
    "materialization_factory": "record",
    "record_system_run": "record",
    "record_writes": "record",
    "CrashState": "model",
    "CrashStateModel": "model",
    "PersistUnit": "model",
    "brute_force_cuts": "model",
    "CrashVerdict": "oracle",
    "evaluate_state": "oracle",
    "materialize": "oracle",
    "ExplorationResult": "shards",
    "SCHEME_VARIANTS": "shards",
    "ShardResult": "shards",
    "build_exploration_cells": "shards",
    "exploration_cache": "shards",
    "explore_cell_fn": "shards",
    "explore_range": "shards",
    "parse_group": "shards",
    "record_cell": "shards",
    "run_exploration": "shards",
    "shard_group": "shards",
    "EXPLORER_RULES": "report",
    "REX_FALSE_ABORT": "report",
    "REX_MISSED_DETECTION": "report",
    "exploration_sarif": "report",
    "single_row_result": "report",
    "text_matrix": "report",
    "violations_report": "report",
}

__all__ = ["EXPLORED_ROOT_REGISTERS", "SEAM_METHODS", *sorted(_LAZY)]


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}")
    module = import_module(f"{__name__}.{module_name}")
    return getattr(module, name)
