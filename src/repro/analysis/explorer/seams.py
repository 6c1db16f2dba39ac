"""Registered explorer event seams and the persist-order families.

The crash-state explorer (:mod:`repro.analysis.explorer`) can only model
persists it observes.  This module is the single source of truth for
*which* controller surfaces are instrumented, shared between the dynamic
recorder (:mod:`repro.analysis.explorer.record`, which also feeds the
persist-order sanitizer) and the static reprolint rule RPL010
``unexplored-persist-boundary`` that refuses to let a new scheme
persist metadata behind the recorder's back.  It also names which
schemes promise a persist order: the sanitizer picks its rules from
:data:`EAGER_FAMILY`, and the explorer's crash-state model keeps
same-branch persists of :data:`ORDERED_SCHEMES` in order.

Kept deliberately import-light (stdlib only): reprolint imports these
constants at startup and must not drag the simulator in with them.
"""

from __future__ import annotations

#: Root registers the recorder wraps (``add``/``set``).  A scheme that
#: constructs a ``RootRegister`` under any other name holds persistent
#: state the explorer cannot replay — RPL010 flags the constructor call.
EXPLORED_ROOT_REGISTERS = frozenset({"running_root", "recovery_root"})

#: Controller surfaces wrapped by :meth:`PersistRecorder.attach`, as
#: attribute paths from the controller.  ``write_data`` brackets one
#: store-side operation, ``_flush_node`` brackets one cache eviction,
#: the next two are the raw persist events themselves, and ``crash``
#: ends the recording.  ``poke_line`` is deliberately absent: it is
#: the *uncounted* path (recovery, tests) and any runtime metadata
#: persist routed through it is invisible to the explorer — which is
#: exactly what RPL010 exists to catch.
SEAM_METHODS = (
    "write_data",
    "_flush_node",
    "wpq.enqueue",
    "nvm.write_line",
    "crash",
)

#: Schemes that persist a branch bottom-up (Fig 6a/6b): a counter block
#: reaches the persist domain before any of its SIT ancestors in the
#: same operation.  The sanitizer's ``leaf-before-parent`` rule checks
#: them.
EAGER_FAMILY = frozenset({"eager", "plp", "lazy", "bmt-eager"})

#: Schemes whose hardware orders persists on one tree branch: the eager
#: family, plus SCUE, whose Recovery_root update precedes the leaf
#: persist (§IV-A2).  The explorer lets units that share a branch
#: reorder only for schemes outside this set.
ORDERED_SCHEMES = EAGER_FAMILY | {"scue"}
