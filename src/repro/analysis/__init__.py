"""Correctness tooling for the simulator itself: ``reprolint`` + the
runtime crash-consistency sanitizer.

The paper's whole argument is that the *ordering* of security-metadata
persists decides whether the root survives a crash (§III-B) — so this
package mechanically enforces that our own simulator code respects the
persist domain it models, instead of relying on eyeballs:

* :mod:`repro.analysis.lint` — "reprolint", a static lint built on a
  real analysis framework: a per-function CFG builder
  (:mod:`repro.analysis.cfg`), a worklist dataflow engine
  (:mod:`repro.analysis.dataflow`) and a project-wide call graph
  (:mod:`repro.analysis.callgraph`).  Flat single-module rules coexist
  with interprocedural ones (a caller's ``wpq.enqueue`` credits a
  callee's store), plus declarative persist-protocol conformance
  (:mod:`repro.analysis.protocol`) proving the runtime sanitizer's
  ordering rules on *all static paths*;
* :mod:`repro.analysis.sanitizer` — a WITCHER-style runtime monitor
  that hooks the WPQ, the NVM device and the root registers, records a
  persist-order trace, and checks at every simulated crash point that
  metadata persists obey the scheme's declared ordering rules.

Each lint run is one pass over the whole tree and can export SARIF
2.1.0 for code scanning (:mod:`repro.analysis.sarif`).

Run the lint from the command line::

    python -m repro.analysis --strict --sarif out.sarif

and attach the sanitizer inside tests with::

    from repro.analysis import attach_sanitizer
    sanitizer = attach_sanitizer(controller)
"""

from repro.analysis.callgraph import ProjectIndex
from repro.analysis.cfg import CFG, build_cfg
from repro.analysis.dataflow import ForwardAnalysis
from repro.analysis.lint import Linter, ParsedModule
from repro.analysis.rules import ALL_RULES, Violation, get_rule
from repro.analysis.sanitizer import PersistOrderSanitizer, attach_sanitizer

__all__ = [
    "ALL_RULES",
    "CFG",
    "ForwardAnalysis",
    "Linter",
    "ParsedModule",
    "PersistOrderSanitizer",
    "ProjectIndex",
    "Violation",
    "attach_sanitizer",
    "build_cfg",
    "get_rule",
]
