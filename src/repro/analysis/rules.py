"""Rule metadata and the violation record shared by the lint and the
CLI.

Every rule has a stable short ``name`` (the token used in suppression
comments), an ``id`` for terse grep-able output,
a one-line ``summary`` and a ``rationale`` tying it back to the paper —
rules exist to protect a modelling invariant, not a style preference.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repro.errors import ConfigError


@dataclass(frozen=True)
class RuleInfo:
    """Descriptive metadata for one lint rule."""

    id: str
    name: str
    summary: str
    rationale: str


#: The registry, in report order.
ALL_RULES: tuple[RuleInfo, ...] = (
    RuleInfo(
        id="RPL004",
        name="bare-assert",
        summary="bare assert used for runtime validation in library "
                "code",
        rationale="``python -O`` strips asserts: a verification or "
                  "type check expressed as assert vanishes in "
                  "optimised runs, turning a detected integrity "
                  "failure into silent acceptance.  Raise a typed "
                  "repro.errors exception instead.",
    ),
    RuleInfo(
        id="RPL005",
        name="stat-counter-discipline",
        summary="statistics counter created at increment time",
        rationale="StatGroup.counter() creates-on-fetch: a chained "
                  "counter(...).add(...) silently mints a new counter "
                  "on typo, and per-event registration costs the hot "
                  "path.  Bind counters once at construction.",
    ),
    RuleInfo(
        id="RPL009",
        name="hot-path-allocation",
        summary="container or bytes allocation inside a per-access "
                "hot-path method",
        rationale="The declared hot-path methods run once or more per "
                  "simulated memory access, so a list/dict display, a "
                  "list()/dict() call or a bytes concatenation there "
                  "is an allocation multiplied by the whole workload — "
                  "exactly what dominated the profile before the "
                  "hot-path overhaul (docs/performance.md).  Build "
                  "containers at construction time, reuse "
                  "preallocated buffers, or memoize by content where "
                  "a measured hit rate pays for it; genuinely cold "
                  "branches (overflow handling) carry an inline "
                  "`# reprolint: disable=hot-path-allocation` comment "
                  "with a justification.",
    ),
    RuleInfo(
        id="RPL010",
        name="unexplored-persist-boundary",
        summary="scheme persists metadata outside the crash explorer's "
                "registered event seams",
        rationale="The crash-state model checker "
                  "(docs/crash-exploration.md) can only enumerate "
                  "crash cuts over persists it observes: wpq.enqueue, "
                  "nvm.write_line, _flush_node brackets and the "
                  "registered root registers.  A scheme that writes "
                  "metadata through poke_line (the uncounted path) or "
                  "holds root state in an unregistered RootRegister "
                  "creates durable state the explorer never replays, "
                  "so its crash space is silently under-verified.  "
                  "Route runtime persists through write_line/the WPQ, "
                  "or register the new seam in "
                  "repro.analysis.explorer.seams.",
    ),
    RuleInfo(
        id="RPL011",
        name="nondeterministic-report",
        summary="report pipeline code draws on wall-clock time or "
                "unseeded randomness",
        rationale="Every byte of a report bundle must be a pure "
                  "function of the campaign cache and the report seed "
                  "(docs/figures.md): two runs over the same campaign "
                  "directory are compared sha256-per-file in CI, so a "
                  "time.time()/datetime.now() stamp or a module-level "
                  "random call (anything but an explicitly seeded "
                  "random.Random(seed)) silently breaks the golden-"
                  "bundle guarantee.",
    ),
    RuleInfo(
        id="RPL012",
        name="await-atomicity",
        summary="shared state read and written back across an await "
                "without a covering lock",
        rationale="The serve layer's correctness argument is the same "
                  "shape as the paper's: invariants live on ordering "
                  "discipline.  Scheduler/EventBus/quota/store "
                  "bookkeeping is loop-synchronous — atomic only "
                  "*between* awaits.  A self.* attribute read before "
                  "an interference point and written back after it "
                  "lets another task interleave at the await and have "
                  "its update clobbered (lost quota charges, double-"
                  "scheduled cells).  Hold one asyncio.Lock across the "
                  "read-modify-write or keep it on one side of the "
                  "await.",
    ),
    RuleInfo(
        id="RPL013",
        name="torn-file-write",
        summary="final-path file write outside the write-temp -> fsync "
                "-> os.replace discipline",
        rationale="The repo's crash-consistency claim extends to its "
                  "own artifacts: manifests, cache entries, report "
                  "bundles and discovery files are consumed by "
                  "concurrent readers and must never be observable "
                  "half-written — exactly the torn-root problem of "
                  "§III-B at file granularity.  Every write to a final "
                  "path must stage to a temp file, fsync, and publish "
                  "with an atomic os.replace (repro.util.atomic); "
                  "sqlite files get the equivalent guarantee from WAL "
                  "journaling.",
    ),
    RuleInfo(
        id="RPL014",
        name="blocking-call-in-async",
        summary="blocking call reachable inside an async def without "
                "to_thread/run_in_executor offload",
        rationale="One stalled coroutine stalls every tenant: the "
                  "serve event loop multiplexes all connections, so a "
                  "time.sleep, subprocess wait, sqlite query or "
                  "synchronous file read reachable from an async "
                  "handler freezes streaming, health checks and "
                  "scheduling for its whole duration.  Offload "
                  "blocking work with asyncio.to_thread / "
                  "run_in_executor — the scheduler already does this "
                  "for run_cell and store.put.",
    ),
)

_BY_NAME = {rule.name: rule for rule in ALL_RULES}
_BY_ID = {rule.id: rule for rule in ALL_RULES}


def get_rule(name_or_id: str) -> RuleInfo:
    """Look a rule up by its short name or its RPLnnn id."""
    rule = _BY_NAME.get(name_or_id) or _BY_ID.get(name_or_id)
    if rule is None:
        raise ConfigError(
            f"unknown lint rule {name_or_id!r}; known rules: "
            f"{', '.join(sorted(_BY_NAME))}")
    return rule


@dataclass(frozen=True)
class Violation:
    """One lint finding, locatable and stable across unrelated edits."""

    rule: RuleInfo
    path: str          # posix-style path relative to the scan root
    line: int
    column: int
    message: str
    snippet: str       # the stripped offending source line

    @property
    def fingerprint(self) -> str:
        """Line-number-independent identity (SARIF's
        ``partialFingerprints``): a violation keeps its fingerprint when
        unrelated edits shift it up or down the file."""
        digest = hashlib.sha256(
            f"{self.rule.name}|{self.path}|{self.snippet}".encode())
        return digest.hexdigest()[:12]

    def format(self) -> str:
        return (f"{self.path}:{self.line}:{self.column}: "
                f"{self.rule.id} [{self.rule.name}] {self.message}")

    def as_dict(self) -> dict:
        return {
            "rule": self.rule.name,
            "id": self.rule.id,
            "path": self.path,
            "line": self.line,
            "column": self.column,
            "message": self.message,
            "snippet": self.snippet,
            "fingerprint": self.fingerprint,
        }
