"""WITCHER-style runtime crash-consistency sanitizer.

The sanitizer instruments a live :class:`SecureMemoryController`
through the crash-state explorer's
:class:`~repro.analysis.explorer.record.PersistRecorder`: the WPQ's
``enqueue`` (the simulator's definition of *persisted* under ADR), the
NVM device's counted ``write_line``, the scheme's root registers and
the eviction-flush hook.  It keeps a window of the persist-order trace
and checks — online at every persist and again at every simulated
crash point — that security-metadata persists obey the scheme's
*declared* ordering rules.  A violation raises
:class:`~repro.errors.PersistOrderingError` naming the offending write
pair, so a scheme that silently breaks the ordering the paper's
recovery argument depends on fails loudly in the test suite instead of
producing subtly wrong Fig 5/13 numbers.

Per-scheme rules (selected automatically from ``controller.name``):

* every scheme — :class:`AttributablePersistRule`: a counted NVM store
  must be preceded by a WPQ enqueue of the same line (every persist is
  attributable to ADR semantics; ``poke_line`` injection paths are
  deliberately unhooked);
* eager family (:data:`~repro.analysis.explorer.seams.EAGER_FAMILY`)
  — :class:`LeafBeforeParentRule`: when a protocol persist (not a cache
  eviction) pushes both a counter block and one of its SIT ancestors in
  the same operation cycle, the counter block must go first, matching
  the bottom-up update discipline of Fig 6a/6b;
* ``scue`` — :class:`ShortcutRootRule`: a counter-block persist must be
  covered by a preceding ``Recovery_root`` shortcut update in the same
  ``write_data`` operation (§IV-A2 — the root may never lag the
  persisted leaves), plus
  :class:`RecoveryRootSumRule`: at the crash point the Recovery_root
  must equal the per-subtree sums of the on-media leaf dummy counters,
  the exact §IV-B counter-summing invariant recovery relies on.

Eviction flushes run under the controller's ``_flush_node`` hook and
are exempt from the *protocol* ordering rules: a victim's writeback
order is the cache's choice, not the scheme's persist discipline.
"""

from __future__ import annotations

from collections import deque

from repro.analysis.explorer.record import (
    KIND_ENQUEUE, KIND_LINE, KIND_REG_ADD, PersistEvent, PersistRecorder,
)
from repro.analysis.explorer.seams import EAGER_FAMILY
from repro.errors import PersistOrderingError
from repro.mem.address import Region

#: Recent-event window kept for violation messages.
TRACE_WINDOW = 64


class SanitizerRule:
    """Base class: rules receive the event stream and may veto."""

    name = "abstract"

    def __init__(self, sanitizer: "PersistOrderSanitizer") -> None:
        self.sanitizer = sanitizer
        self.amap = sanitizer.controller.amap

    def on_event(self, event: PersistEvent) -> None:
        """Called for every recorded event, in order."""

    def at_crash(self) -> None:
        """Called at the simulated crash point, before ADR/eADR
        flushing runs."""


class AttributablePersistRule(SanitizerRule):
    """Every counted NVM store must have a matching, earlier WPQ
    enqueue: a persist the ADR model cannot see is a simulator bug."""

    name = "attributable-persist"

    def __init__(self, sanitizer: "PersistOrderSanitizer") -> None:
        super().__init__(sanitizer)
        self._pending: dict[int, int] = {}

    def on_event(self, event: PersistEvent) -> None:
        if event.kind == KIND_ENQUEUE:
            self._pending[event.addr] = \
                self._pending.get(event.addr, 0) + 1
        elif event.kind == KIND_LINE:
            addr = event.addr
            credit = self._pending.get(addr, 0)
            if credit <= 0:
                self.sanitizer.fail(
                    self.name, event,
                    f"NVM line {addr:#x} was stored without a "
                    "preceding WPQ enqueue — this persist is invisible "
                    "to the ADR crash model")
            else:
                self._pending[addr] = credit - 1


class LeafBeforeParentRule(SanitizerRule):
    """Eager-family discipline (Fig 6a/6b): within one protocol persist
    operation, a counter block must reach the persist domain before any
    of its SIT ancestors."""

    name = "leaf-before-parent"

    def __init__(self, sanitizer: "PersistOrderSanitizer") -> None:
        super().__init__(sanitizer)
        self._cycle: int | None = None
        self._tree_persists: list[PersistEvent] = []

    def on_event(self, event: PersistEvent) -> None:
        if event.kind != KIND_ENQUEUE or not event.metadata \
                or event.in_flush:
            return
        if event.cycle != self._cycle:
            self._cycle = event.cycle
            self._tree_persists = []
        region = self.amap.region_of(event.addr)
        if region is Region.TREE:
            self._tree_persists.append(event)
            return
        if region is not Region.COUNTER or not self._tree_persists:
            return
        leaf_index = self.amap.counter_block_index(event.addr)
        ancestors = set(self.amap.branch_coords(leaf_index)[1:])
        for earlier in self._tree_persists:
            coords = self.amap.tree_node_coords(earlier.addr)
            if coords in ancestors:
                self.sanitizer.fail(
                    self.name, event,
                    f"counter block {leaf_index} persisted AFTER its "
                    f"ancestor node (level {coords[0]}, index "
                    f"{coords[1]}) in the same operation — eager "
                    "updates must persist bottom-up",
                    pair=earlier)


class ShortcutRootRule(SanitizerRule):
    """SCUE §IV-A2: the Recovery_root shortcut update precedes the leaf
    persist, so the root register never lags the persisted leaves.

    Credits count per ``write_data`` operation: an earlier write's add
    must not cover a persist that ran before this write's own add (a
    deferred-mode Osiris writeback, say)."""

    name = "shortcut-root-before-leaf"

    def __init__(self, sanitizer: "PersistOrderSanitizer") -> None:
        super().__init__(sanitizer)
        self._op = -1
        self._credits = 0

    def on_event(self, event: PersistEvent) -> None:
        if event.op != self._op:
            self._op = event.op
            self._credits = 0
        if event.kind == KIND_REG_ADD and \
                event.register == "recovery_root":
            self._credits += 1
            return
        if event.kind != KIND_ENQUEUE or not event.metadata \
                or event.in_flush:
            return
        if self.amap.region_of(event.addr) is not Region.COUNTER:
            return
        if self._credits <= 0:
            self.sanitizer.fail(
                self.name, event,
                f"counter block at {event.addr:#x} persisted with no "
                "preceding Recovery_root shortcut update — a crash "
                "here leaves the root behind the persisted leaves "
                "(the exact inconsistency SCUE exists to prevent)")
        else:
            self._credits -= 1


class RecoveryRootSumRule(SanitizerRule):
    """SCUE §IV-B crash-point invariant: Recovery_root equals the
    per-top-level-subtree sums of the on-media leaf dummy counters.
    Only meaningful under strict leaf write-through without Osiris
    relaxation (otherwise media leaves legitimately lag)."""

    name = "recovery-root-sum"

    def at_crash(self) -> None:
        controller = self.sanitizer.controller
        config = controller.config
        if not config.leaf_write_through or config.osiris_limit:
            return
        amap = self.amap
        mask = (1 << amap.counter_bits) - 1
        subtree = amap.arity ** (amap.tree_levels - 1)
        sums = [0] * amap.arity
        # Never-written leaves are blank and add 0 to every sum.
        for leaf in controller.store.written_leaves():
            slot = (leaf.index // subtree) % amap.arity
            sums[slot] = (sums[slot]
                          + leaf.dummy_counter(amap.counter_bits)) & mask
        stored = controller.recovery_root.counters
        for slot, (want, got) in enumerate(zip(sums, stored)):
            if want != got:
                self.sanitizer.fail(
                    self.name, None,
                    f"at the crash point Recovery_root[{slot}] = {got} "
                    f"but the persisted leaves of subtree {slot} sum "
                    f"to {want} — counter-summing reconstruction "
                    "(§IV-B) would wrongly report an attack")


def rules_for(sanitizer: "PersistOrderSanitizer") -> list[SanitizerRule]:
    """The declared ordering rules for the attached controller."""
    controller = sanitizer.controller
    rules: list[SanitizerRule] = [AttributablePersistRule(sanitizer)]
    if controller.name in EAGER_FAMILY:
        rules.append(LeafBeforeParentRule(sanitizer))
    if controller.name == "scue":
        rules.append(ShortcutRootRule(sanitizer))
        rules.append(RecoveryRootSumRule(sanitizer))
    return rules


class PersistOrderSanitizer:
    """Instrument one controller; active until its first crash.

    The events come from a :class:`PersistRecorder`, the explorer's
    recorder.  After ``crash()`` it goes dormant: recovery-time traffic
    runs under a different regime (peek/poke reconstruction) that the
    ordering rules do not describe.  Re-attach for a fresh run.
    """

    def __init__(self, controller, collect: bool = False) -> None:
        self.controller = controller
        #: ``collect=True`` gathers violations instead of raising —
        #: for tests that want to inspect everything that fired.
        self.collect = collect
        self.violations: list[str] = []
        self.events: deque[PersistEvent] = deque(maxlen=TRACE_WINDOW)
        self.rules = rules_for(self)
        self.recorder = PersistRecorder(controller, self._record,
                                        at_crash=self.check_crash_point)

    @property
    def active(self) -> bool:
        return self.recorder.active

    def _record(self, event: PersistEvent) -> None:
        self.events.append(event)
        for rule in self.rules:
            rule.on_event(event)

    def fail(self, rule_name: str, event: PersistEvent | None,
             message: str, pair: PersistEvent | None = None) -> None:
        detail = [f"persist-ordering violation [{rule_name}] in scheme "
                  f"'{self.controller.name}': {message}"]
        if pair is not None and event is not None:
            detail.append("offending write pair:")
            detail.append(f"  earlier: {pair.describe()}")
            detail.append(f"  later:   {event.describe()}")
        elif event is not None:
            detail.append(f"offending event: {event.describe()}")
        if self.events:
            detail.append("recent persist trace:")
            detail.extend(f"  {e.describe()}"
                          for e in list(self.events)[-8:])
        text = "\n".join(detail)
        self.violations.append(text)
        if not self.collect:
            raise PersistOrderingError(text)

    def attach(self) -> "PersistOrderSanitizer":
        if not self.active:
            self.recorder.attach()
        return self

    def detach(self) -> None:
        """Restore the instrumented methods (tests that reuse one
        controller across regimes)."""
        self.recorder.detach()

    def check_crash_point(self) -> None:
        """Run the crash-point invariants (called automatically from
        the instrumented ``crash``; callable directly for mid-run
        checks)."""
        for rule in self.rules:
            rule.at_crash()


def attach_sanitizer(controller,
                     collect: bool = False) -> PersistOrderSanitizer:
    """Instrument ``controller`` and return the active sanitizer."""
    return PersistOrderSanitizer(controller, collect=collect).attach()
