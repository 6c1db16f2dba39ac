"""Persist-event capture for the crash-state explorer and the
persist-order sanitizer.

:class:`PersistRecorder` is the one piece of code that instruments a
live controller's persist seams (:mod:`.seams`).  It saves the original
bound methods, shadows them with instance attributes, and hands every
event to a single listener:

* ``nvm.write_line`` — the durable payload of each line persist,
* ``wpq.enqueue`` — queue admissions with their cycle and metadata
  flag (the ADR model treats admission as persistence, so the explorer
  gives them no ordering weight; the sanitizer's rules read them),
* ``add``/``set`` of every register in ``EXPLORED_ROOT_REGISTERS`` —
  the register-file side of root crash consistency,
* ``write_data`` brackets (one store-side *operation*) and
  ``_flush_node`` brackets (one cache eviction), which become the
  atomic persist units of the model,
* ``crash``, which runs an optional ``at_crash`` callback and then
  leaves the recorder dormant: recovery-time traffic runs under a
  different regime (peek/poke reconstruction).

The explorer passes ``events.append`` and models the stream offline;
the sanitizer passes its rule dispatch and checks it online.

Data-line MAC/plaintext shadows are captured at *operation end*, not at
``write_line`` time: the minor-counter overflow path rewrites covered
lines first and refreshes their MACs afterwards, so only the op-end
values are consistent with the final ciphertext.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass
from typing import Any

from repro.analysis.explorer.seams import (
    EXPLORED_ROOT_REGISTERS, SEAM_METHODS,
)
from repro.mem.address import Region
from repro.secure import make_controller

KIND_LINE = "line"
KIND_ENQUEUE = "enqueue"
KIND_REG_ADD = "reg_add"
KIND_REG_SET = "reg_set"

#: Cycle gap between driven operations in :func:`record_writes` — wide
#: enough that eager-family delayed root updates land before the next
#: operation begins (and are absorbed into its persist unit) instead of
#: splitting an operation in half.
_OP_GAP = 50_000
#: Final settle tick: far enough out that every scheduled root update
#: has landed, so the recording ends with the tree fully settled and
#: the trailing landings form their own (excludable) persist units —
#: eager's root crash window, in model form.
_SETTLE = 10 ** 9


@dataclass
class PersistEvent:
    """One observed persist-side event.

    ``op``/``flush`` are bracket ids (or -1): which ``write_data``
    operation and which outermost ``_flush_node`` eviction the event
    occurred inside.  ``cycle``/``metadata`` are an enqueue's
    arguments.  ``data_mac``/``plaintext`` are the controller's op-end
    shadows for DATA-region line writes, used to rebuild the read-check
    state of a materialized crash image.
    """

    seq: int
    kind: str
    addr: int = -1
    payload: bytes = b""
    register: str = ""
    slot: int = -1
    value: int = 0
    op: int = -1
    flush: int = -1
    cycle: int | None = None
    metadata: bool = False
    data_mac: int | None = None
    plaintext: bytes | None = None

    @property
    def in_flush(self) -> bool:
        """Inside a cache-eviction writeback, not a protocol persist."""
        return self.flush >= 0

    def describe(self) -> str:
        if self.kind in (KIND_REG_ADD, KIND_REG_SET):
            how = "+=" if self.kind == KIND_REG_ADD else "="
            return (f"#{self.seq} root-update {self.register}"
                    f"[{self.slot}] {how} {self.value}")
        where = "flush" if self.in_flush else "protocol"
        if self.kind == KIND_ENQUEUE:
            kind = "metadata" if self.metadata else "data"
            return (f"#{self.seq} enqueue {kind} line {self.addr:#x} "
                    f"({where}) @cycle {self.cycle}")
        return f"#{self.seq} write line {self.addr:#x} ({where})"


@dataclass
class Recording:
    """A complete persist-event stream plus everything needed to rebuild
    pre-run state: the baseline NVM image and root-register snapshots at
    attach time, the config, and a factory that builds a fresh controller
    for crash-state materialization."""

    scheme: str
    events: list[PersistEvent]
    baseline_lines: dict[int, bytes]
    baseline_roots: dict[str, list[int]]
    config: Any
    factory: Callable[[], Any]
    counter_bits: int = 56


def root_registers(controller: Any) -> list[Any]:
    """The controller's explored root registers, in name order."""
    registers = (getattr(controller, name, None)
                 for name in sorted(EXPLORED_ROOT_REGISTERS))
    return [register for register in registers if register is not None]


class PersistRecorder:
    """Wraps a controller's persist seams and passes each
    :class:`PersistEvent` to ``listener`` from :meth:`attach` until the
    first ``crash`` or :meth:`detach`."""

    def __init__(self, controller: Any,
                 listener: Callable[[PersistEvent], None],
                 at_crash: Callable[[], None] | None = None) -> None:
        self.controller = controller
        self.listener = listener
        self.at_crash = at_crash
        self.active = False
        self._originals: list[tuple[Any, str, Any]] = []
        self._seq = 0
        self._op = -1
        self._next_op = 0
        self._op_events: list[PersistEvent] = []
        self._flush = -1
        self._next_flush = 0
        self._flush_depth = 0

    # ------------------------------------------------------------------
    def attach(self) -> "PersistRecorder":
        ctl = self.controller
        if self._originals:
            raise RuntimeError("recorder already attached")
        makers = {
            "write_data": self._make_write_data,
            "_flush_node": self._make_flush_node,
            "wpq.enqueue": self._make_enqueue,
            "nvm.write_line": self._make_write_line,
            "crash": self._make_crash,
        }
        for seam in SEAM_METHODS:
            owner, _, attr = seam.rpartition(".")
            self._wrap(getattr(ctl, owner) if owner else ctl, attr,
                       makers[seam])
        for register in root_registers(ctl):
            self._wrap(register, "add",
                       self._make_register(register.name, KIND_REG_ADD))
            self._wrap(register, "set",
                       self._make_register(register.name, KIND_REG_SET))
        self.active = True
        return self

    def detach(self) -> None:
        for obj, attr, shadowed in reversed(self._originals):
            if shadowed is None:
                delattr(obj, attr)
            else:
                setattr(obj, attr, shadowed)
        self._originals.clear()
        self.active = False

    # ------------------------------------------------------------------
    def _wrap(self, obj: Any, attr: str, maker: Callable[[Any], Any]) -> None:
        """Shadow ``obj.attr``; :meth:`detach` restores whatever the
        instance held before (usually nothing: the class method)."""
        self._originals.append((obj, attr, vars(obj).get(attr)))
        setattr(obj, attr, maker(getattr(obj, attr)))

    def _make_register(self, name: str, kind: str) -> Callable:
        def maker(original: Callable) -> Callable:
            # ``add``'s delta defaults to 1; ``set`` always passes one.
            def update(slot: int, value: int = 1) -> None:
                if self.active:
                    self._record(kind, register=name, slot=slot,
                                 value=value)
                return original(slot, value)
            return update
        return maker

    def _make_write_data(self, original: Callable) -> Callable:
        def write_data(addr: int, data: bytes | None, cycle: int,
                       persist: bool = True):
            fresh = self.active and self._op < 0
            if fresh:
                self._op = self._next_op
                self._next_op += 1
                self._op_events = []
            try:
                return original(addr, data, cycle, persist)
            finally:
                if fresh:
                    self._end_op()
        return write_data

    def _end_op(self) -> None:
        ctl = self.controller
        region_of = ctl.amap.region_of
        for event in self._op_events:
            if event.kind == KIND_LINE and \
                    region_of(event.addr) is Region.DATA:
                event.data_mac = ctl.data_macs.get(event.addr)
                event.plaintext = ctl._plaintexts.get(event.addr)
        self._op = -1
        self._op_events = []

    def _make_flush_node(self, original: Callable) -> Callable:
        def flush_node(node: Any, cycle: int):
            self._flush_depth += 1
            if self._flush_depth == 1:
                self._flush = self._next_flush
                self._next_flush += 1
            try:
                return original(node, cycle)
            finally:
                self._flush_depth -= 1
                if self._flush_depth == 0:
                    self._flush = -1
        return flush_node

    def _make_enqueue(self, original: Callable) -> Callable:
        def enqueue(addr: int, cycle: int, metadata: bool = False):
            if self.active:
                self._record(KIND_ENQUEUE, addr=addr, cycle=cycle,
                             metadata=metadata)
            return original(addr, cycle, metadata=metadata)
        return enqueue

    def _make_write_line(self, original: Callable) -> Callable:
        def write_line(line_addr: int, data: bytes):
            if self.active:
                self._record(KIND_LINE, addr=line_addr,
                             payload=bytes(data))
            return original(line_addr, data)
        return write_line

    def _make_crash(self, original: Callable) -> Callable:
        def crash():
            if self.active:
                if self.at_crash is not None:
                    self.at_crash()
                self.active = False
            return original()
        return crash

    def _record(self, kind: str, **fields_: Any) -> None:
        event = PersistEvent(seq=self._seq, kind=kind, op=self._op,
                             flush=self._flush, **fields_)
        self._seq += 1
        if self._op >= 0:
            self._op_events.append(event)
        self.listener(event)


def materialization_factory(config: Any) -> Callable[[], Any]:
    """Default controller factory for crash-state materialization.

    Recovery trackers (STAR/AGIT/ASIT) are in-memory observers whose
    shadow structures the explorer does not replay; materialized states
    strip them so recovery takes the tracker-free (counter-summing)
    path.  The persist stream itself is identical either way — see
    docs/crash-exploration.md for the documented simplification.
    """
    if getattr(config, "recovery_tracker", "none") != "none":
        config = config.with_(recovery_tracker="none")
    return lambda: make_controller(config)


# ----------------------------------------------------------------------
def _record_run(controller: Any, config: Any,
                factory: Callable[[], Any] | None,
                drive: Callable[[], None]) -> Recording:
    """Snapshot the pre-run NVM image and root registers, then record
    every persist event ``drive`` causes."""
    events: list[PersistEvent] = []
    baseline_lines = dict(controller.nvm._lines)
    baseline_roots = {register.name: register.snapshot()
                      for register in root_registers(controller)}
    recorder = PersistRecorder(controller, events.append).attach()
    try:
        drive()
    finally:
        recorder.detach()
    return Recording(
        scheme=controller.name,
        events=events,
        baseline_lines=baseline_lines,
        baseline_roots=baseline_roots,
        config=config,
        factory=factory or materialization_factory(config),
        counter_bits=controller.amap.counter_bits,
    )


def record_writes(config: Any, line_addrs: Sequence[int],
                  factory: Callable[[], Any] | None = None,
                  *, start_cycle: int = 1_000,
                  gap: int = _OP_GAP) -> Recording:
    """Drive persistent stores at ``line_addrs`` directly through a
    fresh controller and return the :class:`Recording`.

    The generous inter-op gap lets delayed root updates (eager family)
    land between operations; the final settle tick flushes the rest as
    trailing stand-alone units — the scheme's crash window, which cut
    enumeration can then include or exclude.
    """
    make = factory or materialization_factory(config)
    controller = make()

    def drive() -> None:
        cycle = start_cycle
        for addr in line_addrs:
            controller.write_data(addr, None, cycle, persist=True)
            cycle += gap
        controller.tick(cycle + _SETTLE)

    return _record_run(controller, config, make, drive)


def record_system_run(system: Any, trace: Iterable[Any],
                      factory: Callable[[], Any] | None = None) -> Recording:
    """Record a full :class:`repro.sim.system.System` workload run."""
    def drive() -> None:
        system.run(trace)
        system.controller.tick(system.cycle + _SETTLE)

    return _record_run(system.controller, system.config, factory, drive)
