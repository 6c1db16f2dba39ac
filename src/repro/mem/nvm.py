"""The simulated NVM device: persistent line-granularity storage plus the
PCM timing behaviour from :mod:`repro.mem.timing`.

Everything written here survives a simulated crash — the device *is* the
persistent domain.  Volatile structures (caches, WPQ contents under plain
ADR-less operation) live elsewhere and are dropped by crash injection.

Storage is a sparse ``{line_address: bytes}`` map so multi-gigabyte
configurations cost only what is actually touched.  Reads of never-written
lines return zero lines, matching freshly-initialised media, and
:meth:`NVMDevice.stored_lines` lists what a range holds, so a scan of a
region (recovery reading the counter blocks) costs what was written to
it rather than the size of the region.
"""

from __future__ import annotations

from repro.errors import AddressError
from repro.mem.address import CACHE_LINE_SIZE
from repro.mem.timing import TimingModel
from repro.obs import events as ev
from repro.obs.recorder import NULL_RECORDER
from repro.util.stats import StatGroup

ZERO_LINE = bytes(CACHE_LINE_SIZE)
#: Lines per PCM row buffer (a 4 KB row).
LINES_PER_ROW = 64


class NVMDevice:
    """Byte-addressable persistent memory with PCM read/write timing.

    The device exposes *functional* access (:meth:`read_line`,
    :meth:`write_line`) and *timing* queries (:meth:`read_latency`), plus a
    per-bank open-row model: consecutive reads to the same 4 KB row hit the
    row buffer and skip the activate.
    """

    def __init__(self, capacity: int, timing: TimingModel | None = None,
                 stats: StatGroup | None = None,
                 track_wear: bool = False,
                 recorder=None) -> None:
        if capacity <= 0 or capacity % CACHE_LINE_SIZE:
            raise AddressError(
                f"capacity must be a positive multiple of {CACHE_LINE_SIZE}")
        self.capacity = capacity
        self.timing = timing or TimingModel()
        # Optional per-line wear tracking (endurance analysis); counted
        # writes only — peek/poke are injection machinery, not traffic.
        from repro.mem.wear import WearTracker
        self.wear: "WearTracker | None" = \
            WearTracker("nvm") if track_wear else None
        self._lines: dict[int, bytes] = {}
        self._open_rows: dict[int, int] = {}  # bank -> open row id
        self.obs = recorder if recorder is not None else NULL_RECORDER
        self.stats = stats or StatGroup("nvm")
        self._reads = self.stats.counter("reads")
        self._writes = self.stats.counter("writes")
        self._row_hits = self.stats.counter("row_buffer_hits")
        self._row_misses = self.stats.counter("row_buffer_misses")

    # ------------------------------------------------------------------
    # Functional access
    # ------------------------------------------------------------------
    def _check(self, line_addr: int) -> None:
        if line_addr % CACHE_LINE_SIZE:
            raise AddressError(f"{line_addr:#x} is not line-aligned")
        if not 0 <= line_addr < self.capacity:
            raise AddressError(
                f"{line_addr:#x} outside device capacity {self.capacity:#x}")

    def read_line(self, line_addr: int) -> bytes:
        """Read one 64 B line (functional; counts an array read)."""
        self._check(line_addr)
        self._reads.value += 1
        hit = self._touch_row(line_addr)
        if self.obs.enabled:
            bank, _ = self._row_of(line_addr)
            self.obs.instant(ev.EV_NVM_READ, ev.TRACK_NVM,
                             addr=line_addr, bank=bank, row_hit=hit)
        return self._lines.get(line_addr, ZERO_LINE)

    def write_line(self, line_addr: int, data: bytes) -> None:
        """Persist one 64 B line."""
        self._check(line_addr)
        if len(data) != CACHE_LINE_SIZE:
            raise AddressError(
                f"line writes must be {CACHE_LINE_SIZE} bytes, "
                f"got {len(data)}")
        self._writes.value += 1
        hit = self._touch_row(line_addr)
        if self.obs.enabled:
            bank, _ = self._row_of(line_addr)
            self.obs.instant(ev.EV_NVM_WRITE, ev.TRACK_NVM,
                             addr=line_addr, bank=bank, row_hit=hit)
        if self.wear is not None:
            self.wear.record(line_addr)
        self._lines[line_addr] = bytes(data)

    def peek_line(self, line_addr: int) -> bytes:
        """Read without counting an access (for recovery-time inspection
        and attack injection, which are not part of measured traffic)."""
        self._check(line_addr)
        return self._lines.get(line_addr, ZERO_LINE)

    def poke_line(self, line_addr: int, data: bytes) -> None:
        """Write without counting an access (attack injection / test
        setup)."""
        self._check(line_addr)
        if len(data) != CACHE_LINE_SIZE:
            raise AddressError("poke_line needs a full line")
        self._lines[line_addr] = bytes(data)

    def stored_lines(self, start: int, stop: int) -> list[tuple[int, bytes]]:
        """``(line_address, image)`` for every stored line in
        ``[start, stop)``, in address order, without counting accesses.

        A line that was never written is absent: it reads as a zero line.
        A line poked back to zeros was stored and is listed.  The cost is
        one pass over the stored lines, however large the range.
        """
        return sorted((addr, raw) for addr, raw in self._lines.items()
                      if start <= addr < stop)

    @property
    def lines_written(self) -> int:
        """Distinct lines ever stored (media footprint)."""
        return len(self._lines)

    # ------------------------------------------------------------------
    # Timing
    # ------------------------------------------------------------------
    def _row_of(self, line_addr: int) -> tuple[int, int]:
        row = line_addr // (CACHE_LINE_SIZE * LINES_PER_ROW)
        bank = row % self.timing.banks
        return bank, row

    def _touch_row(self, line_addr: int) -> bool:
        """Update the open-row state; returns True on a row-buffer hit."""
        bank, row = self._row_of(line_addr)
        hit = self._open_rows.get(bank) == row
        self._open_rows[bank] = row
        if hit:
            self._row_hits.value += 1
        else:
            self._row_misses.value += 1
        return hit

    def read_latency(self, line_addr: int) -> int:
        """Cycles for a read issued now (consults the open-row state
        without modifying it — call before :meth:`read_line`)."""
        bank, row = self._row_of(line_addr)
        if self._open_rows.get(bank) == row:
            return self.timing.row_hit_read_cycles
        return self.timing.read_cycles

    @property
    def write_drain_cycles(self) -> int:
        """Steady-state cycles between WPQ drains (device write
        bandwidth)."""
        return self.timing.write_drain_cycles
