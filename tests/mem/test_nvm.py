"""The NVM device: functional storage + row-buffer timing."""

import pytest

from repro.errors import AddressError
from repro.mem.nvm import LINES_PER_ROW, NVMDevice
from repro.mem.timing import TimingModel

CAP = 1024 * 1024


@pytest.fixture
def nvm() -> NVMDevice:
    return NVMDevice(CAP)


class TestFunctional:
    def test_fresh_lines_read_zero(self, nvm):
        assert nvm.read_line(0) == bytes(64)

    def test_write_read_roundtrip(self, nvm):
        payload = bytes(range(64))
        nvm.write_line(128, payload)
        assert nvm.read_line(128) == payload

    def test_overwrite(self, nvm):
        nvm.write_line(0, b"\x01" * 64)
        nvm.write_line(0, b"\x02" * 64)
        assert nvm.read_line(0) == b"\x02" * 64

    def test_misaligned_rejected(self, nvm):
        with pytest.raises(AddressError):
            nvm.read_line(1)

    def test_out_of_range_rejected(self, nvm):
        with pytest.raises(AddressError):
            nvm.write_line(CAP, bytes(64))

    def test_partial_line_write_rejected(self, nvm):
        with pytest.raises(AddressError):
            nvm.write_line(0, b"short")

    def test_lines_written_counts_distinct(self, nvm):
        nvm.write_line(0, bytes(64))
        nvm.write_line(0, bytes(64))
        nvm.write_line(64, bytes(64))
        assert nvm.lines_written == 2

    def test_bad_capacity_rejected(self):
        with pytest.raises(AddressError):
            NVMDevice(100)

    def test_stored_lines_lists_a_range_in_address_order(self, nvm):
        for addr in (640, 64, 4096, 128):
            nvm.write_line(addr, addr.to_bytes(64, "little"))
        nvm.poke_line(192, bytes(64))  # zeroed, but stored
        assert nvm.stored_lines(64, 4096) == [
            (64, (64).to_bytes(64, "little")),
            (128, (128).to_bytes(64, "little")),
            (192, bytes(64)),
            (640, (640).to_bytes(64, "little"))]
        assert nvm.stored_lines(256, 640) == []


class TestAccessCounting:
    def test_reads_and_writes_counted(self, nvm):
        nvm.read_line(0)
        nvm.write_line(0, bytes(64))
        assert nvm.stats.counter("reads").value == 1
        assert nvm.stats.counter("writes").value == 1

    def test_peek_poke_uncounted(self, nvm):
        nvm.poke_line(0, bytes(64))
        nvm.peek_line(0)
        assert nvm.stats.counter("reads").value == 0
        assert nvm.stats.counter("writes").value == 0

    def test_stored_lines_uncounted(self, nvm):
        nvm.poke_line(0, b"\x01" * 64)
        nvm.stored_lines(0, CAP)
        assert nvm.stats.counter("reads").value == 0

    def test_peek_sees_poked_data(self, nvm):
        nvm.poke_line(0, b"\x07" * 64)
        assert nvm.peek_line(0) == b"\x07" * 64


class TestRowBuffer:
    def test_first_access_misses(self, nvm):
        assert nvm.read_latency(0) == nvm.timing.read_cycles

    def test_same_row_hits(self, nvm):
        nvm.read_line(0)
        assert nvm.read_latency(64) == nvm.timing.row_hit_read_cycles

    def test_row_conflict_misses(self, nvm):
        row_bytes = 64 * LINES_PER_ROW
        conflict = row_bytes * nvm.timing.banks  # same bank, next row
        nvm.read_line(0)
        assert nvm.read_latency(conflict) == nvm.timing.read_cycles

    def test_different_banks_independent(self, nvm):
        row_bytes = 64 * LINES_PER_ROW
        nvm.read_line(0)
        nvm.read_line(row_bytes)  # lands in a different bank
        assert nvm.read_latency(0) == nvm.timing.row_hit_read_cycles

    def test_hit_statistics(self, nvm):
        nvm.read_line(0)
        nvm.read_line(64)
        assert nvm.stats.counter("row_buffer_hits").value == 1
        assert nvm.stats.counter("row_buffer_misses").value == 1

    def test_drain_cycles_exposed(self):
        nvm = NVMDevice(CAP, TimingModel(banks=8))
        assert nvm.write_drain_cycles == TimingModel(banks=8).write_drain_cycles
