"""Split-counter blocks for counter-mode encryption.

A counter block covers 64 user-data lines with one shared *major* counter
plus one narrow per-line *minor* counter (paper §II-B).  Counter blocks
double as the **leaf nodes of the SGX-style integrity tree** (§II-D3), so
each block also carries a 64-bit HMAC.

Layout substitution (documented in DESIGN.md §2): the paper quotes 7-bit
minors, but a 64-bit major + 64x7-bit minors already fills the whole 64 B
line, leaving no room for the leaf HMAC the recovery scheme verifies.  We
shrink minors to 6 bits so the leaf node packs exactly into one line::

    64 (major) + 64 x 6 (minors) + 64 (HMAC) = 512 bits = 64 B

Overflow behaviour is identical, just more frequent (every 64 writes to a
line instead of 128), which if anything *stresses* the overflow path the
paper glosses over.

The **dummy counter** of a leaf (paper Fig 7, generalised to split
counters) is defined as ``major * 64 + sum(minors) (mod 2^56)``.  It grows
by exactly 1 per ordinary write; on an overflow it jumps by
``64 - sum(minors_before_reset)`` (possibly "backwards" modularly), and
SCUE propagates that *delta* to the Recovery_root so the
root-equals-sum-of-leaf-dummies invariant stays exact (DESIGN.md §2).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import AddressError, ConfigError
from repro.mem.address import CACHE_LINE_SIZE
from repro.util.bitfield import checked_sum
from repro.util.crypto import KeyedMac

MINOR_BITS = 6
MINORS_PER_BLOCK = 64
MAJOR_BITS = 64
#: Counter width used for dummy-counter arithmetic (matches SIT node
#: counters so parent counters can hold any child sum).
COUNTER_SUM_BITS = 56
MINOR_LIMIT = 1 << MINOR_BITS

_MAJOR_MASK = (1 << MAJOR_BITS) - 1
_HMAC_MASK = (1 << 64) - 1
#: Bits of (major + minors) counter payload in the 64 B image.
_IMAGE_BITS = MAJOR_BITS + MINORS_PER_BLOCK * MINOR_BITS
_IMAGE_BYTES = (_IMAGE_BITS + 7) // 8

#: Raw-image parse memo for :meth:`CounterBlock.from_bytes`.  The access
#: loop re-loads the same few thousand media images constantly; parsing is
#: a pure function of the 64 raw bytes, so the field split is cached (the
#: constructed block is always fresh — callers mutate blocks freely).
_PARSE_MEMO: dict[bytes, tuple[int, tuple[int, ...], int]] = {}
_PARSE_MEMO_LIMIT = 1 << 15

#: Content-keyed counter-image memo: packing is a pure function of
#: (major, minors), and the memo outlives a ``System``, so the cells of a
#: figure that replay one trace under each scheme pack the same leaf
#: states again (90-95 % hits on perfbench's fig-spec and fig-persist).
#: Any counter mutation changes the key.
_IMAGE_MEMO: dict[tuple[int, tuple[int, ...]], bytes] = {}
_IMAGE_MEMO_LIMIT = 1 << 15


@dataclass(frozen=True, slots=True)
class OverflowEvent:
    """Raised data for a minor-counter overflow: the caller (the secure
    memory controller) must re-encrypt all 64 covered data lines with the
    new major counter."""

    block_index: int
    old_major: int
    new_major: int
    #: dummy-counter change caused by the overflowing write, to be
    #: propagated to ancestors / the Recovery_root instead of +1.
    dummy_delta: int


@dataclass(slots=True)
class CounterBlock:
    """One CME counter block == one SIT leaf node.

    ``index`` is the block's position in the counter region (its media
    address is ``AddressMap.counter_block_addr(index)``).  ``hmac`` is the
    node's integrity MAC; it is marked stale by counter mutations and
    recomputed by the owning scheme before the block is persisted.
    """

    index: int
    major: int = 0
    minors: list[int] = field(default_factory=lambda: [0] * MINORS_PER_BLOCK)
    hmac: int = 0
    hmac_stale: bool = False

    def __post_init__(self) -> None:
        if len(self.minors) != MINORS_PER_BLOCK:
            raise ConfigError(
                f"counter block needs {MINORS_PER_BLOCK} minors")

    # ------------------------------------------------------------------
    # Counter arithmetic
    # ------------------------------------------------------------------
    def minor_of(self, slot: int) -> int:
        if not 0 <= slot < MINORS_PER_BLOCK:
            raise AddressError(f"minor slot {slot} out of range")
        return self.minors[slot]

    def dummy_counter(self, bits: int = COUNTER_SUM_BITS) -> int:
        """The leaf's dummy counter: its total write count,
        ``major * 64 + sum(minors)`` modulo the tree's counter width
        (56-bit for the paper's 8-ary layout; see module docstring)."""
        return (self.major * MINORS_PER_BLOCK + sum(self.minors)) \
            & ((1 << bits) - 1)

    def bump(self, slot: int) -> OverflowEvent | None:
        """Record one write to the data line in ``slot``.

        Increments the minor counter; on overflow performs the major bump +
        minor reset and returns the :class:`OverflowEvent` (otherwise
        ``None``).  Always leaves :attr:`hmac_stale` set.
        """
        if not 0 <= slot < MINORS_PER_BLOCK:
            raise AddressError(f"minor slot {slot} out of range")
        self.hmac_stale = True
        bumped = self.minors[slot] + 1
        if bumped < MINOR_LIMIT:
            # No overflow: the dummy counter grows by exactly 1, no need
            # to sum 64 minors twice to discover that.
            self.minors[slot] = bumped
            return None
        before = self.dummy_counter()
        self.minors[slot] = bumped
        old_major = self.major
        self.major += 1
        self.minors = [0] * MINORS_PER_BLOCK
        delta = checked_sum([self.dummy_counter(), -before],
                            COUNTER_SUM_BITS)
        return OverflowEvent(self.index, old_major, self.major, delta)

    # ------------------------------------------------------------------
    # Integrity
    # ------------------------------------------------------------------
    def _counter_image(self) -> bytes:
        # Direct shift-or packing of the (major, minors) fields into a
        # little-endian image, major in the lowest bits.  Field-width
        # validation is kept: an oversized counter is model corruption
        # and must not pack silently.
        key = (self.major, tuple(self.minors))
        image = _IMAGE_MEMO.get(key)
        if image is not None:
            return image
        value = self.major & _MAJOR_MASK
        shift = MAJOR_BITS
        for minor in self.minors:
            if minor < 0 or minor >> MINOR_BITS:
                raise ConfigError(
                    f"value {minor} does not fit in {MINOR_BITS} bits")
            value |= minor << shift
            shift += MINOR_BITS
        image = value.to_bytes(_IMAGE_BYTES, "little")
        if len(_IMAGE_MEMO) >= _IMAGE_MEMO_LIMIT:
            _IMAGE_MEMO.clear()
        _IMAGE_MEMO[key] = image
        return image

    def compute_hmac(self, mac: KeyedMac, node_addr: int,
                     parent_counter: int) -> int:
        """HMAC over (address, all counters, parent counter) — the SIT node
        MAC recipe of Fig 4 applied to the leaf layout."""
        return mac.mac(node_addr, self._counter_image(), parent_counter)

    def seal(self, mac: KeyedMac, node_addr: int, parent_counter: int) -> None:
        """Recompute and store the HMAC (done when the block is about to be
        persisted)."""
        self.hmac = self.compute_hmac(mac, node_addr, parent_counter)
        self.hmac_stale = False

    @property
    def is_blank(self) -> bool:
        """True for a never-written block (all-zero media image); blank
        blocks verify against a zero parent counter without an HMAC."""
        return self.hmac == 0 and self.major == 0 and not any(self.minors)

    def verify(self, mac: KeyedMac, node_addr: int,
               parent_counter: int) -> bool:
        """Check the stored HMAC against a recomputation (blank blocks are
        trusted-fresh iff the parent counter is also zero)."""
        if self.is_blank:
            return parent_counter == 0
        return self.hmac == self.compute_hmac(mac, node_addr, parent_counter)

    # ------------------------------------------------------------------
    # Serialisation (the on-media 64 B image)
    # ------------------------------------------------------------------
    def to_bytes(self) -> bytes:
        if self.hmac < 0 or self.hmac >> 64:
            raise ConfigError(
                f"value {self.hmac} does not fit in 64 bits")
        return self._counter_image() + self.hmac.to_bytes(8, "little")

    @classmethod
    def from_bytes(cls, index: int, data: bytes) -> "CounterBlock":
        if len(data) != CACHE_LINE_SIZE:
            raise ConfigError("counter block image must be 64 bytes")
        parsed = _PARSE_MEMO.get(data)
        if parsed is None:
            value = int.from_bytes(data, "little")
            major = value & _MAJOR_MASK
            minors = tuple(
                (value >> shift) & (MINOR_LIMIT - 1)
                for shift in range(MAJOR_BITS, _IMAGE_BITS, MINOR_BITS))
            hmac = (value >> _IMAGE_BITS) & _HMAC_MASK
            if len(_PARSE_MEMO) >= _PARSE_MEMO_LIMIT:
                _PARSE_MEMO.clear()
            parsed = _PARSE_MEMO[bytes(data)] = (major, minors, hmac)
        major, minors, hmac = parsed
        return cls(index=index, major=major, minors=list(minors), hmac=hmac)

    def clone(self) -> "CounterBlock":
        """Deep copy (attack injection keeps pristine snapshots)."""
        return CounterBlock(self.index, self.major, list(self.minors),
                            self.hmac, self.hmac_stale)
