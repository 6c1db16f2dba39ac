"""SGX-style integrity-tree node (paper §II-D3, Fig 4).

One 64 B node packs ``arity`` counters plus one 64-bit HMAC.  The paper's
SIT uses eight 56-bit counters (8 x 56 + 64 = 512 bits exactly); the
VAULT/MorphCtr-style wide layouts of §VII trade counter width for fan-out
(16 x 28 or 32 x 14 — see ``COUNTER_BITS_FOR_ARITY``), shortening the
tree at the cost of earlier counter wrap-around.

Counter ``j`` covers the node's ``j``-th child; the HMAC covers the
node's address, all counters, and the corresponding counter in the
*parent* node — the inverted dependency (low-level nodes depend on
high-level nodes) that makes vanilla SIT impossible to reconstruct
bottom-up (§III-D) and that SCUE's dummy counter breaks.

The **dummy counter** (Fig 7) is the modular sum of the node's counters;
under eager/SCUE updating it equals the node's parent counter.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from repro.errors import ConfigError
from repro.mem.address import COUNTER_BITS_FOR_ARITY, CACHE_LINE_SIZE, \
    TREE_ARITY
from repro.util.crypto import KeyedMac

#: The paper's default layout: eight 56-bit counters.
COUNTER_BITS = COUNTER_BITS_FOR_ARITY[TREE_ARITY]
HMAC_BITS = 64
COUNTER_MASK = (1 << COUNTER_BITS) - 1

#: Counter payload always fills 448 bits (arity x width == 448 for every
#: supported layout), leaving exactly 64 bits for the HMAC.
_IMAGE_BITS = 448
_IMAGE_BYTES = _IMAGE_BITS // 8
_HMAC_MASK = (1 << HMAC_BITS) - 1

#: A blank node's counter image, and what its MAC hashes after the
#: address: that image, then the zero parent counter as an 8-byte word.
_BLANK_IMAGE = bytes(_IMAGE_BYTES)
_BLANK_MAC_TAIL = _BLANK_IMAGE + bytes(8)

#: Raw-image parse memo (see the counterpart in repro.cme.counters): the
#: field split of a 64 B image is pure, so repeated loads of the same
#: media bytes skip the bit slicing.  Keyed by (image, arity) since the
#: same bytes mean different counters under a different layout.
_PARSE_MEMO: dict[tuple[bytes, int], tuple[tuple[int, ...], int]] = {}
_PARSE_MEMO_LIMIT = 1 << 15

#: Content-keyed counter-image memo (see repro.cme.counters counterpart):
#: seal + serialise pack the same state twice per flush; the second pack
#: is a dict hit.  Keyed by the counters themselves plus their width.
_IMAGE_MEMO: dict[tuple[int, tuple[int, ...]], bytes] = {}
_IMAGE_MEMO_LIMIT = 1 << 15


@dataclass(slots=True)
class SITNode:
    """An intermediate SIT node: ``arity`` counters + a 64-bit HMAC.

    ``level``/``index`` position the node in the tree (level 1 = parents
    of counter blocks); they are bookkeeping, not part of the media image
    — the node's *address* enters the HMAC instead.
    """

    level: int
    index: int
    counters: list[int] | None = None
    hmac: int = 0
    hmac_stale: bool = False
    arity: int = TREE_ARITY
    #: Derived from arity when omitted; an explicit mismatch is an error.
    counter_bits: int | None = field(default=None)

    def __post_init__(self) -> None:
        if self.arity not in COUNTER_BITS_FOR_ARITY:
            raise ConfigError(f"unsupported node arity {self.arity}")
        if self.counters is None:
            self.counters = [0] * self.arity
        if len(self.counters) != self.arity:
            raise ConfigError(
                f"SIT node needs {self.arity} counters, "
                f"got {len(self.counters)}")
        expected_bits = COUNTER_BITS_FOR_ARITY[self.arity]
        if self.counter_bits is None:
            self.counter_bits = expected_bits
        if self.counter_bits != expected_bits:
            raise ConfigError(
                f"arity {self.arity} needs {expected_bits}-bit counters")

    @property
    def _mask(self) -> int:
        return (1 << self.counter_bits) - 1

    # ------------------------------------------------------------------
    # Counters
    # ------------------------------------------------------------------
    def counter(self, slot: int) -> int:
        return self.counters[slot]

    def set_counter(self, slot: int, value: int) -> None:
        """Overwrite a child counter (SCUE: parent counter := child dummy)."""
        self.counters[slot] = value & self._mask
        self.hmac_stale = True

    def bump_counter(self, slot: int, delta: int = 1) -> None:
        """Increment a child counter (lazy/eager: +1 per child event)."""
        self.counters[slot] = (self.counters[slot] + delta) & self._mask
        self.hmac_stale = True

    def dummy_counter(self) -> int:
        """Sum of the node's counters modulo the counter width (Fig 7) —
        what the parent counter must equal under counter-summing."""
        return sum(self.counters) & ((1 << self.counter_bits) - 1)

    @property
    def is_blank(self) -> bool:
        """True for a never-written node (all-zero media image); blank
        nodes verify against a zero parent counter without an HMAC."""
        return self.hmac == 0 and not any(self.counters)

    # ------------------------------------------------------------------
    # Integrity
    # ------------------------------------------------------------------
    def _counter_image(self) -> bytes:
        # Direct shift-or packing (BitPacker-compatible layout, far
        # cheaper); width validation kept — oversized counters are model
        # corruption and must not pack silently.
        bits = self.counter_bits
        key = (bits, tuple(self.counters))
        image = _IMAGE_MEMO.get(key)
        if image is not None:
            return image
        value = 0
        shift = 0
        for counter in self.counters:
            if counter < 0 or counter >> bits:
                raise ConfigError(
                    f"value {counter} does not fit in {bits} bits")
            value |= counter << shift
            shift += bits
        image = value.to_bytes(_IMAGE_BYTES, "little")
        if len(_IMAGE_MEMO) >= _IMAGE_MEMO_LIMIT:
            _IMAGE_MEMO.clear()
        _IMAGE_MEMO[key] = image
        return image

    def compute_hmac(self, mac: KeyedMac, node_addr: int,
                     parent_counter: int) -> int:
        """HMAC(address || counters || parent counter) per Fig 4.

        Content-keyed memo: the key is the node's full counter state, so
        an unchanged node verifies from the cache while any mutation (by
        the scheme or by attack injection) forms a new key and recomputes.
        """
        memo = mac.memo
        key = ("sit", node_addr, tuple(self.counters), parent_counter)
        value = memo.get(key)
        if value is None:
            value = mac.mac_uncached(node_addr, self._counter_image(),
                                     parent_counter)
            if len(memo) >= mac.MEMO_LIMIT:
                memo.clear()
            memo[key] = value
        return value

    def seal(self, mac: KeyedMac, node_addr: int, parent_counter: int) -> None:
        self.hmac = self.compute_hmac(mac, node_addr, parent_counter)
        self.hmac_stale = False

    def verify(self, mac: KeyedMac, node_addr: int,
               parent_counter: int) -> bool:
        if self.is_blank:
            return parent_counter == 0
        return self.hmac == self.compute_hmac(mac, node_addr, parent_counter)

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def to_bytes(self) -> bytes:
        if self.hmac < 0 or self.hmac >> HMAC_BITS:
            raise ConfigError(
                f"value {self.hmac} does not fit in {HMAC_BITS} bits")
        value = int.from_bytes(self._counter_image(), "little") \
            | (self.hmac << _IMAGE_BITS)
        return value.to_bytes(CACHE_LINE_SIZE, "little")

    @staticmethod
    def blank_line(keyed: hashlib.blake2b, node_addr: int) -> bytes:
        """The media line of a blank node sealed against parent counter
        0, without building the node: the zero counter image, then
        HMAC(address || zero image || 0) as the 8-byte digest of a copy
        of ``keyed`` (:meth:`KeyedMac.keyed_state`).  Every layout packs
        its zero counters into the same 56 zero bytes, so the line
        equals ``seal(mac, node_addr, 0)`` + :meth:`to_bytes` at any
        arity."""
        state = keyed.copy()
        state.update(node_addr.to_bytes(8, "little") + _BLANK_MAC_TAIL)
        return _BLANK_IMAGE + state.digest()

    @classmethod
    def from_bytes(cls, level: int, index: int, data: bytes,
                   arity: int = TREE_ARITY) -> "SITNode":
        if len(data) != CACHE_LINE_SIZE:
            raise ConfigError("SIT node image must be 64 bytes")
        bits = COUNTER_BITS_FOR_ARITY[arity]
        memo_key = (bytes(data), arity)
        parsed = _PARSE_MEMO.get(memo_key)
        if parsed is None:
            value = int.from_bytes(data, "little")
            mask = (1 << bits) - 1
            counters = tuple((value >> shift) & mask
                             for shift in range(0, _IMAGE_BITS, bits))
            hmac = (value >> _IMAGE_BITS) & _HMAC_MASK
            if len(_PARSE_MEMO) >= _PARSE_MEMO_LIMIT:
                _PARSE_MEMO.clear()
            parsed = _PARSE_MEMO[memo_key] = (counters, hmac)
        counters, hmac = parsed
        return cls(level=level, index=index, counters=list(counters),
                   hmac=hmac, arity=arity, counter_bits=bits)

    def clone(self) -> "SITNode":
        return SITNode(self.level, self.index, list(self.counters),
                       self.hmac, self.hmac_stale, self.arity,
                       self.counter_bits)
