"""Equivalence and safety of the hot path's memos and direct MACs.

The optimization contract (docs/performance.md) has two halves:

* **equivalence** — every memoized function returns exactly what its
  unmemoized original returned, for every input, and the MAC is the
  plain keyed blake2b however it is reached;
* **safety** — a verify that passed moments ago must fail after a
  tamper.  Attack injection (``repro.crash.attacks``) tampers with
  counters by in-place mutation; every verify recomputes its MAC, and
  the memos that remain are keyed by the *content* they summarise.
"""

import hashlib
import random

import pytest

from repro.cme.counters import MINOR_LIMIT, MINORS_PER_BLOCK, CounterBlock
from repro.errors import IntegrityError
from repro.mem.address import COUNTER_BITS_FOR_ARITY, AddressMap
from repro.tree.node import SITNode
from repro.util.crypto import KeyedMac

from tests.conftest import SMALL_CAPACITY, TINY_CAPACITY
from tests.secure.test_runtime_detection import SECURE, force_refetch, warmed


# ----------------------------------------------------------------------
# AddressMap.branch_coords
# ----------------------------------------------------------------------
def reference_branch(amap: AddressMap, block_index: int):
    """The unmemoized original: an explicit parent_coords walk from the
    leaf to just below the on-chip root."""
    coords = [(0, block_index)]
    level, index = 0, block_index
    while level + 1 < amap.tree_levels:
        level, index = amap.parent_coords(level, index)
        coords.append((level, index))
    return tuple(coords)


class TestBranchCoordsMemo:
    @pytest.mark.parametrize("capacity", [SMALL_CAPACITY, TINY_CAPACITY])
    def test_matches_reference_across_full_address_space(self, capacity):
        amap = AddressMap(capacity)
        for block in range(amap.num_counter_blocks):
            assert amap.branch_coords(block) \
                == reference_branch(amap, block)

    def test_chains_are_interned(self):
        amap = AddressMap(SMALL_CAPACITY)
        assert amap.branch_coords(7) is amap.branch_coords(7)

    def test_memo_is_per_instance(self):
        one, two = AddressMap(SMALL_CAPACITY), AddressMap(SMALL_CAPACITY)
        assert one.branch_coords(3) == two.branch_coords(3)

    def test_levels_ascend_leaf_to_below_root(self):
        amap = AddressMap(SMALL_CAPACITY)
        chain = amap.branch_coords(0)
        assert [level for level, _ in chain] \
            == list(range(amap.tree_levels))


# ----------------------------------------------------------------------
# KeyedMac
# ----------------------------------------------------------------------
class TestKeyedMacMemo:
    """``KeyedMac`` keeps no memo: every MAC copies one pre-keyed state.
    Whatever the state sharing, the value must stay the keyed blake2b
    of the serialised parts."""

    def test_mac_equals_a_freshly_keyed_blake2b(self):
        mac = KeyedMac(b"equivalence-key")
        derived = hashlib.blake2b(b"equivalence-key", digest_size=32).digest()
        rng = random.Random(5)
        for _ in range(200):
            parts = tuple(
                rng.randrange(1 << 40) if rng.random() < 0.5
                else rng.randbytes(rng.randrange(1, 40))
                for _ in range(rng.randrange(1, 4)))
            reference = hashlib.blake2b(key=derived, digest_size=8)
            for part in parts:
                reference.update(part.to_bytes(8, "little")
                                 if isinstance(part, int) else part)
            expected = int.from_bytes(reference.digest(), "little")
            assert mac.mac(*parts) == expected
            # A repeat copies the same shared state and must agree too.
            assert mac.mac(*parts) == mac.mac_uncached(*parts) == expected

    def test_different_keys_still_differ(self):
        assert KeyedMac(b"key-a").mac(1) != KeyedMac(b"key-b").mac(1)


# ----------------------------------------------------------------------
# Tamper after a cached verify (unit level)
# ----------------------------------------------------------------------
class TestTamperAfterCachedVerify:
    def test_leaf_minor_tamper(self):
        mac = KeyedMac(b"leaf-tamper")
        leaf = CounterBlock(0, major=3, minors=[1] * MINORS_PER_BLOCK)
        leaf.seal(mac, node_addr=0x1000, parent_counter=7)
        assert leaf.verify(mac, 0x1000, 7)
        assert leaf.verify(mac, 0x1000, 7)   # a repeat verify recomputes
        leaf.minors[5] += 1                  # roll_forward_leaf's mutation
        assert not leaf.verify(mac, 0x1000, 7)

    def test_leaf_major_tamper(self):
        mac = KeyedMac(b"leaf-tamper")
        leaf = CounterBlock(1, major=9, minors=[2] * MINORS_PER_BLOCK)
        leaf.seal(mac, 0x1040, 4)
        assert leaf.verify(mac, 0x1040, 4)
        leaf.major += 1
        assert not leaf.verify(mac, 0x1040, 4)

    def test_leaf_restore_reverifies(self):
        """Undoing the tamper restores the original content, so the
        block verifies again — nothing holds a stale negative."""
        mac = KeyedMac(b"leaf-tamper")
        leaf = CounterBlock(2, major=5, minors=[3] * MINORS_PER_BLOCK)
        leaf.seal(mac, 0x1080, 2)
        assert leaf.verify(mac, 0x1080, 2)
        leaf.minors[0] += 1
        assert not leaf.verify(mac, 0x1080, 2)
        leaf.minors[0] -= 1
        assert leaf.verify(mac, 0x1080, 2)

    def test_sit_node_counter_tamper(self):
        mac = KeyedMac(b"node-tamper")
        node = SITNode(level=2, index=4, counters=[9] * 8)
        node.seal(mac, node_addr=0x2000, parent_counter=3)
        assert node.verify(mac, 0x2000, 3)
        assert node.verify(mac, 0x2000, 3)   # a repeat verify
        node.counters[0] += 1
        assert not node.verify(mac, 0x2000, 3)

    def test_parent_counter_mismatch_not_cached_through(self):
        """A cached verify against one parent counter must not leak into
        a verify against a different (replayed) parent counter."""
        mac = KeyedMac(b"node-tamper")
        node = SITNode(level=1, index=0, counters=[4] * 8)
        node.seal(mac, 0x3000, 11)
        assert node.verify(mac, 0x3000, 11)
        assert not node.verify(mac, 0x3000, 10)


# ----------------------------------------------------------------------
# Tamper after cached verifies (controller level)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("scheme", SECURE)
class TestControllerDetectionWithWarmMemos:
    """The runtime-detection suite, replayed after deliberately repeated
    verifies: the warmup loop verifies the same few leaves over and
    over (every remaining memo hot), then the media is tampered — the
    next fetch must still raise."""

    def test_leaf_tamper_detected_after_cached_verifies(self, scheme):
        controller = warmed(scheme)
        # Extra re-reads of block 0's data so its leaf verifies
        # several times before the tamper.
        for i in range(8):
            controller.read_data(0, cycle=10**6 + i * 100)
        addr = controller.amap.counter_block_addr(0)
        image = bytearray(controller.nvm.peek_line(addr))
        image[4] ^= 0x40
        controller.nvm.poke_line(addr, bytes(image))
        force_refetch(controller)
        with pytest.raises(IntegrityError):
            controller.read_data(0, cycle=10**8)


# ----------------------------------------------------------------------
# Serialisation memos (parse + image)
# ----------------------------------------------------------------------
class TestSerialisationMemoEquivalence:
    def test_counter_block_roundtrip_random(self):
        rng = random.Random(11)
        mac = KeyedMac()
        for _ in range(100):
            block = CounterBlock(
                rng.randrange(256), major=rng.randrange(1 << 64),
                minors=[rng.randrange(MINOR_LIMIT)
                        for _ in range(MINORS_PER_BLOCK)])
            block.seal(mac, 64, rng.randrange(1 << 56))
            raw = block.to_bytes()
            first = CounterBlock.from_bytes(block.index, raw)
            second = CounterBlock.from_bytes(block.index, raw)  # memo hit
            for parsed in (first, second):
                assert (parsed.major, parsed.minors, parsed.hmac) \
                    == (block.major, block.minors, block.hmac)
            # Parsed blocks are freely mutable: they must not share state
            # with each other or poison the parse memo.
            first.minors[0] ^= 1
            third = CounterBlock.from_bytes(block.index, raw)
            assert third.minors == block.minors

    @pytest.mark.parametrize("arity", sorted(COUNTER_BITS_FOR_ARITY))
    def test_sit_node_roundtrip_random(self, arity):
        bits = COUNTER_BITS_FOR_ARITY[arity]
        rng = random.Random(arity)
        mac = KeyedMac()
        for _ in range(50):
            node = SITNode(
                level=1, index=rng.randrange(64),
                counters=[rng.randrange(1 << bits) for _ in range(arity)],
                arity=arity)
            node.seal(mac, 4096, rng.randrange(1 << bits))
            raw = node.to_bytes()
            first = SITNode.from_bytes(1, node.index, raw, arity=arity)
            second = SITNode.from_bytes(1, node.index, raw, arity=arity)
            for parsed in (first, second):
                assert (parsed.counters, parsed.hmac) \
                    == (node.counters, node.hmac)
            first.counters[0] ^= 1
            third = SITNode.from_bytes(1, node.index, raw, arity=arity)
            assert third.counters == node.counters

    def test_image_memo_shared_across_equal_content(self):
        """Two distinct blocks with equal counters produce the identical
        image; different content produces a different image."""
        same_a = CounterBlock(0, major=7, minors=[1] * MINORS_PER_BLOCK)
        same_b = CounterBlock(9, major=7, minors=[1] * MINORS_PER_BLOCK)
        other = CounterBlock(0, major=8, minors=[1] * MINORS_PER_BLOCK)
        assert same_a._counter_image() == same_b._counter_image()
        assert same_a._counter_image() != other._counter_image()
