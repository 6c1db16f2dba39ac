"""SIT node: layout, counter arithmetic, sealing and blank semantics."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigError
from repro.mem.address import COUNTER_BITS_FOR_ARITY, TREE_ARITY
from repro.tree.node import COUNTER_BITS, COUNTER_MASK, SITNode
from repro.util.crypto import KeyedMac


class TestCounters:
    def test_bump(self):
        node = SITNode(1, 0)
        node.bump_counter(3)
        assert node.counter(3) == 1
        assert node.hmac_stale

    def test_bump_with_delta(self):
        node = SITNode(1, 0)
        node.bump_counter(0, 5)
        assert node.counter(0) == 5

    def test_bump_wraps_modularly(self):
        node = SITNode(1, 0)
        node.set_counter(0, COUNTER_MASK)
        node.bump_counter(0)
        assert node.counter(0) == 0

    def test_set_counter_masks(self):
        node = SITNode(1, 0)
        node.set_counter(0, 1 << COUNTER_BITS)
        assert node.counter(0) == 0

    def test_dummy_counter_is_modular_sum(self):
        node = SITNode(1, 0, counters=[COUNTER_MASK, 2, 0, 0, 0, 0, 0, 0])
        assert node.dummy_counter() == 1

    def test_wrong_counter_count_rejected(self):
        with pytest.raises(ConfigError):
            SITNode(1, 0, counters=[0] * 7)


class TestBlank:
    def test_fresh_node_blank(self):
        assert SITNode(1, 0).is_blank

    def test_counter_makes_not_blank(self):
        node = SITNode(1, 0)
        node.bump_counter(0)
        assert not node.is_blank

    def test_blank_verifies_against_zero_parent(self):
        mac = KeyedMac(b"k")
        node = SITNode(1, 0)
        assert node.verify(mac, 0x1000, 0)
        assert not node.verify(mac, 0x1000, 1)

    @pytest.mark.parametrize("arity", [8, 16, 32])
    def test_blank_line_is_the_sealed_blank_node(self, arity):
        """Recovery writes blank nodes from one keyed state without
        building them; each line must equal the sealed, packed node."""
        mac = KeyedMac(b"k")
        keyed = mac.keyed_state()
        for level, addr in ((1, 0), (1, 0x40), (2, 0x12340),
                            (3, 1 << 34), (5, (1 << 40) - 64)):
            node = SITNode(level, 3, arity=arity)
            node.seal(mac, addr, 0)
            assert SITNode.blank_line(keyed, addr) == node.to_bytes()
        # The state handed out is copied, never consumed.
        assert keyed.digest() == mac.keyed_state().digest()


class TestIntegrity:
    def test_seal_verify(self):
        mac = KeyedMac(b"k")
        node = SITNode(1, 0)
        node.bump_counter(2)
        node.seal(mac, 0x2000, parent_counter=1)
        assert node.verify(mac, 0x2000, 1)

    def test_verify_rejects_wrong_parent(self):
        mac = KeyedMac(b"k")
        node = SITNode(1, 0)
        node.bump_counter(2)
        node.seal(mac, 0x2000, 1)
        assert not node.verify(mac, 0x2000, 2)

    def test_verify_rejects_moved_node(self):
        mac = KeyedMac(b"k")
        node = SITNode(1, 0)
        node.bump_counter(2)
        node.seal(mac, 0x2000, 1)
        assert not node.verify(mac, 0x2040, 1)

    def test_verify_rejects_counter_tamper(self):
        mac = KeyedMac(b"k")
        node = SITNode(1, 0)
        node.bump_counter(2)
        node.seal(mac, 0x2000, 1)
        node.counters[0] = 99
        assert not node.verify(mac, 0x2000, 1)

    def test_seal_with_own_dummy_is_self_checkable(self):
        """The SCUE convention: sealed with its own counter sum, a node
        can be re-verified from content alone."""
        mac = KeyedMac(b"k")
        node = SITNode(1, 0, counters=[3, 1, 4, 1, 5, 9, 2, 6])
        node.seal(mac, 0x2000, node.dummy_counter())
        assert node.verify(mac, 0x2000, node.dummy_counter())


class TestSerialisation:
    @given(st.lists(st.integers(0, COUNTER_MASK),
                    min_size=TREE_ARITY, max_size=TREE_ARITY),
           st.integers(0, 2**64 - 1))
    @settings(max_examples=50, deadline=None)
    def test_roundtrip(self, counters, hmac):
        node = SITNode(2, 7, counters=list(counters), hmac=hmac)
        restored = SITNode.from_bytes(2, 7, node.to_bytes())
        assert restored.counters == list(counters)
        assert restored.hmac == hmac

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_image_equals_reference_packer(self, data):
        """Every layout's image is the counters shift-or packed, first
        counter lowest, then the HMAC as a little-endian 8-byte word."""
        arity = data.draw(st.sampled_from(sorted(COUNTER_BITS_FOR_ARITY)))
        bits = COUNTER_BITS_FOR_ARITY[arity]
        counters = data.draw(st.lists(st.integers(0, (1 << bits) - 1),
                                      min_size=arity, max_size=arity))
        hmac = data.draw(st.integers(0, 2**64 - 1))
        value = 0
        for slot, counter in enumerate(counters):
            value |= counter << (slot * bits)
        image = value.to_bytes(56, "little")
        node = SITNode(1, 0, counters=counters, hmac=hmac, arity=arity)
        assert node._counter_image() == image
        assert node.to_bytes() == image + hmac.to_bytes(8, "little")

    @pytest.mark.parametrize("arity", sorted(COUNTER_BITS_FOR_ARITY))
    @pytest.mark.parametrize("bad", ["oversized", "negative"])
    def test_unpackable_counter_rejected(self, arity, bad):
        bits = COUNTER_BITS_FOR_ARITY[arity]
        node = SITNode(1, 0, arity=arity)
        node.counters[arity - 1] = 1 << bits if bad == "oversized" else -1
        with pytest.raises(ConfigError, match=f"fit in {bits} bits"):
            node._counter_image()
        with pytest.raises(ConfigError):
            node.to_bytes()

    def test_image_is_one_line(self):
        assert len(SITNode(1, 0).to_bytes()) == 64

    def test_bad_image_size_rejected(self):
        with pytest.raises(ConfigError):
            SITNode.from_bytes(1, 0, b"short")

    def test_clone_independent(self):
        node = SITNode(1, 0)
        clone = node.clone()
        node.bump_counter(0)
        assert clone.counter(0) == 0
