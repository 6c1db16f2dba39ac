"""The keyed MAC and OTP primitives: determinism, key separation, and the
properties the security arguments lean on."""

import pickle

import pytest
from hypothesis import given, strategies as st

from repro.util import crypto
from repro.util.crypto import KeyedMac, MAC_BYTES, OTP_BYTES, make_otp, xor_bytes


class TestKeyedMac:
    def test_deterministic(self):
        mac = KeyedMac(b"k1")
        assert mac.mac(b"hello", 42) == mac.mac(b"hello", 42)

    def test_different_keys_differ(self):
        assert KeyedMac(b"k1").mac(b"x") != KeyedMac(b"k2").mac(b"x")

    def test_different_inputs_differ(self):
        mac = KeyedMac(b"k")
        assert mac.mac(b"a") != mac.mac(b"b")

    def test_int_parts_are_positional(self):
        mac = KeyedMac(b"k")
        assert mac.mac(1, 2) != mac.mac(2, 1)

    def test_int_and_bytes_parts_compose(self):
        mac = KeyedMac(b"k")
        # An int part serialises as its 8-byte LE image.
        assert mac.mac(1) == mac.mac((1).to_bytes(8, "little"))

    def test_fits_64_bits(self):
        value = KeyedMac(b"k").mac(b"payload")
        assert 0 <= value < 2**64

    def test_mac_bytes_matches_mac(self):
        mac = KeyedMac(b"k")
        assert int.from_bytes(mac.mac_bytes(b"p"), "little") == mac.mac(b"p")
        assert len(mac.mac_bytes(b"p")) == MAC_BYTES

    def test_empty_key_rejected(self):
        with pytest.raises(ValueError):
            KeyedMac(b"")

    def test_long_keys_accepted(self):
        # blake2b caps raw keys at 64 bytes; ours are pre-hashed.
        KeyedMac(b"x" * 500).mac(b"data")

    @given(st.binary(min_size=0, max_size=128),
           st.binary(min_size=0, max_size=128))
    def test_collision_free_in_practice(self, a, b):
        mac = KeyedMac(b"k")
        if a != b:
            assert mac.mac(a, b"sep") != mac.mac(b, b"sep") or a == b

    def test_pickled_mac_still_macs_identically(self, monkeypatch):
        """Checkpoints pickle the whole system, so the pre-keyed state
        must not ride on the instance.  A copy unpickled where no state
        was ever built (a fresh table, as in a new process) rebuilds it
        and agrees with the original."""
        mac = KeyedMac(b"checkpoint-key")
        parts = (0x1234, b"counters" * 7, 99)
        expected = mac.mac(*parts)
        blob = pickle.dumps(mac, protocol=pickle.HIGHEST_PROTOCOL)
        monkeypatch.setattr(crypto, "_MAC_STATES", {})
        restored = pickle.loads(blob)
        assert restored.mac(*parts) == expected
        assert restored.keyed_state().digest() \
            == mac.keyed_state().digest()

    def test_keyed_state_is_a_private_copy(self):
        """Updating a handed-out state must not leak into later MACs."""
        mac = KeyedMac(b"k")
        before = mac.mac(b"data")
        mac.keyed_state().update(b"poison")
        assert mac.mac(b"data") == before


class TestMakeOtp:
    def test_length(self):
        assert len(make_otp(b"k", 0, 0, 0)) == OTP_BYTES

    def test_deterministic(self):
        assert make_otp(b"k", 64, 1, 2) == make_otp(b"k", 64, 1, 2)

    def test_unique_per_address(self):
        assert make_otp(b"k", 0, 0, 0) != make_otp(b"k", 64, 0, 0)

    def test_unique_per_minor(self):
        assert make_otp(b"k", 0, 0, 0) != make_otp(b"k", 0, 0, 1)

    def test_unique_per_major(self):
        assert make_otp(b"k", 0, 0, 0) != make_otp(b"k", 1, 0, 0)

    def test_key_dependent(self):
        assert make_otp(b"k1", 0, 0, 0) != make_otp(b"k2", 0, 0, 0)


class TestXorBytes:
    def test_roundtrip(self):
        a, b = b"\x01\x02\x03", b"\xff\x00\x10"
        assert xor_bytes(xor_bytes(a, b), b) == a

    def test_self_inverse_is_zero(self):
        a = bytes(range(64))
        assert xor_bytes(a, a) == bytes(64)

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            xor_bytes(b"ab", b"a")

    @given(st.binary(min_size=64, max_size=64),
           st.binary(min_size=64, max_size=64))
    def test_xor_is_involution(self, a, b):
        assert xor_bytes(xor_bytes(a, b), b) == a
