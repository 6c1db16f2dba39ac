"""Cryptographic primitives for the simulated secure memory controller.

The paper's hardware uses AES-CTR for counter-mode encryption and a
SHA-class keyed HMAC for integrity.  Cryptographic *strength* is irrelevant
to the mechanisms under evaluation (update schemes, crash consistency,
recovery); what matters is that MACs are keyed, deterministic, and
collision-resistant enough that a tampered input practically never matches a
stored MAC.  We therefore use ``blake2b`` (keyed, fast, in the standard
library) truncated to the field widths the paper models: 64-bit HMACs in
tree nodes, and 64-byte one-time pads for CME.
"""

from __future__ import annotations

import hashlib

MAC_BITS = 64
MAC_BYTES = MAC_BITS // 8
OTP_BYTES = 64


#: Pre-keyed blake2b states.  Keying a state costs a compression of the
#: padded key block, so every MAC and pad ``.copy()``-es one of these
#: instead.  They live here rather than on the instances because a
#: blake2b state does not pickle (``repro.sim.checkpoint`` pickles the
#: whole system).  Keys are config constants: a handful of entries.
#: MAC states are keyed by the derived key, pad states by the user key.
_MAC_STATES: dict[bytes, hashlib.blake2b] = {}
_OTP_STATES: dict[bytes, hashlib.blake2b] = {}


class KeyedMac:
    """A keyed 64-bit MAC, the simulator's stand-in for the hardware HMAC
    unit.

    The secret key lives inside the trusted on-chip domain; attackers (and
    attack-injection code) never see it, which is exactly why roll-forward
    attacks are detected (§IV-B2): without the key an attacker cannot forge
    a MAC over modified counters.  Nothing caches a MAC: every seal and
    every verify hashes its inputs (docs/performance.md).
    """

    def __init__(self, key: bytes = b"repro-secret-key") -> None:
        if not key:
            raise ValueError("MAC key must be non-empty")
        # blake2b keys are capped at 64 bytes.
        self._key = hashlib.blake2b(key, digest_size=32).digest()

    def _state(self) -> hashlib.blake2b:
        """The shared pre-keyed state; callers copy it, never update it.
        Built on first use, also after unpickling in a fresh process."""
        state = _MAC_STATES.get(self._key)
        if state is None:
            state = _MAC_STATES[self._key] = hashlib.blake2b(
                key=self._key, digest_size=MAC_BYTES)
        return state

    def mac(self, *parts: bytes | int) -> int:
        """Compute the 64-bit MAC over the concatenation of ``parts``.

        Integer parts are serialised as 8-byte little-endian words, which is
        how node addresses and parent counters enter the hash in our node
        layouts.  Returns the MAC as an unsigned 64-bit integer (the form
        stored in node images).
        """
        h = self._state().copy()
        for part in parts:
            if isinstance(part, int):
                h.update(part.to_bytes(8, "little", signed=False))
            else:
                h.update(part)
        return int.from_bytes(h.digest(), "little")

    #: The same computation under its older name, kept so code that
    #: wraps or patches both names keeps working.
    mac_uncached = mac

    def mac_bytes(self, *parts: bytes | int) -> bytes:
        """Like :meth:`mac` but returns the raw 8-byte digest."""
        return self.mac(*parts).to_bytes(MAC_BYTES, "little")

    def keyed_state(self) -> hashlib.blake2b:
        """A fresh copy of the keyed blake2b state every MAC starts from,
        before any input.  A caller sealing many lines ``.copy()``-es it
        per line; ``copy().update(b)`` then ``digest()`` is :meth:`mac`
        of ``b`` as the raw 8-byte digest.  The key itself never leaves
        this object."""
        return self._state().copy()


def make_otp(key: bytes, line_addr: int, major: int, minor: int) -> bytes:
    """Generate the 64-byte one-time pad for counter-mode encryption.

    Hardware computes AES_k(line_address || major || minor) blocks; we
    derive an equivalent deterministic pad from the same inputs.  The CME
    security argument only needs pads to be unique per (address, counter)
    pair and unpredictable without the key — both hold here.
    """
    state = _OTP_STATES.get(key)
    if state is None:
        derived = hashlib.blake2b(key, digest_size=32).digest()
        state = _OTP_STATES[key] = hashlib.blake2b(key=derived,
                                                   digest_size=32)
    h = state.copy()
    h.update(line_addr.to_bytes(8, "little"))
    h.update(major.to_bytes(8, "little"))
    h.update(minor.to_bytes(2, "little"))
    seed = h.digest()
    # Expand 32 -> 64 bytes (== OTP_BYTES) with two counter-indexed blocks.
    return hashlib.blake2b(seed + b"\x00", digest_size=32).digest() \
        + hashlib.blake2b(seed + b"\x01", digest_size=32).digest()


def xor_bytes(a: bytes, b: bytes) -> bytes:
    """XOR two equal-length byte strings (the CME encrypt/decrypt step)."""
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    return (int.from_bytes(a, "little") ^ int.from_bytes(b, "little")) \
        .to_bytes(len(a), "little")
