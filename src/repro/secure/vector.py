"""Vectorized kernels for the epoch execution engine (`repro.sim.epoch`).

The scalar hot path manipulates one 64 B line at a time through Python
objects: counter images are packed with a 64-iteration shift-or loop,
HMAC/OTP inputs are concatenated per line, pads are generated per line.
The epoch planner instead collects a *window* of trace rows and hands
whole arrays to these kernels — one `numpy` pass packs every counter
image in the window (`pack_counter_images`) and assembles every
branch-seal message (`seal_messages`), which `batch_keyed_hash8` then
turns into memo-ready MACs.  The remaining kernels (OTP/data-MAC
message assembly, pad XOR, media packing) are the same layer applied to
the encryption path; the planner leaves them unused because profiling
showed that path `blake2b`-bound either way (docs/performance.md).

Everything here is **functionally pure** and layout-exact: each kernel
reproduces, byte for byte, the little-endian images and message layouts
of `repro.cme.counters.CounterBlock`, `repro.util.crypto.KeyedMac`
(integer parts as 8-byte LE words) and `repro.util.crypto.make_otp` —
proven per kernel in `tests/secure/test_vector_kernels.py`.  The digest
pins in `tests/test_determinism_guard.py` depend on that equivalence.

The functions named in :data:`HOT_KERNELS` must stay free of per-element
Python loops and dict lookups — reprolint RPL015
(``scalar-path-in-epoch-kernel``) enforces this statically.  The
``batch_*`` boundary helpers are deliberately *not* hot kernels: hashlib
has no batch API, so they run one `blake2b` per row — the win there is
that message assembly already happened vectorized.

`numpy` is optional: :data:`HAVE_NUMPY` gates the epoch engine's
eligibility, and scalar-only environments never call these kernels.
"""

from __future__ import annotations

import hashlib

try:  # pragma: no cover - exercised through both HAVE_NUMPY branches
    import numpy as np
except ImportError:  # pragma: no cover - scalar-only environments
    np = None  # type: ignore[assignment]

HAVE_NUMPY = np is not None

#: Kernels that must remain vectorized (no per-element Python loops, no
#: dict lookups) — the declarative hot list reprolint RPL015 checks.
HOT_KERNELS = (
    "pack_counter_images",
    "pack_leaf_media",
    "dummy_counters",
    "apply_bumps",
    "occurrence_index",
    "otp_messages",
    "data_mac_messages",
    "seal_messages",
    "xor_lines",
    "u64_le_bytes",
)

# Leaf layout constants (mirror repro.cme.counters; redeclared here so the
# kernel module has no import-time dependency on the scheme stack).
MINOR_BITS = 6
MINORS_PER_BLOCK = 64
MAJOR_BITS = 64
#: Counter payload bits in a 64 B node image (major + 64 minors).
IMAGE_BITS = MAJOR_BITS + MINORS_PER_BLOCK * MINOR_BITS
IMAGE_BYTES = IMAGE_BITS // 8

if HAVE_NUMPY:
    # ------------------------------------------------------------------
    # Static leaf-image geometry, computed once at import.
    #
    # The 448-bit counter image is 7 little-endian uint64 words: word 0
    # holds the major counter, minor slot ``i`` occupies the 6 bits at
    # image offset ``64 + 6*i``.  Within a word the 6-bit fields are
    # disjoint, so OR-reducing the shifted minors per word reconstructs
    # the image; the four slots whose field crosses a word boundary
    # (offsets 60/62) spill their high bits into the next word.  Each
    # spill targets a distinct word, so a single fancy-indexed OR is
    # race-free.
    # ------------------------------------------------------------------
    _SLOT_BIT = (MAJOR_BITS
                 + MINOR_BITS * np.arange(MINORS_PER_BLOCK, dtype=np.int64))
    _SLOT_WORD = _SLOT_BIT // 64                     # 1 .. 6
    _SLOT_OFF = (_SLOT_BIT % 64).astype(np.uint64)   # shift within word
    _WORD_STARTS = np.flatnonzero(
        np.r_[True, _SLOT_WORD[1:] != _SLOT_WORD[:-1]])
    _SPILL_SLOTS = np.flatnonzero(_SLOT_OFF > np.uint64(64 - MINOR_BITS))
    _SPILL_WORDS = _SLOT_WORD[_SPILL_SLOTS] + 1
    _SPILL_SHIFTS = np.uint64(64) - _SLOT_OFF[_SPILL_SLOTS]
    _U8 = np.uint8
    _U64LE = np.dtype("<u8")


def u64_le_bytes(values):
    """``(k,)`` uint64 -> ``(k, 8)`` uint8 little-endian byte columns."""
    return np.ascontiguousarray(values, dtype=_U64LE).view(_U8).reshape(-1, 8)


def pack_counter_images(majors, minors):
    """Pack leaf counter states into their 56 B on-media images.

    ``majors`` is ``(k,)`` and ``minors`` ``(k, 64)``, both uint64.
    Returns a ``(k, 56)`` uint8 array; row ``r`` equals
    ``CounterBlock(..., majors[r], minors[r])._counter_image()``.
    """
    k = majors.shape[0]
    words = np.zeros((k, IMAGE_BITS // 64), dtype=np.uint64)
    words[:, 0] = majors
    low = minors << _SLOT_OFF  # in-word parts (mod 2**64 drops spill bits)
    words[:, 1:] = np.bitwise_or.reduceat(low, _WORD_STARTS, axis=1)
    words[:, _SPILL_WORDS] |= minors[:, _SPILL_SLOTS] >> _SPILL_SHIFTS
    return np.ascontiguousarray(words, dtype=_U64LE).view(_U8) \
        .reshape(k, IMAGE_BYTES)


def pack_leaf_media(images, hmacs):
    """56 B counter images + 64-bit HMACs -> full 64 B media lines.

    Row ``r`` equals ``CounterBlock.to_bytes()`` for the same state
    (bytes 0..55 image, bytes 56..63 HMAC little-endian).
    """
    k = images.shape[0]
    media = np.empty((k, 64), dtype=_U8)
    media[:, :IMAGE_BYTES] = images
    media[:, IMAGE_BYTES:] = u64_le_bytes(hmacs)
    return media


def dummy_counters(majors, minors, counter_bits):
    """Vectorized ``CounterBlock.dummy_counter``:
    ``(major * 64 + sum(minors)) mod 2**counter_bits``.

    Exact in uint64: ``2**counter_bits`` divides ``2**64``, so the
    wraparound commutes with the final mask.
    """
    mask = np.uint64((1 << counter_bits) - 1)
    return (majors * np.uint64(MINORS_PER_BLOCK)
            + minors.sum(axis=1, dtype=np.uint64)) & mask


def apply_bumps(minors, rows, slots):
    """Apply one minor-counter bump per (row, slot) pair in place —
    duplicate pairs accumulate (``np.add.at`` semantics)."""
    np.add.at(minors, (rows, slots), 1)
    return minors


def occurrence_index(keys):
    """Per-position count of *earlier* occurrences of the same key.

    For the window's persist rows keyed by ``leaf*64 + slot``, row ``r``'s
    post-bump minor is ``base_minor + occurrence_index(keys)[r] + 1`` —
    the sequential counter evolution, recovered without a Python loop.
    """
    n = keys.shape[0]
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    pos = np.arange(n, dtype=np.int64)
    is_start = np.r_[True, sorted_keys[1:] != sorted_keys[:-1]]
    run_start = np.maximum.accumulate(np.where(is_start, pos, 0))
    occ = np.empty(n, dtype=np.int64)
    occ[order] = pos - run_start
    return occ


def otp_messages(lines, majors, minors):
    """Assemble `make_otp` seed messages: ``line(8 LE) || major(8 LE) ||
    minor(2 LE)`` -> ``(k, 18)`` uint8."""
    k = lines.shape[0]
    msg = np.zeros((k, 18), dtype=_U8)
    msg[:, 0:8] = u64_le_bytes(lines)
    msg[:, 8:16] = u64_le_bytes(majors)
    msg[:, 16] = (minors & np.uint64(0xFF)).astype(_U8)
    msg[:, 17] = (minors >> np.uint64(8)).astype(_U8)
    return msg


def data_mac_messages(lines, ciphertexts, majors, minors):
    """Assemble the data-MAC input ``KeyedMac.mac(line, ct, major, minor)``
    hashes: ``line(8 LE) || ct(64) || major(8 LE) || minor(8 LE)`` ->
    ``(k, 88)`` uint8."""
    k = lines.shape[0]
    msg = np.empty((k, 88), dtype=_U8)
    msg[:, 0:8] = u64_le_bytes(lines)
    msg[:, 8:72] = ciphertexts
    msg[:, 72:80] = u64_le_bytes(majors)
    msg[:, 80:88] = u64_le_bytes(minors)
    return msg


def seal_messages(node_addrs, images, parent_counters):
    """Assemble node-seal MAC inputs ``mac_uncached(addr, image, parent)``:
    ``addr(8 LE) || image(56) || parent(8 LE)`` -> ``(k, 72)`` uint8."""
    k = node_addrs.shape[0]
    msg = np.empty((k, 72), dtype=_U8)
    msg[:, 0:8] = u64_le_bytes(node_addrs)
    msg[:, 8:8 + IMAGE_BYTES] = images
    msg[:, 8 + IMAGE_BYTES:] = u64_le_bytes(parent_counters)
    return msg


def xor_lines(a, b):
    """Bulk CME step: XOR ``(k, 64)`` payloads against ``(k, 64)`` pads."""
    return np.bitwise_xor(a, b)


# ----------------------------------------------------------------------
# Hash boundary: hashlib has no batch API, so these run one blake2b per
# row over the vectorized message arrays.  Intentionally NOT in
# HOT_KERNELS — the per-row loop is the irreducible residue.
# ----------------------------------------------------------------------
def batch_keyed_hash8(key, messages):
    """One keyed 64-bit MAC per message row (`KeyedMac.mac_uncached`
    layout: the caller pre-serialised the parts).  Returns a list of
    ints, little-endian decoded like the scalar path."""
    blake2b = hashlib.blake2b
    from_bytes = int.from_bytes
    rows = memoryview(messages.tobytes())
    width = messages.shape[1]
    return [
        from_bytes(blake2b(rows[i * width:(i + 1) * width],
                           key=key, digest_size=8).digest(), "little")
        for i in range(messages.shape[0])
    ]


def batch_otps(derived_key, messages):
    """One 64 B one-time pad per 18-byte seed message, reproducing
    `repro.util.crypto.make_otp` byte for byte (the caller passes the
    *derived* key).  Returns a ``(k, 64)`` uint8 array."""
    blake2b = hashlib.blake2b
    rows = memoryview(messages.tobytes())
    k = messages.shape[0]
    width = messages.shape[1]
    out = np.empty((k, 64), dtype=np.uint8)
    for i in range(k):
        seed = blake2b(rows[i * width:(i + 1) * width],
                       key=derived_key, digest_size=32).digest()
        out[i, :32] = np.frombuffer(
            blake2b(seed + b"\x00", digest_size=32).digest(), dtype=np.uint8)
        out[i, 32:] = np.frombuffer(
            blake2b(seed + b"\x01", digest_size=32).digest(), dtype=np.uint8)
    return out
