"""Utility helpers shared across the simulator: modular sums for
fixed-width counters, the keyed-MAC primitive used for HMAC fields,
statistics counters, and crash-consistent file publication."""

from repro.util.atomic import atomic_write_bytes, atomic_write_text, \
    fsync_dir
from repro.util.crypto import KeyedMac, make_otp
from repro.util.stats import StatCounter, StatGroup, WeightedMean

__all__ = [
    "atomic_write_bytes",
    "atomic_write_text",
    "fsync_dir",
    "KeyedMac",
    "make_otp",
    "StatCounter",
    "StatGroup",
    "WeightedMean",
]
