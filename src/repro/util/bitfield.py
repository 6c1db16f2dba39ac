"""Fixed-width counter arithmetic for security-metadata layouts.

Secure-memory metadata squeezes many narrow counters into one 64-byte
memory line: an SIT node holds eight 56-bit counters plus a 64-bit HMAC
(8 x 56 + 64 = 512 bits exactly), and a CME counter block holds one 64-bit
major counter, sixty-four 6-bit minor counters and a 64-bit HMAC
(64 + 64 x 6 + 64 = 512 bits).  Counters stored in fixed-width fields
wrap, so sums over them are taken modulo the field width.
"""

from __future__ import annotations

from collections.abc import Iterable


def checked_sum(values: Iterable[int], width: int) -> int:
    """Sum ``values`` modulo ``2**width``.

    The paper's counter-summing invariant (parent counter == sum of child
    counters) holds in modular arithmetic when counters are stored in
    fixed-width fields; all dummy-counter computations go through this
    helper so node code and recovery code can never disagree on wrap
    behaviour.
    """
    return sum(values) & ((1 << width) - 1)
