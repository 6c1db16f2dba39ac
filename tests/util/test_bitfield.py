"""Modular counter sums: counter-summing recovery depends on the wrap."""

from hypothesis import given, strategies as st

from repro.util.bitfield import checked_sum


class TestCheckedSum:
    def test_plain_sum(self):
        assert checked_sum([1, 2, 3], 56) == 6

    def test_wraps_at_width(self):
        assert checked_sum([2**56 - 1, 2], 56) == 1

    def test_negative_deltas_wrap_consistently(self):
        # delta = after - before must compose: before + delta == after.
        before, after = 100, 37
        delta = checked_sum([after, -before], 56)
        assert checked_sum([before, delta], 56) == after

    @given(st.lists(st.integers(min_value=0, max_value=2**56 - 1),
                    min_size=1, max_size=16))
    def test_matches_modular_arithmetic(self, values):
        assert checked_sum(values, 56) == sum(values) % 2**56
