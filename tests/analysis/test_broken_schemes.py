"""Seeded-bug cross-validation: RPL007's parent-before-leaf inversion
is caught both statically and live by the runtime sanitizer's bottom-up
ordering rule.  The dropped verify result is checked dynamically only:
a tampered node sails through the broken scheme while a clean
controller rejects it."""

import random
from pathlib import Path

import pytest

from repro.analysis import Linter, attach_sanitizer
from repro.errors import IntegrityError, PersistOrderingError
from repro.secure.scue import SCUEController

from tests.analysis.fixtures.broken_schemes import (
    BrokenEagerScheme,
    DroppedVerifyScheme,
)
from tests.conftest import small_config

FIXTURE = Path(__file__).parent / "fixtures" / "broken_schemes.py"


def marker_line(marker):
    for lineno, text in enumerate(FIXTURE.read_text().splitlines(), 1):
        if marker in text:
            return lineno
    raise AssertionError(f"marker {marker!r} not found in fixture")


def run_writes(controller, n=40, seed=11):
    rng = random.Random(seed)
    for i in range(n):
        controller.write_data(
            rng.randrange(0, controller.config.data_capacity, 64),
            None, cycle=i * 100)
    return controller


def force_refetch(controller):
    for _ in range(64):
        dirty = controller.meta_cache.dirty_lines()
        if not dirty:
            break
        for line in dirty:
            if line.dirty:
                line.dirty = False
                controller._flush_node(line.payload, 10**7)
    controller.meta_cache.drop_all()


def tamper_counter_block(controller):
    addr = controller.amap.counter_block_addr(0)
    image = bytearray(controller.nvm.peek_line(addr))
    image[4] ^= 0x40
    controller.nvm.poke_line(addr, bytes(image))


class TestStaticHalf:
    """The lint proves the ordering bug on all static paths — no
    workload."""

    def test_exactly_the_seeded_rule_fires(self):
        violations = Linter(FIXTURE).run()
        assert [v.rule.name for v in violations] == ["persist-protocol"]

    def test_rpl007_lands_on_the_cross_call_parent_persist(self):
        (v,) = [v for v in Linter(FIXTURE).run()
                if v.rule.name == "persist-protocol"]
        # The inversion lives in a HELPER the anchor calls — the line
        # flat per-function scanning could never attribute.
        assert v.line == marker_line("# ancestor first: bug")


class TestDynamicHalf:
    """The runtime sanitizer and the integrity machinery catch both
    bugs at runtime."""

    def test_parent_first_persist_trips_the_bottom_up_rule(self):
        controller = BrokenEagerScheme(small_config("eager"))
        attach_sanitizer(controller)
        with pytest.raises(PersistOrderingError, match="bottom-up"):
            run_writes(controller, n=1)

    def test_clean_eager_parent_of_the_fixture_stays_quiet(self):
        # Same config, unbroken base class: the sanitizer is silent, so
        # the dynamic signal above is the seeded bug, not the harness.
        controller = BrokenEagerScheme.__mro__[1](small_config("eager"))
        sanitizer = attach_sanitizer(controller, collect=True)
        run_writes(controller, n=10)
        assert sanitizer.violations == []

    def test_dropped_verify_accepts_a_tampered_node(self):
        controller = DroppedVerifyScheme(
            small_config("scue", metadata_cache_size=1024))
        run_writes(controller, n=60)
        tamper_counter_block(controller)
        force_refetch(controller)
        # The broken scheme computes the verdict and throws it away:
        # the tampered counter block is silently accepted.
        controller.fetch_node(0, 0)

    def test_clean_scue_rejects_the_same_tamper(self):
        controller = SCUEController(
            small_config("scue", metadata_cache_size=1024))
        run_writes(controller, n=60)
        tamper_counter_block(controller)
        force_refetch(controller)
        with pytest.raises(IntegrityError):
            controller.fetch_node(0, 0)
