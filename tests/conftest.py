"""Shared fixtures: small, fast system configurations used across the
test suite.  The tiny geometry (1 MB data, small caches) keeps tests quick
while still exercising multi-level trees and cache-eviction paths."""

from __future__ import annotations

import random

import pytest

from repro.mem.address import AddressMap
from repro.mem.hierarchy import HierarchyConfig
from repro.mem.trace import AccessType, MemoryAccess
from repro.sim.config import SystemConfig
from repro.sim.system import System

SMALL_CAPACITY = 1024 * 1024          # 1 MB: 256 counter blocks
TINY_CAPACITY = 64 * 64 * 64 * 8      # 2 MB worth of lines -> 512 blocks


@pytest.fixture
def amap() -> AddressMap:
    return AddressMap(SMALL_CAPACITY)


def small_config(scheme: str = "scue", **overrides) -> SystemConfig:
    """A fast config: small caches so evictions actually happen."""
    base = dict(
        scheme=scheme,
        data_capacity=SMALL_CAPACITY,
        metadata_cache_size=4 * 1024,
        hierarchy=HierarchyConfig(
            l1_size=4 * 1024, l1_ways=2,
            l2_size=8 * 1024, l2_ways=8,
            l3_size=16 * 1024, l3_ways=8),
        check_data=True,
    )
    base.update(overrides)
    return SystemConfig(**base)


@pytest.fixture
def config() -> SystemConfig:
    return small_config()


@pytest.fixture
def system(config) -> System:
    return System(config)


def make_system(scheme: str = "scue", **overrides) -> System:
    return System(small_config(scheme, **overrides))


def random_trace(n: int, seed: int = 7,
                 capacity: int = SMALL_CAPACITY,
                 kinds=(AccessType.READ, AccessType.WRITE,
                        AccessType.PERSIST)) -> list[MemoryAccess]:
    """A deterministic mixed trace over the data region."""
    rng = random.Random(seed)
    return [
        MemoryAccess(rng.choice(kinds),
                     rng.randrange(capacity // 64) * 64, gap=rng.randrange(4))
        for _ in range(n)
    ]


def persist_trace(n: int, seed: int = 7,
                  capacity: int = SMALL_CAPACITY) -> list[MemoryAccess]:
    """Persist-only traffic (every access reaches the controller)."""
    return random_trace(n, seed, capacity, kinds=(AccessType.PERSIST,))


def store_heavy_trace(n: int, seed: int) -> list[MemoryAccess]:
    """Mostly stores: the small LLC spills dirty lines, so the write path
    sees writebacks besides the persists."""
    return random_trace(n, seed=seed,
                        kinds=(AccessType.WRITE,) * 3
                        + (AccessType.READ, AccessType.PERSIST))
