"""Unit tests for the physical frame pool and LRU eviction."""

import random
from collections import OrderedDict

import pytest

from repro.accent.constants import SPACE_PAGES
from repro.accent.vm.physical import PhysicalMemory


def test_capacity_validation():
    with pytest.raises(ValueError):
        PhysicalMemory(0)


def test_allocate_until_full_then_evict_lru():
    mem = PhysicalMemory(2)
    assert mem.allocate(7, 1) is None
    assert mem.allocate(7, 2) is None
    assert mem.used == 2
    assert mem.free == 0
    victim = mem.allocate(7, 3)
    assert victim == (7, 1)  # oldest
    assert (7, 1) not in mem
    assert (7, 3) in mem


def test_touch_refreshes_lru_position():
    mem = PhysicalMemory(2)
    mem.allocate(7, 1)
    mem.allocate(7, 2)
    mem.touch(7, 1)
    victim = mem.allocate(7, 3)
    assert victim == (7, 2)


def test_touch_nonresident_raises():
    mem = PhysicalMemory(2)
    with pytest.raises(KeyError, match=r"\(7, 9\) is not resident"):
        mem.touch(7, 9)


def test_allocate_existing_key_is_a_touch():
    mem = PhysicalMemory(2)
    mem.allocate(7, 1)
    mem.allocate(7, 2)
    assert mem.allocate(7, 1) is None  # refresh, no eviction
    victim = mem.allocate(7, 3)
    assert victim == (7, 2)


def test_evict_releases_frame():
    mem = PhysicalMemory(1)
    mem.allocate(7, 1)
    mem.evict(7, 1)
    assert mem.used == 0
    # Evicting an absent key is a no-op.
    mem.evict(7, 1)


def test_release_space_drops_only_that_space():
    mem = PhysicalMemory(4)
    mem.allocate(1, 1)
    mem.allocate(2, 1)
    mem.allocate(1, 2)
    # Indices the space does not hold are skipped, not counted.
    dropped = mem.release_space(1, [2, 1, 5])
    assert dropped == 2
    assert mem.resident_keys() == [(2, 1)]


def test_resident_keys_filter_and_order():
    mem = PhysicalMemory(4)
    mem.allocate(1, 1)
    mem.allocate(2, 1)
    mem.allocate(1, 2)
    mem.touch(1, 1)
    assert mem.resident_keys(1) == [(1, 2), (1, 1)]
    assert mem.resident_keys() == [(2, 1), (1, 2), (1, 1)]


class _ReferencePool:
    """The frame pool as specified: one OrderedDict of (space, index)."""

    def __init__(self, frame_count):
        self.frame_count = frame_count
        self.lru = OrderedDict()

    def allocate(self, key):
        if key in self.lru:
            self.lru.move_to_end(key)
            return None
        victim = None
        if len(self.lru) >= self.frame_count:
            victim, _ = self.lru.popitem(last=False)
        self.lru[key] = None
        return victim

    def touch(self, key):
        self.lru.move_to_end(key)

    def evict(self, key):
        self.lru.pop(key, None)

    def release_space(self, space_id):
        doomed = [key for key in self.lru if key[0] == space_id]
        for key in doomed:
            del self.lru[key]
        return len(doomed)


@pytest.mark.parametrize("seed", range(8))
def test_packed_pool_matches_the_reference_model(seed):
    rng = random.Random(seed)
    frames = rng.randint(1, 12)
    mem = PhysicalMemory(frames)
    ref = _ReferencePool(frames)
    # Large ids and indices as well as small ones: a page index can
    # reach SPACE_PAGES - 1, and space ids only grow.
    spaces = [1, 2, 3, 2**20 + 1]
    indices = [0, 1, 2, 3, 255, 256, SPACE_PAGES - 1]
    keys = [(space, index) for space in spaces for index in indices]
    for _ in range(400):
        op = rng.choice(("allocate", "allocate", "touch", "evict", "release"))
        space, index = rng.choice(keys)
        if op == "allocate":
            assert mem.allocate(space, index) == ref.allocate((space, index))
        elif op == "touch":
            if (space, index) in ref.lru:
                mem.touch(space, index)
                ref.touch((space, index))
            else:
                with pytest.raises(KeyError):
                    mem.touch(space, index)
        elif op == "evict":
            mem.evict(space, index)
            ref.evict((space, index))
        else:
            # The kernel passes the space's page table: indices with no
            # frame (paged out) are skipped.
            held = [i for s, i in ref.lru if s == space]
            rng.shuffle(held)
            assert mem.release_space(space, held + [index]) == (
                ref.release_space(space)
            )
        assert mem.used == len(ref.lru)
        assert mem.free == frames - len(ref.lru)
        assert mem.resident_keys() == list(ref.lru)
        for space_id in spaces:
            assert mem.resident_keys(space_id) == [
                key for key in ref.lru if key[0] == space_id
            ]
        assert [key in mem for key in keys] == [key in ref.lru for key in keys]


@pytest.mark.parametrize("seed", range(8))
def test_claim_is_allocate_per_page(seed):
    """A bulk claim equals one allocate per index: refreshed frames
    move to the end, and victims come back in eviction order."""
    rng = random.Random(seed)
    frames = rng.randint(1, 12)
    mem = PhysicalMemory(frames)
    ref = _ReferencePool(frames)
    for _ in range(60):
        space = rng.choice((1, 2, 3))
        indices = rng.sample(range(16), rng.randint(0, 10))
        victims = [ref.allocate((space, index)) for index in indices]
        assert mem.claim(space, indices) == [
            victim for victim in victims if victim is not None
        ]
        assert mem.resident_keys() == list(ref.lru)
