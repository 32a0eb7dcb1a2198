"""The poisoned-allocator plugin (``tests/poisoned_allocator.py``) poisons
exactly the buffers it promises to, and leaves zeroed and foreign ones be."""

import numpy as np

from poisoned_allocator import install
from repro.runtime.capture import SlabLearner
from repro.tensor import arena, plan


def test_poisons_every_uninitialised_buffer(monkeypatch):
    install(monkeypatch)
    pool = arena.BufferArena()
    assert np.isnan(pool.take((3,), np.float32)).all()
    assert (pool.take((3,), np.int64) == np.iinfo(np.int64).max).all()
    assert pool.take((3,), bool).all()
    assert not pool.take((3,), np.float32, zero=True).any()
    held = pool.take((2,), np.float64)
    held[:] = 1.0
    assert pool.release(held) and np.isnan(held).all()
    foreign = np.ones(2, np.float32)
    assert not pool.release(foreign) and (foreign == 1.0).all()
    out = pool.take((4,), np.float32, zero=True)
    pool.next_generation()
    assert np.isnan(out).all()
    assert np.isnan(plan.ForwardRecorder().empty((2,), np.float32)).all()
    assert np.isnan(SlabLearner().empty((2,), np.float32)).all()
    with arena.scope(None):
        assert np.isnan(arena.empty((2,), np.float32)).all()


def test_poisons_replay_scratch_and_dead_slab_views(monkeypatch):
    install(monkeypatch)
    scratch = np.zeros(3, np.float32)
    slab = np.zeros(4, np.float32)
    keyed = np.zeros(2, np.int32)
    done, live = slab[:2], slab[2:]
    seen = []

    def write():
        seen.append(keyed.copy())
        scratch.fill(1.0)
        slab.fill(2.0)

    def read():
        seen.append((scratch.copy(), done.copy(), live.copy()))

    entries = [plan.ForwardEntry(write), plan.ForwardEntry(read)]
    plan.ForwardPlan(entries, scratch=[scratch],
                     slots=[(done, 0), (live, 1)], keyed=[keyed]).run()
    k, (s, d, v) = seen
    assert (k == np.iinfo(np.int32).max).all()   # filled before the forward
    assert np.isnan(s).all()          # filled before the reading entry
    assert np.isnan(d).all()          # filled after its last reader, entry 0
    assert (v == 2.0).all()           # still live: entry 1 reads it
    assert np.isnan(live).all()       # filled after entry 1


def test_poisons_the_backward_tape(monkeypatch):
    install(monkeypatch)
    first, second = np.zeros(3, np.float32), np.zeros((2,), np.int32)
    tape = arena.TapeArena([first, second, first])
    assert tape.rewind() is tape
    assert np.isnan(first).all()                  # filled before the backward
    assert (second == np.iinfo(np.int32).max).all()
    second.fill(7)
    assert tape.take((3,), np.float32, zero=True) is first
    assert not first.any()                        # zeroed when asked
    assert tape.take((2,), np.int32) is second
    assert (second == np.iinfo(np.int32).max).all()
    first.fill(1.0)
    assert tape.take((3,), np.float32) is first   # a positional take
    assert np.isnan(first).all()
