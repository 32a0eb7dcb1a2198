"""Poisoned allocator: a pytest plugin that fills uninitialised memory with garbage.

Load it with ``-p`` (it is not collected as a test module); the whole suite
passes under it::

    PYTHONPATH=src:tests python -m pytest -p poisoned_allocator -q

For every test it fills, through ``monkeypatch`` only:

* every ``BufferArena.take`` that does not zero its buffer;
* every buffer ``BufferArena.release`` accepts back into its free pool;
* every buffer ``BufferArena.next_generation`` takes back at a step boundary;
* every fresh plan buffer (``ForwardRecorder.empty``), slab views and a
  learning recording's buffers (``SlabLearner`` inherits ``empty``) included;
* every ``arena.empty`` made while no arena is active;
* on replay (``ForwardPlan.run``), every keyed plan buffer and the
  forward-only slab before the first entry runs, so a plan whose forward
  reads what an earlier step left there — memory the process's plan pool
  lends to every other signature's plan — cannot pass by luck;
* on replay, the plan's scratch pool before each entry runs, so no kernel
  reads scratch an earlier kernel wrote;
* on replay, each forward-only slab view right after its last forward
  reader, so a buffer that some later entry or the backward still reads
  cannot pass by luck;
* on replay, every buffer of the backward tape before the backward runs
  (``TapeArena.rewind``), so a replayed backward that reads what the last
  step, or another signature's plan on the same plan-pool blocks, left
  there cannot pass by luck;
* every take of the tape that does not zero its buffer, so a tape that
  hands one take the buffer of an earlier take still live turns the
  earlier one's values to garbage.

Floats get NaN, integers their dtype's maximum, bools ``True``.  A kernel
that reads memory it did not write, or a buffer handed back before its last
read, then turns a bitwise test red instead of passing by luck: the liveness
claims ("freed at its last use", "scratch shared across kernels", "the
backward reuses its forward's workspace") become checked by every test that
compares numbers.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np
import pytest

from repro.tensor import arena, plan


def poison(buf: np.ndarray) -> np.ndarray:
    """Fill ``buf`` with its dtype's garbage value, in place."""
    if buf.dtype == np.bool_:
        buf.fill(True)
    elif np.issubdtype(buf.dtype, np.integer):
        buf.fill(np.iinfo(buf.dtype).max)
    else:
        buf.fill(np.nan)
    return buf


def install(monkeypatch: pytest.MonkeyPatch) -> None:
    """Patch the four allocation seams to hand out poisoned memory, the
    arena to poison what it takes back, the replay to poison its keyed
    buffers, scratch and dead slab views, and the backward tape to poison
    its buffers before a replayed backward and each non-zeroed take."""
    take, release = arena.BufferArena.take, arena.BufferArena.release
    tape_take, rewind = arena.TapeArena.take, arena.TapeArena.rewind
    next_generation = arena.BufferArena.next_generation
    recorded, empty = plan.ForwardRecorder.empty, arena.empty

    def poisoned_take(self, shape, dtype=np.float32, zero=False):
        buf = take(self, shape, dtype, zero)
        return buf if zero else poison(buf)

    def poisoned_release(self, buf):
        accepted = release(self, buf)
        if accepted:
            poison(buf)
        return accepted

    def poisoned_next_generation(self):
        for _, buf in self._used.values():
            poison(buf)
        next_generation(self)

    def poisoned_tape_take(self, shape, dtype=np.float32, zero=False):
        buf = tape_take(self, shape, dtype, zero)
        return buf if zero else poison(buf)

    def poisoned_rewind(self):
        for buf in self.distinct():
            poison(buf)
        return rewind(self)

    def poisoned_empty(shape, dtype=np.float32):
        buf = empty(shape, dtype)
        return buf if arena.active() is not None else poison(buf)

    monkeypatch.setattr(arena.BufferArena, "take", poisoned_take)
    monkeypatch.setattr(arena.BufferArena, "release", poisoned_release)
    monkeypatch.setattr(arena.BufferArena, "next_generation",
                        poisoned_next_generation)
    monkeypatch.setattr(plan.ForwardRecorder, "empty",
                        lambda self, shape, dtype=np.float32:
                        poison(recorded(self, shape, dtype)))
    monkeypatch.setattr(arena.TapeArena, "take", poisoned_tape_take)
    monkeypatch.setattr(arena.TapeArena, "rewind", poisoned_rewind)
    monkeypatch.setattr(arena, "empty", poisoned_empty)

    def poisoned_run(self):
        dead = defaultdict(list)
        for view, last in self.slots:
            dead[last].append(view)
        for buf in self.keyed:
            poison(buf)
        for index, entry in enumerate(self.entries):
            for buf in self.scratch:
                poison(buf)
            entry.run()
            for view in dead[index]:
                poison(view)

    monkeypatch.setattr(plan.ForwardPlan, "run", poisoned_run)


@pytest.fixture(autouse=True)
def poisoned_allocator(monkeypatch):
    install(monkeypatch)
