"""Shared fixtures and helpers for the benchmark harness.

Every paper table/figure has a corresponding ``bench_*`` module.  Benchmarks
run on the scaled-down executable model configurations (see
``repro.models.config.PAPER_TO_EXECUTABLE``) with short sequence lengths so
the whole harness completes in minutes on a single CPU; the *shape* of each
result (who wins, how ratios move with sequence length / sparsity /
threshold) is what reproduces the paper; each module's docstring quotes the
paper's claim it checks.

Timing methodology: each measured quantity is the best of a small number of
repeats of a full fine-tuning step (forward + backward + optimizer), measured
with ``time.perf_counter`` exactly as the trainer does, and registered with
pytest-benchmark via ``benchmark.pedantic`` so the numbers land in the
benchmark report as well as in the printed tables.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np
import pytest

from repro import (
    FineTuner,
    LongExposure,
    LongExposureConfig,
    TrainingConfig,
    build_model,
    get_peft_method,
)
from repro.data import E2EDatasetGenerator

# Model / sequence scaling used across the harness (paper -> executable).
BENCH_MODEL_SMALL = "opt-tiny"       # stands in for OPT-1.3B
BENCH_MODEL_LARGE = "opt-small"      # stands in for OPT-2.7B
BENCH_GPT2 = "gpt2-tiny"             # stands in for GPT-2 Large/XL
BENCH_SEQ_SHORT = 128                # stands in for seq 512
BENCH_SEQ_LONG = 256                 # stands in for seq 1024
BENCH_BATCH = 2
BLOCK_SIZE = 32


def e2e_batches(model, seq_len: int, num_batches: int = 2, batch: int = BENCH_BATCH):
    generator = E2EDatasetGenerator(seed=0)
    return generator.token_batches(num_batches, batch, seq_len,
                                   vocab_size=model.config.vocab_size)


def dense_attention(q: np.ndarray, k: np.ndarray, v: np.ndarray,
                    mask: np.ndarray) -> np.ndarray:
    """Materialising dense softmax attention in plain NumPy: the baseline the
    attention-kernel benches time against.  It builds the whole ``(seq, seq)``
    score matrix, as a dense framework kernel does; ``mask`` (True = keep)
    must keep at least one key per row, as a causal mask does."""
    scores = np.matmul(q, np.swapaxes(k, -1, -2)) * float(1.0 / np.sqrt(q.shape[-1]))
    scores = np.where(mask, scores, np.float32(-1e9))
    probs = np.exp(scores - scores.max(axis=-1, keepdims=True)) * mask
    return np.matmul(probs / probs.sum(axis=-1, keepdims=True), v)


def measure_step_time(model, ids: np.ndarray, repeats: int = 2,
                      optimizer=None) -> float:
    """Best-of-N wall-clock of a full fine-tuning step (seconds)."""
    from repro.optim import Adam
    optimizer = optimizer or Adam(model.trainable_parameters(), lr=1e-4)
    best = float("inf")
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        loss, _ = model.loss(ids)
        loss.backward()
        optimizer.step()
        optimizer.zero_grad()
        model.zero_grad()
        best = min(best, time.perf_counter() - start)
    return best


def prepare_engine(model, seq_len: int, oracle: bool = False,
                   predictor_epochs: int = 4, block_size: int = BLOCK_SIZE) -> LongExposure:
    """Construct and prepare a LongExposure engine for ``model``."""
    config = LongExposureConfig(block_size=block_size, oracle_mode=oracle,
                                predictor_epochs=predictor_epochs, seed=0,
                                # Benchmarks favour slightly cheaper patterns; the
                                # accuracy benches confirm quality is unaffected.
                                attention_coverage=0.85)
    engine = LongExposure(config)
    calibration = e2e_batches(model, seq_len, num_batches=1)
    engine.prepare(model, calibration)
    return engine


@pytest.fixture(scope="session")
def small_dense_model():
    return build_model(BENCH_MODEL_SMALL, seed=0)


@pytest.fixture(scope="session")
def prepared_small():
    """(model, engine) pair prepared once and reused (predictors trained)."""
    model = build_model(BENCH_MODEL_SMALL, seed=0)
    engine = prepare_engine(model, BENCH_SEQ_LONG)
    return model, engine
