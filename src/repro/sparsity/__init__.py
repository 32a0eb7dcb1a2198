"""LongExposure: the paper's primary contribution.

The package mirrors the three components of the system (paper Sections
IV-VI):

* :mod:`repro.sparsity.exposer` — the *Shadowy-sparsity Exposer*: head-
  specific attention block masks and the importance-filtered MLP neuron
  blocks that turn shadowy (heavily overlapped) sparsity back into
  structured, exploitable sparsity.
* :mod:`repro.sparsity.predictor` — the *Sequence-oriented Predictor*:
  small low-rank networks that predict the sparse patterns at runtime from
  the layer inputs, trained offline on data collected from the frozen model
  with noise augmentation and a recall-weighted loss.
* :mod:`repro.sparsity.ops` — the *Dynamic-aware Operators*: block-sparse
  SDD/DSD attention kernels that execute any per-head block mask, and
  neuron-centric sparse MLP kernels with memory-coalescing-friendly weight
  layouts.
* :mod:`repro.sparsity.engine` — the end-to-end system that wires the three
  components into any PEFT-adapted model by swapping the attention and MLP
  execution backends.
"""

from repro.sparsity.config import LongExposureConfig
from repro.sparsity.patterns import (
    AtomicPattern,
    PatternPool,
    block_count,
    build_default_pool,
)
from repro.sparsity.engine import LongExposure, SparseAttentionBackend, SparseMLPBackend

__all__ = [
    "LongExposureConfig",
    "AtomicPattern",
    "PatternPool",
    "block_count",
    "build_default_pool",
    "LongExposure",
    "SparseAttentionBackend",
    "SparseMLPBackend",
]
