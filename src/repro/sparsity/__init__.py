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
* :mod:`repro.sparsity.ops` — the *Dynamic-aware Operators*: a block-sparse
  attention kernel that executes any per-head block mask, and a
  neuron-centric sparse MLP kernel with a memory-coalescing-friendly weight
  layout.
* :mod:`repro.sparsity.engine` — the end-to-end system that wires the three
  components into any PEFT-adapted model by swapping the attention and MLP
  execution backends.
"""

from repro.sparsity.config import LongExposureConfig
from repro.sparsity.patterns import block_count
from repro.sparsity.engine import LongExposure, SparseAttentionBackend, SparseMLPBackend

__all__ = [
    "LongExposureConfig",
    "block_count",
    "LongExposure",
    "SparseAttentionBackend",
    "SparseMLPBackend",
]
