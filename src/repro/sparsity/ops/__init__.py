"""Dynamic-aware sparse operators (paper Section VI).

Two families of kernels:

* block-sparse attention (:mod:`repro.sparsity.ops.block_sparse`) — the
  score (SDD) and context (DSD) products restricted to the blocks selected
  by per-head masks, run as one kernel over a
  :class:`repro.sparsity.ops.layout.MultiHeadLayout` built from the per-head
  masks themselves;
* neuron-sparse MLP (:mod:`repro.sparsity.ops.neuron_sparse`) — the fc1/fc2
  pair restricted to the neuron blocks predicted active, with an optional
  transposed ("coalesced") weight layout mirroring the paper's
  memory-coalescing optimisation.

The attention kernel runs a layout's capacity classes
(:func:`repro.sparsity.ops.geometry.compute_block_geometry`); whoever
installs a layout computes them once and passes them in.

All operators register fused custom backwards, so skipping a block in the
forward pass also skips its gradient work — the property derived in the
paper's Section II-D.
"""

from repro.sparsity.ops.layout import MultiHeadLayout
from repro.sparsity.ops.geometry import compute_block_geometry
from repro.sparsity.ops.block_sparse import block_sparse_attention
from repro.sparsity.ops.neuron_sparse import (
    NeuronSparseWeights,
    neuron_sparse_linear_pair,
)

__all__ = [
    "MultiHeadLayout",
    "compute_block_geometry",
    "block_sparse_attention",
    "NeuronSparseWeights",
    "neuron_sparse_linear_pair",
]
