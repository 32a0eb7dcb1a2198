"""Dynamic-aware sparse operators (paper Section VI).

Two families of kernels:

* block-sparse attention (:mod:`repro.sparsity.ops.block_sparse`) — the SDD
  (sparse = dense x dense) score computation and DSD (dense = sparse x dense)
  context computation over the blocks selected by per-head masks, described
  by a :class:`repro.sparsity.ops.layout.MultiHeadLayout` built from the
  per-head masks themselves;
* neuron-sparse MLP (:mod:`repro.sparsity.ops.neuron_sparse`) — column/row
  gathered matrix multiplications that only load the neuron blocks predicted
  active, with an optional transposed ("coalesced") weight layout mirroring
  the paper's memory-coalescing optimisation.

The capacity classes the attention kernel derives from a layout (per-unit
key-block lists padded to a small ladder of widths, drop masks) are memoized by
:class:`repro.sparsity.ops.geometry_cache.LayoutGeometryCache`, keyed by
layout content — a layout reused between mask refreshes pays the
index-construction cost once.

All operators register fused custom backwards, so skipping a block in the
forward pass also skips its gradient work — the property derived in the
paper's Section II-D.
"""

from repro.sparsity.ops.layout import MultiHeadLayout
from repro.sparsity.ops.geometry_cache import (
    LayoutGeometryCache,
    compute_block_geometry,
)
from repro.sparsity.ops.block_sparse import (
    BlockSparseMatrix,
    block_sparse_attention,
    block_sparse_sdd,
    block_sparse_dsd,
    dense_attention_reference,
)
from repro.sparsity.ops.neuron_sparse import (
    NeuronSparseWeights,
    neuron_sparse_linear_pair,
    neuron_sparse_matmul,
)

__all__ = [
    "MultiHeadLayout",
    "LayoutGeometryCache",
    "compute_block_geometry",
    "BlockSparseMatrix",
    "block_sparse_attention",
    "block_sparse_sdd",
    "block_sparse_dsd",
    "dense_attention_reference",
    "NeuronSparseWeights",
    "neuron_sparse_linear_pair",
    "neuron_sparse_matmul",
]
