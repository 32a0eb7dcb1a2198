"""Neuron-centric sparse MLP operators (paper Section VI-B).

The ReLU sparsity of an OPT MLP block is column/row structured: if a hidden
neuron is inactive for the whole (filtered) sequence, the corresponding
*column* of the first linear layer and *row* of the second linear layer can
be skipped entirely, in the forward and in the backward pass.

Two ideas from the paper are realised here:

* **Neuron sparsity** — :func:`neuron_sparse_linear_pair` accepts the indices
  of the active neurons and gathers only those weight slices before running
  the dense MLP's own row-tiled body (:func:`repro.tensor.fused.mlp_rows`,
  a chunk of rows at a time); no sparse data format or conversion is
  involved, matching the "inherently compatible with the conventional
  tiling algorithm" claim.  With the base frozen, the backward keeps only
  the ReLU mask; a trainable fc1 weight or bias adds the whole activation
  gradient, a trainable fc2 weight the whole hidden activation.
* **Memory coalescing** — the weights of the two linear layers are accessed
  neuron-wise along different axes (columns of fc1's ``(hidden, d)`` matrix
  are its *rows* in our PyTorch-style layout; fc2's ``(d, hidden)`` matrix is
  accessed along *columns*).  :class:`NeuronSparseWeights` keeps a transposed
  contiguous copy of fc2 so both gathers are contiguous row gathers.  This is
  valid during PEFT because the backbone weights are frozen; the cache is
  invalidated explicitly if they change.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.tensor import Tensor
from repro.tensor import arena as _arena
from repro.tensor import fused as _fused
from repro.tensor import plan as _plan
from repro.tensor.tensor import _check_gather_bounds, custom_op, is_grad_enabled


def expand_block_indices(active_blocks: np.ndarray, block_size: int,
                         hidden_dim: int) -> np.ndarray:
    """Expand active neuron-block indices to sorted neuron indices."""
    active_blocks = np.asarray(active_blocks, dtype=np.int64)
    if active_blocks.size == 0:
        return np.zeros(0, dtype=np.int64)
    offsets = np.arange(block_size, dtype=np.int64)
    neurons = (active_blocks[:, None] * block_size + offsets[None, :]).reshape(-1)
    neurons = neurons[neurons < hidden_dim]
    return np.sort(neurons)


@dataclass
class NeuronSparseWeights:
    """Cached, coalescing-friendly views of a frozen MLP's weights.

    ``fc1_weight`` is stored ``(hidden, d)`` so gathering active neurons is a
    contiguous row gather already; ``fc2_weight`` is ``(d, hidden)`` so we
    keep ``fc2_weight_t`` = its transpose, C-contiguous, and gather rows of
    that instead of strided columns.
    """

    fc1_weight: np.ndarray
    fc2_weight: np.ndarray
    coalesced: bool = True
    fc2_weight_t: Optional[np.ndarray] = field(default=None, repr=False)
    _fc2_version: int = 0

    def __post_init__(self):
        if self.coalesced:
            self.refresh()

    def refresh(self) -> None:
        """Rebuild the transposed copy (call if the frozen weights changed)."""
        self.fc2_weight_t = np.ascontiguousarray(self.fc2_weight.T)
        self._fc2_version += 1


def neuron_sparse_linear_pair(x: Tensor,
                              fc1_weight: Tensor, fc1_bias: Tensor,
                              fc2_weight: Tensor, fc2_bias: Tensor,
                              active_neurons: np.ndarray,
                              activation: str = "relu",
                              cache: Optional[NeuronSparseWeights] = None) -> Tensor:
    """Sparse execution of ``fc2(act(fc1(x)))`` restricted to active neurons.

    Parameters
    ----------
    x:
        Input of shape ``(batch, seq, d)``.
    fc1_weight, fc1_bias, fc2_weight, fc2_bias:
        The MLP parameters (PyTorch layouts: fc1 ``(hidden, d)``, fc2
        ``(d, hidden)``).
    active_neurons:
        Sorted integer indices of the hidden neurons to compute.
    activation:
        ``"relu"`` (the only activation with exact zeros; GeLU models do not
        use this path).
    cache:
        Optional :class:`NeuronSparseWeights` holding coalescing-friendly
        copies of the frozen weights.

    The body is the dense MLP's over the gathered active rows (see the
    module docstring), so the ``(rows, n_active)`` hidden activation is one
    chunk of scratch.  The backward produces gradients only for the active
    columns/rows of the weight matrices (zeros elsewhere), for the active
    bias entries and for ``x`` — inactive neurons are excluded from
    gradient work exactly as derived in the paper's Section II-D.
    """
    active = np.asarray(active_neurons, dtype=np.int64)
    if active.size == 0:
        raise ValueError("neuron_sparse_linear_pair requires at least one active neuron")
    if activation != "relu":
        raise ValueError("neuron-sparse MLP execution requires a ReLU activation")

    x_data = x.data
    d_model = x_data.shape[-1]
    # The weight gathers below run ``np.take(mode="clip")``, which would
    # silently clamp an out-of-range neuron index.
    _check_gather_bounds(active, fc1_weight.data.shape[0])

    rec = _plan._RECORDER
    if rec is not None and not x_data.flags.c_contiguous:
        # ``reshape`` below would copy per call — no stable replay form.
        rec.fail("neuron-sparse MLP over a non-contiguous activation")
        rec = None
    if rec is not None and any(t.requires_grad for t in
                               (fc1_weight, fc1_bias, fc2_weight, fc2_bias)):
        # The replay thunk closes over weight gathers copied at record time;
        # trainable base weights (full fine-tuning / oracle studies) would go
        # stale after the first optimizer step.  The compiled regime is PEFT
        # with a frozen base — here the step runs interpreted.
        rec.fail("neuron-sparse MLP with trainable base weights")
        rec = None

    x2d = x_data.reshape(-1, d_model)
    n_active = active.shape[0]

    # The active-neuron set and (under the veto above, whenever recording) the
    # weights are constant for a plan's lifetime — a layout change invalidates
    # the whole plan — so the weight gathers are bound here, once, and the
    # body runs only the two matmuls + ReLU.  Bound at record time, they take
    # the zero-filled allocator, which no slab plan places.
    bound = _plan.plan_alloc(rec, zero=True)
    fc1_active = np.take(fc1_weight.data, active, axis=0, mode="clip",
                         out=bound((n_active, d_model), fc1_weight.data.dtype))
    if cache is not None and cache.coalesced and cache.fc2_weight_t is not None:
        fc2_buf = np.take(cache.fc2_weight_t, active, axis=0, mode="clip",
                          out=bound((n_active, d_model),
                                    cache.fc2_weight_t.dtype))
        fc2_active_t = fc2_buf
    else:
        fc2_buf = np.take(fc2_weight.data, active, axis=1, mode="clip",
                          out=bound((d_model, n_active),
                                    fc2_weight.data.dtype))
        fc2_active_t = fc2_buf.T
    b1_active = np.take(fc1_bias.data, active, mode="clip",
                        out=bound((n_active,), fc1_bias.data.dtype))
    params = (fc1_weight, fc1_bias, fc2_weight, fc2_bias)
    grad = is_grad_enabled() and any(t.requires_grad for t in (x,) + params)
    train_w1, train_b1, train_w2, train_b2 = (grad and t.requires_grad for t in params)
    out2d, hidden, rows_backward = _fused.mlp_rows(
        x2d, fc1_active, b1_active, fc2_active_t, fc2_bias.data, activation,
        rec, "neuron_sparse_mlp", grad=grad, keep_hidden=train_w2,
        keep_act_grad=train_w1 or train_b1)
    if rec is None:
        # Every replay reads ``b1_active``, so it is the thunk's own while
        # recording; only an interpreted call hands it back.
        _arena.release(b1_active)
    out = out2d.reshape(*x_data.shape[:-1], d_model)
    # Flags and shapes, not the input: the closure reaches ``x`` only for
    # fc1's weight gradient.
    x_shape, need_dx = x_data.shape, x.requires_grad
    x_kept = x2d if train_w1 else None

    def backward(grad_out: np.ndarray):
        # Gradients are produced only for the parents that will consume them:
        # during PEFT fine-tuning the backbone fc1/fc2 are frozen, so their
        # (hidden, d)-sized zero fills and scatter matmuls are dead work the
        # autograd loop would discard anyway.
        grad2d = grad_out.reshape(-1, d_model)
        grad_fc2_bias = grad2d.sum(axis=0) if train_b2 else None
        grad_fc2 = None
        if train_w2:
            # Only active rows of the (hidden, d) transposed view, i.e.
            # active columns of the (d, hidden) weight.
            grad_fc2_active = hidden.T @ grad2d              # (n_active, d)
            grad_fc2 = _arena.zeros(fc2_weight.shape, fc2_weight.data.dtype)
            grad_fc2[:, active] = grad_fc2_active.T
        # Through the activation, chunk by chunk: (N, n_active).
        grad_x, grad_hidden = rows_backward(grad2d, need_dx)
        grad_fc1 = grad_b1 = None
        if train_w1:
            grad_fc1_active = grad_hidden.T @ x_kept          # (n_active, d)
            grad_fc1 = _arena.zeros(fc1_weight.shape, fc1_weight.data.dtype)
            grad_fc1[active] = grad_fc1_active
        if train_b1:
            grad_b1 = _arena.zeros(fc1_bias.shape, fc1_bias.data.dtype)
            grad_b1[active] = grad_hidden.sum(axis=0)
        if grad_x is not None:
            grad_x = grad_x.reshape(x_shape)
        _arena.release(grad_hidden, hidden, fc1_active, fc2_buf)
        return grad_x, grad_fc1, grad_b1, grad_fc2, grad_fc2_bias

    return custom_op(out, (x,) + params, backward)
