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
  gradient, a trainable fc2 weight the whole hidden activation.  A frozen
  tensor is gathered once per layout; a trainable one (BitFit's fc1 bias,
  full fine-tuning's weights) again on every run of the body, so a
  compiled step replays over what the optimizer last wrote.
* **Capacity** — every buffer whose width is the active-neuron count (the
  gathers, the body's chunk scratch and ReLU mask) is allocated at the
  layer's capacity, kept on its :class:`NeuronSparseWeights`: the largest
  :func:`capacity_rung` it has needed.  The kernels work on the leading,
  C-contiguous ``n_active``-wide view, so padding is never computed on and
  every bit is the unpadded kernel's; an active set that moves within the
  capacity asks for the same buffers, which a re-recorded step takes again.
* **Memory coalescing** — the weights of the two linear layers are accessed
  neuron-wise along different axes (columns of fc1's ``(hidden, d)`` matrix
  are its *rows* in our PyTorch-style layout; fc2's ``(d, hidden)`` matrix is
  accessed along *columns*).  :class:`NeuronSparseWeights` keeps a transposed
  contiguous copy of fc2 so both gathers are contiguous row gathers.  This is
  valid while the backbone weights are frozen (PEFT); the copy is
  invalidated explicitly if they change, and not kept when they train.
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


def capacity_rung(n: int, block: int, limit: int) -> int:
    """The neuron-block rung ``n`` active neurons round up to: the most
    ``block``-neuron blocks no more than :data:`~repro.tensor.plan.GROW_SLACK`
    over ``n`` (at least enough to hold ``n``), and at most ``limit``
    neurons — the slack a plan-pool block may have over the buffer it
    holds.  It lets an active set that grows by a few blocks stay within
    its buffers."""
    blocks = max(-(-n // block), int(n * (1 + _plan.GROW_SLACK)) // block)
    return min(int(limit), blocks * block)


@dataclass
class NeuronSparseWeights:
    """A layer's neuron-sparse state across calls: its buffer capacity and
    coalescing-friendly copies of frozen weights.

    ``capacity`` is the active-neuron count every buffer sized by
    ``n_active`` is allocated for (:meth:`fit`): the largest
    :func:`capacity_rung` of ``block``-neuron blocks the layer has needed,
    so an active set that moves within it asks for the same buffers.

    ``fc1_weight`` is stored ``(hidden, d)`` so gathering active neurons is a
    contiguous row gather already; ``fc2_weight`` is ``(d, hidden)`` so with
    ``coalesced`` we keep ``fc2_weight_t`` = its transpose, C-contiguous, and
    gather rows of that instead of strided columns (valid while fc2 is
    frozen).
    """

    fc1_weight: np.ndarray
    fc2_weight: np.ndarray
    coalesced: bool = True
    block: int = 1
    capacity: int = 0
    fc2_weight_t: Optional[np.ndarray] = field(default=None, repr=False)
    _fc2_version: int = 0

    def __post_init__(self):
        if self.coalesced:
            self.refresh()

    def refresh(self) -> None:
        """Rebuild the transposed copy (call if the frozen weights changed)."""
        self.fc2_weight_t = np.ascontiguousarray(self.fc2_weight.T)
        self._fc2_version += 1

    def fit(self, n_active: int) -> int:
        """The capacity for ``n_active`` neurons, grown to its rung if it
        does not hold them."""
        if n_active > self.capacity:
            self.capacity = capacity_rung(n_active, self.block,
                                          self.fc1_weight.shape[0])
        return max(self.capacity, n_active)


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
        Optional :class:`NeuronSparseWeights`: the layer's capacity, and
        coalescing-friendly copies of the frozen weights.  Without one the
        capacity is ``n_active``.

    The body is the dense MLP's over the gathered active rows (see the
    module docstring), so the ``(rows, n_active)`` hidden activation is one
    chunk of scratch.  Every buffer sized by ``n_active`` — the weight and
    bias gathers, the chunk scratch, the ReLU mask — is allocated at the
    capacity and used through its leading view.  A frozen tensor is
    gathered once, when the kernel is bound; a trainable one again at the
    top of every run of the body, so a replay reads what the optimizer
    last wrote.  The backward produces gradients only for the active
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

    x2d = x_data.reshape(-1, d_model)
    n_active = active.shape[0]
    cap = n_active if cache is None else cache.fit(n_active)

    # The active-neuron set is constant for a plan's lifetime — a layout
    # change invalidates the whole plan — so the gathers are bound here,
    # once.  They take the zero-filled allocator, which no slab plan places.
    bound = _plan.plan_alloc(rec, zero=True)
    owners, gathers = [], []

    def gather(source: Tensor, array: np.ndarray, axis: int, shape) -> np.ndarray:
        """``array``'s active rows (``axis`` 0) or columns (1) into the
        leading ``shape`` view of a capacity-sized buffer."""
        owner = bound((cap * int(np.prod(shape)) // n_active,), array.dtype)
        out = owner[:int(np.prod(shape))].reshape(shape)
        owners.append(owner)
        if source.requires_grad:
            gathers.append((source, axis, out))
        else:
            np.take(array, active, axis=axis, mode="clip", out=out)
        return out

    fc1_active = gather(fc1_weight, fc1_weight.data, 0, (n_active, d_model))
    if (cache is not None and cache.coalesced and cache.fc2_weight_t is not None
            and not fc2_weight.requires_grad):
        fc2_active_t = gather(fc2_weight, cache.fc2_weight_t, 0, (n_active, d_model))
    else:
        fc2_active_t = gather(fc2_weight, fc2_weight.data, 1, (d_model, n_active)).T
    b1_active = gather(fc1_bias, fc1_bias.data, 0, (n_active,))

    def regather():
        for source, axis, out in gathers:
            np.take(source.data, active, axis=axis, mode="clip", out=out)

    params = (fc1_weight, fc1_bias, fc2_weight, fc2_bias)
    grad = is_grad_enabled() and any(t.requires_grad for t in (x,) + params)
    train_w1, train_b1, train_w2, train_b2 = (grad and t.requires_grad for t in params)
    out2d, hidden, rows_backward = _fused.mlp_rows(
        x2d, fc1_active, b1_active, fc2_active_t, fc2_bias.data, activation,
        rec, "neuron_sparse_mlp", grad=grad, keep_hidden=train_w2,
        keep_act_grad=train_w1 or train_b1, capacity=cap,
        widest=fc1_weight.shape[0], prologue=regather if gathers else None)
    if rec is None:
        # Every replay reads the bias gather, so it is the thunk's own while
        # recording; only an interpreted call hands it back.
        _arena.release(owners[-1])
    out = out2d.reshape(*x_data.shape[:-1], d_model)
    # Flags and shapes, not the input: the closure reaches ``x`` only for
    # fc1's weight gradient.
    x_shape, need_dx = x_data.shape, x.requires_grad
    x_kept = x2d if train_w1 else None
    weights = owners[:2]

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
            grad_fc2 = _arena.zeros(fc2_weight.shape, fc2_weight.data.dtype)
            grad_fc2[:, active] = (hidden.T @ grad2d).T
            _arena.release(hidden)
        # Through the activation, chunk by chunk: (N, n_active).
        grad_x, grad_hidden = rows_backward(grad2d, need_dx)
        grad_fc1 = grad_b1 = None
        if train_w1:
            grad_fc1 = _arena.zeros(fc1_weight.shape, fc1_weight.data.dtype)
            grad_fc1[active] = grad_hidden.T @ x_kept
        if train_b1:
            grad_b1 = _arena.zeros(fc1_bias.shape, fc1_bias.data.dtype)
            grad_b1[active] = grad_hidden.sum(axis=0)
        if grad_x is not None:
            grad_x = grad_x.reshape(x_shape)
        _arena.release(grad_hidden, *weights)
        return grad_x, grad_fc1, grad_b1, grad_fc2, grad_fc2_bias

    return custom_op(out, (x,) + params, backward)
