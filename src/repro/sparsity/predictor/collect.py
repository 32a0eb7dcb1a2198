"""Collection of predictor training data from the frozen model.

Predictors are trained offline on data gathered from inference-style passes
of the (frozen) backbone — exactly the situation of the paper: "All
predictors are pre-trained offline using data collected from model
inference."  For every layer we record

* the input to the attention sub-layer (post-LayerNorm hidden states) and the
  exact attention probabilities of every head — the frozen forward's own
  softmax, nothing recomputed beside it — and
* the input to the MLP sub-layer and the post-ReLU activations.

The recorded inputs become predictor inputs; the exposer converts the exact
probabilities / activations into the binary block labels the predictors are
trained against.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence

import numpy as np

from repro.models.base import CausalLMModel
from repro.nn.attention import causal_mask
from repro.sparsity.patterns import block_count
from repro.tensor import Tensor, fused, no_grad


@dataclass
class CollectedLayerData:
    """Per-layer recordings across all collection batches."""

    attention_inputs: List[np.ndarray] = field(default_factory=list)   # (batch, seq, dim)
    # collect_layer_data fills the probabilities; collect_block_mass instead
    # fills length -> one (heads, n_blocks, n_blocks) float32 mass per sample.
    attention_probs: List[np.ndarray] = field(default_factory=list)    # (batch, heads, seq, seq)
    attention_block_mass: Dict[int, List[np.ndarray]] = field(default_factory=dict)
    mlp_inputs: List[np.ndarray] = field(default_factory=list)         # (batch, seq, dim)
    mlp_activations: List[np.ndarray] = field(default_factory=list)    # (batch, seq, hidden)

    def merged(self, truncate_to: Optional[int] = None) -> Dict[str, np.ndarray]:
        """Concatenate recordings along the batch axis.

        With ``truncate_to=L`` every recording is sliced to its first ``L``
        positions (recordings shorter than ``L`` are skipped, mirroring
        ``collect_layer_data(truncate_to=...)``).  For a *causal* model this
        is exact, not an approximation: position ``t`` of every recorded
        quantity — post-LayerNorm inputs, attention probabilities (row ``t``
        attends only to keys ``<= t``), post-ReLU activations — depends only
        on tokens ``<= t``, so the slice of a full-length pass equals the
        recording of a pass over the truncated batch.  This is what lets the
        calibration grid reuse *one* collection at the maximum length instead
        of re-running a frozen-model pass per grid length.  Block mass is the
        exception (a ragged last block would keep keys past ``L``): it is
        what :func:`collect_block_mass` reduced from the ``L``-prefix itself.
        """
        def cut(arrays: List[np.ndarray], probs: bool = False) -> np.ndarray:
            if truncate_to is not None:
                length = int(truncate_to)
                arrays = [a[:, :, :length, :length] if probs else a[:, :length]
                          for a in arrays if a.shape[-2] >= length]
                if not arrays:
                    raise ValueError(f"no recording is at least {length} tokens long")
            return np.concatenate(arrays, axis=0)

        out = {name: cut(getattr(self, name))
               for name in ("attention_inputs", "mlp_inputs", "mlp_activations")}
        if self.attention_probs:
            out["attention_probs"] = cut(self.attention_probs, probs=True)
        if self.attention_block_mass:
            out["attention_block_mass"] = np.stack(self.attention_block_mass[
                out["attention_inputs"].shape[1]])
        return out


def _attention_output(attention, q: Tensor, k: Tensor, v: Tensor, mask: np.ndarray,
                      record_head: Callable[[int, np.ndarray], None]) -> Tensor:
    """The frozen forward's attention sub-layer from its projected
    ``q``/``k``/``v``: the materialising fused SDPA one head at a time —
    bitwise the all-head call, at one head's scores of memory — handing each
    head's float32 probabilities ``(batch, 1, seq, seq)`` to
    ``record_head(head, probs)``."""
    scale = float(1.0 / np.sqrt(attention.head_dim))
    context = np.empty(v.shape, v.data.dtype)
    for head in range(q.shape[1]):
        one = slice(head, head + 1)
        out, probs = fused.scaled_dot_product_attention(
            q[:, one], k[:, one], v[:, one], mask, scale=scale, return_probs=True)
        context[:, one] = out.data
        record_head(head, probs)
    return attention.dropout(attention.out_proj(attention.merge_heads(Tensor(context))))


def _collect(model: CausalLMModel, batches: Iterable[np.ndarray],
             max_batches: Optional[int], truncate_to: Optional[int],
             record_attention: Callable) -> List[CollectedLayerData]:
    """The frozen-model pass loop; ``record_attention(record, head, probs)``
    decides what is kept of each head's causal attention probabilities."""
    layers = [CollectedLayerData() for _ in model.blocks]
    with no_grad():
        for index, batch in enumerate(batches):
            if max_batches is not None and index >= max_batches:
                break
            input_ids = np.asarray(batch)
            if input_ids.ndim == 1:
                input_ids = input_ids[None, :]
            if truncate_to is not None:
                if input_ids.shape[-1] < truncate_to:
                    continue
                input_ids = input_ids[..., :truncate_to]
            bsz, seq = input_ids.shape
            mask = causal_mask(seq)
            positions = np.broadcast_to(np.arange(seq), (bsz, seq))
            hidden = (model.token_embedding(input_ids)
                      + model.position_embedding(positions))
            for layer_idx, block in enumerate(model.blocks):
                record = layers[layer_idx]
                attention = block.attention
                x_norm = block.attn_norm(hidden)
                record.attention_inputs.append(x_norm.data.copy())
                q, k, v = (attention.split_heads(proj(x_norm)) for proj in (
                    attention.q_proj, attention.k_proj, attention.v_proj))
                hidden = hidden + _attention_output(
                    attention, q, k, v, mask, functools.partial(record_attention, record))

                x_norm2 = block.mlp_norm(hidden)
                record.mlp_inputs.append(x_norm2.data.copy())
                pre = block.mlp.fc1(x_norm2)
                act = block.mlp.activation(pre)
                record.mlp_activations.append(act.data.copy())
                hidden = hidden + block.mlp.fc2(act)
    return layers


def collect_layer_data(model: CausalLMModel, batches: Iterable[np.ndarray],
                       max_batches: Optional[int] = None,
                       truncate_to: Optional[int] = None) -> List[CollectedLayerData]:
    """Run inference passes and record per-layer predictor training data.

    Every layer's ``(batch, heads, seq, seq)`` float32 probabilities stay
    alive in the result, copied head by head out of the same softmax
    :func:`collect_block_mass` reduces: the recorder for
    :mod:`repro.analysis` and the twin tests hold ``prepare`` against.

    Parameters
    ----------
    model:
        The (frozen) backbone model — collection must happen *before* PEFT
        wrapping so the recorded statistics describe the pre-trained weights.
    batches:
        Iterable of integer token-id arrays of shape ``(batch, seq)``.
    max_batches:
        Optional cap on the number of batches to record.
    truncate_to:
        Optional sequence length to truncate every batch to before the pass;
        batches shorter than this are skipped entirely.

    Returns
    -------
    list of :class:`CollectedLayerData`, one entry per transformer layer.
    """
    heads = model.config.num_heads

    def record_probs(record, head, probs):
        if head == 0:
            record.attention_probs.append(
                np.empty((len(probs), heads) + probs.shape[2:], probs.dtype))
        record.attention_probs[-1][:, head] = probs[:, 0]

    return _collect(model, batches, max_batches, truncate_to, record_probs)


def collect_block_mass(model: CausalLMModel, batches: Iterable[np.ndarray],
                       exposer, lengths: Sequence[int]) -> List[CollectedLayerData]:
    """:func:`collect_layer_data` with the probabilities reduced at production.

    Every consumer of the probabilities reads them through
    ``exposer.block_reduce``, so each head's probabilities are reduced the
    moment the frozen forward's softmax yields them — per entry of
    ``lengths`` the batch reaches, on that prefix — into per-sample
    ``(heads, n_blocks, n_blocks)`` float32 masses, and no more of the
    probabilities than one head's ever exists.  Bitwise equal to reducing
    :func:`collect_layer_data`'s probabilities sample by sample.
    """
    heads = model.config.num_heads

    def record_mass(record, head, probs):
        for length in lengths:
            if length > probs.shape[-1]:
                continue
            masses = record.attention_block_mass.setdefault(length, [])
            if head == 0:
                n_blocks = block_count(length, exposer.block_size)
                masses.extend(np.empty((heads, n_blocks, n_blocks), probs.dtype)
                              for _ in probs)
            for mass, sample in zip(masses[-len(probs):], probs):
                mass[head] = exposer.block_reduce(sample[None, :, :length, :length])[0]

    return _collect(model, batches, None, None, record_mass)
