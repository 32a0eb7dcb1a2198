"""Collection of predictor training data from the frozen model.

Predictors are trained offline on data gathered from inference-style passes
of the (frozen) backbone — exactly the situation of the paper: "All
predictors are pre-trained offline using data collected from model
inference."  For every layer we record

* the input to the attention sub-layer (post-LayerNorm hidden states) and the
  exact attention probabilities of every head, and
* the input to the MLP sub-layer and the post-ReLU activations.

The recorded inputs become predictor inputs; the exposer converts the exact
probabilities / activations into the binary block labels the predictors are
trained against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence

import numpy as np

from repro.models.base import CausalLMModel
from repro.nn.attention import causal_mask
from repro.tensor import no_grad


@dataclass
class CollectedLayerData:
    """Per-layer recordings across all collection batches."""

    attention_inputs: List[np.ndarray] = field(default_factory=list)   # (batch, seq, dim)
    # collect_layer_data fills the probabilities; collect_block_mass instead
    # fills length -> one (heads, n_blocks, n_blocks) float64 mass per sample.
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


def _dense_attention_probs(q: np.ndarray, k: np.ndarray, mask: np.ndarray,
                           out: Optional[np.ndarray] = None) -> np.ndarray:
    """Exact float64 attention probabilities from float32 ``q``/``k``.

    The only place the collection softmax lives.  ``out``, a float64
    ``(batch, heads, seq, seq)`` buffer, is reused when given; the float32
    scores exist one ``(seq, seq)`` head at a time and the rest runs in place.
    """
    shape = q.shape[:-1] + (k.shape[-2],)
    probs = np.empty(shape, np.float64) if out is None else out
    scores = np.empty(shape[-2:], np.float32)
    scale = 1.0 / np.sqrt(q.shape[-1])
    for head in np.ndindex(*shape[:-2]):
        np.matmul(q[head], k[head].T, out=scores)
        # float32 scores times a float64 scalar: NumPy 2 promotes the chain
        # to float64, NumPy 1.x's value-based casting kept float32 and
        # trained different predictors.  Pin float64 (the recorded digests').
        np.multiply(scores, scale, out=probs[head], dtype=np.float64)
    np.copyto(probs, -1e9, where=~mask)
    probs -= probs.max(axis=-1, keepdims=True)
    np.exp(probs, out=probs)
    probs *= mask
    denom = probs.sum(axis=-1, keepdims=True)
    probs /= np.where(denom == 0, 1.0, denom)
    return probs


def _collect(model: CausalLMModel, batches: Iterable[np.ndarray],
             max_batches: Optional[int], truncate_to: Optional[int],
             record_attention: Callable) -> List[CollectedLayerData]:
    """The frozen-model pass loop; ``record_attention(record, q, k, mask)``
    decides what is kept of each layer's attention probabilities."""
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
                record_attention(
                    record, attention.split_heads(attention.q_proj(x_norm)).data,
                    attention.split_heads(attention.k_proj(x_norm)).data, mask)
                hidden = hidden + attention(x_norm, attn_mask=mask)

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

    Every layer's ``(batch, heads, seq, seq)`` float64 probabilities stay
    alive in the result: the recorder for :mod:`repro.analysis` and the twin
    tests hold :func:`collect_block_mass` (what ``prepare`` runs) against.

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
    def record_probs(record, q, k, mask):
        record.attention_probs.append(_dense_attention_probs(q, k, mask))

    return _collect(model, batches, max_batches, truncate_to, record_probs)


def collect_block_mass(model: CausalLMModel, batches: Iterable[np.ndarray],
                       exposer, lengths: Sequence[int]) -> List[CollectedLayerData]:
    """:func:`collect_layer_data` with the probabilities reduced at production.

    Every consumer of the probabilities reads them through
    ``exposer.block_reduce``, so each sample's are computed in one reused
    scratch buffer and reduced on the spot — per entry of ``lengths`` the
    batch reaches, on that prefix — keeping only the ``(heads, n_blocks,
    n_blocks)`` masses.  Bitwise equal to reducing :func:`collect_layer_data`'s
    probabilities sample by sample, at one sample's probabilities of memory.
    """
    scratch = None      # one sample's probabilities, reused across the pass

    def record_mass(record, q, k, mask):
        nonlocal scratch
        shape = (1,) + q.shape[1:3] + (k.shape[2],)
        reached = [length for length in lengths if length <= shape[-1]]
        if not reached:
            return
        if scratch is None or scratch.shape != shape:
            scratch = np.empty(shape, np.float64)
        for sample in range(q.shape[0]):
            probs = _dense_attention_probs(q[sample:sample + 1],
                                           k[sample:sample + 1], mask, scratch)
            for length in reached:
                record.attention_block_mass.setdefault(length, []).append(
                    exposer.block_reduce(probs[:, :, :length, :length]))

    return _collect(model, batches, None, None, record_mass)
