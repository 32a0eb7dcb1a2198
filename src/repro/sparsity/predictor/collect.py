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
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.models.base import CausalLMModel
from repro.nn.attention import causal_mask
from repro.sparsity.patterns import block_count
from repro.tensor import Tensor, no_grad


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


_ROW_TILE = 128      # query rows per collection-softmax tile


def _dense_attention_probs(q: np.ndarray, k: np.ndarray,
                           rows: int = _ROW_TILE) -> Iterator[Tuple[tuple, int, np.ndarray]]:
    """Exact float64 causal attention probabilities from float32 ``q``/``k``,
    one head and ``rows`` query rows at a time.

    The only place the collection softmax lives.  Yields ``(head, start,
    tile)`` for every head index of ``q.shape[:-2]`` and every row tile:
    ``tile`` is rows ``start:start + len(tile)`` of that head's ``(seq,
    seq)`` probabilities, in one float64 buffer the next tile overwrites.
    A tile computes only its causal key prefix ``[:stop]`` — float32 GEMM,
    then scale, mask, max and ``exp`` in float64 — zero-fills the keys past
    it and sums the full row width, so every value, and every denominator's
    summation order, is the whole-matrix softmax's bit for bit.
    """
    seq = k.shape[-2]
    rows = min(rows, seq)
    scale = 1.0 / np.sqrt(q.shape[-1])
    mask = causal_mask(seq)
    scores = np.empty(rows * seq, np.float32)
    probs = np.empty((rows, seq), np.float64)
    for head in np.ndindex(*q.shape[:-2]):
        for start in range(0, seq, rows):
            stop = min(start + rows, seq)
            tile = probs[:stop - start]
            prefix, keep = tile[:, :stop], mask[start:stop, :stop]
            s = scores[:prefix.size].reshape(prefix.shape)
            np.matmul(q[head][start:stop], k[head][:stop].T, out=s)
            # float32 scores times a float64 scalar: NumPy 2 promotes the
            # chain to float64, NumPy 1.x's value-based casting kept float32
            # and trained different predictors.  Pin float64 (the recorded
            # digests').
            np.multiply(s, scale, out=prefix, dtype=np.float64)
            np.copyto(prefix, -1e9, where=~keep)
            prefix -= prefix.max(axis=-1, keepdims=True)
            np.exp(prefix, out=prefix)
            prefix *= keep
            tile[:, stop:] = 0.0
            denom = tile.sum(axis=-1, keepdims=True)
            tile /= np.where(denom == 0, 1.0, denom)
            yield head, start, tile


def _attention_output(attention, q: Tensor, k: Tensor, v: Tensor,
                      mask: np.ndarray, x: Tensor) -> Tensor:
    """``attention(x, attn_mask=mask)`` from its projected ``q``/``k``/``v``,
    running the module's backend one head at a time — bitwise the all-head
    call, at one head's scores of memory."""
    context = np.empty(v.shape, v.data.dtype)
    for head in range(q.shape[1]):
        one = slice(head, head + 1)
        context[:, one] = attention.backend(
            attention, q[:, one], k[:, one], v[:, one], mask, x).data
    return attention.dropout(attention.out_proj(attention.merge_heads(Tensor(context))))


def _collect(model: CausalLMModel, batches: Iterable[np.ndarray],
             max_batches: Optional[int], truncate_to: Optional[int],
             record_attention: Callable) -> List[CollectedLayerData]:
    """The frozen-model pass loop; ``record_attention(record, q, k)``
    decides what is kept of each layer's causal attention probabilities."""
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
                record_attention(record, q.data, k.data)
                hidden = hidden + _attention_output(attention, q, k, v, mask, x_norm)

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
    alive in the result, copied tile by tile out of the same softmax
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
    def record_probs(record, q, k):
        probs = np.empty(q.shape[:-1] + (k.shape[-2],), np.float64)
        for head, start, tile in _dense_attention_probs(q, k):
            probs[head][start:start + len(tile)] = tile
        record.attention_probs.append(probs)

    return _collect(model, batches, max_batches, truncate_to, record_probs)


def collect_block_mass(model: CausalLMModel, batches: Iterable[np.ndarray],
                       exposer, lengths: Sequence[int]) -> List[CollectedLayerData]:
    """:func:`collect_layer_data` with the probabilities reduced at production.

    Every consumer of the probabilities reads them through
    ``exposer.block_reduce``, so each row tile the softmax yields is reduced
    on the spot — per entry of ``lengths`` the batch reaches, on that prefix
    — into per-sample ``(heads, n_blocks, n_blocks)`` masses, and no more of
    the probabilities than one head's tile ever exists.  Bitwise equal to
    reducing :func:`collect_layer_data`'s probabilities sample by sample.
    """
    bs = exposer.block_size
    rows = max(1, _ROW_TILE // bs) * bs      # tiles hold whole query blocks

    def record_mass(record, q, k):
        reached = [length for length in lengths if length <= k.shape[-2]]
        if not reached:
            return
        masses = {length: np.zeros(q.shape[:2] + (block_count(length, bs),) * 2)
                  for length in reached}
        for head, start, tile in _dense_attention_probs(q, k, rows):
            for length in reached:
                if start < length:
                    first = start // bs
                    block_rows = exposer.block_reduce(
                        tile[None, None, :length - start, :length], start)[0]
                    masses[length][head][first:first + len(block_rows)] = block_rows
        for length in reached:
            record.attention_block_mass.setdefault(length, []).extend(masses[length])

    return _collect(model, batches, None, None, record_mass)
