"""Collection of predictor training data from the frozen model.

Predictors are trained offline on data gathered from inference-style passes
of the (frozen) backbone — exactly the situation of the paper: "All
predictors are pre-trained offline using data collected from model
inference."  For every layer we record

* the input to the attention sub-layer (post-LayerNorm hidden states) and the
  exact attention probabilities of every head, read row tile by row tile
  from the exposer's no-grad sweep
  (:func:`~repro.sparsity.exposer.attention.attention_probability_tiles`)
  beside the frozen forward's own tiled attention, which keeps none — and
* the input to the MLP sub-layer and the post-ReLU activations.

The recorded inputs become predictor inputs; the exposer converts the exact
probabilities / activations into the binary block labels the predictors are
trained against.  ``prepare`` keeps only what those conversions read
(:func:`collect_block_mass`): each sample's block mass in place of the
probabilities, and three reductions in place of the activations.  It
calibrates the trained predictors on the same merged recordings, at the
batches' one length.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional

import numpy as np

from repro.models.base import CausalLMModel
from repro.nn.attention import causal_mask
from repro.sparsity.exposer.attention import attention_probability_tiles
from repro.sparsity.exposer.mlp import MLPExposer
from repro.sparsity.patterns import block_count
from repro.sparsity.predictor.training import mlp_token_block_mass
from repro.tensor import functional as F, no_grad


@dataclass
class CollectedLayerData:
    """Per-layer recordings across all collection batches."""

    attention_inputs: List[np.ndarray] = field(default_factory=list)   # (batch, seq, dim)
    # collect_layer_data fills the probabilities; collect_block_mass instead
    # fills their per-sample block mass.
    attention_probs: List[np.ndarray] = field(default_factory=list)    # (batch, heads, seq, seq)
    attention_block_mass: List[np.ndarray] = field(default_factory=list)  # (batch, heads, nb, nb)
    mlp_inputs: List[np.ndarray] = field(default_factory=list)         # (batch, seq, dim)
    # collect_layer_data fills the activations; collect_block_mass instead
    # fills what prepare reads of them: each token's neuron-block mass, each
    # sample's per-neuron mass, and the whole set's per-neuron mass.
    mlp_activations: List[np.ndarray] = field(default_factory=list)    # (batch, seq, hidden)
    mlp_token_block_mass: List[np.ndarray] = field(default_factory=list)  # (batch, seq, nb)
    mlp_neuron_mass: List[np.ndarray] = field(default_factory=list)    # (batch, hidden)
    mlp_total_mass: Optional[np.ndarray] = None                        # (hidden,)

    def merged(self) -> Dict[str, np.ndarray]:
        """The recordings along the batch axis: per-batch recordings are
        concatenated here (``prepare``'s are recorded whole, one array for
        all batches), and ``mlp_total_mass`` is the whole set's already.

        The concatenation replaces the per-batch recordings, which are freed
        — ``prepare`` never holds both, and a second call returns the same
        arrays — so the returned arrays are the record's own: copy before
        writing to them.
        """
        out = {}
        for name in ("attention_inputs", "attention_probs", "attention_block_mass",
                     "mlp_inputs", "mlp_activations", "mlp_token_block_mass",
                     "mlp_neuron_mass"):
            arrays = getattr(self, name)
            if len(arrays) > 1:
                arrays[:] = [np.concatenate(arrays, axis=0)]
            if arrays:
                out[name] = arrays[0]
        if self.mlp_total_mass is not None:
            out["mlp_total_mass"] = self.mlp_total_mass
        return out


def _collect(model: CausalLMModel, batches: Iterable[np.ndarray],
             record_attention: Callable, record_mlp: Callable) -> List[CollectedLayerData]:
    """The frozen-model pass loop.  ``record_attention(record, q, k, scale)``
    decides what is kept of the layer's causal attention probabilities, and
    ``record_mlp(record, act, shapes, place)`` what of its post-ReLU
    activations ``act``: the batch's rows go to rows ``r0:r1`` of recording
    ``group``, ``place = (group, r0, r1)``, among recordings of ``(samples,
    seq)`` ``shapes``.

    There is one recording for all batches when they share a length, which
    is ``prepare``'s case (nothing for ``merged`` to concatenate, so no
    recording is ever held twice), else one per batch.  Each layer's
    attention and MLP inputs are allocated before the first forward, and
    the batches' rows are copied in, so the long-lived recordings are not
    scattered among the forward's temporaries.
    """
    batches = [ids if ids.ndim == 2 else ids[None, :] for ids in map(np.asarray, batches)]
    sizes = [ids.shape[0] for ids in batches]
    if len({ids.shape[1] for ids in batches}) == 1:
        ends = np.cumsum(sizes).tolist()
        shapes = [(ends[-1], batches[0].shape[1])]
        places = [(0, end - size, end) for size, end in zip(sizes, ends)]
    else:
        shapes = [ids.shape for ids in batches]
        places = [(i, 0, size) for i, size in enumerate(sizes)]
    cfg, dtype = model.config, model.token_embedding.weight.dtype
    layers = [CollectedLayerData(
        attention_inputs=[np.empty(shape + (cfg.dim,), dtype) for shape in shapes],
        mlp_inputs=[np.empty(shape + (cfg.dim,), dtype) for shape in shapes])
        for _ in model.blocks]
    with no_grad():
        for input_ids, (group, r0, r1) in zip(batches, places):
            bsz, seq = input_ids.shape
            mask = causal_mask(seq)
            positions = np.broadcast_to(np.arange(seq), (bsz, seq))
            hidden = (model.token_embedding(input_ids)
                      + model.position_embedding(positions))
            for layer_idx, block in enumerate(model.blocks):
                record = layers[layer_idx]
                attention = block.attention
                x_norm = block.attn_norm(hidden)
                record.attention_inputs[group][r0:r1] = x_norm.data
                q, k, v = (attention.split_heads(proj(x_norm)) for proj in (
                    attention.q_proj, attention.k_proj, attention.v_proj))
                scale = float(1.0 / np.sqrt(attention.head_dim))
                context = F.scaled_dot_product_attention(
                    q, k, v, mask, scale=scale, tile=attention.row_tile)
                record_attention(record, q.data, k.data, scale)
                hidden = hidden + attention.out_proj(attention.merge_heads(context))

                x_norm2 = block.mlp_norm(hidden)
                record.mlp_inputs[group][r0:r1] = x_norm2.data
                act = getattr(block.mlp.fc1(x_norm2), block.mlp.activation_name)()
                record_mlp(record, act.data, shapes, (group, r0, r1))
                hidden = hidden + block.mlp.fc2(act)
    return layers


def collect_layer_data(model: CausalLMModel,
                       batches: Iterable[np.ndarray]) -> List[CollectedLayerData]:
    """Run inference passes and record per-layer predictor training data.

    Every layer's ``(batch, heads, seq, seq)`` float32 probabilities stay
    alive in the result, written tile by tile out of the same sweep
    :func:`collect_block_mass` reduces: the recorder for
    :mod:`repro.analysis` and the twin tests hold ``prepare`` against.

    Parameters
    ----------
    model:
        The (frozen) backbone model — collection must happen *before* PEFT
        wrapping so the recorded statistics describe the pre-trained weights.
    batches:
        Iterable of integer token-id arrays of shape ``(batch, seq)``.

    Returns
    -------
    list of :class:`CollectedLayerData`, one entry per transformer layer.
    """
    def record_probs(record, q, k, scale):
        probs = np.zeros(q.shape[:3] + (q.shape[2],), q.dtype)
        for r0, tile in attention_probability_tiles(q, k, scale):
            probs[:, :, r0:r0 + tile.shape[2], :tile.shape[3]] = tile
        record.attention_probs.append(probs)

    def record_activations(record, act, shapes, place):
        if not record.mlp_activations:
            record.mlp_activations = [np.empty(shape + act.shape[-1:], act.dtype)
                                      for shape in shapes]
        group, r0, r1 = place
        record.mlp_activations[group][r0:r1] = act

    return _collect(model, batches, record_probs, record_activations)


def collect_block_mass(model: CausalLMModel, batches: Iterable[np.ndarray],
                       exposer) -> List[CollectedLayerData]:
    """:func:`collect_layer_data` with the probabilities and the MLP
    activations reduced at production.

    Every consumer of the probabilities reads them through
    ``exposer.block_reduce``, so each row tile of the sweep is reduced the
    moment it is yielded into per-sample ``(heads, n_blocks, n_blocks)``
    float32 masses at the batch's own length, and no more of the
    probabilities than one tile ever exists.  Tiles start on block
    boundaries, so this is bitwise equal to reducing
    :func:`collect_layer_data`'s probabilities sample by sample (for power-of-
    two block sizes up to ``ROW_TILE``, where both sweep the same tiles).

    No ``(…, hidden)`` activation is kept either.  Each batch's activations
    are reduced, as they are produced, to the three things ``prepare``
    reads of them, each bitwise what it would compute from
    :func:`collect_layer_data`'s whole activations:

    * ``mlp_token_block_mass`` — :func:`mlp_token_block_mass` at the
      exposer's block size, which the MLP probes' labels threshold;
    * ``mlp_neuron_mass`` — each sample's
      :meth:`~repro.sparsity.exposer.MLPExposer.neuron_mass`, which gives
      its ground-truth block set;
    * ``mlp_total_mass`` — the whole set's, which calibration reads.  NumPy
      sums axis 0 row after row, and a sum of per-batch sums rounds
      differently, so each batch's rows are added on to the running total
      in the same order.
    """
    bs = exposer.block_size

    def record_mass(record, q, k, scale):
        batch, heads, seq, _ = q.shape
        n_blocks = block_count(seq, bs)
        mass = np.zeros((batch, heads, n_blocks, n_blocks), q.dtype)
        for r0, probs in attention_probability_tiles(q, k, scale, bs):
            part = exposer.tile_block_mass(probs)
            mass[:, :, r0 // bs:r0 // bs + part.shape[2], :part.shape[3]] = part
        record.attention_block_mass.append(mass)

    def record_reductions(record, act, shapes, place):
        hidden = act.shape[-1]
        if not record.mlp_neuron_mass:
            record.mlp_token_block_mass = [
                np.empty(shape + (block_count(hidden, bs),), np.float32) for shape in shapes]
            record.mlp_neuron_mass = [np.empty(shape[:1] + (hidden,), act.dtype)
                                      for shape in shapes]
        group, r0, r1 = place
        record.mlp_token_block_mass[group][r0:r1] = mlp_token_block_mass(act, bs)
        for row, sample in enumerate(act, start=r0):
            record.mlp_neuron_mass[group][row] = MLPExposer.neuron_mass(sample)
        rows = np.abs(act).reshape(-1, hidden)
        if record.mlp_total_mass is not None:
            rows[0] += record.mlp_total_mass
        record.mlp_total_mass = rows.sum(axis=0)

    return _collect(model, batches, record_mass, record_reductions)
