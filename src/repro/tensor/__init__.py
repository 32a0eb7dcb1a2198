"""Reverse-mode automatic differentiation engine on top of NumPy.

This subpackage is the computational substrate that replaces PyTorch in the
reproduction: a :class:`~repro.tensor.tensor.Tensor` wraps a ``numpy.ndarray``
and records the operations applied to it so that gradients can be obtained by
calling :meth:`Tensor.backward`.  All higher layers (``repro.nn``,
``repro.models``, ``repro.peft``, ``repro.sparsity``) are written against this
engine, so the forward *and* backward FLOP structure of fine-tuning — the
thing LongExposure's sparsity attacks — is fully materialised in Python and
can be timed, instrumented and sparsified.

Design notes
------------
* Operations are vectorised NumPy calls; the graph is a thin closure-based
  tape (similar in spirit to micrograd, but fully broadcast-aware and
  batched).
* Gradients are accumulated into ``Tensor.grad`` as plain ``numpy.ndarray``
  objects to avoid building second-order graphs.
* Custom primitives used by the sparse operators register their own backward
  closures (see :mod:`repro.sparsity.ops`), which is how the paper's claim
  that "inactive parameters are excluded from the gradient computation"
  (Section II-D) is realised here.
* The training hot path runs on the fused single-node kernels in
  :mod:`repro.tensor.fused` (layer norm, linear+activation, LoRA, cross
  entropy over logits or through the LM head, the attention core); :mod:`repro.tensor.reference` holds
  the equivalent primitive compositions used for gradchecking and as the
  deep-tape baseline, entered through the
  :func:`repro.tensor.fused.reference_kernels` context.
"""

from repro.tensor.tensor import Tensor, no_grad, is_grad_enabled
from repro.tensor import fused
from repro.tensor import functional
from repro.tensor import reference

__all__ = ["Tensor", "no_grad", "is_grad_enabled", "functional", "fused", "reference"]
