"""Adam with flattened single-buffer state, and gradient clipping.

Adam keeps two FP32 moment buffers per trainable parameter; this is exactly
the optimizer state whose elimination for frozen parameters gives PEFT its
optimizer-step savings (Table I) and part of its memory savings (Figure 8).

The moment buffers of all parameters live in *one* contiguous ``m`` and one
contiguous ``v`` array, beside two scratch buffers of the same size (the
gathered gradient and one temporary).  :attr:`Adam.offsets` is the layout;
:meth:`Adam.views` cuts any flat buffer in it into per-parameter views, and
:attr:`Adam._m` / :attr:`Adam._v` are those views of the moments.  When
every parameter has a gradient, :meth:`Adam.step` gathers them into the flat
gradient buffer and runs the entire elementwise update — moment EMAs, bias
correction, the final ``lr * m_hat / (sqrt(v_hat) + eps)`` — as a handful of
whole-buffer NumPy calls.  A parameter without a gradient (e.g. an unused
adapter) is skipped: its moments and data stay as they are, and the others
run the same arithmetic one at a time over their views of the same buffers.
The arithmetic is ordered exactly like the textbook per-parameter loop, so
trajectories are bitwise identical to it (asserted by the optimizer
equivalence tests).  The layout needs one dtype, so a mixed-dtype parameter
list is rejected at construction.

:func:`clip_grad_norm` is the trainer's ``grad_clip``: it rescales the
gradients to a global L2 norm between the backward pass and :meth:`Adam.step`.
"""

from __future__ import annotations

from typing import Iterable, List

import numpy as np

from repro.nn.module import Parameter


class Adam:
    """Adam (Kingma & Ba, 2015) over the provided (trainable) parameters."""

    def __init__(self, params: Iterable[Parameter], lr: float = 1e-3,
                 betas=(0.9, 0.999), eps: float = 1e-8):
        self.params: List[Parameter] = list(params)
        if not self.params:
            raise ValueError("optimizer received an empty parameter list")
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        beta1, beta2 = betas
        if not (0.0 <= beta1 < 1.0 and 0.0 <= beta2 < 1.0):
            raise ValueError("betas must be in [0, 1)")
        dtypes = {p.data.dtype for p in self.params}
        if len(dtypes) != 1:
            raise ValueError("Adam keeps one flat state buffer and needs a "
                             f"uniform parameter dtype, got {sorted(map(str, dtypes))}")
        self.lr = lr
        self.step_count = 0
        self.beta1, self.beta2 = beta1, beta2
        self.eps = eps

        self.dtype = dtypes.pop()
        sizes = [int(p.data.size) for p in self.params]
        self.offsets = np.concatenate([[0], np.cumsum(sizes)]).astype(np.int64)
        total = int(self.offsets[-1])
        # One contiguous buffer per state array, plus exactly two
        # param-population-sized scratch buffers: the gathered gradient
        # (which the update is later written into, once the moment EMAs have
        # consumed it) and one temporary for the EMA/denominator products.
        # ``state_size_bytes`` reports m+v only, matching the analytic memory
        # model.
        self._flat_m = np.zeros(total, dtype=self.dtype)
        self._flat_v = np.zeros(total, dtype=self.dtype)
        self._flat_grad = np.empty(total, dtype=self.dtype)
        self._flat_tmp = np.empty(total, dtype=self.dtype)
        self._m = self.views(self._flat_m)
        self._v = self.views(self._flat_v)
        self._grad_views = self.views(self._flat_grad)
        self._tmp_views = self.views(self._flat_tmp)

    def views(self, flat: np.ndarray) -> List[np.ndarray]:
        """Per-parameter views of a flat buffer in the :attr:`offsets` layout."""
        flat = flat.reshape(-1)
        offsets = self.offsets
        return [flat[offsets[i]:offsets[i + 1]].reshape(p.data.shape)
                for i, p in enumerate(self.params)]

    def zero_grad(self) -> None:
        """Clear accumulated gradients on all managed parameters."""
        for param in self.params:
            param.grad = None

    def _update(self, m: np.ndarray, v: np.ndarray, g: np.ndarray,
                tmp: np.ndarray, bias1: float, bias2: float) -> None:
        """Allocation-free update of ``m`` / ``v``; leaves the step in ``g``.

        Every elementwise op matches the textbook expression form one-for-one
        (scalar multiplies commuted where needed — IEEE float multiplication
        is bitwise commutative), so trajectories are bitwise identical to the
        temporaries-allocating loop.
        """
        m *= self.beta1
        np.multiply(g, 1.0 - self.beta1, out=tmp)
        m += tmp
        v *= self.beta2
        np.multiply(g, 1.0 - self.beta2, out=tmp)
        tmp *= g
        v += tmp
        # The gradient is dead from here on; reuse its buffer for the update.
        np.divide(v, bias2, out=tmp)          # v_hat
        np.sqrt(tmp, out=tmp)
        tmp += self.eps
        np.divide(m, bias1, out=g)            # m_hat
        g *= self.lr
        g /= tmp

    def step(self) -> None:
        self.step_count += 1
        t = self.step_count
        bias1 = 1.0 - self.beta1 ** t
        bias2 = 1.0 - self.beta2 ** t
        if all(p.grad is not None for p in self.params):
            for param, g in zip(self.params, self._grad_views):
                np.copyto(g, param.grad)
            self._update(self._flat_m, self._flat_v, self._flat_grad,
                         self._flat_tmp, bias1, bias2)
            for param, g in zip(self.params, self._grad_views):
                param.data -= g
            return
        for param, m, v, g, tmp in zip(self.params, self._m, self._v,
                                       self._grad_views, self._tmp_views):
            if param.grad is None:
                continue
            np.copyto(g, param.grad)
            self._update(m, v, g, tmp, bias1, bias2)
            param.data -= g

    # -- flat gradient access (data-parallel exchange) --------------------------
    #
    # The distributed trainer exchanges gradients as ONE contiguous buffer per
    # step (see repro.runtime.comms.GradientAllReducer) — the flat layout this
    # optimizer maintains for its own update is exactly the transport format.

    def grad_layout(self):
        """``(total_elements, dtype)`` of the flat gradient population."""
        return int(self.offsets[-1]), self.dtype

    def gather_flat_grad(self, out: np.ndarray) -> None:
        """Copy every ``param.grad`` into the flat buffer ``out`` in place.

        Parameters without a gradient contribute zeros (their reduced mean is
        then exactly the mean of the ranks that did produce one, scaled by
        the participating fraction — in practice every trainable parameter
        receives a gradient each step).
        """
        for param, view in zip(self.params, self.views(out)):
            if param.grad is None:
                view[...] = 0
            else:
                np.copyto(view, param.grad)

    def scatter_flat_grad(self, flat: np.ndarray) -> None:
        """Copy the flat buffer back into every ``param.grad``, in place.

        In-place (``np.copyto``) so captured/compiled steps keep their
        recorded gradient buffers; a parameter whose gradient is missing gets
        a fresh array.
        """
        for param, view in zip(self.params, self.views(flat)):
            if param.grad is None:
                param.grad = view.copy()
            else:
                np.copyto(param.grad, view)

    # -- detachable per-tenant state (serving) ---------------------------------
    #
    # The multi-tenant service pages whole optimizer states in and out as it
    # switches adapters: parameters and the m/v moments travel as flat slabs
    # in the same offset layout as the gradient exchange above.  Everything is
    # ``np.copyto``-based so the live parameter/moment buffers keep their
    # identity — compiled plans recorded against them stay valid.

    def gather_flat_params(self, out: np.ndarray) -> None:
        """Copy every ``param.data`` into the flat buffer ``out`` in place."""
        for param, view in zip(self.params, self.views(out)):
            np.copyto(view, param.data)

    def scatter_flat_params(self, flat: np.ndarray) -> None:
        """Copy the flat buffer back into every ``param.data``, in place."""
        for param, view in zip(self.params, self.views(flat)):
            np.copyto(param.data, view)

    def gather_flat_state(self, out_m: np.ndarray, out_v: np.ndarray) -> None:
        """Copy the m/v moment buffers into flat slabs, in place."""
        np.copyto(out_m.reshape(-1), self._flat_m)
        np.copyto(out_v.reshape(-1), self._flat_v)

    def scatter_flat_state(self, m: np.ndarray, v: np.ndarray) -> None:
        """Copy flat m/v slabs back into the live moment buffers, in place."""
        np.copyto(self._flat_m, m.reshape(-1))
        np.copyto(self._flat_v, v.reshape(-1))

    def state_size_bytes(self) -> int:
        return int(self._flat_m.nbytes + self._flat_v.nbytes)


def clip_grad_norm(params: Iterable[Parameter], max_norm: float) -> float:
    """Clip gradients to a global L2 norm; returns the pre-clip norm."""
    params = [p for p in params if p.grad is not None]
    if not params:
        return 0.0
    total = float(np.sqrt(sum(float((p.grad ** 2).sum()) for p in params)))
    if max_norm > 0 and total > max_norm:
        ratio = max_norm / (total + 1e-12)
        for p in params:
            p.grad = p.grad * ratio
    return total
