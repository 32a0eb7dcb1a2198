"""Core :class:`Tensor` type with reverse-mode automatic differentiation.

The engine follows the classic tape-based design: every differentiable
operation produces a new ``Tensor`` that remembers its parents and a closure
computing the local vector-Jacobian product.  Calling :meth:`Tensor.backward`
performs a topological sort of the recorded graph and accumulates gradients
into the ``grad`` attribute of every tensor created with
``requires_grad=True``.

Only the operations needed by the transformer / PEFT / LongExposure stack are
implemented, but they are implemented for arbitrary batch dimensions with
full NumPy broadcasting semantics so that the same code path serves the tiny
unit-test models and the benchmark models.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.tensor import arena as _arena
from repro.tensor import plan as _plan

ArrayLike = Union[np.ndarray, float, int, "Tensor", Sequence]

# Monotonic count of graph-node constructions (``Tensor._make`` calls).  The
# full-step compiler's contract is that a replayed step builds *zero* nodes;
# the alloc tests assert it on this counter.
_NODE_BUILDS = 0


def node_build_count() -> int:
    """Total graph nodes built so far (monotonic; diff across a step)."""
    return _NODE_BUILDS

# ---------------------------------------------------------------------------
# global autograd switch (mirrors torch.no_grad)
# ---------------------------------------------------------------------------

_GRAD_ENABLED = True


def is_grad_enabled() -> bool:
    """Return whether operations currently record gradient information."""
    return _GRAD_ENABLED


@contextlib.contextmanager
def no_grad():
    """Context manager disabling graph construction.

    Used for inference-style passes such as predictor data collection and
    downstream-task evaluation where gradients are not needed; it keeps the
    memory footprint of those passes at the inference level, matching the
    paper's observation that PEFT forward passes mirror inference.
    """
    global _GRAD_ENABLED
    previous = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = previous


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` so that it matches ``shape`` after broadcasting.

    NumPy broadcasting may have expanded the operand along leading axes or
    along axes of size one; the corresponding gradient must be summed back.
    """
    if grad.shape == shape:
        return grad
    # Sum over extra leading dimensions.
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    # Sum over broadcast (size-1) dimensions.
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


def _owner(value: np.ndarray) -> np.ndarray:
    """The array that owns ``value``'s memory (``value`` itself unless a view)."""
    while isinstance(value.base, np.ndarray):
        value = value.base
    return value


def _release_dead(arena, dead: Sequence[np.ndarray], grads: dict) -> None:
    """Return the buffers behind the gradients in ``dead`` to ``arena``.

    A gradient reaches its consumer as whatever the producing closure
    returned — often a ``reshape`` / ``transpose`` view of an arena buffer —
    so the buffer released is the one owning its memory, and only when the
    arena handed it out and no pending gradient overlaps it: closures may
    return the incoming gradient for several parents (``__add__``,
    ``concatenate``'s slices), and those readers are still to come.  An
    array without a base owns its memory and shares it with no other owner,
    so only pending views need the overlap test.  NumPy collapses the base of
    a view of a buffer on a plan-pool block to the block, so the arena finds
    the buffer behind that root
    (:meth:`~repro.tensor.arena.BufferArena.buffer_on`).
    """
    for value in dead:
        if not isinstance(value, np.ndarray):
            continue
        buf = arena.buffer_on(_owner(value))
        if buf is not None and not any(
                pending is buf or (pending.base is not None
                                   and np.may_share_memory(buf, pending))
                for pending in grads.values()):
            arena.release(buf)


def _reshape_through_arena(src: np.ndarray, shape) -> np.ndarray:
    """Reshape ``src``, sending any unavoidable copy through the arena.

    A C-contiguous source reshapes as a zero-cost view.  When numpy may
    have to copy (non-contiguous source, e.g. ``merge_heads`` over the
    reference attention's head-major output) and a buffer arena is active, the data lands in a recycled
    arena buffer instead of fresh heap — this is what keeps replayed capture
    steps free of per-step allocations.  (The gate is contiguity, not exact
    view-compatibility: probing the latter via a ``view().shape =``
    assignment internally allocates the very copy it is meant to avoid.)
    While a forward recorder is installed the copy is a plan buffer
    (:func:`repro.tensor.plan.plan_alloc`): recorded outputs must survive
    the arena's generation recycling.
    """
    if src.flags.c_contiguous:
        return src.reshape(shape)
    rec = _plan._RECORDER
    if rec is None and _arena.active() is None:
        return src.reshape(shape)
    buf = _plan.plan_alloc(rec)(src.shape, src.dtype)
    np.copyto(buf, src)
    return buf.reshape(shape)


def _binary_ufunc_key(ufunc, a: np.ndarray, b: np.ndarray):
    """Output (shape, dtype) for a binary ufunc over ``a`` and ``b``."""
    shape = np.broadcast_shapes(a.shape, b.shape)
    dtype = np.result_type(a, b)
    if ufunc is np.divide and dtype.kind not in "fc":
        # True division promotes integer operands to float64; result_type
        # alone would hand the ufunc an integer out buffer it cannot cast to.
        dtype = np.dtype(np.float64)
    return shape, dtype


def _binary_out(ufunc, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Apply a binary ufunc into a bound output buffer.

    Values are identical to ``ufunc(a, b)`` — only the output buffer's
    provenance varies (plan-owned while a forward recorder is installed, the
    arena's otherwise; see :func:`repro.tensor.plan.emit`), which is what
    keeps captured and uncaptured execution bitwise identical.
    """
    rec = _plan._RECORDER
    shape, dtype = _binary_ufunc_key(ufunc, a, b)
    out = _plan.plan_alloc(rec)(shape, dtype)

    def run(ufunc=ufunc, a=a, b=b, out=out):
        ufunc(a, b, out=out)

    _plan.emit(rec, run, ufunc.__name__)
    return out


def _matmul_out(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.matmul`` into a bound output buffer for the ndim >= 2 case."""
    rec = _plan._RECORDER
    if a.ndim < 2 or b.ndim < 2:
        if rec is not None:
            # No stable out-buffer form for the vector cases; the step's
            # forward runs interpreted.
            rec.fail("vector matmul has no replayable out-buffer form")
        return np.matmul(a, b)
    shape = (np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
             + (a.shape[-2], b.shape[-1]))
    out = _plan.plan_alloc(rec)(
        shape, np.result_type(a, b))

    def run(a=a, b=b, out=out):
        np.matmul(a, b, out=out)

    _plan.emit(rec, run, "matmul")
    return out


def _graph_freed_sentinel(grad):  # pragma: no cover - never invoked
    raise RuntimeError("freed graph sentinel should never be called")


# Marks interior nodes whose closure was dropped by a completed backward pass
# (distinguishable from the ``None`` of genuine leaf tensors).
_GRAPH_FREED = _graph_freed_sentinel


def _as_array(value: ArrayLike, dtype=None) -> np.ndarray:
    if isinstance(value, Tensor):
        value = value.data
    array = np.asarray(value)
    if dtype is not None and array.dtype != dtype:
        array = array.astype(dtype)
    elif array.dtype == np.float64:
        # Default compute precision mirrors the paper's FP32 activations.
        array = array.astype(np.float32)
    return array


class Tensor:
    """A NumPy array plus the bookkeeping needed for reverse-mode autodiff.

    Parameters
    ----------
    data:
        Anything convertible to ``numpy.ndarray``.  Float64 inputs are
        down-cast to float32, the default compute precision of the stack.
    requires_grad:
        Whether gradients should be accumulated for this tensor.
    name:
        Optional human-readable label used in profiling and debugging output.
    """

    __slots__ = ("data", "grad", "requires_grad", "name", "_backward", "_parents")

    def __init__(self, data: ArrayLike, requires_grad: bool = False, name: str = ""):
        self.data: np.ndarray = _as_array(data)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad: bool = bool(requires_grad) and _GRAD_ENABLED
        self.name = name
        self._backward: Optional[Callable[[np.ndarray], None]] = None
        self._parents: Tuple["Tensor", ...] = ()

    # -- basic introspection ------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def numel(self) -> int:
        return int(self.data.size)

    def item(self) -> float:
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else float(self.data)

    def numpy(self) -> np.ndarray:
        return self.data

    def detach(self) -> "Tensor":
        return Tensor(self.data.copy(), requires_grad=False, name=self.name)

    def copy(self) -> "Tensor":
        return Tensor(self.data.copy(), requires_grad=self.requires_grad, name=self.name)

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        flag = ", requires_grad=True" if self.requires_grad else ""
        label = f", name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}{flag}{label})"

    def __len__(self) -> int:
        return self.data.shape[0]

    # -- graph construction helpers -----------------------------------------
    @staticmethod
    def _make(data: np.ndarray, parents: Iterable["Tensor"],
              backward: Optional[Callable[[np.ndarray], None]]) -> "Tensor":
        global _NODE_BUILDS
        _NODE_BUILDS += 1
        rec = _plan._RECORDER
        if rec is not None:
            # Every node built during a recorded forward must be covered by a
            # replay thunk or a view note — frozen-region ops included, since
            # staged inputs change between replays.  The recorder's coverage
            # check (created == noted) enforces this at compile time.
            rec.created += 1
        parents = tuple(parents)
        requires = _GRAD_ENABLED and any(p.requires_grad for p in parents)
        out = Tensor(data, requires_grad=requires)
        if requires:
            out._parents = parents
            out._backward = backward
            if rec is not None:
                rec.build(out)
        return out

    # -- backward pass --------------------------------------------------------
    def backward(self, grad: Optional[ArrayLike] = None,
                 retain_graph: bool = False) -> None:
        """Back-propagate from this tensor through the recorded graph.

        ``grad`` defaults to ones for scalar outputs (the typical loss case).

        Every tensor in the graph receives exactly one accumulation via a
        single path: contributions are merged into a pending-gradient map as
        children are processed, and a node's total is either propagated
        through its ``_backward`` closure (interior node) or added to
        ``.grad`` (leaf) when the node itself is reached in reverse
        topological order.  Pending gradients are accumulated in place
        (``np.add(..., out=...)``) once this pass owns the buffer, and each
        consumed node's closure and parent references are dropped as soon as
        its contribution has been propagated — the closures hold the
        full-size forward temporaries, so this releases the bulk of the
        graph's memory mid-backward.  Pass ``retain_graph=True`` to keep the
        graph alive for a second backward over the same graph.

        Under an active buffer arena every gradient goes back to the pool at
        its last use: once its consumer's closure has run (or a leaf's
        ``.grad`` has taken it), once it has been summed into an
        accumulation buffer (either operand), or as soon as it is produced
        for a parent that takes no gradient.  The buffer released is the one
        owning the gradient's memory, and only when the arena handed it out
        in this step and no pending gradient overlaps that memory — a
        closure may pass the incoming gradient on to several parents, or as
        a view (``reshape``, ``transpose``, ``broadcast_to``).  Releases are
        settled once per node, after all of its outputs are pending.  A
        compiled step's replayed backward runs over its recorded tape
        (:class:`~repro.tensor.arena.TapeArena`), which already reuses what
        those releases freed, so nothing is released or scanned.
        """
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor that does not require grad")
        if self._backward is _GRAPH_FREED:
            raise RuntimeError(
                "backward() through a graph that has already been freed; pass "
                "retain_graph=True to the first backward() to keep it alive")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("grad must be provided for non-scalar outputs")
            seed = np.ones_like(self.data)
            seed_owned = True
        else:
            if isinstance(grad, Tensor):
                grad = grad.data
            seed = np.asarray(grad, dtype=self.data.dtype)
            # ``asarray`` copies on dtype conversion; only then is the buffer
            # exclusively ours to mutate.
            seed_owned = seed is not grad
        self._execute_backward(self._schedule(), seed, seed_owned,
                               retain_graph)

    def _schedule(self) -> Tuple["Tensor", ...]:
        """The grad-carrying graph below this tensor in backward order:
        reversed DFS post-order, this tensor first.

        The one order every backward runs in — plain, or the retained
        schedule a compiled step re-executes (see
        :mod:`repro.runtime.capture`).  Constants are left out: they never
        receive a gradient.  Iterative, so deep transformer graphs do not
        hit the recursion limit.
        """
        topo: List[Tensor] = []
        visited = set()
        stack: List[Tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if parent.requires_grad and id(parent) not in visited:
                    stack.append((parent, False))
        return tuple(reversed(topo))

    def _execute_backward(self, schedule: Tuple["Tensor", ...],
                          seed: np.ndarray, seed_owned: bool,
                          retain_graph: bool) -> None:
        """Run the accumulation loop over an already-ordered schedule."""
        arena = _arena.active()
        # A tape (a replayed backward's) takes nothing back: skip the scan.
        recycling = arena is not None and arena.recycles
        # Pending gradient per tensor id, plus the set of ids whose pending
        # buffer was allocated by this pass (and is therefore safe to mutate
        # in place — closure outputs may alias each other or the incoming
        # gradient, e.g. ``__add__`` returns the same array for both parents).
        grads = {id(self): seed}
        owned = {id(self)} if seed_owned else set()
        for node in schedule:
            nid = id(node)
            node_grad = grads.pop(nid, None)
            if node_grad is None:
                continue
            backward_fn = node._backward
            if backward_fn is _GRAPH_FREED:
                raise RuntimeError(
                    "backward() reached a node whose graph was freed by an "
                    "earlier backward(); pass retain_graph=True to that call")
            if backward_fn is None:
                # Leaf tensor (parameter or input with requires_grad).
                if node.requires_grad:
                    if node.grad is None:
                        if nid in owned:
                            node.grad = node_grad
                        elif arena is not None:
                            buf = arena.take(node_grad.shape, node_grad.dtype)
                            np.copyto(buf, node_grad)
                            node.grad = buf
                        else:
                            node.grad = node_grad.copy()
                    else:
                        np.add(node.grad, node_grad, out=node.grad)
                if recycling and node.grad is not node_grad:
                    _release_dead(arena, (node_grad,), grads)
                continue
            parents = node._parents
            parent_grads = backward_fn(node_grad)
            if not retain_graph:
                # Drop the closure (and the forward temporaries it captured)
                # as soon as its contribution has been propagated; the sentinel
                # makes a second backward over this graph fail loudly instead
                # of silently producing no parameter gradients.
                node._backward = _GRAPH_FREED
                node._parents = ()
            if not isinstance(parent_grads, tuple):
                parent_grads = () if parent_grads is None else (parent_grads,)
            # Gradients no one reads once this node is done: its own, now
            # consumed, and every closure output that is summed away or meant
            # for a parent that takes no gradient.
            dead = [node_grad]
            for parent, pgrad in zip(parents, parent_grads):
                if pgrad is None:
                    continue
                if not parent.requires_grad:
                    dead.append(pgrad)
                    continue
                raw = pgrad
                pgrad = _unbroadcast(np.asarray(pgrad, dtype=parent.data.dtype),
                                     parent.data.shape)
                pid = id(parent)
                existing = grads.get(pid)
                if pgrad is not raw:
                    dead.append(raw)
                if existing is None:
                    grads[pid] = pgrad
                    if pgrad is not raw:
                        # Cast or reduction produced a fresh buffer this pass
                        # controls; later contributions may add in place.
                        owned.add(pid)
                elif pid in owned:
                    np.add(existing, pgrad, out=existing)
                    dead.append(pgrad)
                else:
                    if arena is not None:
                        buf = arena.take(existing.shape, existing.dtype)
                        np.add(existing, pgrad, out=buf)
                        grads[pid] = buf
                    else:
                        grads[pid] = existing + pgrad
                    owned.add(pid)
                    dead += (existing, pgrad)
            if recycling:
                # Recycle the dead buffers now that every output is pending,
                # so later nodes of the same shape — typically the same op in
                # an earlier layer — reuse the hot buffers.
                _release_dead(arena, dead, grads)
            # Heap temporaries among them (a reshape's copy) die here too.
            del dead

    # -- arithmetic -----------------------------------------------------------
    def __add__(self, other: ArrayLike) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        data = _binary_out(np.add, self.data, other.data)

        def backward(grad):
            return grad, grad

        return Tensor._make(data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(grad):
            return (-grad,)

        return Tensor._make(-self.data, (self,), backward)

    # The binary-op backwards below produce a gradient only for an operand
    # that requires one: for a constant operand (a scale, a mask) it would
    # cost a full-size pass the accumulation loop then discards.

    def __sub__(self, other: ArrayLike) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        data = _binary_out(np.subtract, self.data, other.data)

        def backward(grad):
            return grad, (-grad if other.requires_grad else None)

        return Tensor._make(data, (self, other), backward)

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return Tensor(other) - self

    def __mul__(self, other: ArrayLike) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        data = _binary_out(np.multiply, self.data, other.data)
        a, b = self, other

        def backward(grad):
            return (_binary_out(np.multiply, grad, b.data) if a.requires_grad else None,
                    _binary_out(np.multiply, grad, a.data) if b.requires_grad else None)

        return Tensor._make(data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        data = _binary_out(np.divide, self.data, other.data)
        a, b = self, other

        def backward(grad):
            return (grad / b.data if a.requires_grad else None,
                    -grad * a.data / (b.data ** 2) if b.requires_grad else None)

        return Tensor._make(data, (self, other), backward)

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return Tensor(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if isinstance(exponent, Tensor):
            raise TypeError("tensor exponents are not supported")
        data = self.data ** exponent
        base = self

        def backward(grad):
            return (grad * exponent * base.data ** (exponent - 1),)

        return Tensor._make(data, (self,), backward)

    def __matmul__(self, other: ArrayLike) -> "Tensor":
        return self.matmul(other)

    def matmul(self, other: ArrayLike) -> "Tensor":
        """Batched matrix multiplication with broadcasting over batch dims."""
        other = other if isinstance(other, Tensor) else Tensor(other)
        data = _matmul_out(self.data, other.data)
        a, b = self, other

        def backward(grad):
            a_data, b_data = a.data, b.data
            if b_data.ndim == 1:
                grad_a = np.multiply.outer(grad, b_data) if a_data.ndim > 1 else grad * b_data
                grad_b = np.tensordot(grad, a_data, axes=(range(grad.ndim), range(a_data.ndim - 1)))
                return grad_a, grad_b
            if a_data.ndim == 1:
                grad_a = np.matmul(grad, np.swapaxes(b_data, -1, -2))
                grad_b = np.multiply.outer(a_data, grad)
                return grad_a, grad_b
            grad_a = _matmul_out(grad, np.swapaxes(b_data, -1, -2))
            grad_b = _matmul_out(np.swapaxes(a_data, -1, -2), grad)
            return _unbroadcast(grad_a, a_data.shape), _unbroadcast(grad_b, b_data.shape)

        return Tensor._make(data, (self, other), backward)

    # -- elementwise nonlinearities -------------------------------------------
    def exp(self) -> "Tensor":
        data = np.exp(self.data)

        def backward(grad):
            return (grad * data,)

        return Tensor._make(data, (self,), backward)

    def log(self) -> "Tensor":
        base = self

        def backward(grad):
            return (grad / base.data,)

        return Tensor._make(np.log(self.data), (self,), backward)

    def sqrt(self) -> "Tensor":
        data = np.sqrt(self.data)

        def backward(grad):
            return (grad * 0.5 / data,)

        return Tensor._make(data, (self,), backward)

    def tanh(self) -> "Tensor":
        data = np.tanh(self.data)

        def backward(grad):
            return (grad * (1.0 - data ** 2),)

        return Tensor._make(data, (self,), backward)

    def relu(self) -> "Tensor":
        mask = self.data > 0
        data = self.data * mask

        def backward(grad):
            return (grad * mask,)

        return Tensor._make(data, (self,), backward)

    def gelu(self) -> "Tensor":
        """Gaussian error linear unit (tanh approximation, as used by GPT-2).

        Powers are expanded into multiplications: ``x ** 3`` on float32 goes
        through NumPy's generic pow loop, which is an order of magnitude
        slower than two vectorised multiplies and dominated the seed's
        forward-pass profile.
        """
        x = self.data
        c = np.float32(np.sqrt(2.0 / np.pi))
        x2 = x * x
        inner = x2 * np.float32(0.044715)
        inner += 1.0
        inner *= x
        inner *= c
        tanh_inner = np.tanh(inner, out=inner)
        data = tanh_inner + 1.0
        data *= x
        data *= 0.5

        def backward(grad):
            sech2 = 1.0 - tanh_inner * tanh_inner
            d_inner = x2 * np.float32(3 * 0.044715)
            d_inner += 1.0
            d_inner *= c
            local = sech2 * d_inner
            local *= x
            local += 1.0 + tanh_inner
            local *= 0.5
            local *= grad
            return (local,)

        return Tensor._make(data, (self,), backward)

    def abs(self) -> "Tensor":
        sign = np.sign(self.data)

        def backward(grad):
            return (grad * sign,)

        return Tensor._make(np.abs(self.data), (self,), backward)

    def clip(self, low: float, high: float) -> "Tensor":
        mask = (self.data >= low) & (self.data <= high)
        data = np.clip(self.data, low, high)

        def backward(grad):
            return (grad * mask,)

        return Tensor._make(data, (self,), backward)

    # -- reductions -------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        data = self.data.sum(axis=axis, keepdims=keepdims)
        shape = self.data.shape

        def backward(grad):
            grad = np.asarray(grad)
            if axis is not None and not keepdims:
                axes = axis if isinstance(axis, tuple) else (axis,)
                for ax in sorted(a % len(shape) for a in axes):
                    grad = np.expand_dims(grad, ax)
            full = _arena.empty(shape, grad.dtype)
            np.copyto(full, grad)
            return (full,)

        return Tensor._make(data, (self,), backward)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            count = int(np.prod([self.data.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def var(self, axis=None, keepdims: bool = False) -> "Tensor":
        mean = self.mean(axis=axis, keepdims=True)
        centered = self - mean
        return (centered * centered).mean(axis=axis, keepdims=keepdims)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        data = self.data.max(axis=axis, keepdims=keepdims)
        base = self

        def backward(grad):
            grad = np.asarray(grad)
            if axis is None:
                mask = (base.data == data)
                return (mask * grad / mask.sum(),)
            expanded = data if keepdims else np.expand_dims(data, axis)
            g = grad if keepdims else np.expand_dims(grad, axis)
            mask = (base.data == expanded)
            counts = mask.sum(axis=axis, keepdims=True)
            return (mask * g / counts,)

        return Tensor._make(data, (self,), backward)

    # -- shape manipulation -----------------------------------------------------
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        original = self.data.shape
        data = _reshape_through_arena(self.data, shape)
        rec = _plan._RECORDER
        if rec is not None:
            if np.may_share_memory(data, self.data):
                # Pure view: the replayed producer rewrites the base buffer,
                # so the view needs no work of its own.
                rec.note_view()
            else:
                # Non-contiguous source: ``reshape`` produced a C-ordered
                # copy.  Viewing that copy with the source's shape lets
                # ``copyto`` re-do the strided copy in place at replay —
                # identical element order, no per-replay allocation.
                src = self.data
                out_view = data.reshape(original)

                def run(out_view=out_view, src=src):
                    np.copyto(out_view, src)

                rec.record(run, tag="reshape_copy")

        def backward(grad):
            # Plain reshape (heap copy when ``grad`` is non-contiguous): the
            # full-step compiler validates this closure against the buffers
            # observed at capture time, so routing the copy through the
            # arena here would hand replays a buffer the validated schedule
            # never saw.  Backward grads of reshape are almost always
            # contiguous (zero-cost view): the fused attention hands its
            # q/k/v gradients back in the projections' layout.
            return (grad.reshape(original),)

        return Tensor._make(data, (self,), backward)

    def transpose(self, *axes) -> "Tensor":
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        if not axes:
            axes = tuple(reversed(range(self.data.ndim)))
        data = self.data.transpose(axes)
        inverse = np.argsort(axes)
        rec = _plan._RECORDER
        if rec is not None:
            rec.note_view()          # transpose is always a stride trick

        def backward(grad):
            return (grad.transpose(inverse),)

        return Tensor._make(data, (self,), backward)

    def swapaxes(self, a: int, b: int) -> "Tensor":
        axes = list(range(self.data.ndim))
        axes[a], axes[b] = axes[b], axes[a]
        return self.transpose(*axes)

    def __getitem__(self, index) -> "Tensor":
        data = self.data[index]
        shape = self.data.shape
        dtype = self.data.dtype

        # Basic indexing (slices / ints / None) never selects the same element
        # twice, so the gradient can be written with a cheap assignment; only
        # advanced indexing (arrays, boolean masks) needs the scatter-add.
        index_parts = index if isinstance(index, tuple) else (index,)
        advanced = any(isinstance(part, (np.ndarray, list)) or
                       (isinstance(part, Tensor)) for part in index_parts)

        def backward(grad):
            full = _arena.zeros(shape, dtype)
            if advanced:
                np.add.at(full, index, grad)
            else:
                full[index] = grad
            return (full,)

        return Tensor._make(data, (self,), backward)

    # -- comparison helpers (non-differentiable, return numpy) -------------------
    def argmax(self, axis=None) -> np.ndarray:
        return self.data.argmax(axis=axis)

    def __gt__(self, other) -> np.ndarray:
        other = other.data if isinstance(other, Tensor) else other
        return self.data > other

    def __lt__(self, other) -> np.ndarray:
        other = other.data if isinstance(other, Tensor) else other
        return self.data < other


# ---------------------------------------------------------------------------
# free functions on tensors
# ---------------------------------------------------------------------------

def concatenate(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Differentiable concatenation along ``axis``."""
    tensors = [t if isinstance(t, Tensor) else Tensor(t) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]

    def backward(grad):
        grads = []
        start = 0
        for size in sizes:
            slicer = [slice(None)] * grad.ndim
            slicer[axis] = slice(start, start + size)
            grads.append(grad[tuple(slicer)])
            start += size
        return tuple(grads)

    return Tensor._make(data, tensors, backward)


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Differentiable stack along a new ``axis``."""
    tensors = [t if isinstance(t, Tensor) else Tensor(t) for t in tensors]
    data = np.stack([t.data for t in tensors], axis=axis)

    def backward(grad):
        return tuple(np.take(grad, i, axis=axis) for i in range(len(tensors)))

    return Tensor._make(data, tensors, backward)


def where(condition: np.ndarray, a: Tensor, b: Tensor) -> Tensor:
    """Differentiable selection; ``condition`` is a plain boolean array."""
    a = a if isinstance(a, Tensor) else Tensor(a)
    b = b if isinstance(b, Tensor) else Tensor(b)
    condition = np.asarray(condition)
    data = np.where(condition, a.data, b.data)

    def backward(grad):
        return grad * condition, grad * (~condition if condition.dtype == bool else 1 - condition)

    return Tensor._make(data, (a, b), backward)


def _check_gather_bounds(indices: np.ndarray, size: int,
                         lo: int = 0) -> None:
    """Raise like fancy indexing would for out-of-range gather indices.

    The gather itself runs ``np.take(..., mode="clip")`` — the only mode
    that honours a preallocated ``out`` without an internal full-size
    temporary — so the raise-on-out-of-bounds contract lives here.  ``lo``
    is ``-size`` at entry points that still accept numpy's negative-index
    form, and 0 on the hot paths where negatives were already normalised
    (clip mode would silently clamp them).
    """
    if indices.size and (int(indices.min()) < lo
                         or int(indices.max()) >= size):
        raise IndexError(
            f"index out of bounds for axis 0 with size {size}")


def embedding_lookup(weight: Tensor, indices: np.ndarray) -> Tensor:
    """Gather rows of ``weight`` for integer ``indices`` (token embedding)."""
    indices = np.asarray(indices)
    if indices.size and int(indices.min()) < 0:
        # np.take(mode="clip") clamps negatives to 0; normalise them first
        # to keep numpy's negative-index semantics.
        _check_gather_bounds(indices, weight.data.shape[0],
                             lo=-weight.data.shape[0])
        indices = np.where(indices < 0, indices + weight.data.shape[0],
                           indices)
    vocab, dim = weight.data.shape
    rec = _plan._RECORDER
    # The flat index array is a *view* of the caller's buffer when that is
    # contiguous (staged token ids change per replay), or a one-off copy for
    # per-step constants (positions).
    idx_flat = indices.reshape(-1)
    w = weight.data
    data = _plan.plan_alloc(rec)(
        indices.shape + (dim,), w.dtype)
    out2d = data.reshape(-1, dim)

    def run(w=w, idx_flat=idx_flat, out2d=out2d, vocab=vocab):
        _check_gather_bounds(idx_flat, vocab)
        np.take(w, idx_flat, axis=0, out=out2d, mode="clip")

    _plan.emit(rec, run, "embedding")

    def backward(grad):
        full = _arena.zeros((vocab, dim), weight.data.dtype)
        np.add.at(full, idx_flat, grad.reshape(-1, dim))
        return (full,)

    return Tensor._make(data, (weight,), backward)


def custom_op(data: np.ndarray, parents: Sequence[Tensor],
              backward: Callable[[np.ndarray], Tuple[Optional[np.ndarray], ...]]) -> Tensor:
    """Public hook for registering custom primitives (used by sparse ops)."""
    return Tensor._make(np.asarray(data), parents, backward)
