"""Module / Parameter abstractions with recursive parameter discovery.

The design mirrors ``torch.nn.Module`` closely enough that the PEFT methods
(LoRA, Adapter, BitFit, prefix-tuning) can be expressed the same way they are
in the HuggingFace ``peft`` library the paper benchmarks against: freezing is
``requires_grad = False`` on parameters, injection is adding sub-modules, and
optimizers iterate ``trainable_parameters()``.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.tensor import Tensor


class Parameter(Tensor):
    """A :class:`Tensor` that is registered as a learnable parameter.

    Parameters default to ``requires_grad=True``; PEFT methods freeze the
    backbone by flipping that flag, which removes the parameter from the
    optimizer *and* — thanks to the tape-based engine — skips the gradient
    computation for it in the backward pass.
    """

    def __init__(self, data, requires_grad: bool = True, name: str = ""):
        super().__init__(data, requires_grad=requires_grad, name=name)


class Module:
    """Base class for all neural-network modules.

    Sub-modules and parameters assigned as attributes are discovered
    automatically, giving ``named_parameters`` / ``parameters`` /
    ``state_dict`` traversal for free.
    """

    def __init__(self) -> None:
        self._parameters: "OrderedDict[str, Parameter]" = OrderedDict()
        self._modules: "OrderedDict[str, Module]" = OrderedDict()

    # -- attribute plumbing ---------------------------------------------------
    def __setattr__(self, name, value):
        if isinstance(value, Parameter):
            self.__dict__.setdefault("_parameters", OrderedDict())[name] = value
        elif isinstance(value, Module):
            self.__dict__.setdefault("_modules", OrderedDict())[name] = value
        object.__setattr__(self, name, value)

    # -- traversal -------------------------------------------------------------
    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        for name, param in self._parameters.items():
            yield (f"{prefix}{name}", param)
        for name, module in self._modules.items():
            yield from module.named_parameters(prefix=f"{prefix}{name}.")

    def parameters(self) -> List[Parameter]:
        return [p for _, p in self.named_parameters()]

    def trainable_parameters(self) -> List[Parameter]:
        return [p for p in self.parameters() if p.requires_grad]

    def named_modules(self, prefix: str = "") -> Iterator[Tuple[str, "Module"]]:
        yield prefix.rstrip("."), self
        for name, module in self._modules.items():
            yield from module.named_modules(prefix=f"{prefix}{name}.")

    def modules(self) -> List["Module"]:
        return [m for _, m in self.named_modules()]

    def num_parameters(self, trainable_only: bool = False) -> int:
        params = self.trainable_parameters() if trainable_only else self.parameters()
        return int(sum(p.numel() for p in params))

    # -- gradients and freezing ---------------------------------------------------
    def zero_grad(self) -> None:
        for param in self.parameters():
            param.zero_grad()

    def freeze(self) -> "Module":
        """Mark every parameter of this module as non-trainable."""
        for param in self.parameters():
            param.requires_grad = False
        return self

    def unfreeze(self) -> "Module":
        for param in self.parameters():
            param.requires_grad = True
        return self

    # -- (de)serialisation -------------------------------------------------------
    def state_dict(self) -> Dict[str, np.ndarray]:
        return {name: param.data.copy() for name, param in self.named_parameters()}

    def load_state_dict(self, state: Dict[str, np.ndarray], strict: bool = True) -> None:
        own = dict(self.named_parameters())
        missing = [k for k in own if k not in state]
        unexpected = [k for k in state if k not in own]
        if strict and (missing or unexpected):
            raise KeyError(f"state_dict mismatch: missing={missing}, unexpected={unexpected}")
        for name, value in state.items():
            if name in own:
                if own[name].data.shape != value.shape:
                    raise ValueError(f"shape mismatch for {name}: "
                                     f"{own[name].data.shape} vs {value.shape}")
                own[name].data = np.asarray(value, dtype=own[name].data.dtype).copy()

    # -- call protocol -------------------------------------------------------------
    def forward(self, *args, **kwargs):  # pragma: no cover - abstract
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def extra_repr(self) -> str:
        return ""

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        lines = [f"{type(self).__name__}({self.extra_repr()}"]
        for name, module in self._modules.items():
            child = repr(module).replace("\n", "\n  ")
            lines.append(f"  ({name}): {child}")
        lines.append(")")
        return "\n".join(lines) if len(lines) > 2 else f"{type(self).__name__}({self.extra_repr()})"


class ModuleList(Module):
    """An indexable container of sub-modules (transformer layer stacks)."""

    def __init__(self, modules: Optional[List[Module]] = None):
        super().__init__()
        self._items: List[Module] = []
        for module in modules or []:
            self.append(module)

    def append(self, module: Module) -> "ModuleList":
        index = len(self._items)
        self._items.append(module)
        self._modules[str(index)] = module
        return self

    def __getitem__(self, index: int) -> Module:
        return self._items[index]

    def __setitem__(self, index: int, module: Module) -> None:
        self._items[index] = module
        self._modules[str(index)] = module

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self) -> Iterator[Module]:
        return iter(self._items)

    def forward(self, *args, **kwargs):  # pragma: no cover - containers are not called
        raise RuntimeError("ModuleList is a container and cannot be called")
