"""The residual and embedding sums consume their sub-layer's output.

``F.residual_add`` writes ``x + y`` into ``y``'s buffer on the fused path
(``y`` a sub-layer output nothing else reads) and is the plain ``+`` under
``reference_kernels()``.  Under every PEFT method, on OPT (ReLU) and GPT-2
(GeLU):

* a captured run is bitwise its uncaptured twin, losses and parameters (the
  ``poison`` job runs these with every fresh and recycled buffer NaN-filled);
* on the fused path every sum holds its sub-layer output's buffer, while
  under the reference kernels each sub-layer output keeps its own value.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.models import build_model
from repro.peft import get_peft_method
from repro.runtime import CaptureConfig, FineTuner, TrainingConfig
from repro.tensor import fused

METHODS = ["lora", "adapter", "bitfit", "prefix", "full"]
MODELS = ["opt-tiny", "gpt2-tiny"]


def _adapted(model_name: str, method: str):
    model, _ = get_peft_method(method)(build_model(model_name, seed=0))
    return model


def _batches(model, count: int = 3):
    rng = np.random.default_rng(5)
    return [rng.integers(0, model.config.vocab_size, size=(2, 32)) for _ in range(count)]


@pytest.mark.parity
@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("model_name", MODELS)
def test_a_captured_run_is_its_uncaptured_twin(model_name, method):
    tuners = [FineTuner(_adapted(model_name, method),
                        TrainingConfig(capture=CaptureConfig(enabled=capture)))
              for capture in (True, False)]
    for ids in _batches(tuners[0].model):
        captured, plain = (tuner.step(ids)[0] for tuner in tuners)
        assert captured == plain
    for a, b in zip(*(tuner.optimizer.params for tuner in tuners)):
        assert np.array_equal(a.data, b.data)


def _spy_outputs(model, monkeypatch) -> list:
    """Record each sub-layer output Tensor (the position lookup, every
    attention and MLP sub-layer) beside a copy of its value."""
    seen = []
    subs = [model.position_embedding]
    for block in model.blocks:
        subs += [block.attention, block.mlp]
    for sub in subs:
        def spy(*args, forward=sub.forward, **kwargs):
            out = forward(*args, **kwargs)
            seen.append((out, out.data.copy()))
            return out

        monkeypatch.setattr(sub, "forward", spy, raising=False)
    return seen


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("model_name", MODELS)
def test_only_the_fused_sums_take_their_sub_layer_outputs(model_name, method, monkeypatch):
    model = _adapted(model_name, method)
    ids = _batches(model, 1)[0]
    seen = _spy_outputs(model, monkeypatch)
    with fused.reference_kernels():
        model.loss(ids)[0].backward()
    assert len(seen) == 1 + 2 * len(model.blocks)
    for out, value in seen:
        assert np.array_equal(out.data, value)
    seen.clear()
    model.loss(ids)[0].backward()
    assert len(seen) == 1 + 2 * len(model.blocks)
    for out, value in seen:
        assert not np.array_equal(out.data, value)
