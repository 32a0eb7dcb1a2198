"""Tests of the PEFT methods and optimizers."""

import numpy as np
import pytest

from repro.models import build_model
from repro.nn import Linear
from repro.optim import Adam, clip_grad_norm
from repro.peft import (
    AdapterConfig,
    BitFitConfig,
    LoRAConfig,
    LoRALinear,
    PEFT_METHODS,
    apply_adapter,
    apply_bitfit,
    apply_full_finetuning,
    apply_lora,
    apply_prefix_tuning,
    get_peft_method,
)


def fresh_model():
    return build_model("opt-tiny", seed=0)


def batch(seq=16):
    return np.random.default_rng(0).integers(0, 512, size=(2, seq))


class TestLoRA:
    def test_output_unchanged_at_initialisation(self):
        model = fresh_model()
        ids = batch()
        before = model(ids).data.copy()
        apply_lora(model, LoRAConfig(rank=4))
        after = model(ids).data
        np.testing.assert_allclose(before, after, atol=1e-5)

    def test_only_lora_parameters_trainable(self):
        model = fresh_model()
        result = apply_lora(model)
        assert all(("lora_A" in n) or ("lora_B" in n) for n in result.trainable_names)
        assert result.trainable_fraction < 0.1
        assert result.injected_parameters == result.trainable_parameters

    def test_gradients_restricted_to_lora(self):
        model = fresh_model()
        apply_lora(model)
        loss, _ = model.loss(batch())
        loss.backward()
        for name, p in model.named_parameters():
            if "lora" in name:
                assert p.grad is not None, name
            else:
                assert p.grad is None, name

    def test_double_application_raises(self):
        model = fresh_model()
        apply_lora(model)
        with pytest.raises(RuntimeError):
            apply_lora(model)

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            LoRAConfig(rank=0)
        with pytest.raises(ValueError):
            apply_lora(fresh_model(), LoRAConfig(target_modules=("nonexistent",)))

    def test_merged_weight_reflects_updates(self):
        base = Linear(4, 4, rng=np.random.default_rng(0))
        lora = LoRALinear(base, rank=2, alpha=4)
        lora.lora_B.data[:] = 1.0
        merged = lora.merged_weight()
        assert not np.allclose(merged, base.weight.data)


class TestOtherPEFTMethods:
    def test_adapter_output_unchanged_at_init(self):
        model = fresh_model()
        ids = batch()
        before = model(ids).data.copy()
        apply_adapter(model, AdapterConfig(bottleneck_dim=8))
        np.testing.assert_allclose(before, model(ids).data, atol=1e-5)

    def test_adapter_trainable_names(self):
        model = fresh_model()
        result = apply_adapter(model)
        assert all("adapter" in n or "down" in n or "up" in n for n in result.trainable_names)
        assert result.injected_parameters > 0

    def test_bitfit_trains_only_biases(self):
        model = fresh_model()
        result = apply_bitfit(model, BitFitConfig())
        assert all(n.endswith("bias") for n in result.trainable_names)
        assert result.injected_parameters == 0

    def test_prefix_tuning_extends_then_trims_sequence(self):
        model = fresh_model()
        wrapped, result = apply_prefix_tuning(model)
        ids = batch(12)
        hidden = wrapped(ids)
        assert hidden.shape == (2, 12, model.config.dim)
        loss, _ = wrapped.loss(ids)
        loss.backward()
        assert any("prefix" in n for n in result.trainable_names)

    def test_full_finetuning_marks_everything_trainable(self):
        model = fresh_model()
        result = apply_full_finetuning(model)
        assert result.trainable_parameters == model.num_parameters()

    @pytest.mark.parametrize("name", sorted(PEFT_METHODS))
    def test_registry_every_method_trains_one_step(self, name):
        model = fresh_model()
        adapted, result = get_peft_method(name)(model)
        loss, _ = adapted.loss(batch())
        loss.backward()
        optimizer = Adam(adapted.trainable_parameters(), lr=1e-3)
        optimizer.step()
        assert result.trainable_parameters > 0

    def test_unknown_method_raises(self):
        with pytest.raises(KeyError):
            get_peft_method("qlora")

    def test_trainable_fraction_ordering_matches_paper(self):
        """BitFit < LoRA < Adapter < full, as in the paper's Table I setup."""
        fractions = {}
        for name in ["bitfit", "lora", "adapter", "full"]:
            model = fresh_model()
            _, result = get_peft_method(name)(model)
            fractions[name] = result.trainable_fraction
        assert fractions["bitfit"] < fractions["lora"] < fractions["adapter"] < fractions["full"]


class TestOptimizers:
    def _quadratic_problem(self):
        from repro.nn.module import Parameter
        target = np.array([3.0, -2.0, 0.5], dtype=np.float32)
        param = Parameter(np.zeros(3, dtype=np.float32))
        return param, target

    def _loss_and_grad(self, param, target):
        diff = param.data - target
        param.grad = 2 * diff
        return float((diff ** 2).sum())

    def test_converges_on_quadratic(self):
        param, target = self._quadratic_problem()
        optimizer = Adam([param], lr=0.2)
        for _ in range(200):
            self._loss_and_grad(param, target)
            optimizer.step()
            optimizer.zero_grad()
        np.testing.assert_allclose(param.data, target, atol=0.1)

    def test_empty_parameter_list_rejected(self):
        with pytest.raises(ValueError):
            Adam([], lr=1e-3)

    @pytest.mark.parametrize("lr", [0.0, -1e-3])
    def test_non_positive_learning_rate_rejected(self, lr):
        from repro.nn.module import Parameter
        with pytest.raises(ValueError):
            Adam([Parameter(np.zeros(2, dtype=np.float32))], lr=lr)

    @pytest.mark.parametrize("betas", [(1.0, 0.999), (0.9, 1.0), (-0.1, 0.999)])
    def test_betas_outside_unit_interval_rejected(self, betas):
        from repro.nn.module import Parameter
        with pytest.raises(ValueError):
            Adam([Parameter(np.zeros(2, dtype=np.float32))], betas=betas)

    def test_first_step_moves_each_element_by_the_learning_rate(self):
        # Bias correction makes step 1's update lr * g / |g| elementwise.
        from repro.nn.module import Parameter
        param = Parameter(np.zeros(3, dtype=np.float32))
        optimizer = Adam([param], lr=0.1)
        param.grad = np.array([2.0, -0.5, 3.0], dtype=np.float32)
        optimizer.step()
        assert optimizer.step_count == 1
        np.testing.assert_allclose(param.data, [-0.1, 0.1, -0.1], rtol=1e-5)

    def test_zero_grad_clears_every_gradient(self):
        from repro.nn.module import Parameter
        params = [Parameter(np.zeros(n, dtype=np.float32)) for n in (2, 5)]
        for param in params:
            param.grad = np.ones_like(param.data)
        optimizer = Adam(params)
        optimizer.zero_grad()
        assert all(param.grad is None for param in params)
        assert optimizer.num_parameters() == 7

    def test_adam_state_size(self):
        from repro.nn.module import Parameter
        param = Parameter(np.zeros((10, 10), dtype=np.float32))
        optimizer = Adam([param], lr=1e-3)
        assert optimizer.state_size_bytes() == 2 * 10 * 10 * 4

    def test_skips_parameters_without_grad(self):
        from repro.nn.module import Parameter
        param = Parameter(np.ones(3, dtype=np.float32))
        optimizer = Adam([param], lr=0.1)
        optimizer.step()  # no grad -> no change
        np.testing.assert_allclose(param.data, np.ones(3))

    def test_grad_clipping(self):
        from repro.nn.module import Parameter
        param = Parameter(np.zeros(4, dtype=np.float32))
        param.grad = np.full(4, 10.0, dtype=np.float32)
        norm = clip_grad_norm([param], max_norm=1.0)
        assert norm == pytest.approx(20.0)
        assert np.linalg.norm(param.grad) == pytest.approx(1.0, rel=1e-5)

    def test_grad_clipping_below_the_limit_leaves_gradients(self):
        from repro.nn.module import Parameter
        param = Parameter(np.zeros(4, dtype=np.float32))
        grad = np.full(4, 0.25, dtype=np.float32)
        param.grad = grad
        assert clip_grad_norm([param], max_norm=1.0) == pytest.approx(0.5)
        assert param.grad is grad

    def test_grad_clipping_ignores_parameters_without_grad(self):
        from repro.nn.module import Parameter
        with_grad = Parameter(np.zeros(2, dtype=np.float32))
        with_grad.grad = np.array([3.0, 4.0], dtype=np.float32)
        without = Parameter(np.zeros(2, dtype=np.float32))
        assert clip_grad_norm([without], max_norm=1.0) == 0.0
        assert clip_grad_norm([with_grad, without], max_norm=1.0) == pytest.approx(5.0)
        assert without.grad is None
        np.testing.assert_allclose(with_grad.grad, [0.6, 0.8], rtol=1e-5)

    def test_package_is_adam_and_clipping(self):
        import importlib
        import repro.optim
        assert repro.optim.__all__ == ["Adam", "clip_grad_norm"]
        for module in ("base", "sgd", "scaler"):
            with pytest.raises(ImportError):
                importlib.import_module(f"repro.optim.{module}")
