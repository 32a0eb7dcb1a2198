"""Tests of the nn module library and the OPT / GPT-2 model families."""

import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import repro
from repro.models import GPT2Model, OPTModel, build_model, get_config, list_configs
from repro.models.base import normal_quantile
from repro.models.config import PAPER_TO_EXECUTABLE, ModelConfig, register_config
from repro.nn import (
    Embedding,
    LayerNorm,
    Linear,
    MLPBlock,
    Module,
    ModuleList,
    MultiHeadAttention,
    Parameter,
    TransformerBlock,
)
from repro.nn.attention import causal_mask
from repro.tensor import Tensor, no_grad, reference


class TestModuleSystem:
    def test_parameter_discovery_is_recursive(self):
        block = TransformerBlock(dim=16, num_heads=2, hidden_dim=32)
        names = [name for name, _ in block.named_parameters()]
        assert any("attention.q_proj.weight" in n for n in names)
        assert any("mlp.fc1.bias" in n for n in names)
        assert block.num_parameters() == sum(p.numel() for p in block.parameters())

    def test_freeze_and_trainable_parameters(self):
        layer = Linear(4, 4)
        assert len(layer.trainable_parameters()) == 2
        layer.freeze()
        assert layer.trainable_parameters() == []
        layer.unfreeze()
        assert len(layer.trainable_parameters()) == 2

    def test_state_dict_roundtrip(self):
        a = Linear(3, 5, rng=np.random.default_rng(0))
        b = Linear(3, 5, rng=np.random.default_rng(1))
        assert not np.allclose(a.weight.data, b.weight.data)
        b.load_state_dict(a.state_dict())
        np.testing.assert_allclose(a.weight.data, b.weight.data)

    def test_state_dict_strict_mismatch_raises(self):
        a = Linear(3, 5)
        with pytest.raises(KeyError):
            a.load_state_dict({"weight": a.weight.data})  # missing bias

    def test_module_list_indexing(self):
        layers = ModuleList([Linear(2, 2) for _ in range(3)])
        assert len(layers) == 3
        assert isinstance(layers[1], Linear)
        assert len(list(layers.named_parameters())) == 6


class TestLayers:
    def test_linear_shapes_and_bias(self):
        layer = Linear(6, 3)
        out = layer(Tensor(np.ones((2, 5, 6), dtype=np.float32)))
        assert out.shape == (2, 5, 3)
        no_bias = Linear(6, 3, bias=False)
        assert no_bias.bias is None

    def test_embedding_out_of_range_raises(self):
        emb = Embedding(10, 4)
        with pytest.raises(IndexError):
            emb(np.array([11]))

    def test_layernorm_parameters_learnable(self):
        norm = LayerNorm(8)
        x = Tensor(np.random.default_rng(0).normal(size=(2, 8)).astype(np.float32))
        out = norm(x)
        out.sum().backward()
        assert norm.weight.grad is not None and norm.bias.grad is not None

    def test_mlp_block_rejects_an_activation_its_kernel_does_not_run(self):
        for activation in ("relu", "gelu"):
            assert MLPBlock(8, 16, activation=activation).activation_name == activation
        with pytest.raises(ValueError, match="swish"):
            MLPBlock(8, 16, activation="swish")


class TestAttentionAndMLP:
    def test_attention_output_shape_and_causality(self):
        attn = MultiHeadAttention(dim=16, num_heads=4)
        x = Tensor(np.random.default_rng(0).normal(size=(2, 6, 16)).astype(np.float32))
        out = attn(x)
        assert out.shape == (2, 6, 16)

    def test_attention_rejects_bad_head_count(self):
        with pytest.raises(ValueError):
            MultiHeadAttention(dim=10, num_heads=3)

    def test_causal_mask_is_lower_triangular(self):
        mask = causal_mask(5)
        assert mask[0, 0] and not mask[0, 4] and mask[4, 0]

    def test_split_merge_heads_roundtrip(self):
        attn = MultiHeadAttention(dim=8, num_heads=2)
        x = Tensor(np.arange(2 * 3 * 8, dtype=np.float32).reshape(2, 3, 8))
        np.testing.assert_allclose(attn.merge_heads(attn.split_heads(x)).data, x.data)

    def test_mlp_backend_capture(self):
        mlp = MLPBlock(dim=8, hidden_dim=16, activation="relu")
        mlp.backend.capture_activations = True
        x = Tensor(np.random.default_rng(0).normal(size=(1, 4, 8)).astype(np.float32))
        mlp(x)
        assert mlp.backend.last_activations.shape == (1, 4, 16)
        assert np.all(mlp.backend.last_activations >= 0)


class TestModelConfigs:
    def test_registry_contains_paper_models(self):
        for name in ["opt-350m", "opt-1.3b", "opt-2.7b", "gpt2-large", "gpt2-xl"]:
            assert name in list_configs()

    def test_paper_parameter_counts_are_plausible(self):
        # Within ~40% of the nominal sizes (embedding/vocab choices differ slightly).
        assert 0.25e9 < get_config("opt-350m").num_parameters() < 0.5e9
        assert 1.0e9 < get_config("opt-1.3b").num_parameters() < 1.7e9
        assert 2.2e9 < get_config("opt-2.7b").num_parameters() < 3.3e9

    def test_paper_to_executable_mapping_resolves(self):
        for paper, executable in PAPER_TO_EXECUTABLE.items():
            assert get_config(executable).family == get_config(paper).family

    def test_unknown_config_raises(self):
        with pytest.raises(KeyError):
            get_config("opt-175b")

    def test_register_custom_config(self):
        cfg = ModelConfig(name="opt-custom-test", family="opt", vocab_size=128,
                          max_seq_len=64, dim=32, num_layers=1, num_heads=2)
        register_config(cfg)
        assert get_config("opt-custom-test").dim == 32


class TestModels:
    def test_family_validation(self):
        with pytest.raises(ValueError):
            OPTModel(get_config("gpt2-tiny"))
        with pytest.raises(ValueError):
            GPT2Model(get_config("opt-tiny"))

    def test_forward_shapes(self, tiny_model):
        ids = np.arange(10).reshape(1, 10) % tiny_model.config.vocab_size
        hidden = tiny_model(ids)
        assert hidden.shape == (1, 10, tiny_model.config.dim)
        logits = tiny_model.logits(hidden)
        assert logits.shape == (1, 10, tiny_model.config.vocab_size)

    def test_sequence_too_long_raises(self, tiny_model):
        too_long = np.zeros((1, tiny_model.config.max_seq_len + 1), dtype=np.int64)
        with pytest.raises(ValueError):
            tiny_model(too_long)

    def test_loss_and_gradients_flow_to_all_parameters(self):
        model = build_model("opt-tiny", seed=3)
        ids = np.random.default_rng(0).integers(0, model.config.vocab_size, size=(2, 16))
        loss, n_valid = model.loss(ids)
        assert n_valid == 2 * 15
        loss.backward()
        missing = [name for name, p in model.named_parameters() if p.grad is None]
        assert missing == []

    def test_gpt2_model_runs(self):
        model = build_model("gpt2-tiny", seed=0)
        ids = np.random.default_rng(1).integers(0, model.config.vocab_size, size=(1, 12))
        loss, _ = model.loss(ids)
        assert np.isfinite(float(loss.data))

    def test_sparsify_init_produces_per_token_sparsity(self, tiny_model, tiny_batches):
        """The structured initialiser must yield high per-token ReLU sparsity."""
        block = tiny_model.blocks[0]
        block.mlp.backend.capture_activations = True
        tiny_model(tiny_batches[0])
        acts = block.mlp.backend.last_activations
        per_token_sparsity = (acts <= 0).mean()
        assert per_token_sparsity > 0.7
        block.mlp.backend.capture_activations = False

    def test_sequence_log_likelihood_is_negative(self, tiny_model):
        ids = np.arange(12) % tiny_model.config.vocab_size
        ll = tiny_model.sequence_log_likelihood(ids, completion_start=6)
        assert ll < 0

    def test_sequence_log_likelihood_is_the_reference_log_softmax_sum(self, tiny_model):
        ids = np.random.default_rng(3).integers(0, tiny_model.config.vocab_size, 24)
        with no_grad():
            logits = tiny_model.logits(tiny_model.forward(ids[None]))
            log_probs = reference.log_softmax(logits, axis=-1).data
        expected = 0.0
        for t in range(9, len(ids)):
            expected += float(log_probs[0, t - 1, ids[t]])
        assert tiny_model.sequence_log_likelihood(ids, completion_start=9) == expected


class TestSparsityInitQuantile:
    # ``scipy.stats.norm.ppf`` (SciPy 1.17.1) at probabilities spanning the
    # initialiser's per-neuron sparsity range [0.4, 0.995].
    SCIPY_PPF = {
        0.4: -0.2533471031357997,
        0.5: 0.0,
        0.55: 0.12566134685507416,
        0.7: 0.5244005127080407,
        0.8: 0.8416212335729143,
        0.9: 1.2815515655446004,
        0.95: 1.6448536269514722,
        0.99: 2.3263478740408408,
        0.995: 2.5758293035489004,
    }

    def test_quantile_is_within_four_ulp_of_scipy(self):
        probs = np.array(list(self.SCIPY_PPF), dtype=np.float64)
        expected = np.array(list(self.SCIPY_PPF.values()), dtype=np.float64)
        got = normal_quantile(probs)
        assert got.dtype == np.float64 and got.shape == probs.shape
        np.testing.assert_array_less(np.abs(got - expected),
                                     4 * np.abs(np.spacing(expected)))

    def test_building_and_running_the_system_never_imports_scipy(self):
        """The runtime needs only NumPy.  A fresh interpreter, since another
        test may already have imported SciPy into this one."""
        script = textwrap.dedent("""
            import sys
            import numpy as np
            from repro import (CaptureConfig, FineTuner, LongExposure,
                               LongExposureConfig, TrainingConfig, apply_lora,
                               create_model)
            from repro.serve import FineTuningService, ServiceConfig

            batch = np.random.default_rng(0).integers(0, 512, size=(1, 64))
            model = create_model("opt-tiny", seed=0)
            engine = LongExposure(LongExposureConfig(
                block_size=16, predictor_epochs=1, predict_interval=2))
            engine.prepare(model, [batch])
            apply_lora(model)
            engine.install(model)
            tuner = FineTuner(model, TrainingConfig(
                capture=CaptureConfig(enabled=True)), engine=engine)
            tuner.step(batch)
            tuner.step(batch)
            assert (tuner.capture.full_captures, tuner.capture.full_replays) \
                == (1, 1), tuner.capture.summary()

            service = FineTuningService(ServiceConfig(
                model="opt-tiny", adapters=("lora",), seq_buckets=(64,)))
            service.submit("tenant", batch)
            assert len(service.flush()) == 1
            assert "scipy" not in sys.modules
        """)
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(repro.__file__)))
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
