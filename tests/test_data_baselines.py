"""Tests of the synthetic data substrate and the sparse-attention baselines."""

import numpy as np
import pytest

from repro.baselines import (
    UnstructuredSparseMLPBackend,
    bigbird_block_masks,
    install_fixed_mask_backend,
    longformer_block_masks,
    shadowy_uniform_masks,
)
from repro.baselines.sparse_attention import FixedMaskAttentionBackend, restore_backends
from repro.data import (
    AlpacaDatasetGenerator,
    BatchLoader,
    E2EDatasetGenerator,
    Tokenizer,
    Vocabulary,
    build_task_suite,
    evaluate_model_on_task,
)
from repro.models import build_model
from repro.sparsity.exposer import AttentionExposer
from repro.sparsity.patterns import block_count, pattern_mask
from repro.tensor import Tensor


class TestTokenizer:
    def test_vocabulary_roundtrip(self):
        vocab = Vocabulary(words=["alpha", "beta"])
        assert vocab.word_of(vocab.id_of("alpha")) == "alpha"
        assert vocab.id_of("missing") == vocab.unk_id
        assert len(vocab) == 6

    def test_vocabulary_from_corpus_frequency_sorted(self):
        vocab = Vocabulary.from_corpus(["a a a b b c"], max_size=6)
        assert vocab.id_of("a") < vocab.id_of("b")

    def test_tokenizer_encode_decode(self):
        vocab = Vocabulary(words=["hello", "world"])
        tokenizer = Tokenizer(vocab)
        ids = tokenizer.encode("hello world")
        assert ids[0] == vocab.bos_id and ids[-1] == vocab.eos_id
        assert tokenizer.decode(ids) == "hello world"

    def test_encode_batch_pads_and_truncates(self):
        tokenizer = Tokenizer(Vocabulary(words=["x"]))
        batch = tokenizer.encode_batch(["x x x", "x"], seq_len=4)
        assert batch.shape == (2, 4)
        batch8 = tokenizer.encode_batch(["x"], seq_len=5, pad_to_multiple=8)
        assert batch8.shape == (1, 8)


class TestCorpora:
    @pytest.mark.parametrize("generator_cls", [E2EDatasetGenerator, AlpacaDatasetGenerator])
    def test_token_batches_shapes_and_vocab_bounds(self, generator_cls):
        generator = generator_cls(seed=0)
        batches = generator.token_batches(2, batch_size=3, seq_len=48, vocab_size=512)
        assert len(batches) == 2
        for batch in batches:
            assert batch.shape == (3, 48)
            assert batch.min() >= 0 and batch.max() < 512

    def test_e2e_examples_follow_grammar(self):
        generator = E2EDatasetGenerator(seed=1)
        example = generator.sample_example()
        assert example.attributes["name"] in example.meaning_representation
        assert "<sep>" in example.text

    def test_alpaca_responses_are_consistent_with_world(self):
        from repro.data.alpaca import WORLD
        generator = AlpacaDatasetGenerator(seed=2)
        for example in generator.sample_examples(20):
            assert example.text.startswith("instruction")
            assert any(obj in example.instruction for obj in WORLD)

    def test_generators_are_deterministic_per_seed(self):
        a = E2EDatasetGenerator(seed=5).token_batches(1, 2, 32)[0]
        b = E2EDatasetGenerator(seed=5).token_batches(1, 2, 32)[0]
        np.testing.assert_array_equal(a, b)


class TestTasks:
    def test_suite_contains_five_tasks(self):
        suite = build_task_suite(examples_per_task=4, seed=0)
        assert set(suite.names()) == {"piqa", "winogrande", "rte", "copa", "hellaswag"}
        for task in suite.tasks.values():
            assert len(task) == 4
            for example in task.examples:
                assert 0 <= example.answer_index < len(example.choices)

    def test_evaluation_returns_accuracy_and_stderr(self, tiny_model):
        suite = build_task_suite(examples_per_task=4, seed=0)
        result = evaluate_model_on_task(tiny_model, suite.tasks["copa"], suite.tokenizer,
                                        vocab_size=tiny_model.config.vocab_size)
        assert 0.0 <= result["accuracy"] <= 1.0
        assert result["n"] == 4


class TestBatchLoader:
    def test_cycles_and_shuffles(self):
        batches = [np.full((2, 4), i) for i in range(3)]
        loader = BatchLoader(batches, shuffle=True, seed=0)
        taken = list(loader.take(7))
        assert len(taken) == 7
        assert loader.batch_size == 2 and loader.seq_len == 4

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            BatchLoader([])


class TestBaselines:
    def test_longformer_masks_are_uniform_and_causal(self):
        masks = longformer_block_masks(seq_len=128, num_heads=4, block_size=16)
        assert masks.shape == (4, 8, 8)
        assert np.all(masks[0] == masks[3])
        assert not np.any(np.triu(masks[0], k=1))
        assert np.all(np.diag(masks[0]))

    @pytest.mark.parametrize("seq_len,block_size", [
        (64, 16), (100, 16), (256, 32), (1024, 16), (17, 16),
    ])
    def test_longformer_is_the_local4_global1_pattern(self, seq_len, block_size):
        masks = longformer_block_masks(seq_len, num_heads=3, block_size=block_size)
        expected = pattern_mask("local4+global1", block_count(seq_len, block_size))
        for head_mask in masks:
            np.testing.assert_array_equal(head_mask, expected)

    def test_bigbird_adds_random_blocks(self):
        lf = longformer_block_masks(256, 2, 16, window_blocks=3, global_blocks=1)
        bb = bigbird_block_masks(256, 2, 16, window_blocks=3, global_blocks=1,
                                 random_blocks=2, seed=0)
        assert bb.sum() >= lf.sum()
        assert np.all(bb[lf]), "BigBird keeps every Longformer block"

    def test_shadowy_uniform_mask_covers_all_heads(self, tiny_model, tiny_batches):
        from repro.sparsity.predictor.collect import collect_layer_data
        collected = collect_layer_data(tiny_model, tiny_batches[:1])
        probs = collected[0].merged()["attention_probs"]
        exposer = AttentionExposer(block_size=16, coverage=0.9)
        uniform = shadowy_uniform_masks(probs, exposer)
        per_head = exposer.raw_block_masks(probs)
        assert uniform.shape == per_head.shape
        # The uniform mask is the union, hence at least as dense as any head.
        assert np.all(uniform[0] == np.any(per_head, axis=0))

    def test_fixed_mask_backend_runs_and_restores(self, tiny_batches):
        model = build_model("opt-tiny", seed=0)
        masks = longformer_block_masks(64, model.config.num_heads, 16)
        saved = install_fixed_mask_backend(model, masks, block_size=16)
        loss, _ = model.loss(tiny_batches[0])
        assert np.isfinite(float(loss.data))
        restore_backends(saved)
        from repro.nn.attention import DenseAttentionBackend
        assert all(isinstance(b.attention.backend, DenseAttentionBackend) for b in model.blocks)

    def test_fixed_mask_backend_computes_its_geometry_once(self, monkeypatch):
        """The fixed layout's capacity classes are computed at construction,
        not per call, and the kernel output is bitwise the per-call one."""
        from repro.baselines import sparse_attention
        from repro.sparsity.ops import block_sparse, block_sparse_attention

        calls = []
        compute = block_sparse.compute_block_geometry
        for module in (sparse_attention, block_sparse):
            monkeypatch.setattr(module, "compute_block_geometry",
                                lambda *args: calls.append(args) or compute(*args))
        model = build_model("opt-tiny", seed=0)
        attention = model.blocks[0].attention
        backend = FixedMaskAttentionBackend(
            longformer_block_masks(64, attention.num_heads, 16), block_size=16)
        rng = np.random.default_rng(3)
        q, k, v = (rng.normal(size=(2, attention.num_heads, 64, attention.head_dim))
                   .astype(np.float32) for _ in range(3))

        def run(kernel):
            qt, kt, vt = (Tensor(a, requires_grad=True) for a in (q, k, v))
            out = kernel(qt, kt, vt)
            out.sum().backward()
            return out.data, qt.grad, kt.grad, vt.grad

        held = [run(lambda *qkv: backend(attention, *qkv, None)) for _ in range(2)]
        assert len(calls) == 1
        computed = run(lambda *qkv: block_sparse_attention(*qkv, backend.layout))
        assert len(calls) == 2
        for outputs in held:
            for a, b in zip(outputs, computed):
                assert np.array_equal(a, b)

    def test_unstructured_mlp_backend_matches_dense_output(self):
        from repro.nn.mlp import MLPBlock
        rng = np.random.default_rng(0)
        mlp = MLPBlock(dim=16, hidden_dim=32, activation="relu",
                       rng=np.random.default_rng(1))
        x = Tensor(rng.normal(size=(2, 5, 16)).astype(np.float32), requires_grad=True)
        dense = mlp(x)
        backend = UnstructuredSparseMLPBackend()
        sparse = backend(mlp, x)
        np.testing.assert_allclose(sparse.data, dense.data, rtol=1e-4, atol=1e-5)
        assert 0 < backend.last_density <= 1
        sparse.sum().backward()
        assert mlp.fc1.weight.grad is not None
