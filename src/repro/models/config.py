"""Model configuration dataclass and the named configuration registry.

The registry holds two kinds of entries:

* the *paper-scale* configurations from Table II (OPT-350M/1.3B/2.7B,
  GPT-2 Large/XL) — used for exact parameter counting, the analytic memory
  model (Figure 8) and the roofline estimates, but far too large to execute
  on a CPU NumPy substrate;
* *executable* scaled-down configurations (``tiny``/``small``/``medium``
  variants of each family) that preserve the structural properties relevant
  to LongExposure — ReLU vs. GeLU MLPs, multiple heads, 4x MLP expansion,
  block-divisible dimensions — and are what tests, examples and benchmarks
  actually run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List


@dataclass(frozen=True)
class ModelConfig:
    """Architecture hyper-parameters of a decoder-only causal LM."""

    name: str
    family: str                    # "opt" or "gpt2"
    vocab_size: int
    max_seq_len: int
    dim: int
    num_layers: int
    num_heads: int
    mlp_ratio: int = 4
    activation: str = "relu"       # "relu" (OPT) or "gelu" (GPT-2)
    # Initialiser knobs that reproduce the sparsity statistics of trained
    # checkpoints (see repro/models/base.py for how they are applied).
    sparsify_init: bool = True
    target_token_mlp_sparsity: float = 0.92
    attention_locality: float = 12.0

    @property
    def hidden_dim(self) -> int:
        return self.dim * self.mlp_ratio

    @property
    def head_dim(self) -> int:
        return self.dim // self.num_heads

    def num_parameters(self) -> int:
        """Analytic parameter count (embeddings + blocks + final norm; the LM
        head is the token embedding, tied)."""
        embed = self.vocab_size * self.dim + self.max_seq_len * self.dim
        per_block = (
            4 * (self.dim * self.dim + self.dim)          # q, k, v, out projections
            + self.dim * self.hidden_dim + self.hidden_dim  # fc1
            + self.hidden_dim * self.dim + self.dim         # fc2
            + 4 * self.dim                                   # two LayerNorms (weight+bias)
        )
        final_norm = 2 * self.dim
        return embed + self.num_layers * per_block + final_norm


_REGISTRY: Dict[str, ModelConfig] = {}


def register_config(config: ModelConfig) -> ModelConfig:
    """Add (or overwrite) a named configuration in the registry."""
    _REGISTRY[config.name] = config
    return config


def get_config(name: str) -> ModelConfig:
    """Look up a configuration by name; raises ``KeyError`` with suggestions."""
    if name not in _REGISTRY:
        raise KeyError(f"unknown model config {name!r}; available: {sorted(_REGISTRY)}")
    return _REGISTRY[name]


def list_configs(family: str = "") -> List[str]:
    """List registered configuration names, optionally filtered by family."""
    names = sorted(_REGISTRY)
    if family:
        names = [n for n in names if _REGISTRY[n].family == family]
    return names


# ---------------------------------------------------------------------------
# Paper-scale configurations (Table II) — for accounting and memory modelling
# ---------------------------------------------------------------------------

register_config(ModelConfig(name="opt-350m", family="opt", vocab_size=50272,
                            max_seq_len=2048, dim=1024, num_layers=24, num_heads=16,
                            activation="relu"))
register_config(ModelConfig(name="opt-1.3b", family="opt", vocab_size=50272,
                            max_seq_len=2048, dim=2048, num_layers=24, num_heads=32,
                            activation="relu"))
register_config(ModelConfig(name="opt-2.7b", family="opt", vocab_size=50272,
                            max_seq_len=2048, dim=2560, num_layers=32, num_heads=32,
                            activation="relu"))
register_config(ModelConfig(name="opt-125m", family="opt", vocab_size=50272,
                            max_seq_len=2048, dim=768, num_layers=12, num_heads=12,
                            activation="relu"))
register_config(ModelConfig(name="gpt2-large", family="gpt2", vocab_size=50257,
                            max_seq_len=1024, dim=1280, num_layers=36, num_heads=20,
                            activation="gelu"))
register_config(ModelConfig(name="gpt2-xl", family="gpt2", vocab_size=50257,
                            max_seq_len=1024, dim=1600, num_layers=48, num_heads=25,
                            activation="gelu"))

# ---------------------------------------------------------------------------
# Executable scaled-down configurations — what tests/benchmarks actually run
# ---------------------------------------------------------------------------

register_config(ModelConfig(name="opt-tiny", family="opt", vocab_size=512,
                            max_seq_len=512, dim=64, num_layers=2, num_heads=4,
                            activation="relu"))
register_config(ModelConfig(name="opt-small", family="opt", vocab_size=1024,
                            max_seq_len=1024, dim=128, num_layers=4, num_heads=8,
                            activation="relu"))
register_config(ModelConfig(name="opt-medium", family="opt", vocab_size=2048,
                            max_seq_len=1024, dim=256, num_layers=6, num_heads=8,
                            activation="relu"))
register_config(ModelConfig(name="gpt2-tiny", family="gpt2", vocab_size=512,
                            max_seq_len=512, dim=64, num_layers=2, num_heads=4,
                            activation="gelu"))
register_config(ModelConfig(name="gpt2-small-repro", family="gpt2", vocab_size=1024,
                            max_seq_len=1024, dim=128, num_layers=4, num_heads=8,
                            activation="gelu"))

# Mapping from the paper's evaluation models to the executable stand-ins used
# by the benchmark harness (``benchmarks/bench_*.py``).
PAPER_TO_EXECUTABLE: Dict[str, str] = {
    "opt-350m": "opt-tiny",
    "opt-1.3b": "opt-small",
    "opt-2.7b": "opt-medium",
    "opt-125m": "opt-tiny",
    "gpt2-large": "gpt2-tiny",
    "gpt2-xl": "gpt2-small-repro",
}
