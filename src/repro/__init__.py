"""LongExposure reproduction: accelerating parameter-efficient fine-tuning
for LLMs under shadowy sparsity (SC 2024).

This module is the supported public surface — import from here, not from the
deep module paths (which keep working, but are implementation layout)::

    from repro import (create_model, apply_lora, FineTuner, TrainingConfig,
                       FineTuningService, ServiceConfig)

* **Models** — :func:`create_model` (alias :func:`build_model`),
  :func:`get_config`, :func:`list_configs`.
* **PEFT** — :func:`apply_lora`, :func:`apply_adapter`, :func:`apply_bitfit`,
  :func:`apply_prefix_tuning`, :func:`apply_full_finetuning`, or name-based
  dispatch via :func:`get_peft_method`.
* **Training** — :class:`FineTuner` with :class:`TrainingConfig` (capture and
  attention knobs grouped in :class:`CaptureConfig` /
  :class:`AttentionConfig`), :func:`train_data_parallel` for multi-process
  data parallelism.
* **Sparsity** — :class:`LongExposure` / :class:`LongExposureConfig`.
* **Serving** — :class:`FineTuningService` / :class:`ServiceConfig`: many
  tenants' adapters time-sharing one frozen base through signature-bucketed
  continuous batching (see ``repro.serve``).
* **Resilience** — :class:`FaultInjector` / :class:`FaultRule` /
  :class:`RetryPolicy` (seeded fault injection and bounded retry) and
  :class:`TenantStateStore` (durable tenant checkpoints); elastic rank
  recovery is built into the data-parallel trainer.

See ``README.md`` for the quickstart and the system inventory, and the
committed ``BENCH_e2e.json`` / ``BENCH_extra.json`` for the measured record.
"""

from repro.models import build_model, get_config, list_configs
from repro.peft import (apply_adapter, apply_bitfit, apply_full_finetuning,
                        apply_lora, apply_prefix_tuning, get_peft_method)
from repro.runtime import (AttentionConfig, CaptureConfig, FaultInjector,
                           FaultRule, FineTuner, InjectedFault, RetryPolicy,
                           TrainingConfig, TrainingReport, train_data_parallel)
from repro.serve import (AdapterRegistry, CheckpointCorruptError,
                         FineTuningService, ServiceConfig, StepResult,
                         TenantStateStore)
from repro.sparsity import LongExposure, LongExposureConfig

# Public alias: the facade's model constructor.  ``build_model`` remains as
# the original name.
create_model = build_model

__version__ = "0.2.0"

__all__ = [
    # models
    "create_model",
    "build_model",
    "get_config",
    "list_configs",
    # peft
    "apply_lora",
    "apply_adapter",
    "apply_bitfit",
    "apply_prefix_tuning",
    "apply_full_finetuning",
    "get_peft_method",
    # training
    "FineTuner",
    "TrainingConfig",
    "CaptureConfig",
    "AttentionConfig",
    "TrainingReport",
    "train_data_parallel",
    # sparsity
    "LongExposure",
    "LongExposureConfig",
    # serving
    "FineTuningService",
    "ServiceConfig",
    "StepResult",
    "AdapterRegistry",
    # resilience
    "FaultInjector",
    "FaultRule",
    "InjectedFault",
    "RetryPolicy",
    "TenantStateStore",
    "CheckpointCorruptError",
    "__version__",
]
