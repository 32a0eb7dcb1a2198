"""Fine-tuning runtime: trainer, profiling, memory model, platforms, scaling.

This package is the harness the paper's evaluation is built on:

* :class:`FineTuner` — the training loop with per-phase wall-clock timing
  (forward / backward / optimizer step / prediction overhead), producing the
  breakdowns of Table I and Figure 10 and the per-batch times of Figures 7
  and 13;
* :mod:`repro.runtime.memory` — analytic memory model for Figure 8;
* :mod:`repro.runtime.platform` — A100 / A6000 specifications and roofline
  estimates used to contextualise the measured CPU numbers;
* :mod:`repro.runtime.distributed` — real shared-memory data parallelism
  (sharded worker processes + flat-buffer chunked all-reduce) for the
  strong-scaling study of Figure 14, with elastic rank recovery;
* :mod:`repro.runtime.fault` — seeded fault injection + bounded retry, the
  harness behind the resilience test tier.
"""

from repro.runtime.capture import StepCapture
from repro.tensor.arena import BufferArena
from repro.runtime.trainer import (AttentionConfig, CaptureConfig, FineTuner,
                                   PhaseTimings, TrainingConfig, TrainingReport)
from repro.runtime.profiler import PhaseProfiler
from repro.runtime.memory import MemoryModel, MemoryBreakdown
from repro.runtime.platform import PlatformSpec, PLATFORMS, roofline_step_time
from repro.runtime.comms import (BarrierBroken, CommIntegrityError,
                                 DistributedError, GradientAllReducer,
                                 SharedSegment, chunk_schedule)
from repro.runtime.distributed import (DataParallelTrainer, DistributedReport,
                                       train_data_parallel)
from repro.runtime.fault import (FAULT_SITES, FaultInjector, FaultRule,
                                 InjectedFault, RetryPolicy)

__all__ = [
    "BufferArena",
    "StepCapture",
    "AttentionConfig",
    "CaptureConfig",
    "FineTuner",
    "PhaseTimings",
    "TrainingConfig",
    "TrainingReport",
    "PhaseProfiler",
    "MemoryModel",
    "MemoryBreakdown",
    "PlatformSpec",
    "PLATFORMS",
    "roofline_step_time",
    "BarrierBroken",
    "CommIntegrityError",
    "DistributedError",
    "GradientAllReducer",
    "SharedSegment",
    "chunk_schedule",
    "DataParallelTrainer",
    "DistributedReport",
    "train_data_parallel",
    "FAULT_SITES",
    "FaultInjector",
    "FaultRule",
    "InjectedFault",
    "RetryPolicy",
]
