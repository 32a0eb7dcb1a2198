"""Synthetic data substrate.

The paper fine-tunes on E2E (table-to-text NLG) and Alpaca (instruction
following) and evaluates on five multiple-choice suites (PIQA, Winogrande,
RTE, COPA, HellaSwag).  None of those datasets are available offline, so this
package provides synthetic equivalents with matched *structure*:

* :class:`Vocabulary` / :class:`Tokenizer` — a small word-level vocabulary;
* :mod:`repro.data.e2e` — a grammar-based restaurant-description corpus
  (attribute table -> short text) used for the timing experiments;
* :mod:`repro.data.alpaca` — instruction/response pairs used for the
  accuracy experiments (Table IV protocol);
* :mod:`repro.data.tasks` — five synthetic multiple-choice suites scored by
  LM log-likelihood, the same protocol lm-eval-harness uses.

What matters for the reproduction is that (a) the token statistics exercise
the sparsity machinery the same way real text does, and (b) accuracy
comparisons are like-for-like between dense and LongExposure fine-tuning on
the *same* data, which is how the paper's Table IV is constructed.
"""

from repro.data.tokenizer import Vocabulary, Tokenizer
from repro.data.e2e import E2EDatasetGenerator, E2EExample
from repro.data.alpaca import AlpacaDatasetGenerator, InstructionExample
from repro.data.tasks import (
    MultipleChoiceExample,
    MultipleChoiceTask,
    TaskSuite,
    build_task_suite,
    evaluate_model_on_task,
)

__all__ = [
    "Vocabulary",
    "Tokenizer",
    "E2EDatasetGenerator",
    "E2EExample",
    "AlpacaDatasetGenerator",
    "InstructionExample",
    "MultipleChoiceExample",
    "MultipleChoiceTask",
    "TaskSuite",
    "build_task_suite",
    "evaluate_model_on_task",
]
