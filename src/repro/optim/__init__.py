"""The fine-tuning optimizer: Adam, plus global-norm gradient clipping.

The optimizer step is the phase PEFT shrinks (Table I of the paper): with
most parameters frozen, Adam state is kept only for the trainable subset.
Adam therefore iterates ``trainable_parameters()`` rather than all
parameters, so the step cost observed by the trainer scales with the number
of trainable parameters exactly as in the paper.
"""

from repro.optim.adam import Adam, clip_grad_norm

__all__ = ["Adam", "clip_grad_norm"]
