"""Confidence-score normalization and the weighted multi-teacher token loss.

Teachers self-report scalar confidences in [0, 100]; unit-scaled scores go
through a softmax with temperature to produce per-teacher loss weights. The
token loss is the w-weighted sum of per-teacher divergences against one
student logit row; by linearity its gradient is the same weighted sum of
per-teacher gradients, and teacher distributions are constants.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .divergence import DivergenceKind, logit_gradient
from .simplex import Distribution, LogitVector


@dataclass(frozen=True)
class ConfidenceScores:
    """Per-teacher self-reported confidences with a softmax temperature.

    Scores outside [0, 100] or non-finite are rejected, not clamped: every
    confidence in this package comes from an Utterance, whose constructor
    already enforces that range.
    """

    scores: np.ndarray
    tau_conf: float = 1.0

    def __post_init__(self):
        scores = np.array(self.scores, dtype=np.float64, ndmin=1)
        if scores.size < 1:
            raise ValueError("need at least one confidence score")
        # one range check passes valid scores; the failures are worded below
        if not (scores.min() >= 0 and scores.max() <= 100):
            if not np.all(np.isfinite(scores)):
                raise ValueError("confidence scores must be finite")
            raise ValueError(f"confidence scores must lie in [0, 100], got {scores}")
        if not self.tau_conf > 0:
            raise ValueError(f"tau_conf must be positive, got {self.tau_conf}")
        scores.flags.writeable = False
        object.__setattr__(self, "scores", scores)

    @property
    def num_teachers(self) -> int:
        return self.scores.size


@dataclass(frozen=True)
class TeacherWeights:
    """Strictly positive per-teacher weights summing to one."""

    weights: np.ndarray

    def __post_init__(self):
        weights = np.array(self.weights, dtype=np.float64, ndmin=1)
        if not weights.min(initial=math.inf) > 0:
            raise ValueError("every teacher weight must be strictly positive")
        if not abs(float(weights.sum()) - 1.0) <= 1e-12:
            raise ValueError(f"weights sum to {weights.sum()}, expected 1 within 1e-12")
        weights.flags.writeable = False
        object.__setattr__(self, "weights", weights)

    @staticmethod
    def uniform(k: int) -> "TeacherWeights":
        return TeacherWeights(np.full(k, 1.0 / k))

    @property
    def num_teachers(self) -> int:
        return self.weights.size


def confidence_to_weights(c: ConfidenceScores) -> TeacherWeights:
    """Softmax of unit-scaled confidences: w_k proportional to exp((c_k/100)/tau).

    Invariant under adding a common offset to all scores, so only relative
    confidence enters the loss. A single teacher always gets weight 1.
    """
    scaled = (c.scores / 100.0) / c.tau_conf
    shifted = np.exp(scaled - scaled.max())
    return TeacherWeights(shifted / shifted.sum())


@dataclass(frozen=True)
class TokenLossReport:
    """Weighted multi-teacher loss at one token position.

    Carries the per-teacher sub-losses so an infinite total can be traced to
    the offending teacher.
    """

    value: float
    logit_grad: np.ndarray
    inf_norm: float
    teacher_losses: np.ndarray

    @property
    def offending_teachers(self) -> list[int]:
        return [k for k, v in enumerate(self.teacher_losses) if math.isinf(v)]


def multi_teacher_token_loss(
    kind: DivergenceKind,
    teacher_dists: Sequence[Distribution],
    w: TeacherWeights,
    student_z: LogitVector,
) -> TokenLossReport:
    """Confidence-weighted token objective sum_k w_k * D(p_k || softmax(z)).

    Teacher distributions are stop-gradient targets: the gradient is the
    w-weighted sum of the per-teacher logit gradients. With K=1 this reduces
    exactly to the single-teacher divergence.
    """
    k = len(teacher_dists)
    if k != w.num_teachers:
        raise ValueError(f"{k} teacher distributions but {w.num_teachers} weights")
    vocab = student_z.vocab_size
    for idx, p in enumerate(teacher_dists):
        if p.vocab_size != vocab:
            raise ValueError(f"teacher {idx} vocab {p.vocab_size} != student vocab {vocab}")

    sub_losses = []
    total = grad = 0.0
    for wk, p in zip(w.weights.tolist(), teacher_dists):
        rep = logit_gradient(kind, p, student_z)
        sub_losses.append(rep.value)
        total += wk * rep.value
        grad = grad + wk * rep.logit_grad
    return TokenLossReport(
        value=total,
        logit_grad=grad,
        inf_norm=float(np.abs(grad).max()),
        teacher_losses=np.array(sub_losses),
    )
