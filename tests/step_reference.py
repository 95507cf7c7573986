"""A training step's debate, targets and token losses, frozen as test-only
oracles.

Copies of the library's run_debate, MockTeacher.respond, geometric_pool,
force_decode_targets (with simplex.floor_rows) and step_token_losses as
train() runs them one step at a time: uncached_train in test_training.py
builds every step from these, so that the library's training path is
judged against code that does not change with it. Nothing is memoised: a
debate pools, validates and decodes afresh, and the teachers are their
MockTeacherSpecs. Only the value types and the scalar
multi_teacher_token_loss come from the library.
"""

from __future__ import annotations

import math

import numpy as np

from debatekd.debate import MockTeacherSpec, TeacherResponse, Utterance
from debatekd.simplex import Distribution, LogitVector
from debatekd.weighting import multi_teacher_token_loss


def geometric_pool(base: Distribution, previous: list[Distribution], rate: float) -> Distribution:
    """base^(1-rate) * (prod_j prev_j)^(rate/K), renormalized, in log space;
    base itself at rate 0 or with no previous round. A row with no mass
    raises a ValueError."""
    if rate == 0 or not previous:
        return base
    k = len(previous)
    with np.errstate(divide="ignore"):
        log_pool = 0.0 if rate == 1 else (1 - rate) * np.log(base.probs)
        for prev in previous:
            log_pool = log_pool + (rate / k) * np.log(prev.probs)
    top = log_pool.max()
    if top == -np.inf:
        raise ValueError("pooled row has no mass: its tables share no support")
    return Distribution.from_weights(np.exp(log_pool - top))


def respond(spec: MockTeacherSpec, state, previous: list[Distribution], round_: int) -> TeacherResponse:
    """A mock teacher's response in round round_ given the last round's
    tables (none in round 1): its base row pooled with them, and 100 times
    the top probability, to two decimals, unless the spec overrides it. A
    pooled row with no mass names the teacher, the state and the round."""
    try:
        dist = spec.base_table[state]
    except KeyError:
        raise ValueError(f"teacher {spec.name!r} has no row for state {state!r}")
    if previous:
        try:
            dist = geometric_pool(dist, previous, spec.revision_rate)
        except ValueError as exc:
            raise ValueError(f"teacher {spec.name!r}, state {state!r}, round {round_}: {exc}") from None
    top = int(dist.probs.argmax())
    if spec.confidence_override is not None:
        confidence = float(spec.confidence_override)
    else:
        confidence = round(100.0 * float(dist.probs[top]), 2)
    return TeacherResponse(dist, Utterance(divmod(top, spec.action_shape[1]), confidence))


def run_debate(specs: list[MockTeacherSpec], state, rounds: int):
    """The final round's (tables, confidences) of a debate among specs; the
    transcript, which no loss reads, is not assembled."""
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    if not specs:
        raise ValueError("need at least one teacher")
    final: list[TeacherResponse] = []
    for r in range(1, rounds + 1):
        previous = [resp.dist for resp in final]
        final = [respond(spec, state, previous, r) for spec in specs]
    return tuple(resp.dist for resp in final), tuple(resp.utterance.confidence for resp in final)


def floor_rows(probs: np.ndarray, eps: float) -> np.ndarray:
    """Every entry of every row raised to at least eps, then each row
    renormalized; probs itself at eps 0."""
    vocab = probs.shape[-1]
    if not 0 <= eps < 1.0 / vocab:
        raise ValueError(f"eps must be in [0, 1/|V|) = [0, {1.0 / vocab}), got {eps}")
    if eps == 0:
        return probs
    floored = np.maximum(probs, eps)
    return floored / floored.sum(axis=-1, keepdims=True)


def force_decode_targets(world, post_dists, sampled_tool: int, eps: float):
    """Each teacher's floored tool marginal and its floored arg row under
    the sampled tool; a teacher with no mass on that tool is reported
    before an out-of-range eps."""
    joint = np.stack([post.probs for post in post_dists])
    joint = joint.reshape(len(post_dists), world.n_tools, world.n_args)
    marginals = joint.sum(axis=2)
    rows = joint[:, sampled_tool]
    row_mass = rows.sum(axis=1, keepdims=True)
    if (row_mass <= 0).any():
        raise ValueError(
            f"teacher assigns zero mass to sampled tool {sampled_tool}; "
            "cannot condition the arg position"
        )
    tool_targets = floor_rows(marginals / marginals.sum(axis=1, keepdims=True), eps)
    arg_targets = floor_rows(rows / row_mass, eps)
    return tuple(map(Distribution, tool_targets)), tuple(map(Distribution, arg_targets))


def step_token_losses(kind, world, post_dists, w, policy, state: int, action, eps: float):
    """The weighted token losses at the action's tool and arg positions,
    against the student's tool row and its arg row under the sampled tool;
    an infinite loss names its teachers."""
    tool, _ = action
    tool_targets, arg_targets = force_decode_targets(world, post_dists, tool, eps)
    tool_rep = multi_teacher_token_loss(kind, tool_targets, w, LogitVector(policy.tool_logits[state]))
    arg_rep = multi_teacher_token_loss(kind, arg_targets, w, LogitVector(policy.arg_logits[state, tool]))
    if not (math.isfinite(tool_rep.value) and math.isfinite(arg_rep.value)):
        offenders = tool_rep.offending_teachers + arg_rep.offending_teachers
        raise ValueError(
            f"infinite {kind.name} loss at state {state} (teachers {offenders}); "
            "training mode requires eps-floored targets"
        )
    return tool_rep, arg_rep
