"""Named desk-scale scenarios pairing a tool world with mock teachers.

Three fixtures cover the experiment surface:

* complementary: two teachers, each competent (peaked on the correct
  action) on a disjoint half of the states and flattened onto a wrong
  action elsewhere. One debate round flips the incompetent teacher's
  argmax to the correct action, so the confidence-weighted consensus
  beats either teacher alone.

* privileged-gap: a single teacher peaked 1 - 1e-6 on the correct action
  at every state against a uniformly initialized student. The teacher's
  near-zero tail on student-supported tokens is exactly the regime where
  reverse-KL gradients blow up while JSD stays within its ceiling.

* two-strategy: every state accepts two distinct (tool, arg) answers.
  Teacher one backs strategy X with a sharp arg schema, teacher two backs
  strategy Y; a confidence override under-weights the X expert. The
  per-position arithmetic mean of the teacher targets (the forward-KL
  minimizer) then picks X's tool but Y's arg, an invalid splice, while the
  JSD minimizer stays on a coherent strategy. Constants below were tuned
  numerically so that every margin is on the intended side.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .debate import (
    MockTeacher,
    MockTeacherSpec,
    flattened_row,
    peaked_row,
    temperature_for_peak,
)
from .simplex import Distribution
from .training import Action, ToolWorld


@dataclass(frozen=True)
class Fixture:
    world: ToolWorld
    teachers: tuple[MockTeacher, ...]


def _cycled_correct(world_states: int, n_tools: int, n_args: int) -> dict[int, Action]:
    joint = n_tools * n_args
    return {s: ((s % joint) // n_args, (s % joint) % n_args) for s in range(world_states)}


def complementary_fixture(revision_rate: float = 0.5) -> Fixture:
    """Two teachers with complementary competence halves on a 2x2 world
    (expert-a on states 0-4, expert-b on 5-9): peaked 0.9 on the correct
    action where competent, flattened to a 0.3 top mass elsewhere."""
    n_states, n_tools, n_args, peak_mass = 10, 2, 2, 0.9
    world = ToolWorld(
        n_states=n_states,
        n_tools=n_tools,
        n_args=n_args,
        correct_action=_cycled_correct(n_states, n_tools, n_args),
        max_steps=4,
    )
    vocab = world.joint_vocab
    temperature = temperature_for_peak(vocab, peak_mass, 0.3)
    half = n_states // 2

    teachers = []
    for name, competent in (("expert-a", range(half)), ("expert-b", range(half, n_states))):
        table = {}
        for s in range(n_states):
            correct_flat = world.flat_action(world.correct_action[s])
            if s in competent:
                table[s] = peaked_row(vocab, correct_flat, peak_mass)
            else:
                wrong_flat = (correct_flat + vocab // 2 + 1) % vocab
                table[s] = flattened_row(vocab, wrong_flat, peak_mass, temperature)
        spec = MockTeacherSpec(
            name=name,
            base_table=table,
            revision_rate=revision_rate,
            action_shape=(n_tools, n_args),
        )
        teachers.append(MockTeacher(spec))
    return Fixture(world, tuple(teachers))


def privileged_gap_fixture(num_teachers: int = 1) -> Fixture:
    """Teacher(s) peaked 1 - 1e-6 on the correct action at every state of a
    4x4 world."""
    n_states, n_tools, n_args, gap = 10, 4, 4, 1e-6
    world = ToolWorld(
        n_states=n_states,
        n_tools=n_tools,
        n_args=n_args,
        correct_action=_cycled_correct(n_states, n_tools, n_args),
        max_steps=4,
    )
    vocab = world.joint_vocab
    table = {
        s: peaked_row(vocab, world.flat_action(world.correct_action[s]), 1.0 - gap)
        for s in range(n_states)
    }
    teachers = tuple(
        MockTeacher(
            MockTeacherSpec(
                name=f"oracle-{k}",
                base_table=table,
                revision_rate=0.0,
                action_shape=(n_tools, n_args),
            )
        )
        for k in range(num_teachers)
    )
    return Fixture(world, teachers)


# Tuned so the weighted per-position mean splices (tool from X, arg from Y)
# while the weighted JSD minimizer stays on X. With confidences (55, 89.33)
# the X expert's weight is 0.415; the mean arg target then puts 0.4979 on
# X's arg (argmax flips to Y's arg) while the JSD minimizer puts 0.5071 on
# X's arg. Tool targets stay on X's tool under every divergence.
_TWO_STRATEGY = {
    "x_tool": np.array([0.90, 0.10]),
    "x_arg": np.array([0.96, 0.04]),
    "y_tool": np.array([0.30, 0.70]),
    "y_arg": np.array([0.17, 0.83]),
    "x_confidence": 55.0,
    "y_confidence": 89.33,
}


def two_strategy_fixture() -> Fixture:
    """Two accepted strategies per state with disagreeing expert teachers."""
    n_states, n_tools, n_args = 10, 2, 2
    strategy_x: Action = (0, 0)
    strategy_y: Action = (1, 1)
    world = ToolWorld(
        n_states=n_states,
        n_tools=n_tools,
        n_args=n_args,
        correct_action={s: strategy_x for s in range(n_states)},
        accepted_actions={s: frozenset({strategy_x, strategy_y}) for s in range(n_states)},
        max_steps=4,
    )
    c = _TWO_STRATEGY
    joint_x = Distribution(np.outer(c["x_tool"], c["x_arg"]).ravel())
    joint_y = Distribution(np.outer(c["y_tool"], c["y_arg"]).ravel())
    specs = [
        MockTeacherSpec(
            name="expert-x",
            base_table={s: joint_x for s in range(n_states)},
            revision_rate=0.0,
            action_shape=(n_tools, n_args),
            confidence_override=c["x_confidence"],
        ),
        MockTeacherSpec(
            name="expert-y",
            base_table={s: joint_y for s in range(n_states)},
            revision_rate=0.0,
            action_shape=(n_tools, n_args),
            confidence_override=c["y_confidence"],
        ),
    ]
    return Fixture(world, tuple(MockTeacher(spec) for spec in specs))


FIXTURES = {
    "complementary": complementary_fixture,
    "privileged-gap": privileged_gap_fixture,
    "two-strategy": two_strategy_fixture,
}


def build_fixture(name: str, **kwargs) -> Fixture:
    try:
        builder = FIXTURES[name]
    except KeyError:
        raise ValueError(f"unknown fixture {name!r}; choose from {sorted(FIXTURES)}")
    return builder(**kwargs)


def teacher_standalone_accuracy(fixture: Fixture, teacher_index: int) -> float:
    """Argmax accuracy of one teacher's base table over all states."""
    world = fixture.world
    teacher = fixture.teachers[teacher_index]
    hits = 0
    for s in range(world.n_states):
        flat = int(np.argmax(teacher.base_dist(s).probs))
        if world.unflatten(flat) in world.accepted(s):
            hits += 1
    return hits / world.n_states
