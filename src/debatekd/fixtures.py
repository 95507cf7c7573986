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


_N_STATES = 10


def _world(n_tools: int, n_args: int, **overrides) -> ToolWorld:
    """A 10-state, 4-step world whose correct action cycles through the
    joint actions; overrides replace any of the ToolWorld fields set here."""
    joint = n_tools * n_args
    correct = {s: divmod(s % joint, n_args) for s in range(_N_STATES)}
    fields = {"n_states": _N_STATES, "correct_action": correct, "max_steps": 4}
    return ToolWorld(n_tools=n_tools, n_args=n_args, **(fields | overrides))


def _teacher(world: ToolWorld, name: str, table, **spec_fields) -> MockTeacher:
    """A mock teacher over world's joint actions; spec_fields are the
    MockTeacherSpec fields that differ from their defaults."""
    shape = (world.n_tools, world.n_args)
    spec = MockTeacherSpec(name=name, base_table=table, action_shape=shape, **spec_fields)
    return MockTeacher(spec)


def complementary_fixture(revision_rate: float = 0.5) -> Fixture:
    """Two teachers with complementary competence halves on a 2x2 world
    (expert-a on states 0-4, expert-b on 5-9): peaked 0.9 on the correct
    action where competent, flattened to a 0.3 top mass elsewhere."""
    world = _world(2, 2)
    n_states, vocab, peak_mass = world.n_states, world.joint_vocab, 0.9
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
        teachers.append(_teacher(world, name, table, revision_rate=revision_rate))
    return Fixture(world, tuple(teachers))


def privileged_gap_fixture(num_teachers: int = 1) -> Fixture:
    """Teacher(s) peaked 1 - 1e-6 on the correct action at every state of a
    4x4 world."""
    world = _world(4, 4)
    vocab, gap = world.joint_vocab, 1e-6
    table = {
        s: peaked_row(vocab, world.flat_action(world.correct_action[s]), 1.0 - gap)
        for s in range(world.n_states)
    }
    teachers = tuple(
        _teacher(world, f"oracle-{k}", table, revision_rate=0.0) for k in range(num_teachers)
    )
    return Fixture(world, teachers)


# Tuned so the weighted per-position mean splices (tool from X, arg from Y)
# while the weighted JSD minimizer stays on X. With confidences (55, 89.33)
# the X expert's weight is 0.415; the mean arg target then puts 0.4979 on
# X's arg (argmax flips to Y's arg) while the JSD minimizer puts 0.5071 on
# X's arg. Tool targets stay on X's tool under every divergence.
# Each side holds (tool marginal, arg marginal, confidence override).
_TWO_STRATEGY = {
    "x": (np.array([0.90, 0.10]), np.array([0.96, 0.04]), 55.0),
    "y": (np.array([0.30, 0.70]), np.array([0.17, 0.83]), 89.33),
}


def two_strategy_fixture() -> Fixture:
    """Two accepted strategies per state with disagreeing expert teachers."""
    strategy_x: Action = (0, 0)
    strategy_y: Action = (1, 1)
    correct = {s: strategy_x for s in range(_N_STATES)}
    accepted = {s: frozenset({strategy_x, strategy_y}) for s in range(_N_STATES)}
    world = _world(2, 2, correct_action=correct, accepted_actions=accepted)
    teachers = []
    for side, (tool, arg, confidence) in _TWO_STRATEGY.items():
        joint = Distribution(np.outer(tool, arg).ravel())
        table = {s: joint for s in range(world.n_states)}
        teachers.append(
            _teacher(
                world, f"expert-{side}", table, revision_rate=0.0, confidence_override=confidence
            )
        )
    return Fixture(world, tuple(teachers))


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
