"""Multi-step trajectory training against debating teachers.

A synthetic tool-use world supplies states whose correct action is a
(tool, arg) token pair. Each outer iteration rolls out an on-policy
trajectory, debates the teachers at every visited state, force-decodes the
sampled action against the post-debate teacher tables, and applies one
gradient update to the student's visited logit rows. Teachers see debate
transcripts; the student never does: its entire context is the state key
and its own sampled tokens.

Per-step loss is the token mean of the confidence-weighted multi-teacher
divergence over the action's two positions; the trajectory loss sums
per-step contributions.

Between the debate and the loss the step works on plain arrays: the K
post-debate tables are stacked, the tool marginals and the arg rows of the
sampled tool are taken by indexing and floored row-wise, and each target is
wrapped in a validated Distribution once, because the divergence takes one.
A trajectory is drawn in one piece: the transition ignores the action, so
its states are known before any draw, and one rng.random call gives all
2 * max_steps uniforms. The stacked tool rows are checked as LogitVectors
would be and drawn at once from their renormalised softmax cdfs, then the
arg rows under the sampled tools the same way; the tokens and the
generator state are those of one simplex.sample per token. Accuracy reads
every state's rows at once against the world's accepted table, and the
abort check every visited row; only a failed check scans the steps one by
one, to name the step.

What follows a debate and does not read the student is computed once per
distinct outcome in a run: the teacher weights, memoised by the
confidence tuple, and the force-decoded targets, by the bytes of the
post-debate tables and the sampled tool (world, eps and tau_conf are fixed
for the run). The keys are values, not states or object identities, so a
hit is exact even for a teacher whose answers vary. With deterministic
teachers each state has one outcome, yet every step still runs its own
debate, its two token losses and K logit gradients per token loss, one
call each: the benchmark's traced counts pin that call structure
(bench/test_bench.py). The K gradients of a token loss share the one
softmax of its student LogitVector, and only the weighted sum's gradient
inf-norm is taken.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .debate import Teacher, run_debate
from .divergence import DivergenceKind
from .simplex import (
    _MAX_LOGIT_SPREAD,
    DEFAULT_FLOOR,
    Distribution,
    LogitVector,
    RngSeed,
    draw,
    floor_rows,
    softmax_rows,
    validate_logits,
)
from .weighting import (
    ConfidenceScores,
    TeacherWeights,
    TokenLossReport,
    confidence_to_weights,
    multi_teacher_token_loss,
)

Action = tuple[int, int]


@dataclass(frozen=True)
class ToolWorld:
    """Deterministic tool-use environment over integer state keys.

    correct_action gives the canonical answer per state; accepted_actions
    optionally widens it to a set of equally valid answers (defaults to the
    singleton), which is what makes multi-strategy worlds expressible. Both
    must cover every state with in-range actions; accepted_table holds the
    accepted sets as one read-only boolean (n_states, n_tools, n_args)
    array. The transition ignores the action: states advance cyclically.
    """

    n_states: int
    n_tools: int
    n_args: int
    correct_action: dict[int, Action]
    accepted_actions: dict[int, frozenset[Action]] | None = None
    max_steps: int = 4
    accepted_table: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n_states < 1 or self.n_tools < 2 or self.n_args < 2:
            raise ValueError("need n_states >= 1 and at least 2 tools and 2 args")
        for s in range(self.n_states):
            if s not in self.correct_action:
                raise ValueError(f"correct_action missing state {s}")
            tool, arg = self.correct_action[s]
            if not (0 <= tool < self.n_tools and 0 <= arg < self.n_args):
                raise ValueError(f"correct_action[{s}] = {(tool, arg)} out of range")
        table = np.zeros((self.n_states, self.n_tools, self.n_args), dtype=bool)
        for s in range(self.n_states):
            if self.accepted_actions is not None and s not in self.accepted_actions:
                raise ValueError(f"accepted_actions missing state {s}")
            for tool, arg in self.accepted(s):
                if not (0 <= tool < self.n_tools and 0 <= arg < self.n_args):
                    raise ValueError(f"accepted_actions[{s}] holds {(tool, arg)} out of range")
                table[s, tool, arg] = True
        table.flags.writeable = False
        object.__setattr__(self, "accepted_table", table)

    def accepted(self, state: int) -> frozenset[Action]:
        if self.accepted_actions is not None:
            return self.accepted_actions[state]
        return frozenset({self.correct_action[state]})

    def next_state(self, state: int, action: Action) -> int:
        return (state + 1) % self.n_states

    def states_from(self, x: int) -> np.ndarray:
        """The max_steps states a trajectory from x visits, in step order;
        known before any draw, since next_state ignores the action."""
        return (x + np.arange(self.max_steps)) % self.n_states

    def flat_action(self, action: Action) -> int:
        return action[0] * self.n_args + action[1]

    def unflatten(self, flat: int) -> Action:
        return (flat // self.n_args, flat % self.n_args)

    @property
    def joint_vocab(self) -> int:
        return self.n_tools * self.n_args


@dataclass
class StudentPolicy:
    """Tabular policy: per-state tool logits and per-tool arg logits.

    Actions decode autoregressively: the tool row conditions only on the
    state, the arg row on the state and the sampled tool. Rows are plain
    logit arrays mutated in place by training updates.
    """

    tool_logits: np.ndarray  # (n_states, n_tools)
    arg_logits: np.ndarray  # (n_states, n_tools, n_args)

    @staticmethod
    def uniform(world: ToolWorld) -> "StudentPolicy":
        return StudentPolicy(
            tool_logits=np.zeros((world.n_states, world.n_tools)),
            arg_logits=np.zeros((world.n_states, world.n_tools, world.n_args)),
        )

    @staticmethod
    def oracle(world: ToolWorld) -> "StudentPolicy":
        """Logit 20 on every state's correct tool and, under it, correct arg."""
        policy = StudentPolicy.uniform(world)
        for s in range(world.n_states):
            tool, arg = world.correct_action[s]
            policy.tool_logits[s, tool] = 20.0
            policy.arg_logits[s, tool, arg] = 20.0
        return policy

    def tool_row(self, state: int) -> LogitVector:
        return LogitVector(self.tool_logits[state])

    def arg_row(self, state: int, tool: int) -> LogitVector:
        return LogitVector(self.arg_logits[state, tool])

    def sample_steps(self, states: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The (tools, args) drawn at each of states, in step order, from the
        uniforms u: 2 per step, the tool's then the arg's.

        The tool rows are stacked, checked as LogitVectors would be and
        drawn at once from their renormalised softmax rows by simplex.draw;
        then the arg row under each sampled tool is gathered and drawn the
        same way. Each token is the one simplex.sample would draw from
        softmax(LogitVector(row)) at the same uniform, one step at a time.
        A rejected row raises the ValueError, message included, that a
        LogitVector of it would, and the first rejected row in step order
        (tool row m, then arg row m) is the one named: a stack is rejected
        exactly when one of its rows is, and only then are the steps
        scanned in order.
        """
        tool_rows = self.tool_logits[states]
        try:
            validate_logits(tool_rows)
            tools = _draw_rows(tool_rows, u[0::2])
            arg_rows = self.arg_logits[states, tools]
            validate_logits(arg_rows)
        except ValueError:
            pass
        else:
            return tools, _draw_rows(arg_rows, u[1::2])
        for m, state in enumerate(states.tolist()):
            validate_logits(tool_rows[m])
            validate_logits(self.arg_logits[state, _draw_rows(tool_rows[m], u[2 * m])])
        raise AssertionError("a stacked check rejected rows that each pass alone")

    def sample_action(self, state: int, rng: np.random.Generator) -> Action:
        """Draw the tool, then the arg under it: sample_steps at one state,
        from rng.random(2). Both uniforms are drawn before a row is
        checked, so a rejected row leaves rng past both."""
        tools, args = self.sample_steps(np.array([state]), rng.random(2))
        return (int(tools[0]), int(args[0]))

    def argmax_action(self, state: int) -> Action:
        tool = int(np.argmax(self.tool_logits[state]))
        arg = int(np.argmax(self.arg_logits[state, tool]))
        return (tool, arg)


def _draw_rows(rows: np.ndarray, u: np.ndarray) -> np.ndarray:
    """One token id per logit row (last axis) at that row's uniform in u,
    by simplex.draw on the row's renormalised softmax; unvalidated."""
    q = softmax_rows(rows)
    return draw(q / q.sum(axis=-1, keepdims=True), u)


def rollout(
    world: ToolWorld, policy: StudentPolicy, x: int, rng: np.random.Generator
) -> tuple[tuple[int, Action], ...]:
    """Sample exactly max_steps actions on-policy from the start state x;
    returns the (state, sampled action) of every step.

    The visited states are known before any draw (ToolWorld.states_from),
    so all 2 * max_steps uniforms come from one rng.random call and the
    steps are drawn at once by policy.sample_steps: the same tokens, and
    the same generator state afterwards, as a draw per token. A rejected
    row raises as sample_steps says, with rng past all the uniforms (a draw
    per token stops before the rejected row's). train() never rolls out a
    rejected row: its abort check runs first.
    """
    states = world.states_from(x)
    tools, args = policy.sample_steps(states, rng.random(2 * world.max_steps))
    return tuple(zip(states.tolist(), zip(tools.tolist(), args.tolist())))


def force_decode_targets(
    world: ToolWorld,
    post_dists: tuple[Distribution, ...],
    sampled_tool: int,
    eps: float,
) -> tuple[tuple[Distribution, ...], tuple[Distribution, ...]]:
    """Per-position teacher targets from post-debate joint action tables.

    Position 1 target is each teacher's tool marginal; position 2 is its
    arg distribution conditioned on the student's sampled tool (the teacher
    scores the student's token sequence, it does not re-decide the tool).
    Both are floored at eps afterward. A teacher with no mass on the sampled
    tool is reported before an out-of-range eps, whichever teacher it is.
    """
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


def step_token_losses(
    kind: DivergenceKind,
    world: ToolWorld,
    post_dists: tuple[Distribution, ...],
    w: TeacherWeights,
    policy: StudentPolicy,
    state: int,
    action: Action,
    eps: float,
    targets: dict | None = None,
) -> tuple[TokenLossReport, TokenLossReport]:
    """Weighted token losses at the action's two positions.

    Teacher tables are conditioned on the debate (they are post-debate
    distributions); the student rows are conditioned on the state and its
    own sampled tool only. Positions are gradient-decoupled: each report's
    gradient lives entirely in its own logit row.

    targets, when given, memoises force_decode_targets for one world and
    eps, keyed by the bytes of the post-debate tables and the sampled tool.
    """
    tool, _ = action
    targets = {} if targets is None else targets
    key = (tuple(p.probs.tobytes() for p in post_dists), tool)
    if key not in targets:
        targets[key] = force_decode_targets(world, post_dists, tool, eps)
    tool_targets, arg_targets = targets[key]
    tool_rep = multi_teacher_token_loss(kind, tool_targets, w, policy.tool_row(state))
    arg_rep = multi_teacher_token_loss(kind, arg_targets, w, policy.arg_row(state, tool))
    if not (math.isfinite(tool_rep.value) and math.isfinite(arg_rep.value)):
        offenders = tool_rep.offending_teachers + arg_rep.offending_teachers
        raise ValueError(
            f"infinite {kind.name} loss at state {state} (teachers {offenders}); "
            "training mode requires eps-floored targets"
        )
    return tool_rep, arg_rep


@dataclass
class TrainConfig:
    """Hyperparameters for a training run; see module docstring for loop shape."""

    kind: DivergenceKind
    rounds: int = 2
    iterations: int = 500
    eta: float = 0.1
    eps: float = DEFAULT_FLOOR
    tau_conf: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.rounds < 1 or self.iterations < 1:
            raise ValueError("rounds and iterations must be >= 1")
        for name in ("eta", "eps"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name}: must be non-negative, got {getattr(self, name)}")
        # A 100-point confidence spread is a weight-logit spread of 1/tau_conf;
        # past the softmax ceiling the least confident teacher's weight is 0.
        if not self.tau_conf >= 1.0 / _MAX_LOGIT_SPREAD:
            raise ValueError(
                f"tau_conf: must be at least 1/{_MAX_LOGIT_SPREAD:g}, got {self.tau_conf}"
            )
        if self.kind.name in ("forward_kl", "reverse_kl") and self.eps == 0:
            raise ValueError(
                f"eps: {self.kind.name} training requires a positive teacher floor, "
                f"got {self.eps}"
            )


@dataclass
class TrainResult:
    """Run artifact: per-iteration series, per-token arrays, trained policy.

    token_loss and token_grad_inf are indexed [iteration, step, token]
    (token 0 is the tool position, 1 the arg position); weights is indexed
    [iteration, step, teacher]. An aborted run keeps the aborting iteration.
    """

    loss_series: np.ndarray
    accuracy_series: np.ndarray
    token_loss: np.ndarray  # (iterations, max_steps, 2)
    token_grad_inf: np.ndarray  # (iterations, max_steps, 2)
    weights: np.ndarray  # (iterations, max_steps, K)
    policy: StudentPolicy
    final_accuracy: float
    aborted: dict | None = None


def task_accuracy(policy: StudentPolicy, world: ToolWorld) -> float:
    """Fraction of states whose greedy (tool, arg) decode is accepted.

    Argmax ties break toward the lowest token id. Every state's tool and
    then arg is one argmax over the stacked rows, as argmax_action takes
    them one state at a time, and the hits are read off
    world.accepted_table.
    """
    states = np.arange(world.n_states)
    tools = policy.tool_logits[states].argmax(axis=1)
    args = policy.arg_logits[states, tools].argmax(axis=1)
    return int(world.accepted_table[states, tools, args].sum()) / world.n_states


def _first_unusable_step(
    policy: StudentPolicy, traj: tuple[tuple[int, Action], ...]
) -> int | None:
    """First step of traj whose tool or arg row the next iteration could not
    softmax (simplex.validate_logits rejects it).

    The visited tool rows and arg rows are checked as two stacks; only when
    one fails are the steps scanned in order to name the first bad one.
    """
    states = [s for s, _ in traj]
    tool_rows = policy.tool_logits[states]
    arg_rows = policy.arg_logits[states, [tool for _, (tool, _) in traj]]
    with np.errstate(over="ignore"):
        try:
            validate_logits(tool_rows)
            validate_logits(arg_rows)
            return None
        except ValueError:
            pass
        for m in range(len(traj)):
            try:
                validate_logits(tool_rows[m])
                validate_logits(arg_rows[m])
            except ValueError:
                return m
    return None


def train(world: ToolWorld, teachers: list[Teacher], config: TrainConfig) -> TrainResult:
    """Run the full on-policy loop; deterministic given config.seed.

    Per iteration: draw a start state, roll out max_steps actions with the
    current policy, debate each visited state, force-decode every sampled
    action against final-round teacher tables with confidence weights, sum
    the per-step token-mean losses, and apply one gradient step to the
    visited rows. Teacher tables are never mutated. A logit row the next
    iteration could not softmax aborts the run, recording the first step
    whose tool or arg row it is.
    """
    rollout_rng = RngSeed(config.seed).stream("rollout")
    policy = StudentPolicy.uniform(world)

    loss_series = np.zeros(config.iterations)
    acc_series = np.zeros(config.iterations)
    token_loss = np.zeros((config.iterations, world.max_steps, 2))
    token_grad_inf = np.zeros((config.iterations, world.max_steps, 2))
    weights = np.zeros((config.iterations, world.max_steps, len(teachers)))
    aborted = None
    # per-outcome memos (see the module docstring)
    weight_memo: dict[tuple[float, ...], TeacherWeights] = {}
    target_memo: dict = {}

    for it in range(config.iterations):
        x = int(rollout_rng.integers(world.n_states))
        traj = rollout(world, policy, x, rollout_rng)

        tool_grads: dict[int, np.ndarray] = {}
        arg_grads: dict[tuple[int, int], np.ndarray] = {}
        total_loss = 0.0

        for m, (state, action) in enumerate(traj):
            result = run_debate(teachers, state, config.rounds)
            confidences = result.confidences
            if confidences not in weight_memo:
                scores = ConfidenceScores(confidences, config.tau_conf)
                weight_memo[confidences] = confidence_to_weights(scores)
            w = weight_memo[confidences]

            tool_rep, arg_rep = step_token_losses(
                kind=config.kind,
                world=world,
                post_dists=result.post_dists,
                w=w,
                policy=policy,
                state=state,
                action=action,
                eps=config.eps,
                targets=target_memo,
            )
            total_loss += 0.5 * (tool_rep.value + arg_rep.value)
            token_loss[it, m] = tool_rep.value, arg_rep.value
            token_grad_inf[it, m] = tool_rep.inf_norm, arg_rep.inf_norm
            weights[it, m] = w.weights

            arg_key = (state, action[0])
            tool_grads[state] = tool_grads.get(state, 0.0) + 0.5 * tool_rep.logit_grad
            arg_grads[arg_key] = arg_grads.get(arg_key, 0.0) + 0.5 * arg_rep.logit_grad

        for s, grad in tool_grads.items():
            policy.tool_logits[s] -= config.eta * grad
        for (s, tool), grad in arg_grads.items():
            policy.arg_logits[s, tool] -= config.eta * grad

        loss_series[it] = total_loss
        acc_series[it] = task_accuracy(policy, world)

        bad_step = _first_unusable_step(policy, traj)
        if bad_step is not None:
            aborted = {"iteration": it, "step": bad_step}
            break

    kept = it + 1
    return TrainResult(
        loss_series=loss_series[:kept],
        accuracy_series=acc_series[:kept],
        token_loss=token_loss[:kept],
        token_grad_inf=token_grad_inf[:kept],
        weights=weights[:kept],
        policy=policy,
        final_accuracy=task_accuracy(policy, world),
        aborted=aborted,
    )
