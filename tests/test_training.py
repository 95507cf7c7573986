import copy
import hashlib
import re
from collections import Counter

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import assume, given, settings

import step_reference as frozen
import validator_reference as reference
from conftest import probability_vectors
from debatekd import training
from debatekd.debate import MockTeacher, MockTeacherSpec, run_debate
from debatekd.divergence import FORWARD_KL, REVERSE_KL, jsd_kind, logit_gradient
from debatekd.fixtures import (
    complementary_fixture,
    privileged_gap_fixture,
    teacher_standalone_accuracy,
    two_strategy_fixture,
)
from debatekd.simplex import DEFAULT_FLOOR, Distribution, LogitVector, RngSeed, sample, softmax
from debatekd.training import (
    StudentPolicy,
    ToolWorld,
    TrainConfig,
    _first_unusable_step,
    force_decode_targets,
    rollout,
    step_token_losses,
    task_accuracy,
    train,
)
from debatekd.weighting import ConfidenceScores, TeacherWeights, confidence_to_weights


def teacher_table_hash(teacher) -> str:
    h = hashlib.sha256()
    for state in sorted(teacher.spec.base_table):
        h.update(teacher.spec.base_table[state].probs.tobytes())
    return h.hexdigest()


def reference_floor(p: Distribution, eps: float) -> Distribution:
    """The scalar floor_and_renormalize that floor_rows replaced."""
    if not 0 <= eps < 1.0 / p.vocab_size:
        raise ValueError(f"eps must be in [0, 1/|V|) = [0, {1.0 / p.vocab_size}), got {eps}")
    if eps == 0:
        return p
    floored = np.maximum(p.probs, eps)
    return Distribution(floored / floored.sum())


def reference_targets(world, post_dists, sampled_tool, eps):
    """The per-teacher loop that force_decode_targets replaced."""
    tool_targets, arg_targets = [], []
    for post in post_dists:
        joint = post.probs.reshape(world.n_tools, world.n_args)
        marginal = joint.sum(axis=1)
        row = joint[sampled_tool]
        row_mass = row.sum()
        if row_mass <= 0:
            raise ValueError(
                f"teacher assigns zero mass to sampled tool {sampled_tool}; "
                "cannot condition the arg position"
            )
        tool_targets.append(reference_floor(Distribution(marginal / marginal.sum()), eps))
        arg_targets.append(reference_floor(Distribution(row / row_mass), eps))
    return tool_targets, arg_targets


def reference_rollout(world, policy, x, rng):
    """Rollout steps drawn through validated LogitVector/Distribution values."""
    steps, state = [], x
    for _ in range(world.max_steps):
        tool = int(sample(softmax(LogitVector(policy.tool_logits[state])), rng))
        arg = int(sample(softmax(LogitVector(policy.arg_logits[state, tool])), rng))
        steps.append((state, (tool, arg)))
        state = (state + 1) % world.n_states
    return tuple(steps)


def raised(fn, *args):
    with pytest.raises(ValueError) as info:
        fn(*args)
    return str(info.value)


def simple_world(n_states=6, n_tools=4, n_args=4, max_steps=4) -> ToolWorld:
    joint = n_tools * n_args
    return ToolWorld(
        n_states=n_states,
        n_tools=n_tools,
        n_args=n_args,
        correct_action={s: ((s % joint) // n_args, (s % joint) % n_args) for s in range(n_states)},
        max_steps=max_steps,
    )


class TestToolWorld:
    def test_requires_total_correct_action(self):
        with pytest.raises(ValueError, match="missing"):
            ToolWorld(n_states=2, n_tools=2, n_args=2, correct_action={0: (0, 0)})

    def test_default_transition_is_cyclic(self):
        world = simple_world(n_states=3, max_steps=4)
        assert world.states_from(2).tolist() == [2, 0, 1, 2]

    def test_accepted_defaults_to_singleton(self):
        world = simple_world()
        assert world.accepted(0) == frozenset({world.correct_action[0]})

    def test_accepted_actions_must_cover_every_state(self):
        # before the check, this world failed mid-run in task_accuracy as KeyError: 1
        with pytest.raises(ValueError, match=r"^accepted_actions missing state 1$"):
            ToolWorld(n_states=2, n_tools=2, n_args=2, correct_action={0: (0, 0), 1: (1, 1)},
                      accepted_actions={0: frozenset({(0, 0)})})

    @pytest.mark.parametrize("action", [(2, 0), (0, 2), (-1, 0), (0, -1)])
    def test_accepted_actions_must_be_in_range(self, action):
        # before the check, an out-of-range action was silently never matched
        message = f"accepted_actions[1] holds {action} out of range"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ToolWorld(n_states=2, n_tools=2, n_args=2, correct_action={0: (0, 0), 1: (1, 1)},
                      accepted_actions={0: frozenset({(0, 0)}), 1: frozenset({(1, 1), action})})

    @pytest.mark.parametrize("world", [simple_world(n_states=7, n_tools=3, n_args=2),
                                       two_strategy_fixture().world], ids=["simple", "two-strategy"])
    def test_accepted_table_holds_the_accepted_sets(self, world):
        table = world.accepted_table
        assert table.shape == (world.n_states, world.n_tools, world.n_args)
        assert not table.flags.writeable
        assert {(s, (t, a)) for s, t, a in zip(*np.nonzero(table))} == {
            (s, action) for s in range(world.n_states) for action in world.accepted(s)
        }

    def test_flatten_roundtrip(self):
        world = simple_world()
        for tool in range(world.n_tools):
            for arg in range(world.n_args):
                assert world.unflatten(world.flat_action((tool, arg))) == (tool, arg)


class TestRollout:
    def test_oracle_policy_all_ok(self):
        world = simple_world()
        policy = StudentPolicy.oracle(world)
        traj = rollout(world, policy, 0, RngSeed(0).stream("rollout"))
        assert len(traj) == world.max_steps
        assert all(action in world.accepted(s) for s, action in traj)

    def test_single_step_world(self):
        world = simple_world(max_steps=1)
        traj = rollout(world, StudentPolicy.uniform(world), 0, RngSeed(0).stream("r"))
        assert len(traj) == 1

    def test_states_follow_transition(self):
        world = simple_world(n_states=5)
        traj = rollout(world, StudentPolicy.uniform(world), 3, RngSeed(1).stream("r"))
        states = [s for s, _ in traj]
        assert states == [3, 4, 0, 1]

    def test_uniform_policy_ok_rate_matches_product_of_marginals(self):
        world = simple_world(n_states=4, n_tools=4, n_args=4, max_steps=1)
        policy = StudentPolicy.uniform(world)
        rng = RngSeed(5).stream("rollout")
        oks = 0
        n = 10_000
        for _ in range(n):
            traj = rollout(world, policy, int(rng.integers(4)), rng)
            oks += sum(action in world.accepted(s) for s, action in traj)
        assert abs(oks / n - 1 / 16) <= 0.02

    @pytest.mark.parametrize("seed", range(6))
    def test_draws_match_validated_value_reference(self, seed):
        world = simple_world(n_states=5, n_tools=3, n_args=4)
        rng = np.random.default_rng(seed)
        policy = StudentPolicy(
            tool_logits=rng.normal(scale=4.0, size=(5, 3)),
            arg_logits=rng.normal(scale=4.0, size=(5, 3, 4)),
        )
        ours, ref = RngSeed(seed).stream("r"), RngSeed(seed).stream("r")
        for x in range(world.n_states):
            assert rollout(world, policy, x, ours) == reference_rollout(world, policy, x, ref)
        assert ours.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("row", [[0.0, np.nan], [0.0, np.inf], [0.0, 701.0]])
    def test_sampling_rejects_rows_as_logit_vector_does(self, row):
        world = simple_world(n_states=1, n_tools=2, n_args=2)
        policy = StudentPolicy.uniform(world)
        policy.tool_logits[0] = row
        rng = RngSeed(0).stream("r")
        assert raised(policy.sample_action, 0, rng) == raised(LogitVector, np.array(row))


BAD_ROWS = {"nan": [0.0, np.nan, 1.0], "inf": [0.0, np.inf, 1.0], "spread": [0.0, 701.0, 1.0]}


def healthy_policy(n_states, seed=0):
    """Tool rows favouring tool 0 by 50 nats; all rows valid."""
    rng = np.random.default_rng(seed)
    policy = StudentPolicy(tool_logits=rng.normal(size=(n_states, 3)),
                           arg_logits=rng.normal(size=(n_states, 3, 3)))
    policy.tool_logits[:, 0] += 50.0
    return policy


class TestRolloutRejectsInStepOrder:
    """rollout raises what the per-step reference raises: the first rejected
    row in step order (tool row m, then arg row m) is the one named."""

    def assert_same_rejection(self, world, policy, x=0):
        ours, ref = RngSeed(3).stream("r"), RngSeed(3).stream("r")
        got = raised(rollout, world, policy, x, ours)
        assert got == raised(reference_rollout, world, policy, x, ref)
        # the generator stands past all 2 * max_steps uniforms
        drawn = RngSeed(3).stream("r")
        drawn.random(2 * world.max_steps)
        assert ours.bit_generator.state == drawn.bit_generator.state
        return got

    @pytest.mark.parametrize("bad", list(BAD_ROWS))
    @pytest.mark.parametrize("row", ["tool", "arg"])
    @pytest.mark.parametrize("step", range(5))
    def test_each_bad_row_at_each_step(self, bad, row, step):
        world = simple_world(n_states=4, n_tools=3, n_args=3, max_steps=5)
        policy = healthy_policy(4)
        state = step % 4  # step 4 revisits state 0, whose rows step 0 reads
        if row == "tool":
            policy.tool_logits[state] = BAD_ROWS[bad]
        else:
            policy.arg_logits[state, :] = BAD_ROWS[bad]
        got = self.assert_same_rejection(world, policy)
        assert got == raised(LogitVector, np.array(BAD_ROWS[bad]))

    def test_an_arg_row_at_step_0_before_a_tool_row_at_step_2(self):
        world = simple_world(n_states=4, n_tools=3, n_args=3, max_steps=4)
        policy = healthy_policy(4)
        policy.arg_logits[0, :] = BAD_ROWS["spread"]
        policy.tool_logits[2] = BAD_ROWS["nan"]
        # the tool stack alone would name the NaN of step 2
        assert "spread 701.0" in self.assert_same_rejection(world, policy)

    @pytest.mark.parametrize("first, second", [("tool", "tool"), ("tool", "arg"),
                                               ("arg", "tool"), ("arg", "arg")])
    def test_two_spreads_name_the_first_in_step_order(self, first, second):
        world = simple_world(n_states=4, n_tools=3, n_args=3, max_steps=4)
        policy = healthy_policy(4)
        for step, row, spread in [(1, first, 720.0), (3, second, 800.0)]:
            if row == "tool":
                policy.tool_logits[step] = [0.0, spread, 1.0]
            else:
                policy.arg_logits[step, :] = [0.0, spread, 1.0]
        # a stacked check alone would name the largest spread, 800
        assert "spread 720.0" in self.assert_same_rejection(world, policy)

    def test_a_bad_arg_row_under_an_unsampled_tool_is_never_read(self):
        world = simple_world(n_states=4, n_tools=3, n_args=3, max_steps=4)
        policy = healthy_policy(4)
        policy.arg_logits[:, 1:] = np.nan  # tool 0 is drawn with probability 1 - 1e-21
        ours, ref = RngSeed(3).stream("r"), RngSeed(3).stream("r")
        assert rollout(world, policy, 0, ours) == reference_rollout(world, policy, 0, ref)
        assert ours.bit_generator.state == ref.bit_generator.state


class TestTaskAccuracy:
    def test_oracle_is_perfect(self):
        world = simple_world()
        assert task_accuracy(StudentPolicy.oracle(world), world) == 1.0

    def test_uniform_policy_ties_break_to_lowest_id(self):
        world = simple_world(n_states=8, n_tools=4, n_args=4)
        policy = StudentPolicy.uniform(world)
        expected = sum(
            1 for s in range(8) if world.correct_action[s] == (0, 0)
        ) / 8
        assert task_accuracy(policy, world) == expected


class TestStepLosses:
    def test_teachers_equal_student_gives_zero(self):
        fixture = complementary_fixture()
        world = fixture.world
        policy = StudentPolicy.uniform(world)
        from debatekd.simplex import softmax

        state, action = 0, (1, 0)
        tool_dist = softmax(policy.tool_row(state))
        arg_dist = softmax(policy.arg_row(state, action[0]))
        joint = Distribution(np.outer(tool_dist.probs, arg_dist.probs).ravel())
        w = TeacherWeights.uniform(1)
        tool_rep, arg_rep = step_token_losses(
            jsd_kind(), world, (joint,), w, policy, state, action, eps=0.0
        )
        assert tool_rep.value <= 1e-12 and arg_rep.value <= 1e-12

    def test_force_decode_targets_factorize_joint(self):
        world = simple_world(n_tools=2, n_args=2)
        joint = Distribution(np.array([0.5, 0.2, 0.2, 0.1]))
        tools, args = force_decode_targets(world, (joint,), sampled_tool=0, eps=0.0)
        np.testing.assert_allclose(tools[0].probs, [0.7, 0.3])
        np.testing.assert_allclose(args[0].probs, [5 / 7, 2 / 7])

    @pytest.mark.parametrize("build", [complementary_fixture, privileged_gap_fixture, two_strategy_fixture])
    @pytest.mark.parametrize("eps", [0.0, 1e-8])
    def test_force_decode_targets_match_per_teacher_loop(self, build, eps):
        fixture = build()
        world = fixture.world
        for state in range(world.n_states):
            post = run_debate(list(fixture.teachers), state, 2).post_dists
            for tool in range(world.n_tools):
                ours = force_decode_targets(world, post, tool, eps)
                ref = reference_targets(world, post, tool, eps)
                for got, want in zip(ours, ref):
                    assert [d.probs.tobytes() for d in got] == [d.probs.tobytes() for d in want]

    def test_force_decode_targets_raise_as_per_teacher_loop(self):
        world = simple_world(n_tools=2, n_args=2)
        fine = Distribution(np.full(4, 0.25))
        no_tool_one = Distribution(np.array([0.5, 0.5, 0.0, 0.0]))
        for post, eps in [((fine, no_tool_one), 0.0), ((fine,), 0.5), ((fine,), float("nan"))]:
            args = (world, post, 1, eps)
            assert raised(force_decode_targets, *args) == raised(reference_targets, *args)
        # Both faults at once: the zero-mass row is reported first, although
        # the per-teacher loop hit the first teacher's eps error before it.
        args = (world, (fine, no_tool_one), 1, 0.5)
        assert "zero mass" in raised(force_decode_targets, *args)
        assert "eps must be" in raised(reference_targets, *args)

    def test_infinite_loss_rejected_in_training_mode(self):
        world = simple_world(n_tools=2, n_args=2)
        policy = StudentPolicy.uniform(world)
        degenerate = Distribution(np.array([1.0, 0.0, 0.0, 0.0]))
        w = TeacherWeights.uniform(1)
        with pytest.raises(ValueError, match="eps-floored"):
            step_token_losses(
                REVERSE_KL, world, (degenerate,), w, policy, 0, (0, 0), eps=0.0
            )

    @pytest.mark.parametrize("field, value", [
        *((field, float(value)) for field in ("eta", "eps", "tau_conf")
          for value in ("nan", "inf", "-inf")),
        ("eta", -1.0), ("tau_conf", 1e-300),
    ])
    def test_training_config_rejects_what_run_config_rejects(self, field, value):
        message = rf"^{field}: must be a finite number >= \S+, got {value}$"
        with pytest.raises(ValueError, match=message):
            TrainConfig(kind=jsd_kind(), **{field: value})

    def test_eps_zero_reverse_kl_training_config_rejected(self):
        with pytest.raises(ValueError, match="floor"):
            TrainConfig(kind=REVERSE_KL, eps=0.0)
        TrainConfig(kind=jsd_kind(), eps=0.0)  # jsd stays finite without a floor


class TestTrainLoop:
    def test_deterministic_given_seed(self):
        fixture = complementary_fixture()
        cfg = TrainConfig(kind=jsd_kind(), iterations=40, seed=11)
        a = train(fixture.world, list(fixture.teachers), cfg)
        b = train(fixture.world, list(fixture.teachers), cfg)
        np.testing.assert_array_equal(a.loss_series, b.loss_series)
        np.testing.assert_array_equal(a.policy.tool_logits, b.policy.tool_logits)

    def test_teacher_tables_never_mutate(self):
        fixture = complementary_fixture()
        before = [teacher_table_hash(t) for t in fixture.teachers]
        train(fixture.world, list(fixture.teachers), TrainConfig(kind=jsd_kind(), iterations=60, seed=0))
        after = [teacher_table_hash(t) for t in fixture.teachers]
        assert before == after

    def test_zero_learning_rate_leaves_policy_unchanged(self):
        fixture = complementary_fixture()
        cfg = TrainConfig(kind=jsd_kind(), iterations=30, seed=2, eta=0.0)
        result = train(fixture.world, list(fixture.teachers), cfg)
        np.testing.assert_array_equal(
            result.policy.tool_logits, np.zeros_like(result.policy.tool_logits)
        )

    def test_zero_revision_rate_any_rounds_equals_one_round(self):
        fx0 = complementary_fixture(revision_rate=0.0)
        cfg1 = TrainConfig(kind=jsd_kind(), rounds=1, iterations=40, seed=9)
        cfg3 = TrainConfig(kind=jsd_kind(), rounds=3, iterations=40, seed=9)
        a = train(fx0.world, list(fx0.teachers), cfg1)
        b = train(fx0.world, list(fx0.teachers), cfg3)
        np.testing.assert_array_equal(a.loss_series, b.loss_series)
        np.testing.assert_array_equal(a.policy.arg_logits, b.policy.arg_logits)

    def test_single_teacher_single_round_equals_plain_distillation(self):
        """K=1, R=1 must reproduce a hand-written single-teacher loop
        bit for bit."""
        fixture = privileged_gap_fixture(num_teachers=1)
        world = fixture.world
        teacher = fixture.teachers[0]
        cfg = TrainConfig(kind=jsd_kind(), rounds=1, iterations=50, seed=13)
        result = train(world, [teacher], cfg)

        # reference: no debate machinery, no weighting, same streams
        from debatekd.simplex import floor_and_renormalize

        rng = RngSeed(cfg.seed).stream("rollout")
        policy = StudentPolicy.uniform(world)
        ref_losses = []
        for _ in range(cfg.iterations):
            x = int(rng.integers(world.n_states))
            traj = rollout(world, policy, x, rng)
            total = 0.0
            tool_grads, arg_grads = {}, {}
            for state, action in traj:
                joint = teacher.base_dist(state).probs.reshape(world.n_tools, world.n_args)
                tool_t = floor_and_renormalize(
                    Distribution(joint.sum(axis=1)), cfg.eps
                )
                arg_t = floor_and_renormalize(
                    Distribution(joint[action[0]] / joint[action[0]].sum()), cfg.eps
                )
                tool_rep = logit_gradient(cfg.kind, tool_t, policy.tool_row(state))
                arg_rep = logit_gradient(cfg.kind, arg_t, policy.arg_row(state, action[0]))
                total += 0.5 * (tool_rep.value + arg_rep.value)
                tool_grads.setdefault(state, np.zeros(world.n_tools))
                tool_grads[state] += 0.5 * tool_rep.logit_grad
                arg_grads.setdefault((state, action[0]), np.zeros(world.n_args))
                arg_grads[(state, action[0])] += 0.5 * arg_rep.logit_grad
            for s, g in tool_grads.items():
                policy.tool_logits[s] -= cfg.eta * g
            for (s, t), g in arg_grads.items():
                policy.arg_logits[s, t] -= cfg.eta * g
            ref_losses.append(total)

        np.testing.assert_array_equal(result.loss_series, np.asarray(ref_losses))
        np.testing.assert_array_equal(result.policy.tool_logits, policy.tool_logits)
        np.testing.assert_array_equal(result.policy.arg_logits, policy.arg_logits)

    def test_uniform_confidences_equal_explicit_uniform_weights(self):
        """Equal confidence reports reduce exactly to the 1/K baseline."""
        fixture = privileged_gap_fixture(num_teachers=2)
        world = fixture.world
        cfg = TrainConfig(kind=jsd_kind(), rounds=1, iterations=30, seed=4)
        result = train(world, list(fixture.teachers), cfg)
        for weights in result.weights.reshape(-1, 2):
            np.testing.assert_array_equal(weights, [0.5, 0.5])

    def test_debates_condition_on_realized_prefix(self):
        """Replaying a logged trajectory reproduces identical transcripts."""
        fixture = complementary_fixture()
        states = [2, 3, 4]
        first = [run_debate(list(fixture.teachers), s, 2) for s in states]
        replay = [run_debate(list(fixture.teachers), s, 2) for s in states]
        for a, b in zip(first, replay):
            assert a.transcript == b.transcript

    def test_metrics_rows_schema(self):
        fixture = complementary_fixture()
        cfg = TrainConfig(kind=jsd_kind(), iterations=5, seed=0)
        result = train(fixture.world, list(fixture.teachers), cfg)
        assert result.token_loss.size == 5 * fixture.world.max_steps * 2
        (it, m, t), loss = next(np.ndenumerate(result.token_loss))
        grad_inf, acc = result.token_grad_inf[it, m, t], result.accuracy_series[it]
        kind = str(cfg.kind)  # the metrics.csv kind column
        assert (it, m, t) == (0, 0, 0)
        assert kind == "jsd:0.5"
        assert loss >= 0 and grad_inf >= 0 and 0 <= acc <= 1

    def test_numeric_abort_on_blown_up_logits(self):
        fixture = privileged_gap_fixture()
        cfg = TrainConfig(kind=REVERSE_KL, rounds=1, iterations=20, seed=0, eta=1e308)
        result = train(fixture.world, list(fixture.teachers), cfg)
        assert result.aborted is not None
        assert result.aborted["iteration"] == 0
        # every visited row's spread overflows in the first update, so the
        # first step of the trajectory is the one reported
        assert result.aborted["step"] == 0
        assert len(result.loss_series) == 1
        assert result.token_loss.shape[0] == result.weights.shape[0] == 1


class TestCeilingBreak:
    def test_jsd_student_beats_both_teachers(self):
        fixture = complementary_fixture()
        best_teacher = max(
            teacher_standalone_accuracy(fixture, k) for k in range(2)
        )
        cfg = TrainConfig(kind=jsd_kind(), iterations=500, seed=0)
        result = train(fixture.world, list(fixture.teachers), cfg)
        assert result.final_accuracy >= best_teacher + 0.2
        assert result.final_accuracy >= 0.9


class TestTwoStrategySplice:
    def test_forward_kl_splices_and_jsd_does_not(self):
        fixture = two_strategy_fixture()
        fwd = train(fixture.world, list(fixture.teachers), TrainConfig(kind=FORWARD_KL, iterations=500, seed=1))
        jsd = train(fixture.world, list(fixture.teachers), TrainConfig(kind=jsd_kind(), iterations=500, seed=1))
        assert fwd.final_accuracy < jsd.final_accuracy
        # the forward-KL student's tool argmax comes from strategy X=(0,0)
        # while its arg row under that tool argmaxes strategy Y's schema
        spliced_states = [
            s
            for s in range(fixture.world.n_states)
            if fwd.policy.argmax_action(s) not in fixture.world.accepted(s)
            and int(np.argmax(fwd.policy.tool_logits[s])) == 0
            and int(np.argmax(fwd.policy.arg_logits[s, 0])) == 1
        ]
        assert len(spliced_states) >= 1


def reference_task_accuracy(policy, world):
    """The per-state argmax_action loop that task_accuracy replaced."""
    hits = sum(1 for s in range(world.n_states) if policy.argmax_action(s) in world.accepted(s))
    return hits / world.n_states


def uncached_train(world, teachers, config):
    """train()'s per-step loop without its memos, frozen as the byte-parity
    oracle: every step is drawn by reference_rollout, debates the teachers'
    specs afresh and scores its token losses through step_reference, and
    accuracy is the per-state reference loop. A row the next iteration
    could not softmax ends the run at the step reference_first_unusable_step
    names, keeping the aborting iteration."""
    rng = RngSeed(config.seed).stream("rollout")
    policy = StudentPolicy.uniform(world)
    losses, accuracies, token_loss, token_grad_inf, weights = [], [], [], [], []
    aborted = None
    for it in range(config.iterations):
        traj = reference_rollout(world, policy, int(rng.integers(world.n_states)), rng)
        tool_grads, arg_grads, total = {}, {}, 0.0
        for state, action in traj:
            post_dists, confidences = frozen.run_debate([t.spec for t in teachers], state, config.rounds)
            w = confidence_to_weights(ConfidenceScores(confidences, config.tau_conf))
            tool_rep, arg_rep = frozen.step_token_losses(
                config.kind, world, post_dists, w, policy, state, action, config.eps
            )
            total += 0.5 * (tool_rep.value + arg_rep.value)
            token_loss.append((tool_rep.value, arg_rep.value))
            token_grad_inf.append((tool_rep.inf_norm, arg_rep.inf_norm))
            weights.append(w.weights)
            key = (state, action[0])
            tool_grads[state] = tool_grads.get(state, 0.0) + 0.5 * tool_rep.logit_grad
            arg_grads[key] = arg_grads.get(key, 0.0) + 0.5 * arg_rep.logit_grad
        with np.errstate(over="ignore"):
            for s, grad in tool_grads.items():
                policy.tool_logits[s] -= config.eta * grad
            for (s, tool), grad in arg_grads.items():
                policy.arg_logits[s, tool] -= config.eta * grad
        losses.append(total)
        accuracies.append(reference_task_accuracy(policy, world))
        bad_step = reference_first_unusable_step(policy, traj)
        if bad_step is not None:
            aborted = {"iteration": it, "step": bad_step}
            break
    shape = (len(losses), world.max_steps, -1)
    return (np.array(losses), np.array(accuracies), np.reshape(token_loss, shape),
            np.reshape(token_grad_inf, shape), np.reshape(weights, shape), policy, aborted)


def assert_run_matches_oracle(got, want):
    """Every array of a train() result and its abort byte-equal to the oracle's."""
    assert got.aborted == want[6]
    for a, b in zip(
        (got.loss_series, got.accuracy_series, got.token_loss, got.token_grad_inf,
         got.weights, got.policy.tool_logits, got.policy.arg_logits),
        (*want[:5], want[5].tool_logits, want[5].arg_logits),
    ):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()
    assert got.final_accuracy == want[1][-1]


class TestRunMemos:
    """train()'s per-outcome memos leave every byte of the run as the
    uncached loop makes it, and compute each distinct outcome once."""

    @pytest.mark.parametrize("build", [
        complementary_fixture, two_strategy_fixture,
        lambda: privileged_gap_fixture(num_teachers=3),
    ], ids=["complementary", "two-strategy", "privileged-gap-3"])
    @pytest.mark.parametrize("kind", [jsd_kind(0.5), FORWARD_KL, REVERSE_KL], ids=str)
    def test_memoised_run_matches_the_uncached_loop_byte_for_byte(self, build, kind, monkeypatch):
        decoded, weighed = Counter(), Counter()
        decode, weigh = training.force_decode_targets, training.confidence_to_weights

        def counting_decode(world, post_dists, tool, eps):
            decoded[tuple(p.probs.tobytes() for p in post_dists), tool] += 1
            return decode(world, post_dists, tool, eps)

        def counting_weigh(scores):
            weighed[tuple(scores.scores.tolist())] += 1
            return weigh(scores)

        fixture = build()
        config = TrainConfig(kind=kind, iterations=40, seed=6)
        want = uncached_train(fixture.world, list(fixture.teachers), config)
        monkeypatch.setattr(training, "force_decode_targets", counting_decode)
        monkeypatch.setattr(training, "confidence_to_weights", counting_weigh)
        got = train(fixture.world, list(fixture.teachers), config)

        assert_run_matches_oracle(got, want)
        # each distinct (outcome, tool) decoded once, each confidence tuple weighed once
        assert set(decoded.values()) == {1} and set(weighed.values()) == {1}
        steps = config.iterations * fixture.world.max_steps
        assert len(decoded) < steps and len(weighed) < steps


@st.composite
def small_runs(draw):
    """A small random ToolWorld, MockTeacherSpecs over it and a TrainConfig.

    max_steps may exceed n_states, so that a state recurs within a
    trajectory; accepted sets, revision rates and confidence overrides
    (ties included) vary, as do the kind (JSD at three betas, with and
    without a teacher floor), the teacher count, the rounds and the seed.
    Some teachers' tables hold exact zeros, and one teacher in eight zeroes
    a whole tool block in every state, so that a sampled tool can carry no
    teacher mass (about 1 example in 5 ends there; 209 of 1000 when
    counted) and teachers can pool disjoint supports (1 of those 1000); a
    large eta makes some runs abort.
    """
    n_states, n_tools, n_args = draw(st.integers(1, 6)), draw(st.integers(2, 5)), draw(st.integers(2, 5))
    actions = st.tuples(st.integers(0, n_tools - 1), st.integers(0, n_args - 1))
    correct = {s: draw(actions) for s in range(n_states)}
    accepted = None
    if draw(st.booleans()):
        accepted = {s: frozenset({correct[s], *draw(st.lists(actions, max_size=2))})
                    for s in range(n_states)}
    world = ToolWorld(n_states=n_states, n_tools=n_tools, n_args=n_args, correct_action=correct,
                      accepted_actions=accepted, max_steps=draw(st.integers(1, 8)))
    vocab = n_tools * n_args
    specs = []
    for k in range(draw(st.integers(1, 4))):
        min_entry = draw(st.sampled_from([1e-6, 0.0]))
        # one teacher in eight zeroes one tool block in every state
        zeroed = draw(st.sampled_from([None] * 7 * n_tools + list(range(n_tools))))
        kept = np.repeat(np.arange(n_tools) != zeroed, n_args)
        tables = [draw(probability_vectors(vocab, vocab, min_entry)) * kept for _ in range(n_states)]
        assume(all(table.sum() > 0 for table in tables))
        specs.append(MockTeacherSpec(
            name=f"t{k}",
            base_table={s: Distribution.from_weights(table) for s, table in enumerate(tables)},
            action_shape=(n_tools, n_args),
            revision_rate=draw(st.sampled_from([0.0, 0.5, 1.0])),
            confidence_override=draw(st.sampled_from([None, 40.0, 90.0])),
        ))
    kind = draw(st.sampled_from([*map(jsd_kind, (0.1, 0.5, 0.9)), FORWARD_KL, REVERSE_KL]))
    config = TrainConfig(
        kind=kind,
        rounds=draw(st.integers(1, 3)),
        iterations=draw(st.integers(1, 4)),
        eta=draw(st.sampled_from([0.1, 1e3, 1e300])),
        eps=draw(st.sampled_from([1e-8, 0.0])) if kind.name == "jsd" else DEFAULT_FLOOR,
        seed=draw(st.integers(0, 2**32)),
    )
    return world, specs, config


class TestRandomWorldsAgainstTheOracle:
    @settings(max_examples=100, deadline=None)
    @given(small_runs())
    def test_train_matches_the_frozen_per_step_oracle(self, run):
        """Runs and errors alike match the oracle; a RuntimeWarning (an error
        under the suite's filter) is a failure, never an expected error."""
        world, specs, config = run
        try:
            want = uncached_train(world, [MockTeacher(spec) for spec in specs], config)
        except RuntimeWarning:
            raise
        except Exception as exc:
            with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
                train(world, [MockTeacher(spec) for spec in specs], config)
            return
        got = train(world, [MockTeacher(spec) for spec in specs], config)
        assert_run_matches_oracle(got, want)


def reference_first_unusable_step(policy, traj):
    """The per-step scan that _first_unusable_step runs only on failure."""
    for m, (s, (tool, _)) in enumerate(traj):
        try:
            with np.errstate(over="ignore"):
                reference.validate_logits(policy.tool_logits[s])
                reference.validate_logits(policy.arg_logits[s, tool])
        except ValueError:
            return m
    return None


def tied_policy(world, rng):
    """Logits drawn from {0, 1, 2}, so that argmax ties are common."""
    return StudentPolicy(
        tool_logits=rng.integers(0, 3, (world.n_states, world.n_tools)).astype(float),
        arg_logits=rng.integers(0, 3, (world.n_states, world.n_tools, world.n_args)).astype(float),
    )


class TestArrayLevelChecksMatchTheirLoops:
    @pytest.mark.parametrize("seed", range(20))
    def test_task_accuracy_on_tied_policies(self, seed):
        rng = np.random.default_rng(seed)
        for world in (simple_world(n_states=7, n_tools=3, n_args=2), two_strategy_fixture().world):
            policy = tied_policy(world, rng)
            assert task_accuracy(policy, world) == reference_task_accuracy(policy, world)

    def test_task_accuracy_on_the_two_strategy_accepted_sets(self):
        world = two_strategy_fixture().world
        policy = StudentPolicy.uniform(world)
        seen = set()
        for tool in range(2):
            for arg in range(2):
                for s in range(0, world.n_states, 2):
                    policy.tool_logits[s] = np.eye(2)[tool]
                    policy.arg_logits[s, tool] = np.eye(2)[arg]
                acc = task_accuracy(policy, world)
                assert acc == reference_task_accuracy(policy, world)
                seen.add(acc)
        assert len(seen) == 2  # strategies X and Y score alike, splices do not

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, "spread"])
    @pytest.mark.parametrize("row", ["tool", "arg"])
    @pytest.mark.parametrize("n_states, max_steps", [(6, 4), (3, 7)])
    def test_first_unusable_step_names_each_planted_step(self, bad, row, n_states, max_steps):
        world = simple_world(n_states=n_states, n_tools=3, n_args=4, max_steps=max_steps)
        rng = np.random.default_rng(n_states)
        healthy = StudentPolicy(
            tool_logits=rng.normal(scale=4.0, size=(n_states, 3)),
            arg_logits=rng.normal(scale=4.0, size=(n_states, 3, 4)),
        )
        traj = rollout(world, healthy, 1, RngSeed(0).stream("r"))
        assert _first_unusable_step(healthy, traj) is None
        for m, (s, (tool, _)) in enumerate(traj):
            policy = copy.deepcopy(healthy)
            target = policy.tool_logits[s] if row == "tool" else policy.arg_logits[s, tool]
            k = m % target.size
            target[k] = np.delete(target, k).min() + 701.0 if bad == "spread" else bad
            got = _first_unusable_step(policy, traj)
            assert got == reference_first_unusable_step(policy, traj)
            assert got is not None and got <= m
            assert traj[got][0] == s  # an earlier visit of the same state, or step m

    def test_rows_far_apart_are_each_usable(self):
        world = simple_world(n_states=4, max_steps=4)
        policy = StudentPolicy.uniform(world)
        policy.tool_logits += 1e4 * np.arange(4)[:, None]
        policy.arg_logits -= 1e4 * np.arange(4)[:, None, None]
        traj = rollout(world, policy, 0, RngSeed(0).stream("r"))
        assert _first_unusable_step(policy, traj) is None
        assert reference_first_unusable_step(policy, traj) is None
