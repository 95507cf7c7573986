"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s`. Every tolerance is pinned
here; nothing is deferred to later calibration. The sweep behind criteria
1-3 draws at least 1e6 random plus adversarial pairs over vocabularies
2..64 and is shared via a module-scoped fixture.
"""

import math
import time

import numpy as np
import pytest

from debatekd.divergence import (
    FORWARD_KL,
    JSD_GRAD_TIGHT_BOUND,
    REVERSE_KL,
    finite_difference_gradient,
    jsd_bound_probe,
    jsd_kind,
    logit_gradient,
    revkl_unboundedness_probe,
)
from debatekd.fixtures import (
    complementary_fixture,
    privileged_gap_fixture,
    teacher_standalone_accuracy,
)
from debatekd.harness import EXIT_OK, RunConfig, run
from debatekd.modes import BinnedMixture, coverage_ordering, fit
from debatekd.simplex import Distribution, LogitVector, RngSeed, floor_and_renormalize
from debatekd.training import StudentPolicy, TrainConfig, rollout, train
from debatekd.weighting import ConfidenceScores, confidence_to_weights

SWEEP_TRIALS = 1_000_000
VOCAB_SIZES = list(range(2, 65))


def report(criterion: int, passed: bool, detail: str) -> None:
    print(f"criterion {criterion:02d} {'PASS' if passed else 'FAIL'}: {detail}")
    assert passed, detail


@pytest.fixture(scope="module")
def bound_sweep():
    rng = RngSeed(2024).stream("probes")
    return jsd_bound_probe(SWEEP_TRIALS, VOCAB_SIZES, rng, beta=0.5)


def test_c01_jsd_loss_bound(bound_sweep):
    attained = math.log(2)
    ok = bound_sweep.max_loss <= math.log(2) + 1e-12
    ok = ok and abs(bound_sweep.max_loss - attained) <= 1e-9
    report(
        1,
        ok,
        f"max JSD loss {bound_sweep.max_loss:.15f} <= log2 + 1e-12 over "
        f"{bound_sweep.n_trials} pairs, |V| in 2..64; point-mass pair attains log2",
    )


def test_c02_jsd_gradient_bound(bound_sweep):
    bound = 0.25 + 2.0 / math.sqrt(math.e) + 1e-9
    ok = bound_sweep.max_inf_norm <= bound
    report(
        2,
        ok,
        f"max JSD grad inf-norm {bound_sweep.max_inf_norm:.6f} <= 1/4 + 2/sqrt(e) "
        f"+ 1e-9 = {bound:.6f} over the same sweep",
    )


def test_c03_forward_kl_gradient_bound(bound_sweep):
    ok = bound_sweep.max_fwd_inf_norm <= 1.0
    # finite-difference agreement on a subsample of sweep-like cases
    rng = RngSeed(42).stream("probes")
    worst = 0.0
    for _ in range(200):
        vocab = int(rng.integers(2, 65))
        probs = np.maximum(rng.dirichlet(np.ones(vocab)), 1e-9)
        p = Distribution(probs / probs.sum())
        z = LogitVector(rng.normal(0, 2, vocab))
        closed = logit_gradient(FORWARD_KL, p, z).logit_grad
        fd = finite_difference_gradient(FORWARD_KL, p, z, h=1e-6)
        mask = np.abs(closed) > 1e-6
        if mask.any():
            ok = ok and np.allclose(fd[mask], closed[mask], rtol=1e-5, atol=1e-9)
        strong = np.abs(closed) > 1e-4
        if strong.any():
            worst = max(worst, float(np.max(np.abs(fd[strong] - closed[strong]) / np.abs(closed[strong]))))
    report(
        3,
        ok,
        f"max forward-KL grad inf-norm {bound_sweep.max_fwd_inf_norm:.6f} <= 1; "
        f"closed form matches finite differences at rtol 1e-5 "
        f"(atol 1e-9 covers the FD noise floor; worst rel err above it {worst:.2e})",
    )


def test_c04_reverse_kl_unboundedness_witness():
    deltas = [1e-2, 1e-6, 1e-12, 1e-30]
    out = revkl_unboundedness_probe(deltas)
    norms = [out[d] for d in deltas]
    monotone = all(a < b for a, b in zip(norms, norms[1:]))
    exceeds = out[1e-30] > 16.0
    report(
        4,
        monotone and exceeds,
        f"reverse-KL grad inf-norm at p(i)=1e-30, q=(0.5,0.5) is {out[1e-30]:.2f} > 16 "
        f"and grows monotonically in -log p(i): {[round(n, 2) for n in norms]}",
    )


def test_c05_gradient_oracle_agreement():
    rng = RngSeed(7).stream("probes")
    worst = 0.0
    ok = True
    for kind in (FORWARD_KL, REVERSE_KL, jsd_kind(0.5)):
        for _ in range(1000):
            vocab = int(rng.integers(2, 33))
            probs = np.maximum(rng.dirichlet(np.ones(vocab)), 1e-6)
            p = Distribution(probs / probs.sum())
            z = LogitVector(rng.normal(0, 2, vocab))
            closed = logit_gradient(kind, p, z).logit_grad
            fd = finite_difference_gradient(kind, p, z, h=1e-6)
            mask = (np.abs(closed) > 1e-6) & np.isfinite(fd)
            if not mask.any():
                continue
            ok = ok and np.allclose(fd[mask], closed[mask], rtol=1e-5, atol=1e-9)
            strong = mask & (np.abs(closed) > 1e-4)
            if strong.any():
                worst = max(worst, float(np.max(np.abs(fd[strong] - closed[strong]) / np.abs(closed[strong]))))
    report(
        5,
        ok,
        f"closed-form vs central finite differences (h=1e-6) at rtol 1e-5 for "
        f"3 x 1000 random cases (atol 1e-9 covers the FD noise floor; worst rel "
        f"err above it {worst:.2e})",
    )


def test_c06_mode_concentration():
    start = time.monotonic()
    teacher = BinnedMixture.two_mode(alpha=0.6, separation=8.0)
    result = fit(REVERSE_KL, teacher)
    elapsed = time.monotonic() - start
    target = -math.log(0.6)
    ok = (
        result.mode_masses[0] >= 0.95
        and abs(result.terminal_cost - target) <= 0.05
        and elapsed < 60.0
    )
    report(
        6,
        ok,
        f"restricted reverse-KL fit: dominant mass {result.mode_masses[0]:.4f} >= 0.95, "
        f"terminal cost {result.terminal_cost:.4f} within 0.05 of {target:.6f} "
        f"({elapsed:.1f}s < 60s)",
    )


def test_c07_coverage_ordering():
    cells = []
    ok = True
    for alpha in (0.55, 0.6, 0.7):
        for sep in (6.0, 8.0, 12.0):
            teacher = BinnedMixture.two_mode(alpha=alpha, separation=sep)
            out = coverage_ordering(teacher)
            mu2 = {k: r.mode_masses[1] for k, r in out.items()}
            cell_ok = mu2["rev"] < mu2["jsd:0.5"] < mu2["fwd"] and mu2["rev"] < 0.05
            ok = ok and cell_ok
            cells.append(f"({alpha},{sep}):{'y' if cell_ok else 'N'}")
    report(
        7,
        ok,
        "secondary-mode mass strictly ordered rev < jsd < fwd with rev < 0.05 on "
        f"the 3x3 (alpha, separation) grid [{' '.join(cells)}]",
    )


def test_c08_confidence_weight_fixture():
    w = confidence_to_weights(ConfidenceScores(np.array([95.0, 90.0]), tau_conf=1.0))
    ok = abs(w.weights[0] - 0.513) <= 0.001 and abs(w.weights[1] - 0.487) <= 0.001
    report(
        8,
        ok,
        f"scores (95, 90) at tau=1.0 give weights ({w.weights[0]:.4f}, {w.weights[1]:.4f}) "
        "within 0.001 of (0.513, 0.487)",
    )


def test_c09_debate_ceiling_break():
    from debatekd.debate import run_debate

    fixture = complementary_fixture()
    world = fixture.world
    standalone = [teacher_standalone_accuracy(fixture, k) for k in range(2)]
    hits = 0
    for state in range(world.n_states):
        result = run_debate(list(fixture.teachers), state, rounds=2)
        w = confidence_to_weights(ConfidenceScores(result.confidences))
        mix = sum(wk * d.probs for wk, d in zip(w.weights, result.post_dists))
        hits += world.unflatten(int(np.argmax(mix))) in world.accepted(state)
    consensus = hits / world.n_states
    ok = consensus >= 0.9 and all(acc <= 0.6 for acc in standalone)
    report(
        9,
        ok,
        f"post-debate consensus accuracy {consensus:.2f} >= 0.9 while standalone "
        f"teachers reach only {standalone}",
    )


def test_c10_trained_student_beats_its_teachers():
    fixture = complementary_fixture()
    best_teacher = max(teacher_standalone_accuracy(fixture, k) for k in range(2))
    config = TrainConfig(kind=jsd_kind(0.5), iterations=500, seed=0)
    first = train(fixture.world, list(fixture.teachers), config)
    second = train(fixture.world, list(fixture.teachers), config)
    deterministic = np.array_equal(first.loss_series, second.loss_series)
    ok = first.final_accuracy >= best_teacher + 0.2 and deterministic
    report(
        10,
        ok,
        f"JSD-trained student accuracy {first.final_accuracy:.2f} >= best teacher "
        f"{best_teacher:.2f} + 0.2 after 500 iterations; rerun is bit-identical",
    )


def _per_step_losses(result):
    return result.token_loss.mean(axis=-1)


def test_c11_stability_contrast():
    fixture = privileged_gap_fixture()
    runs = {}
    for kind in (REVERSE_KL, jsd_kind(0.5)):
        config = TrainConfig(kind=kind, rounds=1, iterations=500, seed=0)
        runs[kind.name] = train(fixture.world, list(fixture.teachers), config)
    ratios = {
        name: float(_per_step_losses(res).max() / np.median(_per_step_losses(res)))
        for name, res in runs.items()
    }
    jsd_grad_max = runs["jsd"].token_grad_inf.max()
    rev_grad_max = runs["reverse_kl"].token_grad_inf.max()
    ok = (
        ratios["reverse_kl"] >= 10.0 * ratios["jsd"]
        and jsd_grad_max <= JSD_GRAD_TIGHT_BOUND + 1e-9
        and rev_grad_max > 2.0
    )
    report(
        11,
        ok,
        f"spike ratio reverse-KL {ratios['reverse_kl']:.1f} >= 10x JSD {ratios['jsd']:.1f}; "
        f"every JSD step grad inf-norm <= {JSD_GRAD_TIGHT_BOUND:.4f} (max {jsd_grad_max:.4f}); "
        f"reverse-KL max grad {rev_grad_max:.2f} exceeds 2",
    )


def test_c12_reductions():
    # (a) K=1 and R=1 equals a hand-written single-teacher loop bit for bit
    fixture = privileged_gap_fixture(num_teachers=1)
    world, teacher = fixture.world, fixture.teachers[0]
    config = TrainConfig(kind=jsd_kind(0.5), rounds=1, iterations=60, seed=3)
    full = train(world, [teacher], config)

    rng = RngSeed(config.seed).stream("rollout")
    policy = StudentPolicy.uniform(world)
    ref_losses = []
    for _ in range(config.iterations):
        x = int(rng.integers(world.n_states))
        traj = rollout(world, policy, x, rng)
        total = 0.0
        tool_grads, arg_grads = {}, {}
        for state, action in traj:
            joint = teacher.base_dist(state).probs.reshape(world.n_tools, world.n_args)
            tool_t = floor_and_renormalize(Distribution(joint.sum(axis=1)), config.eps)
            arg_row = joint[action[0]]
            arg_t = floor_and_renormalize(Distribution(arg_row / arg_row.sum()), config.eps)
            tool_rep = logit_gradient(config.kind, tool_t, policy.tool_row(state))
            arg_rep = logit_gradient(config.kind, arg_t, policy.arg_row(state, action[0]))
            total += 0.5 * (tool_rep.value + arg_rep.value)
            tool_grads.setdefault(state, np.zeros(world.n_tools))
            tool_grads[state] += 0.5 * tool_rep.logit_grad
            arg_grads.setdefault((state, action[0]), np.zeros(world.n_args))
            arg_grads[(state, action[0])] += 0.5 * arg_rep.logit_grad
        for s, g in tool_grads.items():
            policy.tool_logits[s] -= config.eta * g
        for (s, t), g in arg_grads.items():
            policy.arg_logits[s, t] -= config.eta * g
        ref_losses.append(total)
    single_teacher_bitwise = np.array_equal(full.loss_series, np.asarray(ref_losses))

    # (b) uniform confidences give exactly the 1/K equal-weight baseline
    two = privileged_gap_fixture(num_teachers=2)
    res = train(two.world, list(two.teachers), TrainConfig(kind=jsd_kind(0.5), rounds=1, iterations=20, seed=1))
    uniform_weights = all(np.array_equal(w, [0.5, 0.5]) for w in res.weights.reshape(-1, 2))

    # (c) zero revision rate makes any number of rounds equal one round
    fx0 = complementary_fixture(revision_rate=0.0)
    one = train(fx0.world, list(fx0.teachers), TrainConfig(kind=jsd_kind(0.5), rounds=1, iterations=40, seed=5))
    many = train(fx0.world, list(fx0.teachers), TrainConfig(kind=jsd_kind(0.5), rounds=4, iterations=40, seed=5))
    lambda_zero_bitwise = np.array_equal(one.loss_series, many.loss_series)

    ok = single_teacher_bitwise and uniform_weights and lambda_zero_bitwise
    report(
        12,
        ok,
        f"K=1,R=1 equals plain single-teacher distillation bit-for-bit "
        f"({single_teacher_bitwise}); uniform confidences give w=1/K exactly "
        f"({uniform_weights}); revision rate 0 makes R=4 equal R=1 ({lambda_zero_bitwise})",
    )


def test_c13_reproducibility(tmp_path):
    digests = []
    for name in ("first", "second"):
        out = tmp_path / name
        config = RunConfig(
            experiment="opad", kind=jsd_kind(0.5), iterations=40, seed=99, out_dir=str(out)
        )
        assert run(config) == EXIT_OK
        digests.append((out / "metrics.csv").read_bytes())
    same_dir = tmp_path / "first"
    config = RunConfig(
        experiment="opad", kind=jsd_kind(0.5), iterations=40, seed=99, out_dir=str(same_dir)
    )
    assert run(config) == EXIT_OK
    digests.append((same_dir / "metrics.csv").read_bytes())
    ok = digests[0] == digests[1] == digests[2]
    report(
        13,
        ok,
        "identical config+seed reruns (fresh directory and in-place) produce "
        "byte-identical metrics.csv",
    )
