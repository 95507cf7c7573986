import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from debatekd.divergence import (
    FORWARD_KL,
    JSD_GRAD_TIGHT_BOUND,
    REVERSE_KL,
    divergence_value,
    finite_difference_gradient,
    jsd_kind,
    logit_gradient,
)
from debatekd.simplex import Distribution, LogitVector, softmax
from debatekd.weighting import (
    ConfidenceScores,
    TeacherWeights,
    confidence_to_weights,
    multi_teacher_token_loss,
)


class TestConfidenceToWeights:
    def test_case_study_pair(self):
        w = confidence_to_weights(ConfidenceScores(np.array([95.0, 90.0])))
        assert w.weights[0] == pytest.approx(0.513, abs=0.001)
        assert w.weights[1] == pytest.approx(0.487, abs=0.001)

    def test_equal_scores_give_exact_uniform(self):
        w = confidence_to_weights(ConfidenceScores(np.array([42.0, 42.0])))
        assert w.weights[0] == 0.5 and w.weights[1] == 0.5

    def test_single_teacher_gets_unit_weight(self):
        w = confidence_to_weights(ConfidenceScores(np.array([73.0])))
        assert w.weights[0] == 1.0

    def test_offset_invariance(self):
        base = confidence_to_weights(ConfidenceScores(np.array([40.0, 60.0, 55.0])))
        shifted = confidence_to_weights(ConfidenceScores(np.array([50.0, 70.0, 65.0])))
        np.testing.assert_allclose(base.weights, shifted.weights, atol=1e-15)

    @given(
        st.lists(st.floats(min_value=0, max_value=100), min_size=2, max_size=6),
        st.floats(min_value=0.05, max_value=20.0),
    )
    def test_weights_monotone_in_scores_for_any_temperature(self, scores, tau):
        w = confidence_to_weights(ConfidenceScores(np.array(scores), tau_conf=tau))
        assert abs(w.weights.sum() - 1.0) <= 1e-12
        for i in range(len(scores)):
            for j in range(len(scores)):
                if scores[i] < scores[j]:
                    assert w.weights[i] <= w.weights[j]

    def test_score_range_validated(self):
        with pytest.raises(ValueError):
            ConfidenceScores(np.array([101.0, 50.0]))
        with pytest.raises(ValueError):
            ConfidenceScores(np.array([-0.5]))
        with pytest.raises(ValueError):
            ConfidenceScores(np.array([50.0]), tau_conf=0.0)

    def test_nan_temperature_rejected(self):
        # NaN fails every comparison, so `tau_conf <= 0` let it through and
        # the weights came out NaN
        with pytest.raises(ValueError, match="tau_conf"):
            ConfidenceScores(np.array([50.0, 60.0]), tau_conf=np.nan)


class TestTeacherWeights:
    def test_invariants(self):
        with pytest.raises(ValueError):
            TeacherWeights(np.array([0.0, 1.0]))
        with pytest.raises(ValueError):
            TeacherWeights(np.array([0.6, 0.6]))

    @pytest.mark.parametrize("weights", [[np.nan], [1.0, np.nan], [np.nan, np.nan], [np.inf]])
    def test_non_finite_weights_rejected(self, weights):
        with pytest.raises(ValueError):
            TeacherWeights(np.array(weights))

    def test_uniform_constructor(self):
        w = TeacherWeights.uniform(4)
        np.testing.assert_allclose(w.weights, 0.25)


class TestMultiTeacherTokenLoss:
    def setup_method(self):
        self.rng = np.random.default_rng(0)

    def rand_dist(self, vocab):
        p = np.maximum(self.rng.dirichlet(np.ones(vocab)), 1e-6)
        return Distribution(p / p.sum())

    def test_single_teacher_reduces_bitwise(self):
        p = self.rand_dist(5)
        z = LogitVector(self.rng.normal(0, 1, 5))
        w = confidence_to_weights(ConfidenceScores(np.array([80.0])))
        for kind in (FORWARD_KL, REVERSE_KL, jsd_kind()):
            rep = multi_teacher_token_loss(kind, [p], w, z)
            single = logit_gradient(kind, p, z)
            assert rep.value == single.value
            np.testing.assert_array_equal(rep.logit_grad, single.logit_grad)

    def test_teachers_equal_student_gives_zero(self):
        z = LogitVector(np.array([0.1, -0.4, 0.8]))
        q = softmax(z)
        w = TeacherWeights.uniform(3)
        rep = multi_teacher_token_loss(jsd_kind(), [q, q, q], w, z)
        assert rep.value <= 1e-12
        assert rep.inf_norm <= 1e-12

    def test_forward_kl_linearity_and_oracle(self):
        p1, p2 = self.rand_dist(4), self.rand_dist(4)
        z = LogitVector(self.rng.normal(0, 1, 4))
        w = TeacherWeights.uniform(2)
        rep = multi_teacher_token_loss(FORWARD_KL, [p1, p2], w, z)
        expected = softmax(z).probs - 0.5 * (p1.probs + p2.probs)
        np.testing.assert_allclose(rep.logit_grad, expected, atol=1e-14)
        # independent oracle: finite differences on the weighted objective
        fd = 0.5 * finite_difference_gradient(FORWARD_KL, p1, z) + 0.5 * (
            finite_difference_gradient(FORWARD_KL, p2, z)
        )
        mask = np.abs(rep.logit_grad) > 1e-6
        np.testing.assert_allclose(fd[mask], rep.logit_grad[mask], rtol=1e-5, atol=1e-9)

    def test_convex_combination_bounds(self):
        for _ in range(100):
            vocab = int(self.rng.integers(2, 10))
            teachers = [self.rand_dist(vocab) for _ in range(3)]
            z = LogitVector(self.rng.normal(0, 2, vocab))
            q = softmax(z)
            scores = ConfidenceScores(self.rng.uniform(0, 100, 3))
            w = confidence_to_weights(scores)
            rep = multi_teacher_token_loss(jsd_kind(), teachers, w, z)
            subs = [divergence_value(jsd_kind(), p, q) for p in teachers]
            assert min(subs) - 1e-12 <= rep.value <= max(subs) + 1e-12

    def test_uniform_scores_match_explicit_uniform_weights(self):
        teachers = [self.rand_dist(6) for _ in range(2)]
        z = LogitVector(self.rng.normal(0, 1, 6))
        via_conf = multi_teacher_token_loss(
            jsd_kind(), teachers, confidence_to_weights(ConfidenceScores(np.array([70.0, 70.0]))), z
        )
        via_uniform = multi_teacher_token_loss(jsd_kind(), teachers, TeacherWeights.uniform(2), z)
        assert via_conf.value == via_uniform.value
        np.testing.assert_array_equal(via_conf.logit_grad, via_uniform.logit_grad)

    def test_jsd_variant_inherits_gradient_ceiling(self):
        for _ in range(500):
            vocab = int(self.rng.integers(2, 33))
            teachers = [self.rand_dist(vocab) for _ in range(2)]
            z = LogitVector(self.rng.normal(0, 4, vocab))
            w = confidence_to_weights(ConfidenceScores(self.rng.uniform(0, 100, 2)))
            rep = multi_teacher_token_loss(jsd_kind(), teachers, w, z)
            assert rep.inf_norm <= JSD_GRAD_TIGHT_BOUND

    def test_infinite_subloss_propagates_with_offender(self):
        good = Distribution(np.array([0.5, 0.5]))
        bad = Distribution(np.array([1.0, 0.0]))  # reverse KL blows up on this
        z = LogitVector(np.zeros(2))
        w = TeacherWeights.uniform(2)
        rep = multi_teacher_token_loss(REVERSE_KL, [good, bad], w, z)
        assert rep.value == math.inf
        assert rep.offending_teachers == [1]

    def test_mismatched_teacher_count_rejected(self):
        with pytest.raises(ValueError):
            multi_teacher_token_loss(
                FORWARD_KL,
                [Distribution.uniform(2)],
                TeacherWeights.uniform(2),
                LogitVector(np.zeros(2)),
            )
