import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import validator_reference as reference
from conftest import logit_vectors, probability_vectors
from debatekd import simplex
from debatekd.simplex import (
    Distribution,
    LogitVector,
    RngSeed,
    entropy,
    floor_and_renormalize,
    sample,
    softmax,
    softmax_rows,
    validate_logits,
    validate_probs,
)


class TestDistribution:
    def test_rejects_negative_entries(self):
        with pytest.raises(ValueError, match="negative"):
            Distribution(np.array([1.1, -0.1]))

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError, match="sum"):
            Distribution(np.array([0.6, 0.6]))

    def test_rejects_single_entry(self):
        with pytest.raises(ValueError, match="vocab"):
            Distribution(np.array([1.0]))

    def test_tolerates_1e9_sum_error(self):
        Distribution(np.array([0.5, 0.5 + 5e-10]))

    def test_probs_are_immutable(self):
        d = Distribution(np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            d.probs[0] = 0.9


class TestSoftmax:
    def test_symmetric_logits(self):
        d = softmax(LogitVector(np.zeros(3)))
        np.testing.assert_allclose(d.probs, np.ones(3) / 3, atol=1e-15)

    def test_confidence_pair(self):
        # softmax of (0.95, 0.90) at unit temperature
        d = softmax(LogitVector(np.array([0.95, 0.90])))
        assert d.probs[0] == pytest.approx(0.5124973964842103, abs=1e-12)

    def test_shift_invariant_closed_form(self):
        for c in (-100.0, 0.0, 3.7, 250.0):
            d = softmax(LogitVector(np.array([c, c + np.log(3)])))
            np.testing.assert_allclose(d.probs, [0.25, 0.75], atol=1e-12)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            LogitVector(np.array([0.0, np.nan]))
        with pytest.raises(ValueError):
            LogitVector(np.array([0.0, np.inf]))

    def test_rejects_underflowing_spread(self):
        with pytest.raises(ValueError, match="spread"):
            LogitVector(np.array([0.0, -800.0]))

    @given(logit_vectors())
    def test_sums_to_one_and_strictly_positive(self, z):
        d = softmax(LogitVector(z))
        assert abs(d.probs.sum() - 1.0) <= 1e-12
        assert np.all(d.probs > 0)

    @given(logit_vectors(), st.floats(min_value=-50, max_value=50, allow_nan=False))
    def test_shift_invariance(self, z, c):
        base = softmax(LogitVector(z)).probs
        shifted = softmax(LogitVector(z + c)).probs
        np.testing.assert_allclose(base, shifted, atol=1e-12)


class TestEntropy:
    def test_uniform_is_log_vocab(self):
        assert entropy(Distribution.uniform(4)) == pytest.approx(np.log(4), abs=1e-12)

    def test_point_mass_is_zero(self):
        assert entropy(Distribution.point_mass(2, 5)) == 0.0

    def test_two_point_example(self):
        assert entropy(Distribution(np.array([0.6, 0.4]))) == pytest.approx(
            0.673012, abs=1e-6
        )

    @given(probability_vectors())
    def test_bounded_by_log_vocab(self, probs):
        h = entropy(Distribution(probs))
        assert 0.0 <= h <= np.log(probs.size) + 1e-12

    def test_maximized_by_uniform(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            v = int(rng.integers(2, 12))
            p = Distribution(rng.dirichlet(np.ones(v)))
            assert entropy(p) <= entropy(Distribution.uniform(v)) + 1e-12


class TestSample:
    def test_point_mass_always_hits(self):
        rng = RngSeed(1).stream("s")
        p = Distribution.point_mass(3, 6)
        assert np.all(sample(p, rng, size=1000) == 3)

    def test_uniform_frequencies(self):
        rng = RngSeed(2).stream("s")
        draws = sample(Distribution.uniform(2), rng, size=100_000)
        assert abs((draws == 0).mean() - 0.5) <= 0.01

    def test_skewed_frequencies(self):
        rng = RngSeed(3).stream("s")
        draws = sample(Distribution(np.array([0.9, 0.1])), rng, size=100_000)
        assert abs((draws == 0).mean() - 0.9) <= 0.01

    def test_never_returns_zero_probability_id(self):
        rng = RngSeed(4).stream("s")
        p = Distribution(np.array([0.5, 0.0, 0.5]))
        assert not np.any(sample(p, rng, size=20_000) == 1)

    def test_deterministic_given_seed(self):
        p = Distribution(np.array([0.3, 0.3, 0.4]))
        a = sample(p, RngSeed(9).stream("x"), size=500)
        b = sample(p, RngSeed(9).stream("x"), size=500)
        np.testing.assert_array_equal(a, b)


class TestFloorAndRenormalize:
    def test_eps_zero_is_identity(self):
        p = Distribution(np.array([0.7, 0.3]))
        assert floor_and_renormalize(p, 0.0) is p

    def test_floors_a_zero_entry(self):
        eps = 1e-8
        out = floor_and_renormalize(Distribution(np.array([1.0, 0.0])), eps)
        expected = np.array([1.0, eps]) / (1.0 + eps)
        np.testing.assert_allclose(out.probs, expected, rtol=1e-12)
        # stays within the stated lower-bound form eps/(1 + V*eps)
        assert out.probs.min() >= eps / (1 + 2 * eps) - 1e-24

    def test_uniform_is_fixed_point(self):
        u = Distribution.uniform(5)
        out = floor_and_renormalize(u, 0.01)
        np.testing.assert_allclose(out.probs, u.probs, atol=1e-15)

    def test_rejects_eps_out_of_range(self):
        p = Distribution.uniform(4)
        with pytest.raises(ValueError):
            floor_and_renormalize(p, 0.25)
        with pytest.raises(ValueError):
            floor_and_renormalize(p, -1e-9)

    @given(probability_vectors(min_entry=0.0), st.floats(min_value=0, max_value=1e-3))
    def test_output_is_valid_and_floored(self, probs, eps):
        if eps >= 1.0 / probs.size:
            return
        out = floor_and_renormalize(Distribution(probs), eps)
        assert abs(out.probs.sum() - 1.0) <= 1e-12
        assert out.probs.min() >= eps / (1 + probs.size * eps) - 1e-18


class TestRngSeed:
    def test_same_label_same_stream(self):
        a = RngSeed(7).stream("rollout").random(20)
        b = RngSeed(7).stream("rollout").random(20)
        np.testing.assert_array_equal(a, b)

    def test_labels_are_independent(self):
        a = RngSeed(7).stream("rollout").random(20)
        b = RngSeed(7).stream("debate").random(20)
        assert not np.array_equal(a, b)

    def test_rejects_out_of_range_seed(self):
        with pytest.raises(ValueError):
            RngSeed(-1)
        with pytest.raises(ValueError):
            RngSeed(2**64)


def outcome(validate, x):
    """What a validator does with x under warnings-as-errors: None when it
    accepts, else the type name and message of what it raised."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            validate(x)
        except (ValueError, RuntimeWarning) as exc:
            return type(exc).__name__, str(exc)
    return None


#: Ways to spoil one row of a valid array; "huge" rows are finite but their
#: row sum or spread overflows, where the oracle itself warns.
PROB_FAULTS = ("none", "nan", "+inf", "-inf", "all +inf", "negative", "zero row",
               "sum off", "huge")
LOGIT_FAULTS = ("none", "nan", "+inf", "-inf", "all +inf", "all -inf", "spread",
                "rows apart", "huge")


@st.composite
def faulty_arrays(draw, faults, valid_row):
    """A 1-d array or a stack of 1-4 rows (|V| 1-8) of valid_row draws, one
    row of which may carry one of faults; returns (fault, array)."""
    rows, vocab = draw(st.integers(1, 4)), draw(st.integers(1, 8))
    x = np.array([draw(valid_row(vocab)) for _ in range(rows)])
    fault = draw(st.sampled_from(faults))
    r, j = draw(st.integers(0, rows - 1)), draw(st.integers(0, vocab - 1))
    if fault == "nan":
        x[r, j] = np.nan
    elif fault in ("+inf", "-inf"):
        x[r, j] = float(fault)
    elif fault.startswith("all "):
        x[r] = float(fault[4:])
    elif fault == "negative":
        x[r, j] = -draw(st.floats(5e-324, 1.0))
    elif fault == "zero row":
        x[r] = 0.0
    elif fault == "sum off":
        x[r] *= 1 + draw(st.sampled_from([-1, 1])) * 10 ** draw(st.floats(-10, -6))
    elif fault == "spread":
        x[r] = x[r, 0]
        x[r, j] += draw(st.sampled_from([-1, 1])) * draw(st.floats(699, 701))
    elif fault == "rows apart":
        x[r] += draw(st.sampled_from([-1e4, 1e4]))
    elif fault == "huge":
        x[r] = draw(st.sampled_from([-1, 1])) * 1e308
        x[r, j] = 1e308
    return fault, x[r] if draw(st.booleans()) else x


def valid_probs_row(vocab):
    return probability_vectors(min_size=vocab, max_size=vocab, min_entry=0.0)


def valid_logits_row(vocab):
    return st.lists(st.floats(-30, 30), min_size=vocab, max_size=vocab)


class TestValidatorsMatchTheOracle:
    """validate_probs and validate_logits accept exactly what the entrywise
    checks accept, raise the same message, and warn only where they do."""

    @settings(max_examples=300)
    @given(faulty_arrays(PROB_FAULTS, valid_probs_row))
    def test_probs(self, case):
        fault, x = case
        ours = outcome(validate_probs, x)
        ref = outcome(reference.validate_probs, x)
        if fault == "huge" and ref is not None and ref[0] == "RuntimeWarning":
            # the oracle's row sum overflows; ours names it
            assert ours == ("ValueError", "probs sum to inf, expected 1 within 1e-09")
        else:
            assert ours == ref
        assert ours is None or ours[0] == "ValueError"

    @settings(max_examples=300)
    @given(faulty_arrays(LOGIT_FAULTS, valid_logits_row))
    def test_logits(self, case):
        fault, x = case
        ours = outcome(validate_logits, x)
        ref = outcome(reference.validate_logits, x)
        if fault == "huge" and ref is not None and ref[0] == "RuntimeWarning":
            # the oracle's spread overflows; ours names it
            assert ours == ("ValueError", "logit spread inf exceeds 700.0; "
                            "softmax would underflow to exact zero")
        else:
            assert ours == ref
        assert ours is None or ours[0] == "ValueError"

    @pytest.mark.parametrize("shape", [(0,), (0, 3), (3, 0)])
    def test_empty_arrays(self, shape):
        x = np.zeros(shape)
        assert outcome(validate_probs, x) == outcome(reference.validate_probs, x)
        assert outcome(validate_logits, x) == outcome(reference.validate_logits, x)

    def test_an_overflowing_spread_is_named_without_a_warning(self):
        with pytest.raises(ValueError, match="logit spread inf exceeds"):
            LogitVector(np.array([1e308, -1e308]))
        with pytest.raises(ValueError, match="logit spread inf exceeds"):
            validate_logits(np.array([[0.0, 1.0], [-1e308, 1e308]]))

    def test_an_overflowing_row_sum_is_named(self):
        # also where the sum's overflow warning is an error, as in tier-1
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError, match="probs sum to inf, expected 1 within"):
                Distribution(np.array([1e308, 1e308]))

    def test_an_all_inf_row_is_named_without_a_warning(self):
        x = np.array([[0.0, 1.0], [np.inf, np.inf]])
        assert outcome(validate_logits, x) == ("ValueError", "logits contain non-finite entries")
        assert outcome(validate_probs, x) == ("ValueError", "probs contain non-finite entries")


def assert_same_draws(ours, ref):
    assert type(ours) is type(ref)
    np.testing.assert_array_equal(ours, ref)
    assert np.shape(ours) == np.shape(ref)


SIZES = st.sampled_from([None, 5, (2, 3)])


class TestDrawMatchesGeneratorChoice:
    """simplex.draw gives Generator.choice's draws and leaves the generator
    in the same state."""

    @settings(max_examples=150)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 64), st.floats(0, 700), SIZES)
    def test_softmax_rows(self, seed, vocab, spread, size):
        z = np.random.default_rng(seed).uniform(size=vocab)
        z = spread * (z - z.min()) / (z.max() - z.min() or 1.0)
        q = softmax_rows(z)
        ours, ref = RngSeed(seed).stream("d"), RngSeed(seed).stream("d")
        for _ in range(4):
            assert_same_draws(simplex.draw(q, ours, size), ref.choice(vocab, size=size, p=q))
        assert ours.bit_generator.state == ref.bit_generator.state

    @settings(max_examples=150)
    @given(st.integers(0, 2**32 - 1), probability_vectors(max_size=64, min_entry=0.0), SIZES)
    def test_distributions_with_zeros_through_sample(self, seed, probs, size):
        probs = np.where(np.arange(probs.size) % 3 == 1, 0.0, probs)
        assume(probs.sum() > 0)
        p = Distribution(probs / probs.sum())
        ours, ref = RngSeed(seed).stream("s"), RngSeed(seed).stream("s")
        for _ in range(4):
            got = sample(p, ours, size)
            assert_same_draws(got, ref.choice(p.vocab_size, size=size, p=p.probs / p.probs.sum()))
            assert np.all(p.probs[got] > 0)
        assert ours.bit_generator.state == ref.bit_generator.state

    def test_uniforms_on_the_cdf_steps_skip_zero_entries(self):
        class Steps:
            """Generator stand-in whose uniforms sit exactly on the cdf's steps."""

            def random(self, size=None):
                return np.array([0.0, 0.25, 0.75])

        probs = np.array([0.0, 0.25, 0.0, 0.5, 0.25])  # cdf 0, .25, .25, .75, 1
        np.testing.assert_array_equal(simplex.draw(probs, Steps(), 3), [1, 3, 4])
