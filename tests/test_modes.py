import math
import re
import subprocess
import sys
import warnings
from pathlib import Path

import mp_reference
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from debatekd import modes
from debatekd.divergence import (
    FORWARD_KL,
    REVERSE_KL,
    MixedRows,
    batch,
    divergence_value,
    jsd_kind,
    logit_gradient,
)
from debatekd.modes import (
    _PRECONDITIONER,
    _TEACHER_FLOOR,
    BinnedMixture,
    FitResult,
    Grid,
    ModeFitError,
    RestrictedStudent,
    _binned_gaussian,
    _costs_and_gradients,
    _normal_tail,
    coverage_ordering,
    fit,
    fit_unconstrained,
    mode_masses,
)
from debatekd.simplex import Distribution, LogitVector, floor_and_renormalize, softmax

C07_GRID = [(alpha, sep) for alpha in (0.55, 0.6, 0.7) for sep in (6.0, 8.0, 12.0)]
KINDS = (REVERSE_KL, jsd_kind(0.5), FORWARD_KL)


def scalar_fit(kind, teacher, init=None, steps=600, lr=0.5, h=1e-6):
    """Reference for `fit`: central-difference descent with one scalar cost
    evaluation per student, the stencil pair of each coordinate and then
    the next iterate."""
    p = floor_and_renormalize(teacher.distribution(), _TEACHER_FLOOR)
    if init is None:
        init = RestrictedStudent.neutral(teacher)

    def cost(params: np.ndarray) -> float:
        student = RestrictedStudent(mean=float(params[0]), log_width=float(params[1]))
        return divergence_value(kind, p, student.distribution(teacher.grid))

    trace: list[float] = []
    for attempt in range(6):
        eff_lr = lr / (2**attempt)
        params = np.array([init.mean, init.log_width])
        costs = [cost(params)]
        param_trace = [params.copy()]
        ok = math.isfinite(costs[0])
        if ok:
            for _ in range(steps):
                grad = np.zeros(2)
                finite = True
                for i in range(2):
                    up, down = params.copy(), params.copy()
                    up[i] += h
                    down[i] -= h
                    fu, fd = cost(up), cost(down)
                    if not (math.isfinite(fu) and math.isfinite(fd)):
                        finite = False
                        break
                    grad[i] = (fu - fd) / (2 * h)
                if not finite:
                    ok = False
                    break
                params = params - eff_lr * _PRECONDITIONER * grad
                c = cost(params)
                if not math.isfinite(c):
                    ok = False
                    break
                costs.append(c)
                param_trace.append(params.copy())
        if ok:
            student = RestrictedStudent(mean=float(params[0]), log_width=float(params[1]))
            q = student.distribution(teacher.grid)
            return FitResult(
                student=student,
                cost_series=np.asarray(costs),
                mode_masses=mode_masses(q, teacher),
                param_trace=np.asarray(param_trace),
            )
        trace = costs
    raise ModeFitError(trace)


def scalar_fit_unconstrained(kind, teacher, steps=8000, lr=2.0):
    """Reference for `fit_unconstrained`: validated value types every step."""
    p = floor_and_renormalize(teacher.distribution(), _TEACHER_FLOOR)
    z = np.zeros(teacher.grid.bins)
    costs = []
    for _ in range(steps):
        rep = logit_gradient(kind, p, LogitVector(z))
        costs.append(rep.value)
        z = z - lr * rep.logit_grad
        z -= z.max()
    q = softmax(LogitVector(z))
    costs.append(divergence_value(kind, p, q))
    return np.asarray(costs), q


class TestBinnedMixture:
    def test_realizes_valid_distribution(self):
        teacher = BinnedMixture.two_mode(alpha=0.6, separation=8.0)
        dist = teacher.distribution()
        assert abs(dist.probs.sum() - 1.0) <= 1e-12
        # at 8 sigma separation each component leaks Phi(-4) ~ 3e-5 past
        # the midpoint, so realized mode masses match alpha to ~1e-4
        masses = mode_masses(dist, teacher)
        np.testing.assert_allclose(masses, [0.6, 0.4], atol=1e-4)

    def test_overlap_negligible_at_wide_separation(self):
        teacher = BinnedMixture.two_mode(alpha=0.5, separation=12.0)
        mid_x = float(teacher.centers.mean())
        left_only = BinnedMixture(
            np.array([1.0]), teacher.centers[:1], teacher.sigma, teacher.grid
        ).distribution()
        beyond_mid = teacher.grid.centers >= mid_x
        assert left_only.probs[beyond_mid].sum() < 1e-9

    def test_rejects_insufficient_separation(self):
        with pytest.raises(ValueError, match="separated"):
            BinnedMixture.two_mode(alpha=0.6, separation=5.0)

    def test_rejects_bad_weights(self):
        grid = Grid(lo=-10, hi=10)
        with pytest.raises(ValueError):
            BinnedMixture(np.array([0.7, 0.4]), np.array([-4.0, 4.0]), 1.0, grid)

    @pytest.mark.parametrize(
        "weights, centers, sigma, problem",
        [
            ([math.nan, 0.4], [-4.0, 4.0], 1.0, "mixture weights must be positive and sum to 1"),
            ([0.6, 0.4], [-4.0, math.nan], 1.0, "mixture centers must be finite"),
            ([0.6, 0.4], [-4.0, 4.0], math.nan, "sigma must be positive and finite, got nan"),
            ([0.6, 0.4], [-4.0, 4.0], math.inf, "sigma must be positive and finite, got inf"),
        ],
        ids=["nan-weight", "nan-center", "nan-sigma", "inf-sigma"],
    )
    def test_rejects_non_finite_parameters(self, weights, centers, sigma, problem):
        grid = Grid(lo=-10, hi=10)
        with pytest.raises(ValueError, match=re.escape(problem)):
            BinnedMixture(np.array(weights), np.array(centers), sigma, grid)

    @pytest.mark.parametrize("lo, hi", [(-math.inf, 14.0), (-14.0, math.inf), (math.nan, 1.0)])
    def test_grid_rejects_non_finite_bounds(self, lo, hi):
        with pytest.raises(ValueError, match="grid bounds must be finite"):
            Grid(lo=lo, hi=hi)

    def test_two_mode_rejects_a_nan_alpha(self):
        with pytest.raises(ValueError, match="mixture weights must be positive and sum to 1"):
            BinnedMixture.two_mode(alpha=math.nan)


#: The smallest normal double: below it a relative bound says nothing.
_TINY = np.finfo(float).tiny
#: The switch points of the Cephes forms, |z| = sqrt(2) and 8 sqrt(2).
_SEAMS = (math.sqrt(2.0), 8.0 * math.sqrt(2.0))


def _around(x: float, ulps: int) -> list[float]:
    """x and its `ulps` neighbouring doubles on either side."""
    out, lo, hi = [x], x, x
    for _ in range(ulps):
        lo, hi = math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)
        out += [lo, hi]
    return out


class TestNormalTail:
    """The numpy normal-tail kernel against the 60-digit reference."""

    def test_tail_and_gauss_match_reference(self):
        rng = np.random.default_rng(11)
        z = np.concatenate([
            np.linspace(-37.0, 37.0, 1481),
            rng.uniform(-37.0, 37.0, 1000),
            [v * sign for seam in _SEAMS for v in _around(seam, 8) for sign in (1, -1)],
            [0.0, -0.0, 1e-300, -5e-324],
        ])
        tail, gauss = _normal_tail(z)
        ref_tail = np.array([mp_reference.ncdf(-abs(v)) for v in z])
        ref_gauss = np.array([mp_reference.gauss(v) for v in z])
        assert (ref_tail >= _TINY).all() and (ref_gauss >= _TINY).all()
        # relative error in units of 1e-15 (1 + z^2): rounding of z^2 in
        # exp(-z^2 / 2) alone contributes about eps z^2 / 2
        scale = 1e-15 * (1.0 + z * z)
        assert np.max(np.abs(tail - ref_tail) / (ref_tail * scale)) <= 1.0
        assert np.max(np.abs(gauss - ref_gauss) / (ref_gauss * scale)) <= 1.0

    def test_tail_is_monotone_bounded_and_quiet(self):
        z = np.linspace(0.0, 40.0, 40_001)
        far = np.array([38.0, 38.6, 39.0, 45.0, 1e3, 1e30, 1e300, np.finfo(float).max])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tail, _ = _normal_tail(z)
            far_tail, far_gauss = _normal_tail(np.concatenate([far, -far]))
        # a step of 1e-3 in z moves the tail far more than its rounding error
        assert (np.diff(tail) <= 0).all()
        assert tail[0] == 0.5 and tail.min() >= 0.0 and tail[-1] == 0.0
        assert np.isfinite(far_tail).all() and (far_tail >= 0).all() and (far_tail < _TINY).all()
        assert (far_gauss >= 0).all() and (far_gauss < _TINY).all()

    @pytest.mark.parametrize(
        "mean, width",
        [(0.3, 1.0), (0.0, 0.37), (5.5, 3.0), (-13.9, 0.05), (13.99, 20.0), (-2.0, 0.11)],
    )
    def test_bin_masses_match_reference(self, mean, width):
        """Every bin within 37 widths, the one holding the mean too: it is 1
        minus the two tails, an upper CDF minus a lower tail."""
        edges = Grid(-14.0, 14.0).edges
        z = (edges - mean) / width
        mass = _binned_gaussian(edges, mean, width)
        crossing = int(np.flatnonzero((z[:-1] < 0) & (z[1:] >= 0))[0])
        lo, hi = z[:-1], z[1:]
        kept = np.flatnonzero(np.maximum(np.abs(lo), np.abs(hi)) <= 37.0)
        assert crossing in kept
        for i in kept:
            ref = mp_reference.normal_mass(lo[i], hi[i])
            tails = [mp_reference.ncdf(-abs(v)) * (1.0 + v * v) for v in (lo[i], hi[i])]
            assert abs(mass[i] - ref) <= 1e-15 * (sum(tails) + ref), (i, mass[i], ref)

    def test_stacked_rows_equal_single_rows_bit_for_bit(self):
        rng = np.random.default_rng(5)
        edges = Grid(-14.0, 14.0).edges
        for rows in (2, 3, 7, 32):
            means = rng.uniform(-20.0, 20.0, (rows, 1))
            widths = np.exp(rng.uniform(math.log(0.05), math.log(20.0), (rows, 1)))
            block = _binned_gaussian(edges, means, widths)
            tail, gauss = _normal_tail((edges - means) / widths)
            for r in range(rows):
                single = _binned_gaussian(edges, float(means[r, 0]), float(widths[r, 0]))
                assert block[r].tobytes() == single.tobytes()
                one_tail, one_gauss = _normal_tail((edges - means[r]) / widths[r])
                assert tail[r].tobytes() == one_tail.tobytes()
                assert gauss[r].tobytes() == one_gauss.tobytes()


def test_library_imports_without_scipy():
    import debatekd

    src = str(Path(debatekd.__file__).resolve().parent.parent)
    code = (
        f"import sys; sys.path.insert(0, {src!r})\n"
        "import debatekd, debatekd.modes, debatekd.harness, debatekd.cli\n"
        "assert 'scipy' not in sys.modules, sorted(m for m in sys.modules if 'scipy' in m)\n"
    )
    subprocess.run([sys.executable, "-I", "-c", code], check=True, timeout=120)


class TestRestrictedFit:
    def test_reverse_kl_concentrates_on_dominant_mode(self):
        teacher = BinnedMixture.two_mode(alpha=0.6, separation=8.0)
        result = fit(REVERSE_KL, teacher)
        assert result.mode_masses[0] >= 0.95
        assert result.terminal_cost == pytest.approx(-math.log(0.6), abs=0.05)

    def test_degenerate_point_mass_limit_is_exact(self):
        # with grid-degenerate components the reverse-KL cost of the
        # concentrated student is -log alpha exactly
        p = Distribution(np.array([0.6, 0.0, 0.4, 0.0]))
        q = Distribution(np.array([1.0, 0.0, 0.0, 0.0]))
        assert divergence_value(REVERSE_KL, p, q) == pytest.approx(
            -math.log(0.6), abs=1e-15
        )

    def test_single_mode_every_divergence_agrees(self):
        grid = Grid(lo=-10, hi=11, bins=256)
        teacher = BinnedMixture(np.array([1.0]), np.array([0.5]), 1.0, grid)
        costs = {}
        for kind in (REVERSE_KL, jsd_kind(), FORWARD_KL):
            res = fit(kind, teacher)
            costs[str(kind)] = res.terminal_cost
            assert res.student.mean == pytest.approx(0.5, abs=1e-3)
        assert max(costs.values()) <= 1e-3

    def test_balanced_mixture_tie_broken_by_init_nudge(self):
        teacher = BinnedMixture.two_mode(alpha=0.5, separation=8.0)
        left = fit(REVERSE_KL, teacher, init=RestrictedStudent(mean=-1.0, log_width=0.0))
        right = fit(REVERSE_KL, teacher, init=RestrictedStudent(mean=1.0, log_width=0.0))
        assert left.mode_masses[0] >= 0.95
        assert right.mode_masses[1] >= 0.95
        for res in (left, right):
            assert res.terminal_cost == pytest.approx(-math.log(0.5), abs=0.05)

    def test_cost_series_and_trace_emitted(self):
        teacher = BinnedMixture.two_mode()
        res = fit(REVERSE_KL, teacher, steps=50)
        assert res.cost_series.size == 51
        assert res.param_trace.shape == (51, 2)

    @pytest.mark.parametrize(
        "kwargs, problem",
        [
            ({"steps": -3}, "steps must be an integer >= 0, got -3"),
            ({"steps": 2.5}, "steps must be an integer >= 0, got 2.5"),
            ({"lr": math.nan}, "lr must be finite and > 0, got nan"),
            ({"lr": math.inf}, "lr must be finite and > 0, got inf"),
            ({"lr": -0.5}, "lr must be finite and > 0, got -0.5"),
            ({"lr": 0.0}, "lr must be finite and > 0, got 0.0"),
        ],
        ids=["negative-steps", "fractional-steps", "nan-lr", "inf-lr", "negative-lr", "zero-lr"],
    )
    def test_rejects_bad_steps_and_rates(self, kwargs, problem):
        with pytest.raises(ValueError, match=re.escape(problem)):
            fit(REVERSE_KL, BinnedMixture.two_mode(), **kwargs)

    def test_coverage_ordering_rejects_negative_steps(self):
        with pytest.raises(ValueError, match=re.escape("steps must be an integer >= 0, got -1")):
            coverage_ordering(BinnedMixture.two_mode(), steps=-1)

    def test_unrecoverable_descent_aborts_with_trace(self):
        teacher = BinnedMixture.two_mode(alpha=0.6, separation=8.0)
        # a sliver of a student at the grid edge leaves most bins with zero
        # mass, so the forward-KL cost is infinite at init and stays so
        # through every halved-rate retry
        bad_init = RestrictedStudent(mean=teacher.grid.hi - 1.0, log_width=np.log(0.05))
        with pytest.raises(ModeFitError) as err:
            fit(FORWARD_KL, teacher, init=bad_init)
        assert len(err.value.trace) >= 1
        with pytest.raises(ModeFitError) as ref:
            scalar_fit(FORWARD_KL, teacher, init=bad_init)
        assert np.asarray(err.value.trace).tobytes() == np.asarray(ref.value.trace).tobytes()
        assert str(err.value) == str(ref.value)


class TestBatchedFitMatchesScalarReference:
    """The exact-gradient descent follows the scalar central-difference
    reference: costs, iterates, mode masses and errors."""

    @staticmethod
    def assert_close_fit(got, want):
        np.testing.assert_allclose(got.cost_series, want.cost_series, rtol=1e-8, atol=0)
        np.testing.assert_allclose(got.param_trace, want.param_trace, rtol=0, atol=1e-7)
        np.testing.assert_allclose(got.mode_masses, want.mode_masses, rtol=0, atol=1e-8)

    @pytest.mark.parametrize("alpha, sep", C07_GRID)
    def test_c07_cells_short_descent(self, alpha, sep):
        teacher = BinnedMixture.two_mode(alpha=alpha, separation=sep)
        for kind in KINDS:
            self.assert_close_fit(
                fit(kind, teacher, steps=50, lr=0.2), scalar_fit(kind, teacher, steps=50, lr=0.2)
            )

    def test_full_descent(self):
        teacher = BinnedMixture.two_mode(alpha=0.6, separation=8.0)
        for kind in KINDS:
            self.assert_close_fit(fit(kind, teacher, lr=0.2), scalar_fit(kind, teacher, lr=0.2))

    @staticmethod
    def outcome(descent, *args, **kwargs):
        try:
            return "ok", descent(*args, **kwargs)
        except ModeFitError as exc:
            return "ModeFitError", np.asarray(exc.trace).tobytes()
        except ValueError as exc:
            return "ValueError", str(exc)

    # A sliver student just past the grid's upper edge: its mass there is
    # tiny but positive, and most of its bins underflow to exact zero.
    SLIVER = RestrictedStudent(mean=14.0 + 1.5, log_width=math.log(0.05))

    @pytest.mark.parametrize(
        "kind, kwargs, expected",
        [
            (FORWARD_KL, {"steps": 40, "lr": 80.0}, "ValueError"),
            # the final step reads the student alone
            (REVERSE_KL, {"init": SLIVER, "steps": 0}, "ok"),
        ],
        ids=["step-leaves-the-grid", "final-step"],
    )
    def test_same_outcome_where_a_student_is_invalid(self, kind, kwargs, expected):
        teacher = BinnedMixture.two_mode(alpha=0.6, separation=8.0)
        assert teacher.grid.hi == 14.0
        got, payload = self.outcome(fit, kind, teacher, **kwargs)
        want, reference = self.outcome(scalar_fit, kind, teacher, **kwargs)
        assert got == want == expected
        if expected == "ok":
            self.assert_close_fit(payload, reference)
        else:
            assert payload == reference
        if expected == "ValueError":
            assert payload == "student has no mass on the grid"


def central_difference(kind, p, grid, mean, log_width, h=1e-6):
    """Scalar central difference of the cost in (mean, log_width); None
    where a stencil cost is not finite."""
    grad = []
    for i in range(2):
        up, down = [mean, log_width], [mean, log_width]
        up[i] += h
        down[i] -= h
        fu = divergence_value(kind, p, RestrictedStudent(*up).distribution(grid))
        fd = divergence_value(kind, p, RestrictedStudent(*down).distribution(grid))
        if not (math.isfinite(fu) and math.isfinite(fd)):
            return None
        grad.append((fu - fd) / (2 * h))
    return np.array(grad)


#: Narrow (width 0.05, whose tail bins underflow to exact zero) to wide
#: students, anywhere from one grid edge to the other.
LOG_WIDTHS = st.one_of(st.just(math.log(0.05)), st.floats(math.log(0.05), math.log(8.0)))


class TestExactGradient:
    @settings(max_examples=40, deadline=None)
    @given(
        cell=st.sampled_from(C07_GRID),
        where=st.lists(st.tuples(st.floats(0.0, 1.0), LOG_WIDTHS), min_size=1, max_size=3),
    )
    @example(cell=(0.6, 8.0), where=[(1.0, math.log(0.05)), (0.5, math.log(0.05))])
    @example(cell=(0.55, 12.0), where=[(0.0, math.log(8.0)), (0.3, 0.0)])
    def test_matches_central_difference(self, cell, where):
        teacher = BinnedMixture.two_mode(*cell)
        grid = teacher.grid
        p = floor_and_renormalize(teacher.distribution(), _TEACHER_FLOOR)
        x = np.array([[grid.lo + u * (grid.hi - grid.lo), log_width] for u, log_width in where])
        for kind in KINDS:
            values, grads = _costs_and_gradients([kind] * len(x), p.probs[None], grid.edges, x)
            for (mean, log_width), value, grad in zip(x, values, grads):
                fd = central_difference(kind, p, grid, mean, log_width)
                if kind != FORWARD_KL:  # the floored teacher keeps these finite
                    assert math.isfinite(value) and fd is not None
                if math.isfinite(value) and fd is not None:
                    np.testing.assert_allclose(grad, fd, rtol=1e-5, atol=1e-7)


class TestCoverageOrdering:
    @pytest.mark.parametrize("alpha, sep", C07_GRID)
    def test_rows_equal_single_fits_byte_for_byte(self, alpha, sep):
        teacher = BinnedMixture.two_mode(alpha=alpha, separation=sep)
        rows = coverage_ordering(teacher, steps=50)
        assert list(rows) == [str(kind) for kind in KINDS]
        for kind in KINDS:
            alone = fit(kind, teacher, steps=50, lr=0.2)
            got = rows[str(kind)]
            assert got.cost_series.tobytes() == alone.cost_series.tobytes()
            assert got.param_trace.tobytes() == alone.param_trace.tobytes()
            assert got.mode_masses.tobytes() == alone.mode_masses.tobytes()
            assert got.student == alone.student

    def test_one_kernel_call_per_descent_step(self, monkeypatch):
        """The descent builds one `MixedRows` stack for its three rows, and
        each step scores them with one call on it, all three kinds at once:
        51 calls for the 51 evaluations of a 50-step descent, and no
        `batch` call, since no row restarts."""
        built, calls = [], []

        class Counted(MixedRows):
            def __init__(self, kinds, P):
                built.append(tuple(kinds))
                super().__init__(kinds, P)

            def __call__(self, Q, grad=True):
                calls.append((self.kinds, len(Q)))
                return super().__call__(Q, grad)

        def no_batch(*args, **kwargs):
            raise AssertionError("a descent without restarts called batch")

        monkeypatch.setattr(modes, "MixedRows", Counted)
        monkeypatch.setattr(modes, "batch", no_batch)
        coverage_ordering(BinnedMixture.two_mode(), steps=50)
        assert built == [KINDS]
        assert calls == [(KINDS, 3)] * 51

    def test_restarted_row_equals_its_single_fit_byte_for_byte(self, monkeypatch):
        """A descent that takes the restart path of its step tables: from a
        wide student far left at lr 40 the forward-KL row meets a
        non-finite step and restarts at half the rate, the other two rows
        finish first, and the forward-KL row takes its last 2 steps alone,
        through `batch`. Every row equals its one-row fit."""
        teacher = BinnedMixture.two_mode(0.6, 8.0)
        init = RestrictedStudent(-12.0, math.log(4.0))
        calls = []

        def counted(kind, *args, **kwargs):
            calls.append(kind)
            return batch(kind, *args, **kwargs)

        monkeypatch.setattr(modes, "batch", counted)
        rows = modes._descend(KINDS, teacher, init, steps=60, lr=40.0)
        assert calls == [(FORWARD_KL,)] * 2
        monkeypatch.undo()
        for kind, got in zip(KINDS, rows):
            alone = fit(kind, teacher, init, steps=60, lr=40.0)
            assert got.cost_series.tobytes() == alone.cost_series.tobytes()
            assert got.param_trace.tobytes() == alone.param_trace.tobytes()
            assert got.mode_masses.tobytes() == alone.mode_masses.tobytes()
            assert got.student == alone.student

    def test_default_config_ordering(self):
        teacher = BinnedMixture.two_mode(alpha=0.6, separation=8.0)
        out = coverage_ordering(teacher)
        mu2 = {k: r.mode_masses[1] for k, r in out.items()}
        assert mu2["rev"] < mu2["jsd:0.5"] < mu2["fwd"]
        assert mu2["rev"] < 0.05

    def test_concentration_threshold_region(self):
        # dominant mass >= 0.95 whenever alpha >= 0.55 and separation >= 6
        for alpha, sep in ((0.55, 6.0), (0.7, 12.0)):
            teacher = BinnedMixture.two_mode(alpha=alpha, separation=sep)
            res = fit(REVERSE_KL, teacher)
            assert res.mode_masses[0] >= 0.95
            assert res.terminal_cost == pytest.approx(-math.log(alpha), abs=0.05)


class TestUnconstrainedControl:
    def test_forward_kl_recovers_teacher(self):
        teacher = BinnedMixture.two_mode(alpha=0.6, separation=8.0)
        res = fit_unconstrained(FORWARD_KL, teacher)
        tv = 0.5 * np.abs(res.q.probs - teacher.distribution().probs).sum()
        assert tv <= 0.01
        assert np.all(res.mode_masses > 0.1)  # mass on every mode

    def test_exact_gradient_reverse_kl_matches_mixture_weights(self):
        # full capacity plus exact gradients: no concentration, masses = alpha
        teacher = BinnedMixture.two_mode(alpha=0.6, separation=8.0)
        res = fit_unconstrained(REVERSE_KL, teacher)
        np.testing.assert_allclose(res.mode_masses, [0.6, 0.4], atol=0.01)

    @pytest.mark.parametrize("kind", [FORWARD_KL, REVERSE_KL], ids=str)
    def test_matches_validated_reference_bit_for_bit(self, kind):
        teacher = BinnedMixture.two_mode(alpha=0.6, separation=8.0)
        res = fit_unconstrained(kind, teacher, steps=2000)
        costs, q = scalar_fit_unconstrained(kind, teacher, steps=2000)
        assert res.cost_series.tobytes() == costs.tobytes()
        assert res.q.probs.tobytes() == q.probs.tobytes()
