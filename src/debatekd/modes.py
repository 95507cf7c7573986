"""Mode-seeking vs mode-covering geometry on binned Gaussian mixtures.

A teacher mixture with well-separated components is discretized onto a
fixed grid; a capacity-restricted student (one binned Gaussian with two
free parameters, mean and log-width) descends each divergence on its exact
gradient: its bin masses are m_i = Phi(z_{i+1}) - Phi(z_i) and it is
q = softmax(log m), so the kernel's logit gradient g chains to a parameter
as sum_i g_i (dm_i/dtheta) / m_i, a bin whose mass underflowed to 0 adding
nothing. Under reverse KL the restricted student concentrates on the
dominant component with terminal cost -log(alpha_dominant); under forward
KL it spreads over every component; JSD lands in between, giving the strict
secondary-mass ordering rev < jsd < fwd.

An unconstrained tabular control arm (exact closed-form logit gradients,
one logit per bin) is also provided: with full capacity every divergence
can reach the teacher itself, so mode seeking is a property of the
restricted family and of the dynamics, not of the discretization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .divergence import FORWARD_KL, REVERSE_KL, DivergenceKind, batch, divergence_value, jsd_kind
from .simplex import (
    Distribution,
    LogitVector,
    floor_and_renormalize,
    softmax,
    softmax_rows,
    validate_logits,
    validate_probs,
)

_TEACHER_FLOOR = 1e-12


@dataclass(frozen=True)
class Grid:
    """B equal bins on a closed interval."""

    lo: float
    hi: float
    bins: int = 256

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError("grid interval is empty")
        if self.bins < 8:
            raise ValueError("need at least 8 bins")

    @property
    def edges(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.bins + 1)

    @property
    def centers(self) -> np.ndarray:
        edges = self.edges
        return 0.5 * (edges[:-1] + edges[1:])


def _binned_gaussian(edges: np.ndarray, mean, width) -> np.ndarray:
    """Bin masses of N(mean, width^2) between consecutive edges via CDF
    differences; (R, 1) columns of means and widths give one row each.

    The upper tail is computed through the survival function so masses stay
    positive out to ~37 widths instead of collapsing to exact zero where
    ndtr saturates at 1. ndtr(-|z|) is ndtr(z) below the mean and ndtr(-z)
    above it, so one evaluation serves both tails; only the bin whose upper
    edge is the first at or above the mean also needs ndtr(z) there. Every
    entry depends only on its own row, so a stacked call is bit-identical
    to one call per row.
    """
    z = (edges - mean) / width
    tail = ndtr(-np.abs(z))
    lower = np.diff(tail)
    cross = (z[..., :-1] < 0) & (z[..., 1:] >= 0)
    lower[cross] = ndtr(z[..., 1:][cross]) - tail[..., :-1][cross]
    return np.where(z[..., :-1] >= 0, -np.diff(tail), lower)


@dataclass(frozen=True)
class BinnedMixture:
    """Separated Gaussian mixture realized as a Distribution over bins."""

    weights: np.ndarray
    centers: np.ndarray
    sigma: float
    grid: Grid

    def __post_init__(self):
        weights = np.asarray(self.weights, dtype=np.float64)
        centers = np.asarray(self.centers, dtype=np.float64)
        if weights.shape != centers.shape or weights.ndim != 1:
            raise ValueError("weights and centers must be matching 1-d vectors")
        if np.any(weights <= 0) or abs(weights.sum() - 1.0) > 1e-12:
            raise ValueError("mixture weights must be positive and sum to 1")
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")
        if centers.size > 1:
            gaps = np.diff(np.sort(centers))
            if np.min(gaps) < 6 * self.sigma:
                raise ValueError(
                    f"components must be separated by >= 6 sigma; min gap "
                    f"{np.min(gaps):.3f} < {6 * self.sigma:.3f}"
                )
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "centers", centers)

    @staticmethod
    def two_mode(alpha: float = 0.6, separation: float = 8.0) -> "BinnedMixture":
        """Canonical two-component mixture of unit-sigma components, the
        dominant mode first, on 256 bins reaching 10 sigma past each center."""
        half = separation / 2.0
        centers = np.array([-half, half])
        grid = Grid(lo=float(centers.min() - 10.0), hi=float(centers.max() + 10.0))
        return BinnedMixture(np.array([alpha, 1 - alpha]), centers, 1.0, grid)

    @property
    def num_modes(self) -> int:
        return self.weights.size

    def distribution(self) -> Distribution:
        edges = self.grid.edges
        mass = np.zeros(self.grid.bins)
        for a, c in zip(self.weights, self.centers):
            mass += a * _binned_gaussian(edges, float(c), self.sigma)
        return Distribution(mass / mass.sum())

    def mode_assignment(self) -> np.ndarray:
        """Index of the nearest component center for every bin."""
        return np.argmin(
            np.abs(self.grid.centers[:, None] - self.centers[None, :]), axis=1
        )


@dataclass
class RestrictedStudent:
    """Unimodal parametric student: one binned Gaussian, two parameters."""

    mean: float
    log_width: float

    def __post_init__(self):
        if not (math.isfinite(self.mean) and math.isfinite(self.log_width)):
            raise ValueError("student parameters must be finite")

    @property
    def width(self) -> float:
        return math.exp(self.log_width)

    def distribution(self, grid: Grid) -> Distribution:
        mass = _binned_gaussian(grid.edges, self.mean, self.width)
        total = mass.sum()
        if total <= 0:
            raise ValueError("student has no mass on the grid")
        return Distribution(mass / total)

    @staticmethod
    def neutral(teacher: BinnedMixture) -> "RestrictedStudent":
        """Default init: mean at the overall teacher mean, component width.

        Starting at component width matters: a student initialized much
        wider than the components sits in a shallow mode-covering basin of
        the reverse-KL surface that plain gradient descent cannot leave.
        """
        mean = float(np.dot(teacher.weights, teacher.centers))
        return RestrictedStudent(mean=mean, log_width=math.log(teacher.sigma))


class ModeFitError(RuntimeError):
    """Descent kept hitting non-finite costs after all retries."""

    def __init__(self, trace: list[float]):
        self.trace = trace
        super().__init__(f"fit aborted after {len(trace)} steps with non-finite cost")


@dataclass
class FitResult:
    student: RestrictedStudent
    cost_series: np.ndarray
    mode_masses: np.ndarray
    param_trace: np.ndarray  # (steps+1, 2): mean, log_width

    @property
    def terminal_cost(self) -> float:
        return float(self.cost_series[-1])


def mode_masses(q: Distribution, teacher: BinnedMixture) -> np.ndarray:
    """Student mass attributed to each teacher component (nearest-center bins)."""
    assignment = teacher.mode_assignment()
    masses = np.zeros(teacher.num_modes)
    for j in range(teacher.num_modes):
        masses[j] = q.probs[assignment == j].sum()
    return masses


#: Step-size ratio (mean, log_width). The width coordinate is kept an order
#: of magnitude stiffer than the mean: otherwise the width balloons into
#: the shallow mode-covering basin before the mean can travel to a mode.
_PRECONDITIONER = np.array([1.0, 0.1])

_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def _costs_and_gradients(
    kinds: list[DivergenceKind], P: np.ndarray, edges: np.ndarray, x: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Cost under kinds[r] of the student x[r] = (mean, log_width) against
    the teacher row P, and its exact gradient in x[r], for every row r.

    One _binned_gaussian call and one validate_probs cover the block, then
    one kernel call per row; rows never mix, so each row is bit-identical
    to a block of its own. An invalid student raises RestrictedStudent's
    ValueError.
    """
    if not np.isfinite(x).all():
        raise ValueError("student parameters must be finite")
    mean = x[:, :1]
    with np.errstate(over="ignore"):
        width = np.exp(x[:, 1:])
    mass = _binned_gaussian(edges, mean, width)
    totals = mass.sum(axis=-1, keepdims=True)
    if not (totals > 0).all():
        raise ValueError("student has no mass on the grid")
    Q = mass / totals
    validate_probs(Q)
    # dm_i / d(mean, log_width): differences of phi / width and z * phi at the bin edges
    z = (edges - mean) / width
    phi = _INV_SQRT_2PI * np.exp(-0.5 * z * z)
    d = np.stack((phi / width, z * phi), axis=1)
    dmass = d[..., :-1] - d[..., 1:]
    dlog = np.divide(dmass, mass[:, None], out=np.zeros_like(dmass), where=mass[:, None] > 0)
    values, grads = np.empty(len(x)), np.empty((len(x), 2))
    for r, kind in enumerate(kinds):
        value, g = batch(kind, P, Q[r : r + 1])
        values[r], grads[r] = value[0], dlog[r] @ g[0]
    return values, grads


def _descend(
    kinds: tuple[DivergenceKind, ...],
    teacher: BinnedMixture,
    init: RestrictedStudent,
    steps: int,
    lr: float,
) -> list[FitResult]:
    """One fit per kind from `init`, run as the rows of one descent whose
    steps evaluate the unfinished rows as one block. A row whose cost or
    gradient is not finite halves its learning rate and restarts alone, up
    to 5 times; then ModeFitError carries the costs of its last attempt.
    """
    P = floor_and_renormalize(teacher.distribution(), _TEACHER_FLOOR).probs[None]
    edges = teacher.grid.edges
    start = np.array([init.mean, init.log_width])
    params = np.tile(start, (len(kinds), 1))
    attempts = [0] * len(kinds)
    costs: list[list[float]] = [[] for _ in kinds]
    traces: list[list[np.ndarray]] = [[] for _ in kinds]
    results: dict[int, FitResult] = {}
    while len(results) < len(kinds):
        live = [r for r in range(len(kinds)) if r not in results]
        x = params[live]
        values, grads = _costs_and_gradients([kinds[r] for r in live], P, edges, x)
        for r, row, cost, grad in zip(live, x, values.tolist(), grads):
            if math.isfinite(cost):
                costs[r].append(cost)
                traces[r].append(row)
                if len(costs[r]) > steps:
                    student = RestrictedStudent(*row.tolist())
                    q = student.distribution(teacher.grid)
                    results[r] = FitResult(student, np.asarray(costs[r]),
                                           mode_masses(q, teacher), np.asarray(traces[r]))
                    continue
                if np.isfinite(grad).all():
                    params[r] = row - lr / 2 ** attempts[r] * _PRECONDITIONER * grad
                    continue
            attempts[r] += 1
            if attempts[r] == 6:
                raise ModeFitError(costs[r] or [cost])
            params[r], costs[r], traces[r] = start, [], []
    return [results[r] for r in range(len(kinds))]


def fit(
    kind: DivergenceKind,
    teacher: BinnedMixture,
    init: RestrictedStudent | None = None,
    steps: int = 600,
    lr: float = 0.5,
) -> FitResult:
    """Exact-gradient descent on the two student parameters, as a one-row
    descent: each step evaluates the current student once, its cost enters
    cost_series and its gradient (see the module docstring), scaled by the
    preconditioner, gives the next iterate.

    The teacher distribution is floored at 1e-12 so reverse KL stays finite
    no matter where the student wanders. A non-finite cost or gradient
    anywhere in the descent halves the learning rate and restarts, up to 5
    times; then ModeFitError carries the costs of the last attempt.
    """
    if init is None:
        init = RestrictedStudent.neutral(teacher)
    return _descend((kind,), teacher, init, steps, lr)[0]


@dataclass
class UnconstrainedFitResult:
    q: Distribution
    cost_series: np.ndarray
    mode_masses: np.ndarray


def fit_unconstrained(
    kind: DivergenceKind, teacher: BinnedMixture, steps: int = 8000
) -> UnconstrainedFitResult:
    """Control arm: tabular softmax student with exact closed-form gradients.

    With one logit per bin the student family contains the teacher, so the
    global minimizer of every divergence is the teacher itself; in
    particular the exact-gradient reverse-KL fit recovers mode masses equal
    to the mixture weights rather than concentrating. The step size is 2.
    """
    p = floor_and_renormalize(teacher.distribution(), _TEACHER_FLOOR)
    P = p.probs[None]
    z = np.zeros(teacher.grid.bins)
    costs = []
    for _ in range(steps):
        validate_logits(z)
        values, g = batch(kind, P, softmax_rows(z[None]))
        costs.append(float(values[0]))
        z = z - 2.0 * g[0]
        z -= z.max()  # shift invariance; keeps the spread bounded
    q = softmax(LogitVector(z))
    costs.append(divergence_value(kind, p, q))
    return UnconstrainedFitResult(
        q=q,
        cost_series=np.asarray(costs),
        mode_masses=mode_masses(q, teacher),
    )


def coverage_ordering(teacher: BinnedMixture, steps: int = 600) -> dict[str, FitResult]:
    """Fit the teacher from its neutral student under all three divergences
    at learning rate 0.2, as three rows of one descent.

    Returns results keyed 'rev', 'jsd:0.5', 'fwd', each bit-identical to
    `fit(kind, teacher, steps=steps, lr=0.2)`; the secondary-mode mass is
    strictly ordered rev < jsd < fwd on separated two-mode teachers.
    """
    kinds = (REVERSE_KL, jsd_kind(0.5), FORWARD_KL)
    fits = _descend(kinds, teacher, RestrictedStudent.neutral(teacher), steps, 0.2)
    return {str(kind): res for kind, res in zip(kinds, fits)}
