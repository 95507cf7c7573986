"""Mode-seeking vs mode-covering geometry on binned Gaussian mixtures.

A teacher mixture with well-separated components is discretized onto a
fixed grid; a capacity-restricted student (one binned Gaussian with two
free parameters, mean and log-width) descends each divergence via central
finite differences, with one batched divergence call per step on the
current student and its four-point stencil (bit-identical to evaluating
the five students one at a time). Under reverse KL the restricted student
concentrates on the dominant component with terminal cost
-log(alpha_dominant); under forward KL it spreads over every component;
JSD lands in between, giving the strict secondary-mass ordering
rev < jsd < fwd.

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

from .divergence import DivergenceKind, batch, divergence_value
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
    kind: str
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


#: Rows of one descent step's block, in units of h on (mean, log_width):
#: the current student, then the +/- pair of each coordinate in the order
#: the scalar central difference evaluated them.
_STENCIL = np.array([[0.0, 0.0], [1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])


def _width(log_width: float) -> float:
    """RestrictedStudent.width, but inf where math.exp overflows, so that
    the row has no mass and only raises if the descent reads it. (np.exp
    differs from math.exp in the last bit on some inputs.)"""
    try:
        return math.exp(log_width)
    except OverflowError:
        return math.inf


def _costs(
    kind: DivergenceKind, P: np.ndarray, grid: Grid, edges: np.ndarray, rows: np.ndarray
) -> np.ndarray:
    """Divergence of the teacher rows P from the student at each
    (mean, log_width) row of `rows`, in one batched call.

    Rows are read as the scalar descent read them: the first row, then each
    stencil pair while every cost before it is finite. The first row read
    that is not a valid student raises the error RestrictedStudent raises
    for it; rows past a non-finite cost are not checked.
    """
    widths = np.array([_width(log_width) for log_width in rows[:, 1]])
    mass = _binned_gaussian(edges, rows[:, :1], widths[:, None])
    totals = mass.sum(axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):  # massless rows are checked below
        Q = mass / totals[:, None]
    values = batch(kind, P[: len(rows)], Q, grad=False)[0]
    finite = np.isfinite(values)
    read = 1
    while read < len(rows) and finite[:read].all():
        read += 2
    try:
        if not (np.isfinite(rows[:read]).all() and (totals[:read] > 0).all()):
            raise ValueError("student rows without finite parameters or mass")
        validate_probs(Q[:read])
    except ValueError:
        # Re-derive the rows read one at a time: the first bad one raises
        # exactly what the scalar descent raised for it.
        for mean, log_width in rows[:read]:
            RestrictedStudent(float(mean), float(log_width)).distribution(grid)
        raise
    return values


def fit(
    kind: DivergenceKind,
    teacher: BinnedMixture,
    init: RestrictedStudent | None = None,
    steps: int = 600,
    lr: float = 0.5,
    h: float = 1e-6,
) -> FitResult:
    """Finite-difference gradient descent on the two student parameters.

    Each step makes one batched divergence call on a (5, bins) block: the
    current student, whose cost enters cost_series, and its central
    difference stencil (+/-h in mean, then in log-width), which gives the
    next iterate; the final step evaluates the student alone. Costs,
    iterates, mode masses and errors are bit-identical to evaluating the
    five students one at a time.

    The teacher distribution is floored at 1e-12 so reverse KL stays finite
    no matter where the student wanders. A non-finite cost anywhere in the
    descent halves the learning rate and restarts, up to 5 times.
    """
    p = floor_and_renormalize(teacher.distribution(), _TEACHER_FLOOR)
    if init is None:
        init = RestrictedStudent.neutral(teacher)
    P = np.tile(p.probs, (len(_STENCIL), 1))
    edges = teacher.grid.edges
    stencil = h * _STENCIL

    trace: list[float] = []
    for attempt in range(6):
        eff_lr = lr / (2**attempt)
        params = np.array([init.mean, init.log_width])
        costs: list[float] = []
        param_trace = []
        while True:
            last = len(costs) == steps
            values = _costs(kind, P, teacher.grid, edges, params + stencil[: 1 if last else None])
            c = float(values[0])
            if not math.isfinite(c):
                costs = costs or [c]  # a non-finite initial cost is kept in the trace
                break
            costs.append(c)
            param_trace.append(params)
            if last:
                student = RestrictedStudent(mean=float(params[0]), log_width=float(params[1]))
                q = student.distribution(teacher.grid)
                return FitResult(
                    kind=str(kind),
                    student=student,
                    cost_series=np.asarray(costs),
                    mode_masses=mode_masses(q, teacher),
                    param_trace=np.asarray(param_trace),
                )
            if not np.isfinite(values[1:]).all():
                break
            grad = (values[1::2] - values[2::2]) / (2 * h)
            params = params - eff_lr * _PRECONDITIONER * grad
        trace = costs
    raise ModeFitError(trace)


@dataclass
class UnconstrainedFitResult:
    kind: str
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
        kind=str(kind),
        q=q,
        cost_series=np.asarray(costs),
        mode_masses=mode_masses(q, teacher),
    )


def coverage_ordering(teacher: BinnedMixture, steps: int = 600) -> dict[str, FitResult]:
    """Fit the teacher from its neutral student under all three divergences
    at learning rate 0.2.

    Returns results keyed 'rev', 'jsd:0.5', 'fwd'; the secondary-mode mass
    is strictly ordered rev < jsd < fwd on separated two-mode teachers.
    """
    from .divergence import FORWARD_KL, REVERSE_KL, jsd_kind

    return {str(kind): fit(kind, teacher, steps=steps, lr=0.2)
            for kind in (REVERSE_KL, jsd_kind(0.5), FORWARD_KL)}
