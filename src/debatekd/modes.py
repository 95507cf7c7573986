"""Mode-seeking vs mode-covering geometry on binned Gaussian mixtures.

A teacher mixture with well-separated components is discretized onto a
fixed grid; a capacity-restricted student (one binned Gaussian with two
free parameters, mean and log-width) descends each divergence on its exact
gradient: its bin masses are m_i = Phi(z_{i+1}) - Phi(z_i) and it is
q = softmax(log m), so the kernel's logit gradient g chains to a parameter
as sum_i g_i (dm_i/dtheta) / m_i, a bin whose mass underflowed to 0 adding
nothing. Phi comes from one numpy kernel over the block of standardised
edges (the Cephes erf/erfc rational forms as one matmul), whose
exp(-z^2/2) also gives dm_i/dtheta. Under reverse KL the restricted
student concentrates on the dominant component with terminal cost
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


_SQRT2 = math.sqrt(2.0)

#: Cephes ndtr.c rational approximations (S. L. Moshier), highest power
#: first: erf(a) = a T(a^2) / U(a^2) for a < 1, and erfc(a) = exp(-a^2) P(a)
#: / Q(a) for 1 <= a < 8, exp(-a^2) R(a) / S(a) beyond.
_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
      7.00332514112805075473e3, 5.55923013010394962768e4)
_U = (1.0, 3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
      2.26290000613890934246e4, 4.92673942608635921086e4)
_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
      4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
      9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_Q = (1.0, 1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
      9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
      1.65666309194161350182e3, 5.57535340817727675546e2)
_R = (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
      6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0)
_S = (1.0, 2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
      1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0)


def _in_powers(coeffs: tuple[float, ...], step: int = 1, shift: int = 0) -> np.ndarray:
    """Coefficients of a^0..a^10 of the polynomial a^shift C(a^step)."""
    row = np.zeros(11)
    row[shift : shift + step * len(coeffs) : step] = coeffs[::-1]
    return row


#: Numerator and denominator rows of the three ranges in powers of
#: t = sqrt(2) a, the numerators halved so that each ratio is half of erf
#: or of exp(a^2) erfc.
_RATIONAL = np.stack([
    _in_powers(_T, 2, 1) / 2, _in_powers(_U, 2),
    _in_powers(_P) / 2, _in_powers(_Q),
    _in_powers(_R) / 2, _in_powers(_S),
]) * math.sqrt(0.5) ** np.arange(11)

#: exp(-t^2 / 2) underflows to 0 past t = 38.6, so t capped here reads the
#: same and keeps t^10 finite.
_T_CAP = 40.0


def _normal_tail(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The lower tail ndtr(-|z|) and exp(-z^2 / 2), entrywise.

    The tail is erfc(|z| / sqrt(2)) / 2 from the Cephes rational forms, the
    six polynomials evaluated at once as one (6, 11) matmul on the powers of
    |z|; exp(-z^2 / 2) is the factor the erfc forms share. Its relative
    error is within 1e-15 (1 + z^2) wherever the tail is a normal double
    (|z| <= 37); it stays positive until it underflows near |z| = 38. Every
    entry's bits depend only on its own z where the matmul reduces each
    column in the same order whatever the column count: so on the OpenBLAS
    kernel the digests were pinned on (SkylakeX), not under
    OPENBLAS_CORETYPE=Haswell or Prescott (ROADMAP item 1).
    """
    powers = np.empty((11, z.size))
    t = np.minimum(np.abs(z).reshape(-1), _T_CAP, out=powers[1])
    powers[0] = 1.0
    np.multiply(t, t, out=powers[2])
    np.multiply(powers[1:3], powers[2], out=powers[3:5])
    np.multiply(powers[1:5], powers[4], out=powers[5:9])
    np.multiply(powers[1:3], powers[8], out=powers[9:11])
    gauss = np.exp(-0.5 * powers[2])
    terms = _RATIONAL @ powers
    half = terms[0::2] / terms[1::2]
    tail = np.where(t < _SQRT2, 0.5 - half[0], gauss * np.where(t < 8 * _SQRT2, half[1], half[2]))
    return tail.reshape(z.shape), gauss.reshape(z.shape)


def _bin_masses(z: np.ndarray, tail: np.ndarray) -> np.ndarray:
    """Bin masses between consecutive standardised edges z (ascending along
    the last axis) from their tails ndtr(-|z|): the difference of the two
    tails on one side of the mean, and 1 minus their sum for the bin that
    holds it, so no mass is a difference of CDFs near 1."""
    signed = np.copysign(tail, z)
    below = np.signbit(z)
    return (signed[..., :-1] - signed[..., 1:]) + (below[..., :-1] > below[..., 1:])


def _binned_gaussian(edges: np.ndarray, mean, width) -> np.ndarray:
    """Bin masses of N(mean, width^2) between consecutive edges; (R, 1)
    columns of means and widths give one row each, and a stacked call is
    bit-identical to one call per row where _normal_tail's matmul is (on
    the OpenBLAS kernel the digests were pinned on; ROADMAP item 1).

    Both tails are read as lower tails (_normal_tail), so masses stay
    positive out to ~38 widths on either side of the mean instead of
    collapsing to exact zero where a CDF rounds to 1.
    """
    z = (edges - mean) / width
    return _bin_masses(z, _normal_tail(z)[0])


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
    kinds: tuple[DivergenceKind, ...], P: np.ndarray, edges: np.ndarray, x: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Cost under kinds[r] of the student x[r] = (mean, log_width) against
    the teacher row P, and its exact gradient in x[r], for every row r.

    One _normal_tail call, one validate_probs and one `batch` call, with a
    kind per row, cover the block; rows never mix, so each row equals a
    block of its own, bit for bit on the OpenBLAS kernel the digests were
    pinned on; its matrix products (`dlog @ G` and those in _normal_tail
    and `batch`) may block by the row count on other kernels (ROADMAP
    item 1). An invalid student raises RestrictedStudent's ValueError.
    """
    if not np.isfinite(x).all():
        raise ValueError("student parameters must be finite")
    mean = x[:, :1]
    with np.errstate(over="ignore"):
        width = np.exp(x[:, 1:])
    z = (edges - mean) / width
    tail, gauss = _normal_tail(z)
    mass = _bin_masses(z, tail)
    totals = mass.sum(axis=-1, keepdims=True)
    if not (totals > 0).all():
        raise ValueError("student has no mass on the grid")
    Q = mass / totals
    validate_probs(Q)
    # dm_i / d(mean, log_width), up to the factors 1 / (sqrt(2 pi) width) and
    # 1 / sqrt(2 pi) applied to the sums: differences of exp(-z^2/2) and of
    # z exp(-z^2/2) at the bin edges
    edge_terms = np.empty((len(x), 2, z.shape[-1]))
    edge_terms[:, 0] = gauss
    np.multiply(z, gauss, out=edge_terms[:, 1])
    dmass = edge_terms[..., :-1] - edge_terms[..., 1:]
    dlog = dmass / np.where(mass > 0, mass, math.inf)[:, None]  # 0 where mass underflowed
    values, G = batch(kinds, P, Q)
    grads = (dlog @ G[..., None])[..., 0]
    grads *= _INV_SQRT_2PI
    grads[:, 0] /= width[:, 0]
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
    step_sizes = np.tile(lr * _PRECONDITIONER, (len(kinds), 1))
    costs: list[list[float]] = [[] for _ in kinds]
    traces: list[list[np.ndarray]] = [[] for _ in kinds]
    results: dict[int, FitResult] = {}
    while len(results) < len(kinds):
        live = [r for r in range(len(kinds)) if r not in results]
        x = params[live]
        values, grads = _costs_and_gradients(tuple(kinds[r] for r in live), P, edges, x)
        # every live row steps; a row that finishes or restarts discards its step
        params[live] = x - step_sizes[live] * grads
        for r, row, cost, steady in zip(live, x, values.tolist(),
                                        np.isfinite(grads).all(axis=1).tolist()):
            if math.isfinite(cost):
                costs[r].append(cost)
                traces[r].append(row)
                if len(costs[r]) > steps:
                    student = RestrictedStudent(*row.tolist())
                    q = student.distribution(teacher.grid)
                    results[r] = FitResult(student, np.asarray(costs[r]),
                                           mode_masses(q, teacher), np.asarray(traces[r]))
                    continue
                if steady:
                    continue
            attempts[r] += 1
            if attempts[r] == 6:
                raise ModeFitError(costs[r] or [cost])
            step_sizes[r] = lr / 2 ** attempts[r] * _PRECONDITIONER
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
