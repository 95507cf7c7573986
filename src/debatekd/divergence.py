"""Forward KL, reverse KL, and JSD over categorical distributions.

Each divergence is implemented once, in the array-native kernel `batch`:
given (N, V) teacher rows and student-probability rows it returns the
per-row values and, on request, the closed-form gradients with respect to
the student's pre-softmax logits (the teacher is a fixed target: gradients
flow only through the student). Everything else wraps it: the scalar
`divergence_value` and `logit_gradient`, which take validated
`Distribution`/`LogitVector` values; a central-finite-difference oracle
that evaluates all 2V stencil rows in one call; and two probes that stress
the boundedness results, the JSD loss/gradient ceilings and the reverse-KL
blow-up as teacher mass vanishes on student-supported tokens. Row sums and
row dot products reduce each row as the one-row numpy call would, so a
stacked call is bit-identical to one call per row.

Conventions: natural logs, 0*log(0) := 0, and the reverse direction is
defined as rev(p||q) := KL(q||p). Infinite losses are reported as a genuine
+inf sentinel, never clamped; training paths are expected to pre-floor
teacher targets (simplex.floor_and_renormalize) to stay finite.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .simplex import Distribution, LogitVector, softmax_rows, validate_logits, validate_probs

#: Loose headline ceiling on the JSD logit gradient inf-norm.
JSD_GRAD_HEADLINE_BOUND = 2.0
#: Sharper ceiling 1/4 + 2/sqrt(e) from the term-by-term derivation.
JSD_GRAD_TIGHT_BOUND = 0.25 + 2.0 / math.sqrt(math.e)


@dataclass(frozen=True)
class DivergenceKind:
    """Selector for the divergence used as the distillation objective."""

    name: str
    beta: float = 0.5

    def __post_init__(self):
        if self.name not in ("forward_kl", "reverse_kl", "jsd"):
            raise ValueError(f"unknown divergence kind: {self.name!r}")
        if self.name == "jsd" and not 0.0 < self.beta < 1.0:
            raise ValueError(f"jsd beta must lie strictly inside (0, 1), got {self.beta}")

    def __str__(self) -> str:
        if self.name == "jsd":
            return f"jsd:{self.beta}"
        return {"forward_kl": "fwd", "reverse_kl": "rev"}[self.name]


FORWARD_KL = DivergenceKind("forward_kl")
REVERSE_KL = DivergenceKind("reverse_kl")


def jsd_kind(beta: float = 0.5) -> DivergenceKind:
    return DivergenceKind("jsd", beta)


def parse_kind(spec: str) -> DivergenceKind:
    """Parse 'fwd' | 'rev' | 'jsd[:beta]' into a DivergenceKind."""
    spec = spec.strip().lower()
    if spec == "fwd":
        return FORWARD_KL
    if spec == "rev":
        return REVERSE_KL
    if spec == "jsd":
        return jsd_kind()
    if spec.startswith("jsd:"):
        return jsd_kind(float(spec.split(":", 1)[1]))
    raise ValueError(f"cannot parse divergence kind {spec!r} (want fwd|rev|jsd:<beta>)")


def jsd_loss_bound(beta: float) -> float:
    """Binary-entropy ceiling H(beta) on the JSD loss; log 2 at beta=0.5."""
    return float(-(beta * math.log(beta) + (1 - beta) * math.log(1 - beta)))


@dataclass(frozen=True)
class GradientReport:
    """Loss value plus its gradient with respect to student logits."""

    value: float
    logit_grad: np.ndarray
    inf_norm: float

    @property
    def is_finite(self) -> bool:
        return math.isfinite(self.value) and bool(np.all(np.isfinite(self.logit_grad)))


def _row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row dot products; stacked matmul reduces each row as np.dot does."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _inf_norms(g: np.ndarray) -> np.ndarray:
    """Row-wise max |g|."""
    with np.errstate(invalid="ignore"):
        return np.max(np.abs(g), axis=-1)


def _kl_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise KL(a||b) with 0*log(0)=0; +inf where a charges a b-null token.

    A row with zeros sums only its a-positive terms, so it rounds exactly as
    np.sum(row[a > 0]) does.
    """
    pos = a > 0
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = a * np.log(a / b)
    out = terms.sum(axis=-1)
    if not (pos.all() and b.all()):
        for i in np.flatnonzero(~pos.all(axis=-1)):
            out[i] = terms[i][pos[i]].sum()
        out[(pos & (b == 0)).any(axis=-1)] = math.inf
    return np.maximum(out, 0.0)


def batch(
    kind: DivergenceKind, P: np.ndarray, Q: np.ndarray, grad: bool = True
) -> tuple[np.ndarray, np.ndarray | None]:
    """Divergence of teacher rows P from student rows Q, one value per row.

    P and Q are (N, V) probability arrays. Returns the N values and, with
    grad, the (N, V) gradients in the student's logits (else None). With
    grad, a student zero where the teacher is positive (a binned student
    whose tail underflowed) adds nothing, by 0 log 0 := 0. Inputs are not
    validated beyond a matching vocabulary: the wrappers check them at the
    API edge.

    Forward KL's gradient collapses to q - p. Reverse KL's is
    sum_v q(v) (delta_iv - q(i)) log(q(v)/p(v)), which diverges as teacher
    mass on a student-supported token goes to zero; an exact teacher zero
    gives value +inf and +inf/-inf entries, so callers that want finite
    output floor p first. JSD combines the two mixture-KL terms via the
    softmax Jacobian and is uniformly bounded.
    """
    if P.shape[-1] != Q.shape[-1]:
        raise ValueError(f"vocab mismatch: {P.shape[-1]} vs {Q.shape[-1]}")
    if kind.name == "forward_kl":
        return _kl_rows(P, Q), (Q - P if grad else None)

    if kind.name == "reverse_kl":
        if not grad:
            return _kl_rows(Q, P), None
        # With the gradient, the value is the gradient's own E_q[log q/p].
        with np.errstate(divide="ignore", invalid="ignore"):
            t = np.log(np.where(Q > 0, Q / P, 1.0))
            total = _row_dot(Q, t)
            g = Q * (t - total[:, None])
        values = np.maximum(total, 0.0)
        if not P.all():
            # An exact teacher zero under a positive student blows up:
            # +inf on the missing tokens, -inf everywhere else.
            zero = (P == 0).any(axis=-1)
            values[zero] = math.inf
            g[zero] = np.where(P[zero] == 0, math.inf, -math.inf)
        return values, g

    beta = kind.beta
    m = beta * P + (1 - beta) * Q
    values = beta * _kl_rows(P, m) + (1 - beta) * _kl_rows(Q, m)
    # identity holds exactly; the mixture would round otherwise
    values[(P == Q).all(axis=-1)] = 0.0
    if not grad:
        return values, None
    r = P * Q / m
    grad_p_term = -(1 - beta) * (r - Q * r.sum(axis=-1, keepdims=True))
    ell = np.log(np.where(Q > 0, Q / m, 1.0))
    x = Q * (ell - _row_dot(Q, ell)[:, None])
    s = Q * Q / m
    y = (1 - beta) * (s - Q * s.sum(axis=-1, keepdims=True))
    return values, beta * grad_p_term + (1 - beta) * (x - y)


def divergence_value(kind: DivergenceKind, p: Distribution, q: Distribution) -> float:
    """Evaluate the divergence between teacher p and student q.

    Returns +inf for forward KL when q misses p-support, and for reverse KL
    when p misses q-support. JSD is always finite and at most H(beta).
    """
    return float(batch(kind, p.probs[None], q.probs[None], grad=False)[0][0])


def logit_gradient(kind: DivergenceKind, p: Distribution, z: LogitVector) -> GradientReport:
    """Closed-form gradient of divergence(p, softmax(z)) in the logits z;
    see `batch` for the per-kind forms."""
    values, g = batch(kind, p.probs[None], softmax_rows(z.logits[None]))
    return GradientReport(float(values[0]), g[0], float(_inf_norms(g)[0]))


def finite_difference_gradient(
    kind: DivergenceKind, p: Distribution, z: LogitVector, h: float = 1e-6
) -> np.ndarray:
    """Central-difference oracle for logit_gradient.

    Coordinates whose stencil hits a non-finite loss are skipped and
    reported as NaN so the caller can exclude them from comparisons.
    """
    if not 1e-8 <= h <= 1e-4:
        raise ValueError(f"h must lie in [1e-8, 1e-4], got {h}")
    vocab = z.vocab_size
    # rows: +h on coordinate i, then -h on coordinate i
    stencil = z.logits + h * np.concatenate([np.eye(vocab), -np.eye(vocab)])
    validate_logits(stencil)
    values, _ = batch(kind, np.tile(p.probs, (2 * vocab, 1)), softmax_rows(stencil), grad=False)
    fp, fm = values[:vocab], values[vocab:]
    with np.errstate(invalid="ignore"):
        return np.where(np.isfinite(fp) & np.isfinite(fm), (fp - fm) / (2 * h), math.nan)


@dataclass
class BoundProbeReport:
    """Result of a randomized sweep against the JSD loss/gradient ceilings."""

    beta: float
    n_trials: int
    vocab_sizes: list[int]
    max_loss: float
    max_inf_norm: float
    max_fwd_inf_norm: float
    loss_bound: float
    grad_bound_tight: float = JSD_GRAD_TIGHT_BOUND
    grad_bound_headline: float = JSD_GRAD_HEADLINE_BOUND
    witness_loss: dict = field(default_factory=dict)
    witness_grad: dict = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps({"kind": "jsd", **dataclasses.asdict(self)}, indent=2)


def _adversarial_pair(vocab: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Near-disjoint pair: p on the left half, q on the right, with cross
    mass log-uniform down to 1e-300. The JSD sup lives out here."""
    half = vocab // 2
    t = 10.0 ** rng.uniform(-300, -2)
    p = np.full(vocab, t / max(vocab - half, 1))
    p[:half] = (1 - t) / half
    u = 10.0 ** rng.uniform(-300, -2)
    q = np.full(vocab, u / half)
    q[half:] = (1 - u) / max(vocab - half, 1)
    return p / p.sum(), q / q.sum()


def _spike_pair(vocab: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """p concentrated off one coordinate where q holds a moderate spike;
    the gradient inf-norm peaks for spikes around 0.7, not at point masses."""
    t = 10.0 ** rng.uniform(-300, -8)
    p = np.full(vocab, (1 - t) / (vocab - 1))
    p[0] = t
    spike = rng.uniform(0.3, 0.9)
    q = np.full(vocab, (1 - spike) / (vocab - 1))
    q[0] = spike
    return p / p.sum(), q / q.sum()


#: Dirichlet concentrations of a random pair, drawn by index (rng.choice
#: would draw the same index, but converts the list to an array every call).
_ALPHAS = (0.1, 1.0, 10.0)


def _random_pair(vocab: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    p = rng.dirichlet(np.full(vocab, _ALPHAS[rng.integers(3)]))
    q = rng.dirichlet(np.full(vocab, _ALPHAS[rng.integers(3)]))
    # Dirichlet(0.1) can underflow entries to exact zero; keep q usable as
    # softmax output by flooring it at a subnormal-safe level.
    q = np.maximum(q, 1e-300)
    return p, q / q.sum()


def jsd_bound_probe(
    n_trials: int,
    vocab_sizes: list[int],
    rng: np.random.Generator,
    beta: float = 0.5,
) -> BoundProbeReport:
    """Sweep random + adversarial (p, q) pairs against the JSD ceilings.

    Tracks the maximum observed loss, JSD gradient inf-norm, and forward-KL
    gradient inf-norm, together with the witness pairs that attained them.
    The disjoint point-mass pair (which attains the loss sup exactly) is
    always included. Pairs are drawn one trial at a time, vocabularies
    cycling, and evaluated one vocabulary at a time; a witness is the first
    maximum in scan order, every point-mass pair before the first trial.
    """
    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    kind = jsd_kind(beta)
    vocab_sizes = [int(v) for v in vocab_sizes]
    n_vocabs = len(vocab_sizes)
    # Trial t draws at vocabulary k = t % n_vocabs into row t // n_vocabs of
    # block k, whose two planes hold the p and q rows.
    blocks = [
        np.empty((2, len(range(k, n_trials, n_vocabs)), v)) for k, v in enumerate(vocab_sizes)
    ]
    draws = (_adversarial_pair, _random_pair, _spike_pair, _random_pair)
    for t in range(n_trials):
        k = t % n_vocabs
        blocks[k][:, t // n_vocabs] = draws[t % 4](vocab_sizes[k], rng)

    # Scan order: the point-mass pair of each vocabulary, then the trials.
    losses = np.empty(n_vocabs + n_trials)
    for k, v in enumerate(vocab_sizes):
        pm = np.eye(2, v)
        losses[k] = batch(kind, pm[:1], pm[1:], grad=False)[0][0]
    grad_norms, fwd_norms = np.empty(n_trials), np.empty(n_trials)
    for k, (p, q) in enumerate(blocks[:n_trials]):
        trials = slice(k, n_trials, n_vocabs)
        validate_probs(p)
        validate_probs(q)
        z = np.log(q)
        validate_logits(z)
        q_soft = softmax_rows(z)
        losses[n_vocabs:][trials] = batch(kind, p, q, grad=False)[0]
        grad_norms[trials] = _inf_norms(batch(kind, p, q_soft)[1])
        fwd_norms[trials] = _inf_norms(batch(FORWARD_KL, p, q_soft)[1])

    def witness(k: int) -> dict:
        v = vocab_sizes[k % n_vocabs]
        t = k - n_vocabs
        p, q = np.eye(2, v) if t < 0 else blocks[t % n_vocabs][:, t // n_vocabs]
        return {"vocab": v, "p": p.tolist(), "q": q.tolist()}

    i, j = int(np.argmax(losses)), int(np.argmax(grad_norms))
    return BoundProbeReport(
        beta=beta,
        n_trials=n_trials,
        vocab_sizes=vocab_sizes,
        max_loss=float(losses[i]),
        max_inf_norm=float(grad_norms[j]),
        max_fwd_inf_norm=float(np.max(fwd_norms)),
        loss_bound=jsd_loss_bound(beta),
        witness_loss=witness(i),
        witness_grad=witness(n_vocabs + j),
    )


def revkl_unboundedness_probe(deltas: list[float]) -> dict[float, float]:
    """Witness family for the reverse-KL gradient blow-up.

    For each delta, a two-token teacher puts mass delta on token 0 and the
    rest on token 1 against a uniform student; the gradient inf-norm grows
    like log(1/delta) as delta shrinks. Returns {delta: inf_norm}.
    """
    for delta in deltas:
        if not 0 < delta <= 0.5:
            raise ValueError(f"delta must lie in (0, 0.5], got {delta}")
    d = np.asarray(deltas, dtype=np.float64)[:, None]
    p = np.hstack([d, 1 - d])
    validate_probs(p)
    norms = _inf_norms(batch(REVERSE_KL, p, softmax_rows(np.zeros_like(p)))[1])
    return {float(delta): float(n) for delta, n in zip(d[:, 0], norms)}
