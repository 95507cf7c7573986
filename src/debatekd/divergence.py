"""Forward KL, reverse KL, and JSD over categorical distributions.

Each divergence has one value formula and one gradient formula, both in the
array-native kernel `batch`: given (N, V) teacher and student rows it
returns the per-row values and, on request, the gradients in the student's
logits (the teacher is a fixed target). JSD's gradient in the student q is
the closed form (1 - beta) log(q/m): the two terms that reach q through the
mixture m cancel the +(1 - beta) of q log q. Everything else wraps `batch`:
`divergence_value` and `logit_gradient` at the validated
`Distribution`/`LogitVector` edge, a central-difference oracle over all 2V
stencil rows in one call, and two probes. The JSD probe checks the loss and
gradient ceilings: it splits its trials over the vocabularies, draws each
vocabulary's share as one block of near-disjoint, random and spiked rows
with vectorised draws, and scores the block as soon as it is drawn, keeping
only the running maxima and their first witnesses (point-mass pairs first,
then the blocks in vocabulary order), so it holds one block at a time. The
reverse-KL probe shows the gradient blow-up as teacher mass vanishes on
student-supported tokens. Row sums and row dot products reduce each row as
the one-row numpy call would, so a stacked call is bit-identical to one
call per row.

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


def _log_ratio(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Entrywise log(a / b): 0 where a is 0, +inf where a positive a meets a
    null b, and log a - log b where a / b overflows (a denormal b)."""
    ratio = np.where(a > 0, a / b, 1.0)
    out = np.log(ratio)
    if ratio.max(initial=0.0) == math.inf:
        over = (ratio == math.inf) & (b > 0)
        out[over] = np.log(a[over]) - np.log(b[over])
    return out


def _kl_rows(a: np.ndarray, log_ratio: np.ndarray) -> np.ndarray:
    """Row-wise KL(a||b) from log_ratio = _log_ratio(a, b); a zero in a adds
    an exact 0 term to its row."""
    return np.maximum((a * log_ratio).sum(axis=-1), 0.0)


def _centred(Q: np.ndarray, ell: np.ndarray) -> np.ndarray:
    """Logit gradient Q * (ell - E_Q ell) of a loss whose gradient in Q is ell."""
    return Q * (ell - _row_dot(Q, ell)[:, None])


def batch(
    kind: DivergenceKind, P: np.ndarray, Q: np.ndarray, grad: bool = True
) -> tuple[np.ndarray, np.ndarray | None]:
    """Divergence of teacher rows P from student rows Q, one value per row.

    P and Q are (N, V) probability arrays. Returns the N values, which do not
    depend on grad, and with grad the (N, V) gradients in the student's
    logits (else None). A student zero adds nothing, by 0 log 0 := 0. Inputs
    are not validated beyond a matching vocabulary: the wrappers check them
    at the API edge.

    Each logit gradient is Q * (d - E_Q d) for the loss's gradient d in Q:
    Q - P for forward KL; d = log(Q/P) for reverse KL, +inf/-inf entries and
    value +inf on a teacher zero under a positive student (callers that want
    finite output floor P); d = (1 - beta) log(Q/m) for JSD, bounded.
    """
    if P.shape[-1] != Q.shape[-1]:
        raise ValueError(f"vocab mismatch: {P.shape[-1]} vs {Q.shape[-1]}")
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if kind.name == "forward_kl":
            return _kl_rows(P, _log_ratio(P, Q)), (Q - P if grad else None)

        if kind.name == "reverse_kl":
            ell = _log_ratio(Q, P)
            values = _kl_rows(Q, ell)
            if not grad:
                return values, None
            g = _centred(Q, ell)
            inf = values == math.inf
            if inf.any():
                # +inf on the teacher zeros, -inf everywhere else
                g[inf] = np.where(P[inf] == 0, math.inf, -math.inf)
            return values, g

        beta = kind.beta
        m = beta * P + (1 - beta) * Q
        ell = _log_ratio(Q, m)
        values = beta * _kl_rows(P, _log_ratio(P, m)) + (1 - beta) * _kl_rows(Q, ell)
        # identity holds exactly; the mixture would round otherwise
        values[(P == Q).all(axis=-1)] = 0.0
        return values, ((1 - beta) * _centred(Q, ell) if grad else None)


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


#: Dirichlet concentrations of a random row, drawn per row and per side.
_ALPHAS = np.array([0.1, 1.0, 10.0])


def _draw_block(n: int, vocab: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """n (p, q) rows at one vocabulary; row j is near-disjoint, random,
    spiked or random as j % 4.

    Near-disjoint: p on the left half and q on the right, each with cross
    mass 10^U(-300, -2); the JSD sup lives out here. Spiked: p holds
    10^U(-300, -8) on token 0, where q holds a spike U(0.3, 0.9); the
    gradient inf-norm peaks for spikes around 0.7, not at point masses.
    Random: Dirichlet p and q, with q floored at 1e-300 (Dirichlet(0.1) can
    underflow to exact zero) so that log q is a usable logit row.
    """
    P, Q = np.empty((2, n, vocab))
    tokens, half = np.arange(vocab), vocab // 2
    t, u = 10.0 ** rng.uniform(-300, -2, (2, len(P[0::4]), 1))
    P[0::4] = np.where(tokens < half, (1 - t) / half, t / (vocab - half))
    Q[0::4] = np.where(tokens < half, u / half, (1 - u) / (vocab - half))
    t = 10.0 ** rng.uniform(-300, -8, (len(P[2::4]), 1))
    spike = rng.uniform(0.3, 0.9, t.shape)
    P[2::4] = np.where(tokens == 0, t, (1 - t) / (vocab - 1))
    Q[2::4] = np.where(tokens == 0, spike, (1 - spike) / (vocab - 1))
    alphas = _ALPHAS[rng.integers(3, size=(2, len(P[1::2]), 1))]
    gammas = rng.standard_gamma(alphas, size=(2, len(P[1::2]), vocab))
    gammas /= gammas.sum(-1, keepdims=True)
    P[1::2], Q[1::2] = gammas[0], np.maximum(gammas[1], 1e-300)
    return P / P.sum(-1, keepdims=True), Q / Q.sum(-1, keepdims=True)


def _beats(x: float, best: float) -> bool:
    """x is a new first maximum: above best, or the first NaN of the scan,
    which stays the maximum so that the bound checks see it."""
    return x > best or (math.isnan(x) and not math.isnan(best))


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
    always included. Vocabulary k of K gets len(range(k, n_trials, K)) of
    the trials, drawn as one `_draw_block` and scored as soon as it is
    drawn, so at most one block is held at a time. A witness is the first
    maximum in scan order: every vocabulary's point-mass pair, then the
    blocks in vocabulary order, each block in row order.
    """
    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    if not vocab_sizes or min(vocab_sizes) < 2:
        raise ValueError(f"vocab_sizes must be a non-empty list of sizes >= 2, got {vocab_sizes}")
    kind = jsd_kind(beta)
    vocab_sizes = [int(v) for v in vocab_sizes]
    max_loss = max_inf_norm = max_fwd = -math.inf

    def witness(v: int, p: np.ndarray, q: np.ndarray) -> dict:
        return {"vocab": v, "p": p.tolist(), "q": q.tolist()}

    for v in vocab_sizes:
        pm = np.eye(2, v)
        loss = batch(kind, pm[:1], pm[1:], grad=False)[0][0]
        if _beats(loss, max_loss):
            max_loss, witness_loss = loss, witness(v, *pm)
    for k, v in enumerate(vocab_sizes[:n_trials]):
        p, q = _draw_block(len(range(k, n_trials, len(vocab_sizes))), v, rng)
        validate_probs(p)
        validate_probs(q)
        z = np.log(q)
        validate_logits(z)
        q_soft = softmax_rows(z)
        losses = batch(kind, p, q, grad=False)[0]
        grad_norms = _inf_norms(batch(kind, p, q_soft)[1])
        max_fwd = np.maximum(max_fwd, _inf_norms(batch(FORWARD_KL, p, q_soft)[1]).max())
        i, j = int(np.argmax(losses)), int(np.argmax(grad_norms))
        if _beats(losses[i], max_loss):
            max_loss, witness_loss = losses[i], witness(v, p[i], q[i])
        if _beats(grad_norms[j], max_inf_norm):
            max_inf_norm, witness_grad = grad_norms[j], witness(v, p[j], q[j])

    return BoundProbeReport(
        beta=beta,
        n_trials=n_trials,
        vocab_sizes=vocab_sizes,
        max_loss=float(max_loss),
        max_inf_norm=float(max_inf_norm),
        max_fwd_inf_norm=float(max_fwd),
        loss_bound=jsd_loss_bound(beta),
        witness_loss=witness_loss,
        witness_grad=witness_grad,
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
