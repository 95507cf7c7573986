"""Forward KL, reverse KL, and JSD over categorical distributions.

Each divergence has one value formula and one gradient formula, both in the
array-native kernel `batch`: given (N, V) teacher and student rows it
returns the per-row values and, on request, the gradients in the student's
logits (the teacher is a fixed target). JSD's gradient in the student q is
the closed form (1 - beta) log(q/m): the two terms that reach q through the
mixture m cancel the +(1 - beta) of q log q. Each value is a weighted sum of
KL terms, written once per kind (`_terms`), each with the log ratio
np.log(a / b) repaired only where it is not finite (`_log_ratio`); JSD's
identity rule compares P with Q only on rows whose two terms tie. `batch`
takes one kind for all rows, or a kind per row: rows of one kind score
each term over all rows, and a few rows that differ in kind (the mode
fit's reverse-KL, JSD and forward-KL rows) stack every row's terms under
one log ratio and one row sum, each row still bit-identical to its
one-row call. Everything else wraps `batch`:
`divergence_value` and `logit_gradient` at the validated
`Distribution`/`LogitVector` edge, a central-difference oracle over all 2V
stencil rows in one call, and two probes. The JSD probe checks the loss and
gradient ceilings: it splits its trials over the vocabularies and cuts the
shares, in vocabulary order, into chunks of a fixed number of padded
entries (a large share fills single-vocabulary chunks, consecutive small
shares share one, zero-padded to its widest row). It draws each chunk's
near-disjoint, random and spiked rows and scores the whole chunk with one
`batch` call at the drawn students, passing the chunk's (vocab, rows) runs,
keeping only the running maxima and their first witnesses (point-mass pairs
first, then the rows in chunk order), so its peak memory is flat in the
trial count.
The reverse-KL probe shows the gradient blow-up as teacher mass vanishes on
student-supported tokens. Row sums and row dot products reduce each row as
the one-row numpy call would, so a stacked call of rows of one width is
bit-identical to one call per row where BLAS reduces a dot product alike
whatever the row count: on the OpenBLAS kernel the digests were pinned on,
not on every kernel (ROADMAP item 1). The runs contract extends this to rows
of several widths: for one kind, `batch` takes runs, (vocab, rows) pairs that
cover Q's rows in order, each row exactly 0 beyond its vocabulary in P and
Q. The elementwise work runs once over the padded block, and the row sums
and row dot products reduce each run's rows cut to its width (`_by_run`), so
padding never enters a reduction: each row's value, and its first vocab
gradient entries, are bit-identical to its call cut to its vocabulary.

Conventions: natural logs, 0*log(0) := 0, and the reverse direction is
defined as rev(p||q) := KL(q||p). Infinite losses are reported as a genuine
+inf sentinel, never clamped; training paths are expected to pre-floor
teacher targets (simplex.floor_and_renormalize) to stay finite.
"""

from __future__ import annotations

import dataclasses
import json
import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .simplex import Distribution, LogitVector, softmax_rows, validate_logits, validate_probs

#: Loose headline ceiling on the JSD logit gradient inf-norm.
JSD_GRAD_HEADLINE_BOUND = 2.0
#: Sharper ceiling 1/4 + 2/sqrt(e) from the term-by-term derivation.
JSD_GRAD_TIGHT_BOUND = 0.25 + 2.0 / math.sqrt(math.e)


@dataclass(frozen=True)
class DivergenceKind:
    """Selector for the divergence used as the distillation objective.

    beta is JSD's mixture weight; the two KL kinds have none and take the
    default 0.5 whatever is passed, so equal divergences compare and hash
    equal.
    """

    name: str
    beta: float = 0.5

    def __post_init__(self):
        if self.name not in ("forward_kl", "reverse_kl", "jsd"):
            raise ValueError(f"unknown divergence kind: {self.name!r}")
        if self.name != "jsd":
            object.__setattr__(self, "beta", 0.5)
        elif not 0.0 < self.beta < 1.0:
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
    """Loss value plus its gradient with respect to student logits.

    inf_norm, max |logit_grad|, is taken when read: the multi-teacher loss
    reads only the norm of its weighted sum, never its teachers'.
    """

    value: float
    logit_grad: np.ndarray

    @property
    def inf_norm(self) -> float:
        return float(np.abs(self.logit_grad).max())

    @property
    def is_finite(self) -> bool:
        return math.isfinite(self.value) and bool(np.all(np.isfinite(self.logit_grad)))


def _by_run(reduce, runs, *arrays: np.ndarray) -> np.ndarray:
    """reduce(*arrays) over each run's rows cut to that run's width, in
    order; runs are (vocab, rows) pairs that cover the rows. Zero padding
    thus never enters a row's reduction, so each row reduces as it would
    alone at its own width."""
    out, start = [], 0
    for vocab, n in runs:
        out.append(reduce(*(x[start : start + n, :vocab] for x in arrays)))
        start += n
    return np.concatenate(out)


def _row_dot(a: np.ndarray, b: np.ndarray, runs=None) -> np.ndarray:
    """Row dot products; stacked matmul reduces each row as np.dot does.
    With runs, each run's rows at its width (`_by_run`)."""
    if runs is not None:
        return _by_run(_row_dot, runs, a, b)
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _inf_norms(g: np.ndarray) -> np.ndarray:
    """Row-wise max |g|."""
    with np.errstate(invalid="ignore"):
        return np.max(np.abs(g), axis=-1)


def _log_ratio(a: np.ndarray, b: np.ndarray, mixture: bool = False) -> np.ndarray:
    """Entrywise log(a / b): 0 where a is 0, +inf where a positive a meets a
    null b, and log a - log b where a / b overflows (a denormal b).

    np.log(a / b) is taken first and repaired only when it is not all
    finite, which its sum tells in one pass (a finite log ratio is at most
    about 1500 in size, far from overflowing the sum): a masked copy puts 0
    wherever a is not positive; then, unless the sum was -inf (no +inf or
    NaN entry), the overflow and null-mixture rules apply wherever a
    positive a meets +inf. Rows without zeros or overflow pay for no mask,
    zero-padded rows for one masked pass.

    With mixture, b is a mixture with a positive weight on a, so a null b
    beside a positive a is a mixture that underflowed to 0 (a is then at
    most 2^-1075 over its weight): its log ratio is bounded by the log of
    that weight and is taken as 0, which moves a's term by less than 1e-300.
    """
    out = np.log(a / b)
    total = out.sum()
    if math.isfinite(total):
        return out
    np.copyto(out, 0.0, where=~(a > 0))
    if total != -math.inf and out.max() == math.inf:
        a, b = np.broadcast_arrays(a, b)  # one teacher row may serve all rows
        over = (out == math.inf) & (b > 0)
        out[over] = np.log(a[over]) - np.log(b[over])
        if mixture:
            out[b == 0] = 0.0
    return out


def _kl_rows(a: np.ndarray, log_ratio: np.ndarray, runs=None) -> np.ndarray:
    """Row-wise KL(a||b) from log_ratio = _log_ratio(a, b); a zero in a adds
    an exact 0 term to its row. With runs, the products are taken over the
    whole block and the sums over each run's rows at its width (`_by_run`)."""
    terms = a * log_ratio
    sums = terms.sum(axis=-1) if runs is None else _by_run(partial(np.sum, axis=-1), runs, terms)
    return np.maximum(sums, 0.0)


def _centred(Q: np.ndarray, ell: np.ndarray, runs=None) -> np.ndarray:
    """Logit gradient Q * (ell - E_Q ell) of a loss whose gradient in Q is ell."""
    return Q * (ell - _row_dot(Q, ell, runs)[:, None])


def _terms(kind: DivergenceKind, P, Q) -> tuple:
    """kind's value as weighted KL(A||B) terms, (weight, A, B): KL(P||Q) for
    forward KL, KL(Q||P) for reverse KL, and (1 - beta) KL(Q||m) + beta
    KL(P||m) for JSD, m = beta P + (1 - beta) Q (two terms add in either
    order to the same double)."""
    if kind.name == "forward_kl":
        return ((1.0, P, Q),)
    if kind.name == "reverse_kl":
        return ((1.0, Q, P),)
    beta = kind.beta
    m = beta * P + (1 - beta) * Q
    return ((1 - beta, Q, m), (beta, P, m))


def _one_kind(kind: DivergenceKind, P: np.ndarray, Q: np.ndarray, grad: bool, runs=None):
    """`batch` for rows of one kind: each of its terms over all rows, then
    the rest of its formula. JSD's rows with P == Q are 0: such a row's two
    terms tie, so P is compared with Q only on rows whose terms tie (the
    test `_mixed` uses). The logit gradient is Q - P for forward KL;
    otherwise the first term's A is Q, and it is that term's weight times
    Q (ell - E_Q ell) for its log ratio ell, with +inf on the teacher zeros
    and -inf elsewhere on a reverse-KL row of value +inf. With runs, only
    the row sums and dot products are cut to each run's width.
    """
    mixture = kind.name == "jsd"
    terms = _terms(kind, P, Q)
    weight, A, B = terms[0]
    ell = _log_ratio(A, B, mixture)
    first = _kl_rows(A, ell, runs)
    values = weight * first
    if mixture:
        _, (w, a, b) = terms
        second = _kl_rows(a, _log_ratio(a, b, mixture), runs)
        values += w * second
        tied = first == second
        if tied.any():
            # identity holds exactly; the mixture would round otherwise
            values[tied & (P == Q).all(axis=-1)] = 0.0
    if not grad:
        return values, None
    if kind.name == "forward_kl":
        return values, Q - P
    g = _centred(Q, ell, runs)
    g *= weight
    if kind.name == "reverse_kl":
        inf = values == math.inf
        if inf.any():
            g[inf] = np.where(np.broadcast_to(P, g.shape)[inf] == 0, math.inf, -math.inf)
    return values, g


def _mixed(kinds: tuple, P: np.ndarray, Q: np.ndarray, grad: bool):
    """`batch` for a few rows that differ in kind.

    One stack holds every row's first term, in row order, then the rows'
    further terms (JSD's second); one `_log_ratio` and one `_kl_rows` score
    it, and each row's terms add in Python floats in `_one_kind`'s order.
    `_one_kind`'s gradient rules then apply row by row: Q - P on a
    forward-KL row, else the first term's weight times its row of one
    `_centred` over all rows. A stack that may need its other rules is
    scored row by row by `_one_kind` instead: one with a non-finite value,
    which a null B under a positive A gives (JSD's mixture rule, reverse
    KL's +inf rows), or with a JSD row whose two terms score one value, as
    they do where P == Q. Each row is bit-identical to its one-row call.
    """
    n = len(Q)
    if not kinds or len(kinds) != n or len(P) not in (1, n):
        raise ValueError(f"{len(kinds)} kinds for {len(P)} teacher and {n} student rows")
    teachers = [P[0]] * n if len(P) < n else P
    rows = [_terms(kind, p, q) for kind, p, q in zip(kinds, teachers, Q)]
    further = [(r, term) for r, row in enumerate(rows) for term in row[1:]]
    stack = [row[0] for row in rows] + [term for _, term in further]
    A, B = np.array([[a for _, a, _ in stack], [b for _, _, b in stack]])
    L = _log_ratio(A, B)
    K = _kl_rows(A, L).tolist()
    # P == Q gives JSD's two terms one value
    if not math.isfinite(sum(K)) or any(K[j] == K[r] for j, (r, _) in enumerate(further, n)):
        scored = [_one_kind(kind, p[None], q[None], grad) for kind, p, q in zip(kinds, teachers, Q)]
        values = np.concatenate([v for v, _ in scored])
        return values, (np.concatenate([g for _, g in scored]) if grad else None)
    sums = [w * k for (w, _, _), k in zip(stack, K)]
    for j, (r, _) in enumerate(further, n):
        sums[r] += sums[j]
    values = np.array(sums[:n])
    if not grad:
        return values, None
    G = _centred(Q, L[:n])
    for r, (kind, (w, _, _)) in enumerate(zip(kinds, stack)):
        if kind.name == "forward_kl":
            np.subtract(Q[r], teachers[r], out=G[r])
        else:
            G[r] *= w
    return values, G


def _check_runs(kind, P: np.ndarray, Q: np.ndarray, runs) -> None:
    """Raise a ValueError naming what makes runs unusable for `batch`."""
    if not isinstance(kind, DivergenceKind):
        raise ValueError("runs take one DivergenceKind, not a tuple of kinds")
    if len(P) != len(Q):
        raise ValueError(f"runs need one teacher row per student row, got {len(P)} and {len(Q)}")
    vocab = Q.shape[-1]
    for width, n in runs:
        if not 2 <= width <= vocab or n < 0:
            raise ValueError(f"run ({width}, {n}) needs a width in 2..{vocab} and rows >= 0")
    covered = sum(n for _, n in runs)
    if covered != len(Q):
        raise ValueError(f"runs cover {covered} rows, Q has {len(Q)}")


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def batch(
    kind: DivergenceKind | tuple[DivergenceKind, ...],
    P: np.ndarray,
    Q: np.ndarray,
    grad: bool = True,
    runs: Sequence[tuple[int, int]] | None = None,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Divergence of teacher rows P from student rows Q, one value per row.

    P and Q are (N, V) probability arrays, or P is one row for every row of
    Q. kind is one DivergenceKind for every row, or a tuple with one kind per
    row of Q. Returns the N values, which do not depend on grad, and with
    grad the (N, V) gradients in the student's logits (else None). A student
    zero adds nothing, by 0 log 0 := 0. Inputs are not validated beyond a
    matching vocabulary and kind count: the wrappers check them at the API
    edge.

    runs, for one kind only, is a sequence of (vocab, rows) pairs that
    covers Q's rows in order, with one teacher row per student row; each row
    must be exactly 0 beyond its vocabulary in both P and Q. The row sums
    and dot products then reduce each run's rows cut to its width, so each
    row's value and its first vocab gradient entries are bit-identical to
    the call on that row cut to its vocabulary; JSD's padded gradient
    entries are 0. Malformed runs raise a ValueError naming the problem.

    Each kind's value is a weighted sum of KL terms (`_terms`). Rows of one
    kind, a tuple of equal kinds included, score those terms one at a time
    over all rows (`_one_kind`); rows that differ in kind, a few at a time
    as in a mode-fit step, stack every row's terms and score the stack at
    once (`_mixed`). Either way each row is bit-identical to its one-row
    one-kind call.

    Every log ratio is np.log(a / b), repaired only where it is not finite
    (`_log_ratio`): 0 where a is 0, the overflow and null-mixture rules
    where a positive a meets +inf. A JSD row with P == Q is exactly 0; its
    two terms tie, so P is compared with Q only on rows whose terms tie.
    Rows without zeros, like every training-step call, pay for neither
    repair nor comparison. numpy's divide, invalid and overflow warnings
    are off for the whole call.

    Each logit gradient is Q * (d - E_Q d) for the loss's gradient d in Q:
    Q - P for forward KL; d = log(Q/P) for reverse KL, +inf/-inf entries and
    value +inf on a teacher zero under a positive student (callers that want
    finite output floor P); d = (1 - beta) log(Q/m) for JSD, bounded.
    """
    if P.shape[-1] != Q.shape[-1]:
        raise ValueError(f"vocab mismatch: {P.shape[-1]} vs {Q.shape[-1]}")
    if runs is not None:
        _check_runs(kind, P, Q, runs)
    if isinstance(kind, DivergenceKind):
        return _one_kind(kind, P, Q, grad, runs)
    if kind and kind.count(kind[0]) == len(kind) == len(Q):
        return _one_kind(kind[0], P, Q, grad)
    return _mixed(kind, P, Q, grad)


def divergence_value(kind: DivergenceKind, p: Distribution, q: Distribution) -> float:
    """Evaluate the divergence between teacher p and student q.

    Returns +inf for forward KL when q misses p-support, and for reverse KL
    when p misses q-support. JSD is always finite and at most H(beta).
    """
    return float(batch(kind, p.probs[None], q.probs[None], grad=False)[0][0])


def logit_gradient(kind: DivergenceKind, p: Distribution, z: LogitVector) -> GradientReport:
    """Closed-form gradient of divergence(p, softmax(z)) in the logits z;
    see `batch` for the per-kind forms. The student row is z's own
    softmax_row, computed once per LogitVector."""
    values, g = batch(kind, p.probs[None], z.softmax_row[None])
    return GradientReport(float(values[0]), g[0])


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
        # the fields as they are: asdict would deep-copy the witness lists
        fields = {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}
        return json.dumps({"kind": "jsd", **fields}, indent=2)


#: Dirichlet concentrations of a random row, drawn per row and per side.
_ALPHAS = np.array([0.1, 1.0, 10.0])

#: Most padded entries (rows times the widest row) a chunk of the bound
#: sweep holds, so that its peak memory does not grow with the trial count.
_CHUNK_ENTRIES = 2**14


def _chunks(shares):
    """Cut (vocab, rows) shares, in order, into chunks of at most
    _CHUNK_ENTRIES padded entries; each chunk is a list of (vocab, rows).

    A chunk takes as many rows of the next share as fit at its new width
    and is full when none fits, so a large share splits into
    single-vocabulary chunks and consecutive small shares share one. A
    share of 0 rows adds nothing; a row wider than the bound is a chunk
    alone.
    """
    chunk, rows, width = [], 0, 0
    for vocab, count in shares:
        while count:
            wider = max(width, vocab)
            take = min(count, max(_CHUNK_ENTRIES // wider, 1) - rows)
            if take <= 0:
                yield chunk
                chunk, rows, width = [], 0, 0
                continue
            chunk.append((vocab, take))
            rows, width, count = rows + take, wider, count - take
    if chunk:
        yield chunk


def _draw_block(vocab: np.ndarray, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """One (p, q) row per entry of vocab, the row's vocabulary; row j is
    near-disjoint, random, spiked or random as j % 4.

    Rows are zero-padded to the widest vocabulary: each row sums to 1 over
    its own vocabulary and its padding is exactly 0 in p and q.
    Near-disjoint: p on the left half and q on the right, each with cross
    mass 10^U(-300, -2); the JSD sup lives out here. Spiked: p holds
    10^U(-300, -8) on token 0, where q holds a spike U(0.3, 0.9); the
    gradient inf-norm peaks for spikes around 0.7, not at point masses.
    Random: Dirichlet p and q, with q floored at 1e-300 (Dirichlet(0.1) can
    underflow to exact zero), which keeps every student interior.
    """
    width = int(vocab.max())
    P, Q = np.empty((2, len(vocab), width))
    tokens = np.arange(width)
    v = vocab[0::4, None]
    half = v // 2
    t, u = 10.0 ** rng.uniform(-300, -2, (2, len(v), 1))
    P[0::4] = np.where(tokens < half, (1 - t) / half, t / (v - half))
    Q[0::4] = np.where(tokens < half, u / half, (1 - u) / (v - half))
    v = vocab[2::4, None]
    t = 10.0 ** rng.uniform(-300, -8, (len(v), 1))
    spike = rng.uniform(0.3, 0.9, t.shape)
    P[2::4] = np.where(tokens == 0, t, (1 - t) / (v - 1))
    Q[2::4] = np.where(tokens == 0, spike, (1 - spike) / (v - 1))
    alphas = _ALPHAS[rng.integers(3, size=(2, len(P[1::2]), 1))]
    gammas = rng.standard_gamma(alphas, size=(2, len(P[1::2]), width))
    gammas /= gammas.sum(-1, keepdims=True)
    P[1::2], Q[1::2] = gammas[0], np.maximum(gammas[1], 1e-300)
    pad = tokens >= vocab[:, None]
    P[pad] = Q[pad] = 0.0
    return P / P.sum(-1, keepdims=True), Q / Q.sum(-1, keepdims=True)


def _beats(x: float, best: float) -> bool:
    """x is a new first maximum: above best, or the first NaN of the scan,
    which stays the maximum so that the bound checks see it."""
    return x > best or (math.isnan(x) and not math.isnan(best))


def _witness(p: np.ndarray, q: np.ndarray, vocab: int) -> dict:
    """A pair as a report names it: its rows cut to its vocabulary."""
    return {"vocab": int(vocab), "p": p[:vocab].tolist(), "q": q[:vocab].tolist()}


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
    the trials. The shares, in vocabulary order, are cut into `_chunks` of
    at most _CHUNK_ENTRIES padded entries; each chunk is drawn as one
    `_draw_block` and scored as soon as it is drawn, so the peak memory
    does not grow with n_trials. Each chunk is scored in one `batch` call
    whose runs are the chunk, which gives its JSD values and gradients at
    the drawn students, each its own softmax(log q) (positive on its
    vocabulary): by the runs contract each row is bit-identical to its call
    at its own vocabulary, and its padded gradient entries are 0, so its
    inf-norm is the cut row's too; the forward-KL gradient is Q - P, whose
    padding is 0. One argmax over the chunk's losses and one over its norms
    find the chunk's first maximum (or first NaN), in scan order.

    The loss and JSD gradient maxima are over every pair scored alone at
    its own vocabulary, as its witness is read, and a witness is the first
    maximum in scan order: the point-mass pair at the first vocabulary,
    then the rows in chunk order. The forward-KL maximum has no witness.
    """
    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    if not vocab_sizes or min(vocab_sizes) < 2:
        raise ValueError(f"vocab_sizes must be a non-empty list of sizes >= 2, got {vocab_sizes}")
    kind = jsd_kind(beta)
    vocab_sizes = [int(v) for v in vocab_sizes]
    max_inf_norm = max_fwd = -math.inf
    # Scored once: every zero of the pair adds an exact 0 term to its row
    # sums, so its value does not depend on |V| at any beta.
    pm = np.eye(2, vocab_sizes[0])
    max_loss = batch(kind, pm[:1], pm[1:], grad=False)[0][0]
    witness_loss = _witness(*pm, vocab_sizes[0])
    shares = ((v, len(range(k, n_trials, len(vocab_sizes)))) for k, v in enumerate(vocab_sizes))
    for chunk in _chunks(shares):
        vocab = np.repeat(*np.array(chunk).T)
        p, q = _draw_block(vocab, rng)
        validate_probs(p)
        validate_probs(q)
        max_fwd = np.maximum(max_fwd, _inf_norms(q - p).max())
        losses, g = batch(kind, p, q, runs=chunk)
        k = int(losses.argmax())  # the first NaN, else the first maximum
        if _beats(losses[k], max_loss):
            max_loss, witness_loss = losses[k], _witness(p[k], q[k], vocab[k])
        norms = _inf_norms(g)
        k = int(norms.argmax())
        if _beats(norms[k], max_inf_norm):
            max_inf_norm, witness_grad = norms[k], _witness(p[k], q[k], vocab[k])

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
