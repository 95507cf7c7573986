"""Categorical distributions and logit vectors with numeric hygiene.

Foundational value types used everywhere else: probability vectors on a
finite vocabulary, pre-softmax logit vectors, and seeded RNG streams.
All probability arithmetic is double precision and every log is natural.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

#: Smoothing floor applied to teacher targets during training. Theory probes
#: use eps=0 (exact semantics, infinite losses allowed).
DEFAULT_FLOOR = 1e-8

#: Largest allowed logit spread. Beyond ~745 the smallest softmax entry
#: underflows to exact zero in float64, breaking strict positivity.
_MAX_LOGIT_SPREAD = 700.0

_PROB_SUM_TOL = 1e-9


@dataclass(frozen=True)
class Distribution:
    """A point on the probability simplex over a finite vocabulary."""

    probs: np.ndarray

    def __post_init__(self):
        probs = np.array(self.probs, dtype=np.float64)
        if probs.ndim != 1:
            raise ValueError(f"probs must be 1-d, got shape {probs.shape}")
        if probs.size < 2:
            raise ValueError(f"vocab_size must be >= 2, got {probs.size}")
        validate_probs(probs)
        probs.flags.writeable = False
        object.__setattr__(self, "probs", probs)

    @property
    def vocab_size(self) -> int:
        return self.probs.size

    @staticmethod
    def uniform(vocab_size: int) -> "Distribution":
        return Distribution(np.full(vocab_size, 1.0 / vocab_size))

    @staticmethod
    def point_mass(index: int, vocab_size: int) -> "Distribution":
        probs = np.zeros(vocab_size)
        probs[index] = 1.0
        return Distribution(probs)

    @staticmethod
    def from_weights(weights: np.ndarray) -> "Distribution":
        """Normalize a vector of non-negative weights into a Distribution."""
        weights = np.asarray(weights, dtype=np.float64)
        total = weights.sum()
        if not np.isfinite(total) or total <= 0:
            raise ValueError("weights must have a positive finite sum")
        return Distribution(weights / total)


@dataclass(frozen=True)
class LogitVector:
    """Finite pre-softmax logits whose softmax is strictly positive.

    softmax_row is softmax_rows(logits), read-only and computed once at
    construction, so that every divergence taken at these logits (the K
    teacher gradients of one token loss) shares one softmax. It subtracts
    the max that validate_logits took, so the row's max is taken once.
    """

    logits: np.ndarray
    softmax_row: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        logits = np.array(self.logits, dtype=np.float64)
        if logits.ndim != 1:
            raise ValueError(f"logits must be 1-d, got shape {logits.shape}")
        if logits.size < 2:
            raise ValueError(f"vocab_size must be >= 2, got {logits.size}")
        top = validate_logits(logits)
        logits.flags.writeable = False
        row = softmax_rows(logits, top)
        row.flags.writeable = False
        object.__setattr__(self, "logits", logits)
        object.__setattr__(self, "softmax_row", row)

    @property
    def vocab_size(self) -> int:
        return self.logits.size


def validate_probs(probs: np.ndarray) -> None:
    """Raise ValueError unless every row (last axis) lies on the simplex:
    finite, non-negative entries summing to 1 within 1e-9.

    Valid input passes one check, of the minimum and the row sums (a NaN or
    -inf fails the minimum, a +inf its row sum, before any arithmetic could
    warn on it). A row sum that overflows fails it too: numpy warns, and
    where warnings are errors the check's RuntimeWarning is caught here.
    Only input that fails the check meets the entrywise checks, which word
    the error: non-finite, then negative, then the first bad row sum (inf
    where it overflows).
    """
    try:
        if probs.min(initial=0.0) >= 0 and (abs(probs.sum(axis=-1) - 1.0) <= _PROB_SUM_TOL).all():
            return
    except RuntimeWarning:  # the row sums overflowed
        pass
    if not np.isfinite(probs).all():
        raise ValueError("probs contain non-finite entries")
    if (probs < 0).any():
        raise ValueError(f"negative probability entry: min={probs.min()}")
    with np.errstate(over="ignore"):
        totals = probs.sum(axis=-1)
    bad = abs(totals - 1.0) > _PROB_SUM_TOL
    if bad.any():
        total = float(np.extract(bad, totals)[0])
        raise ValueError(f"probs sum to {total}, expected 1 within {_PROB_SUM_TOL}")


def validate_logits(logits: np.ndarray) -> float:
    """Raise ValueError unless every row (last axis) is finite with a spread
    small enough that its softmax stays strictly positive; return the
    largest entry.

    Valid input passes one check: the spread over all its entries (for one
    row, the row spread), taken in Python floats so that a NaN or an
    infinite entry fails it without a warning. Only input that fails it
    meets the row-wise checks, which word the error (non-finite, then the
    largest row spread) or accept stacked rows that sit far apart. A finite
    row whose spread overflows has spread inf.
    """
    top = float(logits.max())
    if top - float(logits.min()) <= _MAX_LOGIT_SPREAD:
        return top
    if not np.isfinite(logits).all():
        raise ValueError("logits contain non-finite entries")
    with np.errstate(over="ignore"):
        spread = float((logits.max(axis=-1) - logits.min(axis=-1)).max())
    if spread > _MAX_LOGIT_SPREAD:
        raise ValueError(
            f"logit spread {spread:.1f} exceeds {_MAX_LOGIT_SPREAD}; "
            "softmax would underflow to exact zero"
        )
    return top


def softmax_rows(logits: np.ndarray, top: float | None = None) -> np.ndarray:
    """Softmax of every row (last axis) with max-subtraction; unvalidated.
    A caller that already took the max of a single row passes it as top."""
    if top is None:
        top = logits.max(axis=-1, keepdims=True)
    expz = np.exp(logits - top)
    return expz / expz.sum(axis=-1, keepdims=True)


def softmax(z: LogitVector) -> Distribution:
    """Softmax with max-subtraction; shift invariant and strictly positive."""
    return Distribution(z.softmax_row)


def xlogx(x: np.ndarray) -> np.ndarray:
    """Elementwise x*log(x) with the explicit 0*log(0) := 0 branch."""
    x = np.asarray(x, dtype=np.float64)
    out = np.zeros_like(x)
    pos = x > 0
    out[pos] = x[pos] * np.log(x[pos])
    return out


def entropy(p: Distribution) -> float:
    """Shannon entropy in nats; 0 at point masses, log|V| at uniform."""
    return float(-xlogx(p.probs).sum())


def draw(probs: np.ndarray, u):
    """Inverse-CDF token ids from probability rows (last axis) at the
    uniforms u; unvalidated.

    Each row's cumulative sum is divided by its last entry, and the token is
    the count of its entries at or below u: searchsorted(side="right") on a
    non-decreasing cdf, so a zero entry is never drawn. u broadcasts against
    the leading axes of probs: one uniform per row, or any number of them
    for one row. With u = rng.random(size), one row gives the draws of
    rng.choice(probs.size, size=size, p=probs), and the same generator state
    afterwards, without choice's argument checks; rows of one width reduce
    as one row does, so each row draws as it would alone. An int for a
    scalar u, else an int64 array of the broadcast shape.
    """
    cdf = np.cumsum(probs, axis=-1)
    cdf /= cdf[..., -1:]
    idx = (cdf <= np.asarray(u)[..., None]).sum(axis=-1)
    return int(idx) if idx.ndim == 0 else idx


def sample(p: Distribution, rng: np.random.Generator, size: int | tuple | None = None):
    """Draw token id(s) from p by `draw` on p renormalised at rng.random(size),
    which draws as rng.choice(p.vocab_size, size=size, p=p.probs / p.probs.sum())
    does. Deterministic given the generator state."""
    return draw(p.probs / p.probs.sum(), rng.random(size))


def floor_rows(probs: np.ndarray, eps: float) -> np.ndarray:
    """Raise every entry of every row (last axis) to at least eps, then
    renormalize each row; unvalidated. eps=0 returns probs itself."""
    vocab = probs.shape[-1]
    if not 0 <= eps < 1.0 / vocab:
        raise ValueError(f"eps must be in [0, 1/|V|) = [0, {1.0 / vocab}), got {eps}")
    if eps == 0:
        return probs
    floored = np.maximum(probs, eps)
    return floored / floored.sum(axis=-1, keepdims=True)


def floor_and_renormalize(p: Distribution, eps: float) -> Distribution:
    """Raise every entry to at least eps, then renormalize.

    eps=0 is the identity; the uniform distribution is a fixed point for any
    valid eps. Every output entry is at least eps/(1 + |V|*eps).
    """
    floored = floor_rows(p.probs, eps)
    return p if eps == 0 else Distribution(floored)


@dataclass(frozen=True)
class RngSeed:
    """Master seed from which labeled, independent streams are derived.

    The same (seed, label) pair always yields a generator producing a
    bit-identical draw sequence, so adding a new stream never perturbs
    existing ones.
    """

    seed: int = field(default=0)

    def __post_init__(self):
        if not 0 <= int(self.seed) < 2**64:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed}")
        object.__setattr__(self, "seed", int(self.seed))

    def stream(self, label: str = "") -> np.random.Generator:
        """Derive an independent generator for the given label."""
        digest = hashlib.sha256(label.encode("utf-8")).digest()
        words = [int.from_bytes(digest[i : i + 4], "little") for i in range(0, 16, 4)]
        ss = np.random.SeedSequence([self.seed, *words])
        return np.random.Generator(np.random.PCG64(ss))
