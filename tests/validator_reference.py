"""The simplex validators as they were before their one-check fast path.

Test-only oracles: the library's validate_probs and validate_logits must
accept exactly what these accept and raise the same messages. Each runs the
entrywise checks in their original order on every call.
"""

from __future__ import annotations

import numpy as np

from debatekd.simplex import _MAX_LOGIT_SPREAD, _PROB_SUM_TOL


def validate_probs(probs: np.ndarray) -> None:
    if not np.isfinite(probs).all():
        raise ValueError("probs contain non-finite entries")
    if (probs < 0).any():
        raise ValueError(f"negative probability entry: min={probs.min()}")
    totals = probs.sum(axis=-1)
    bad = abs(totals - 1.0) > _PROB_SUM_TOL
    if bad.any():
        total = float(np.extract(bad, totals)[0])
        raise ValueError(f"probs sum to {total}, expected 1 within {_PROB_SUM_TOL}")


def validate_logits(logits: np.ndarray) -> None:
    if not np.isfinite(logits).all():
        raise ValueError("logits contain non-finite entries")
    spread = float((logits.max(axis=-1) - logits.min(axis=-1)).max())
    if spread > _MAX_LOGIT_SPREAD:
        raise ValueError(
            f"logit spread {spread:.1f} exceeds {_MAX_LOGIT_SPREAD}; "
            "softmax would underflow to exact zero"
        )
