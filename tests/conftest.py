import hypothesis.strategies as st
import numpy as np
from hypothesis import assume

from debatekd.simplex import Distribution

#: numpy version the pinned sha256 digests were taken on; other versions
#: may round differently, so the digest tests skip there.
DIGEST_NUMPY = "2.4.6"


@st.composite
def probability_vectors(draw, min_size=2, max_size=16, min_entry=1e-6):
    """Probability vectors; strictly positive unless min_entry is 0."""
    size = draw(st.integers(min_value=min_size, max_value=max_size))
    raw = draw(
        st.lists(
            st.floats(min_value=min_entry, max_value=1e3, allow_nan=False),
            min_size=size,
            max_size=size,
        )
    )
    vec = np.asarray(raw)
    assume(vec.sum() > 0)
    return vec / vec.sum()


@st.composite
def distributions(draw, min_size=2, max_size=16):
    return Distribution(draw(probability_vectors(min_size=min_size, max_size=max_size)))


@st.composite
def logit_vectors(draw, min_size=2, max_size=16):
    size = draw(st.integers(min_value=min_size, max_value=max_size))
    raw = draw(
        st.lists(
            st.floats(min_value=-30, max_value=30, allow_nan=False),
            min_size=size,
            max_size=size,
        )
    )
    return np.asarray(raw)
