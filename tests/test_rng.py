"""Block draws of the coded-recovery experiment against numpy's own streams.

``substream_integers`` re-derives numpy's SeedSequence hashing, PCG64
seeding and bounded-integer draws. NEP 19 lets numpy change any of them
between feature releases; this property is what fails when it does, so
replay breaks in the tests before it breaks in a golden.
"""

import numpy as np
from hypothesis import example, given, settings, strategies as st

from nfcsim.field import FieldSpec
from nfcsim.rng import substream_integers

FIELDS = {m: FieldSpec(m) for m in range(1, 17)}


def numpy_rows(seed, start, stop, size, m):
    dtype = FIELDS[m].dtype
    return [
        np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(t,)))
        .integers(0, 2**m, size=size, dtype=dtype)
        for t in range(start, stop)
    ]


@settings(max_examples=300, deadline=None)
@given(
    seed=st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**200)),
    m=st.integers(1, 16),
    size=st.one_of(st.sampled_from([0, 1]), st.integers(0, 20).map(lambda k: 2 * k + 1),
                   st.integers(9, 200)),
    start=st.one_of(st.integers(0, 1_000), st.integers(2**32 - 6, 2**32 + 6),
                    st.integers(0, 2**40)),
    count=st.integers(0, 6),
)
@example(seed=2**64 + 1, m=16, size=5, start=2**32 - 3, count=6)  # keys of one and two words
@example(seed=0, m=1, size=0, start=0, count=3)
@example(seed=2**150 + 7, m=8, size=9, start=0, count=2)  # a seed of more than four words
def test_block_draws_match_numpy(seed, m, size, start, count):
    block = substream_integers(seed, start, start + count, size, m, FIELDS[m].dtype)
    assert block.dtype == FIELDS[m].dtype
    assert block.shape == (count, size)
    for row, expected in zip(block, numpy_rows(seed, start, start + count, size, m)):
        assert row.tobytes() == expected.tobytes()

