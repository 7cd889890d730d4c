"""Block draws of the coded-recovery experiment against numpy's own streams.

``substream_integers`` re-derives numpy's SeedSequence hashing, PCG64
seeding and bounded-integer draws. NEP 19 lets numpy change any of them
between feature releases; this property is what fails when it does, so
replay breaks in the tests before it breaks in a golden.

A run's own streams (data, loss, init, dropout) must stay apart when
failures.seed keeps its default, the scenario seed.
"""

from pathlib import Path

import numpy as np
from hypothesis import example, given, settings, strategies as st

from nfcsim.field import FieldSpec
from nfcsim.rng import DATA, INIT, substream, substream_integers
from nfcsim.scenario import load_scenario_file

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

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


def test_a_default_failures_seed_draws_four_distinct_streams():
    """neural_tree.yaml leaves failures.seed at its seed, so a dropout key
    equal to the data key would drop nodes by the uniforms of the features."""
    s = load_scenario_file(SCENARIOS / "neural_tree.yaml").scenario
    assert s.failures.seed == s.seed and s.failures.node_dropout_p > 0
    dropout, loss = s.failures.streams()
    streams = [substream(s.seed, DATA), loss, substream(s.seed, INIT), dropout]
    firsts = [set(rng.random(4).tolist()) for rng in streams]
    assert all(a.isdisjoint(b) for i, a in enumerate(firsts) for b in firsts[i + 1:])
