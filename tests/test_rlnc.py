"""Coded recovery: coefficient propagation, decoding, rank statistics."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from nfcsim.errors import InconsistentDimensions, NotATree
from nfcsim.field import FieldSpec
from nfcsim.graph import balanced_tree_topology, build_graph, random_tree_topology, star_topology
from nfcsim.rlnc import (
    CodedPacket,
    DecoderState,
    RlncNetwork,
    destination_decode,
    run_recovery_experiment,
)
from reference_rlnc import (
    atomic_recode,
    binomial_region,
    exact_success_by_pass,
    pass_slots,
    source_encode,
)
from test_properties import EDGE_TREES, edge_tree

GF2 = FieldSpec(1)
GF4 = FieldSpec(2)
GF256 = FieldSpec(8)


class FixedRng:
    """Stands in for a Generator, returning scripted coefficient draws."""

    def __init__(self, draws):
        self.draws = list(draws)

    def integers(self, low, high, size=None, dtype=None):
        out = np.array(self.draws[:size], dtype=dtype)
        self.draws = self.draws[size:]
        return out


def test_source_encode_unit_vector():
    packet = source_encode(1, np.array([5], dtype=np.uint8), 3, GF256)
    assert packet.coding_vector.tolist() == [0, 1, 0]
    assert packet.payload.tolist() == [5]
    single = source_encode(0, np.array([9], dtype=np.uint8), 1, GF256)
    assert single.coding_vector.tolist() == [1]


def test_atomic_recode_forced_coefficients():
    children = [
        source_encode(0, np.array([1, 0, 1], dtype=np.uint8), 2, GF2),
        source_encode(1, np.array([0, 0, 1], dtype=np.uint8), 2, GF2),
    ]
    out = atomic_recode(children, FixedRng([1, 1]), GF2)
    assert out.coding_vector.tolist() == [1, 1]
    assert out.payload.tolist() == [1, 0, 0]  # xor of the payloads


def test_atomic_recode_single_child_identity():
    child = source_encode(0, np.array([7, 9], dtype=np.uint8), 1, GF256)
    out = atomic_recode([child], FixedRng([1]), GF256)
    assert np.array_equal(out.payload, child.payload)
    assert np.array_equal(out.coding_vector, child.coding_vector)


def test_atomic_recode_rejects_mixed_dimensions():
    a = source_encode(0, np.array([1], dtype=np.uint8), 2, GF256)
    b = source_encode(0, np.array([1, 2], dtype=np.uint8), 2, GF256)
    with pytest.raises(InconsistentDimensions):
        atomic_recode([a, b], FixedRng([1, 1]), GF256)
    with pytest.raises(InconsistentDimensions):
        atomic_recode([], FixedRng([]), GF256)


def test_recode_payload_consistent_with_coding_vector():
    rng = np.random.default_rng(21)
    sources = GF256.random_elements(rng, (4, 8))
    packets = [source_encode(i, sources[i], 4, GF256) for i in range(4)]
    for _ in range(20):
        mixed = atomic_recode(packets, rng, GF256)
        expected = GF256.combine(mixed.coding_vector, sources)
        assert np.array_equal(mixed.payload, expected)
        packets = packets[1:] + [mixed]  # keep recoding recodes


def test_decoder_state_rank_monotone():
    state = DecoderState(field=GF2, n_sources=2)
    p1 = CodedPacket(np.array([1], dtype=np.uint8), np.array([1, 1], dtype=np.uint8))
    assert state.add(p1) == 1
    assert state.add(p1) == 1  # dependent row changes nothing
    p2 = CodedPacket(np.array([0], dtype=np.uint8), np.array([0, 1], dtype=np.uint8))
    assert state.add(p2) == 2
    assert state.rank == 2


def test_decoder_add_rejects_negative_coefficients():
    state = DecoderState(field=GF256, n_sources=2)
    with pytest.raises(ValueError, match="outside GF"):
        state.add(CodedPacket(np.array([1]), np.array([1, -1])))
    assert state.rank == 0


def test_decoder_add_rejects_coefficients_past_the_field():
    state = DecoderState(field=GF256, n_sources=2)
    with pytest.raises(ValueError, match="outside GF"):
        state.add(CodedPacket(np.array([1]), np.array([300, 1])))
    assert state.rank == 0


def test_decoder_add_rejects_fractional_coefficients():
    state = DecoderState(field=GF256, n_sources=2)
    with pytest.raises(ValueError, match="whole"):
        state.add(CodedPacket(np.array([1]), np.array([1.5, 1.0])))
    assert state.rank == 0


def test_decoder_add_rejects_a_coding_vector_of_another_length():
    state = DecoderState(field=GF256, n_sources=2)
    with pytest.raises(InconsistentDimensions, match=r"coding vector shape \(3,\) != \(2,\)"):
        state.add(CodedPacket(np.array([1], dtype=np.uint8), np.array([1, 0, 1], dtype=np.uint8)))
    assert state.rank == 0


def test_decoder_add_rejects_a_payload_of_another_length():
    state = DecoderState(field=GF256, n_sources=2)
    state.add(CodedPacket(np.array([1, 2], dtype=np.uint8), np.array([1, 0], dtype=np.uint8)))
    with pytest.raises(InconsistentDimensions, match="payload"):
        state.add(CodedPacket(np.array([3], dtype=np.uint8), np.array([0, 1], dtype=np.uint8)))
    assert state.rank == 1
    # A first pair that adds no rank still fixes the payload length.
    state = DecoderState(field=GF256, n_sources=2)
    assert state.add(CodedPacket(np.array([1, 2], dtype=np.uint8), np.zeros(2, dtype=np.uint8))) == 0
    with pytest.raises(InconsistentDimensions, match="payload"):
        state.add(CodedPacket(np.array([3], dtype=np.uint8), np.array([0, 1], dtype=np.uint8)))
    assert state.rank == 0
    assert state.add(CodedPacket(np.array([3, 4], dtype=np.uint8), np.array([0, 1], dtype=np.uint8))) == 1


def test_destination_decode_unit_vectors():
    state = DecoderState(field=GF2, n_sources=2)
    state.add(CodedPacket(np.array([1], dtype=np.uint8), np.array([1, 0], dtype=np.uint8)))
    state.add(CodedPacket(np.array([0], dtype=np.uint8), np.array([0, 1], dtype=np.uint8)))
    outcome = destination_decode(state)
    assert outcome.success
    assert outcome.packets.tolist() == [[1], [0]]


def test_destination_decode_insufficient():
    state = DecoderState(field=GF2, n_sources=2)
    row = CodedPacket(np.array([1], dtype=np.uint8), np.array([1, 1], dtype=np.uint8))
    state.add(row)
    state.add(row)
    outcome = destination_decode(state)
    assert not outcome.success
    assert outcome.rank == 1
    assert outcome.packets is None
    assert destination_decode(DecoderState(field=GF2, n_sources=2)).rank == 0


def test_decode_recovers_exact_sources_gf256():
    rng = np.random.default_rng(22)
    sources = GF256.random_elements(rng, (5, 16))
    state = DecoderState(field=GF256, n_sources=5)
    while state.rank < 5:
        vector = GF256.random_elements(rng, 5)
        payload = GF256.combine(vector, sources)
        state.add(CodedPacket(payload, vector))
    outcome = destination_decode(state)
    assert outcome.success
    assert np.array_equal(outcome.packets, sources)  # bit-identical


def test_pass_once_coding_vector_consistency_random_trees():
    rng = np.random.default_rng(23)
    for _ in range(15):
        n = int(rng.integers(2, 17))
        g = build_graph(random_tree_topology(rng, n, max_depth=4))
        net = RlncNetwork(g, GF256, payload_length=6)
        payloads = net.random_source_payloads(rng)
        for _generation in range(3):
            packets = net.pass_once(payloads, rng)
            for node, packet in packets.items():
                expected = GF256.combine(packet.coding_vector, payloads)
                assert np.array_equal(packet.payload, expected), g.names[node]


def test_experiment_star_gf2_matches_enumeration_oracle():
    invertible = sum(
        1
        for bits in itertools.product((0, 1), repeat=4)
        if (bits[0] * bits[3] + bits[1] * bits[2]) % 2 == 1
    )
    oracle = invertible / 16  # 6/16
    g = build_graph(star_topology(2))
    stats = run_recovery_experiment(g, GF2, n_prime=2, trials=20_000, seed=99)
    assert abs(stats.probability - oracle) < 0.02


def test_experiment_star_matches_iid_row_oracle_within_3_se():
    q, n, trials = 4, 3, 20_000
    oracle = 1.0
    for i in range(1, n + 1):
        oracle *= 1.0 - q**-i
    g = build_graph(star_topology(n))
    stats = run_recovery_experiment(g, GF4, n_prime=n, trials=trials, seed=5)
    se = (oracle * (1 - oracle) / trials) ** 0.5
    assert abs(stats.probability - oracle) <= 3 * se


def test_experiment_zero_passes_never_succeeds():
    g = build_graph(star_topology(2))
    stats = run_recovery_experiment(g, GF2, n_prime=0, trials=50, seed=1)
    assert stats.probability == 0.0


def test_experiment_monotone_and_nested_in_n_prime():
    g = build_graph(star_topology(2))
    long_run = run_recovery_experiment(g, GF2, n_prime=6, trials=4000, seed=42)
    curve = long_run.success_by_pass
    assert all(curve[i] <= curve[i + 1] for i in range(len(curve) - 1))
    for n_prime in (2, 4):
        short_run = run_recovery_experiment(g, GF2, n_prime=n_prime, trials=4000, seed=42)
        assert short_run.successes == curve[n_prime - 1]


def test_experiment_deterministic():
    g = build_graph(star_topology(2))
    a = run_recovery_experiment(g, GF256, n_prime=3, trials=500, seed=7)
    b = run_recovery_experiment(g, GF256, n_prime=3, trials=500, seed=7)
    assert a == b
    c = run_recovery_experiment(g, GF256, n_prime=3, trials=500, seed=8)
    assert c.successes != a.successes or c.success_by_pass != a.success_by_pass


def test_experiment_requires_tree():
    from nfcsim.graph import NodeRole, TopologyConfig

    config = TopologyConfig(
        roles={"s0": NodeRole.SOURCE, "d0": NodeRole.DESTINATION, "d1": NodeRole.DESTINATION},
        children={"d0": ["s0"], "d1": ["s0"]},
        mode="dag",
    )
    g = build_graph(config)
    with pytest.raises(NotATree):
        RlncNetwork(g, GF2)


def test_stats_csv_row_columns():
    g = build_graph(star_topology(2))
    stats = run_recovery_experiment(g, GF2, n_prime=2, trials=10, seed=0)
    row = stats.csv_row()
    assert tuple(row.keys()) == stats.CSV_COLUMNS
    assert row["N"] == 2 and row["trials"] == 10


def assert_experiment_within_exact(graph, field, n_prime, trials, seed):
    """Every pass's success count falls in the binomial region of the
    exact probability, at 1e-6 per check; returns the exact curve."""
    exact = exact_success_by_pass(graph, field, n_prime)
    stats = run_recovery_experiment(graph, field, n_prime, trials, seed)
    for k, (count, p) in enumerate(zip(stats.success_by_pass, exact, strict=True)):
        region = binomial_region(trials, p)
        assert count in region, f"pass {k + 1}: {count} of {trials}, p={p}, {region}"
    return exact


# The random tree (generator seed 2) sends its 4 sources through one relay
# and then two single-child relays: every pass's one row is the star's row
# times two coefficients, zero with probability 3/4 over GF(2).
EXACT_CASES = {
    "star2_gf2": (star_topology(2), 1, 2, Fraction(6, 16)),  # criterion 01
    "star3_gf2": (star_topology(3), 1, 4, Fraction(315, 512)),
    "balanced4_gf2": (balanced_tree_topology(4, 2), 1, 4, Fraction(11025, 16384)),
    "balanced4_gf4": (balanced_tree_topology(4, 2), 2, 3, Fraction(893025, 1048576)),
    "random4_gf2": (random_tree_topology(np.random.default_rng(2), 4), 1, 4,
                    Fraction(315, 262144)),
}


@pytest.mark.parametrize("case", sorted(EXACT_CASES))
def test_exact_rank_oracle_values_and_the_experiment(case):
    topology, m, n_prime, recovered = EXACT_CASES[case]
    exact = assert_experiment_within_exact(build_graph(topology), FieldSpec(m), n_prime,
                                           trials=40_000, seed=99)
    assert exact[-1] == recovered


def test_exact_rank_oracle_random_case_is_a_chain_above_a_star():
    topology = EXACT_CASES["random4_gf2"][0]
    assert topology.children == {
        "a1_0": ["s0", "s1", "s2", "s3"], "a2_0": ["a1_0"], "a3_0": ["a2_0"], "d0": ["a3_0"],
    }


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_exact_rank_oracle_matches_star_closed_form(n, m):
    """A star's destination gets one uniform row a pass, so rank N by pass
    k has probability prod_{i<N} (1 - q^(i-k)), and 0 while k < N."""
    q = 2**m
    exact = exact_success_by_pass(build_graph(star_topology(n)), FieldSpec(m), n + 2)
    closed = [
        Fraction(0) if k < n else math.prod(1 - Fraction(1, q ** (k - i)) for i in range(n))
        for k in range(1, n + 3)
    ]
    assert list(exact) == closed


# Every edge shape over GF(2) and GF(4), but single_child_chain over GF(4)
# (4^6 choices a pass).
EDGE_CASES = [
    (shape, m) for shape in sorted(EDGE_TREES) for m in (1, 2)
    if 2 ** (m * pass_slots(edge_tree(EDGE_TREES[shape]))) <= 2**10
]


@pytest.mark.parametrize("shape, m", EDGE_CASES)
def test_exact_rank_oracle_on_edge_tree_shapes(shape, m):
    graph = edge_tree(EDGE_TREES[shape])
    exact = assert_experiment_within_exact(graph, FieldSpec(m), 4, trials=4000, seed=m)
    assert all(a <= b for a, b in zip(exact, exact[1:]))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    tree_seed=st.integers(0, 2**32 - 1),
    n_sources=st.integers(1, 4),
    m=st.sampled_from([1, 2]),
    n_prime=st.integers(1, 5),
)
def test_experiment_matches_exact_rank_oracle_on_random_trees(tree_seed, n_sources, m, n_prime):
    """Path products (Ho et al. 2006) against an exhaustive recode of unit
    vectors: every pass's success count at a fixed seed lies in the exact
    binomial region. GF(4)^4 has 529 subspaces, each joined with every
    span a pass delivers, which takes seconds, so N = 4 runs over GF(2)
    here and over GF(4) in the balanced4_gf4 case."""
    assume(2 ** (m * n_sources) <= 2**6)
    graph = build_graph(random_tree_topology(np.random.default_rng(tree_seed), n_sources))
    assume(2 ** (m * pass_slots(graph)) <= 2**10)
    assert_experiment_within_exact(graph, FieldSpec(m), n_prime, trials=4000, seed=17)
