"""Randomized properties of the generation loop and the coded-recovery experiment.

Consensus is the average decomposition run as a custom assignment plus
the harmonic fold, so on any tree, dropout rate and seed the two
applications meter, drop and audit identically, and the consensus
estimate is the running mean of the values custom delivered.

The recovery experiment runs blocks of trials through one batched rank
kernel; a trial-by-trial oracle built on the packet API and full row
reduction must give the same successes, pass by pass.
"""

import math
from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st

from nfcsim import rlnc
from nfcsim.afc import decompose_average
from nfcsim.engine import DataModel, Scenario, run_scenario
from nfcsim.field import FieldSpec, matrix_rank
from nfcsim.graph import NodeRole, build_graph, random_tree_topology, star_topology
from nfcsim.learning.neural import FailureModel
from nfcsim.rlnc import (
    DecoderState,
    add_rows,
    atomic_recode,
    run_recovery_experiment,
    source_encode,
    trial_rng,
)

FIELDS = {m: FieldSpec(m) for m in (1, 4, 8, 12, 16)}


@settings(max_examples=40, deadline=None)
@given(
    tree_seed=st.integers(0, 2**32 - 1),
    n_sources=st.integers(1, 12),
    dropout_p=st.floats(0.0, 0.6),
    seed=st.integers(0, 2**32 - 1),
)
def test_consensus_is_custom_average_plus_fold(tree_seed, n_sources, dropout_p, seed):
    topology = random_tree_topology(np.random.default_rng(tree_seed), n_sources)
    common = dict(
        topology=topology,
        seed=seed,
        generations=12,
        packet_length=2,
        failures=FailureModel(node_dropout_p=dropout_p, seed=seed),
        data=DataModel(mean=5.0, std=1.0),
    )
    consensus = run_scenario(Scenario(application="consensus", **common), audit=True)
    custom = run_scenario(
        Scenario(
            application="custom", assignment=decompose_average(build_graph(topology)), **common
        ),
        audit=True,
    )
    assert consensus.tables["arcs"] == custom.tables["arcs"]
    assert consensus.audit_events == custom.audit_events
    consensus_rows = consensus.tables["trajectory"][1]
    custom_rows = custom.tables["trajectory"][1]
    assert [r["dropped_nodes"] for r in consensus_rows] == [
        r["dropped_nodes"] for r in custom_rows
    ]
    delivered: list[float] = []
    for consensus_row, custom_row in zip(consensus_rows, custom_rows, strict=True):
        if math.isfinite(custom_row["value"]):
            delivered.append(custom_row["value"])
        running_mean = float(np.mean(delivered)) if delivered else 0.0
        assert math.isclose(consensus_row["value"], running_mean, rel_tol=1e-12)


class ScriptedRng:
    """Stands in for a Generator, handing out pre-drawn values in order."""

    def __init__(self, draws):
        self.draws = draws

    def integers(self, low, high, size=None, dtype=None):
        out, self.draws = self.draws[:size], self.draws[size:]
        return out


def scalar_first_full_rank(graph, field, n_prime, trials, seed, payload_length):
    """Trial by trial: the pass after which rank first reached N, or None.

    Each trial spends the same draw block as the experiment (source
    payloads, then every pass's local coefficients node by node in
    topological order), recodes through the packet API and takes the
    rank of every pair collected so far by full row reduction.
    """
    n = len(graph.sources)
    atomics = [v for v in graph.topo_order if graph.roles[v] is NodeRole.ATOMIC]
    dest_children = graph.in_neighbors[graph.destinations[0]]
    per_pass = sum(len(graph.in_neighbors[a]) for a in atomics)
    first_full = []
    for trial in range(trials):
        block = field.random_elements(
            trial_rng(seed, trial), n * payload_length + n_prime * per_pass
        )
        payloads = block[: n * payload_length].reshape(n, payload_length)
        coefficients = ScriptedRng(block[n * payload_length :])
        leaves = {s: source_encode(i, payloads[i], n, field) for i, s in enumerate(graph.sources)}
        collected, reached = [], None
        for k in range(n_prime):
            packets = dict(leaves)
            for a in atomics:
                children = [packets[c] for c in graph.in_neighbors[a]]
                packets[a] = atomic_recode(children, coefficients, field)
            collected += [packets[c].coding_vector for c in dest_children]
            if reached is None and matrix_rank(field, np.stack(collected)) == n:
                reached = k
        first_full.append(reached)
    return first_full


def summarize(first_full, n_prime):
    """(successes, success_by_pass) of a list of first-full-rank passes."""
    by_pass = tuple(
        sum(1 for r in first_full if r is not None and r <= k) for k in range(n_prime)
    )
    return sum(1 for r in first_full if r is not None), by_pass


@settings(max_examples=40, deadline=None)
@given(
    tree_seed=st.integers(0, 2**32 - 1),
    n_sources=st.integers(1, 10),
    m=st.sampled_from(sorted(FIELDS)),
    payload_length=st.sampled_from([1, 3]),
    n_prime=st.sampled_from([0, 1, 5]),
    trials=st.sampled_from([3, 8, 13, 16]),
    seed=st.integers(0, 2**32 - 1),
)
def test_batched_experiment_matches_scalar_oracle(
    tree_seed, n_sources, m, payload_length, n_prime, trials, seed
):
    field = FIELDS[m]
    graph = build_graph(random_tree_topology(np.random.default_rng(tree_seed), n_sources))
    with mock.patch.object(rlnc, "TRIALS_PER_BLOCK", 8):  # below, at and across blocks
        stats = run_recovery_experiment(graph, field, n_prime, trials, seed, payload_length)
    oracle = scalar_first_full_rank(graph, field, n_prime, trials, seed, payload_length)
    assert (stats.successes, stats.success_by_pass) == summarize(oracle, n_prime)


def test_batched_experiment_matches_scalar_oracle_at_block_size():
    graph = build_graph(star_topology(3))
    field = FIELDS[1]
    trials = rlnc.TRIALS_PER_BLOCK + 37
    oracle = scalar_first_full_rank(graph, field, 4, trials, 5, 2)
    assert 0 < summarize(oracle, 4)[0] < trials  # the check sees failures and successes
    for count in (rlnc.TRIALS_PER_BLOCK, trials):
        stats = run_recovery_experiment(graph, field, 4, count, 5, 2)
        assert (stats.successes, stats.success_by_pass) == summarize(oracle[:count], 4)


@settings(max_examples=60, deadline=None)
@given(
    m=st.sampled_from(sorted(FIELDS)),
    n=st.integers(1, 8),
    batch=st.integers(1, 5),
    pairs=st.integers(1, 12),
    seed=st.integers(0, 2**32 - 1),
)
def test_batched_rank_matches_matrix_rank(m, n, batch, pairs, seed):
    """Streams mixing fresh, zero, repeated and dependent rows."""
    field = FIELDS[m]
    rng = np.random.default_rng(seed)
    stream = field.random_elements(rng, (pairs, batch, n))
    for p in range(pairs):
        for t in range(batch):
            kind = int(rng.integers(0, 4))
            if kind == 1:
                stream[p, t] = 0
            elif kind == 2 and p:
                stream[p, t] = stream[int(rng.integers(0, p)), t]
            elif kind == 3 and p:
                stream[p, t] = field.combine(field.random_elements(rng, p), stream[:p, t])
    basis = np.zeros((batch, n, n), dtype=field.dtype)
    pivots = np.zeros((batch, n), dtype=np.intp)
    ranks = np.zeros(batch, dtype=np.intp)
    single = DecoderState(field, n)
    for p in range(pairs):
        before = ranks.copy()
        add_rows(field, basis, pivots, ranks, stream[p])
        assert (ranks >= before).all()
        assert (ranks <= min(p + 1, n)).all()
        assert ranks.tolist() == [matrix_rank(field, stream[: p + 1, t]) for t in range(batch)]
        assert single.add_vector(stream[p, 0]) == ranks[0]
