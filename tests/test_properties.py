"""Randomized properties of the generation loop.

Consensus is the average decomposition run as a custom assignment plus
the harmonic fold, so on any tree, dropout rate and seed the two
applications meter, drop and audit identically, and the consensus
estimate is the running mean of the values custom delivered.
"""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from nfcsim.afc import decompose_average
from nfcsim.engine import DataModel, Scenario, run_scenario
from nfcsim.graph import build_graph, random_tree_topology
from nfcsim.learning.neural import FailureModel


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
