"""Consensus averaging: exactness, CLT band, determinism."""

import dataclasses

import numpy as np

from nfcsim import afc
from nfcsim.engine import DataModel, Scenario, run_scenario
from nfcsim.graph import build_graph, balanced_tree_topology, star_topology
from nfcsim.learning import ConsensusState, consensus, consensus_step
from nfcsim.rng import DATA, substream


def test_first_step_erases_initializer():
    for w0 in (-100.0, 0.0, 42.0):
        state = consensus_step(ConsensusState(estimate=w0), 3.25)
        assert state.estimate == 3.25
        assert state.generation == 1


def test_constant_means_are_a_fixed_point():
    state = ConsensusState(estimate=0.0)
    for _ in range(10):
        state = consensus_step(state, 7.0)
        assert state.estimate == 7.0


def test_running_average_unrolls():
    state = ConsensusState(estimate=123.0)
    for mean in (1.0, 2.0, 3.0):
        state = consensus_step(state, mean)
    assert abs(state.estimate - 2.0) < 1e-15
    assert state.generation == 3


def consensus_rows(topology, generations, seed, mean, std, packet_length=1):
    s = Scenario(topology=topology, application="consensus", seed=seed, generations=generations,
                 packet_length=packet_length, data=DataModel(mean=mean, std=std))
    return run_scenario(s).tables["trajectory"][1]


def test_run_tracks_exact_running_average():
    """Wide packets: each row's estimate is the running mean of the first symbol."""
    rows = consensus_rows(balanced_tree_topology(8), 200, seed=31, mean=3.0, std=2.0, packet_length=3)
    first = substream(31, DATA).normal(3.0, 2.0, size=(200, 8, 3))[:, :, 0]
    running = np.cumsum(first.mean(axis=1)) / np.arange(1, 201)
    assert len(rows) == 200
    for row, w in zip(rows, running):
        assert abs(row["value"] - w) <= 1e-12 * max(1.0, abs(w))


def test_clt_band_for_iid_sources():
    n, generations = 10, 1000
    rows = consensus_rows(star_topology(n), generations, seed=33, mean=5.0, std=1.0)
    assert abs(rows[-1]["value"] - 5.0) <= 3.0 / np.sqrt(n * generations)


def test_single_constant_source():
    rows = consensus_rows(star_topology(1), 5, seed=0, mean=4.0, std=0.0)
    assert [row["value"] for row in rows] == [4.0] * 5


def test_identical_seed_identical_trajectory():
    a, b = (consensus_rows(star_topology(4), 64, seed=34, mean=0.0, std=1.0) for _ in range(2))
    assert a == b


def test_the_average_network_is_installed_once_per_graph(monkeypatch):
    """Runs of one config share one network; a graph equal to its graph,
    built from an equal copy of the config, shares it too."""
    installed, evaluated = [], []
    install, evaluate = consensus.install_functions, afc.ConfiguredNetwork.evaluate

    def counting_install(*args):
        installed.append(install(*args))
        return installed[-1]

    def recording_evaluate(network, *args):
        evaluated.append(network)
        return evaluate(network, *args)

    monkeypatch.setattr(consensus, "install_functions", counting_install)
    monkeypatch.setattr(afc.ConfiguredNetwork, "evaluate", recording_evaluate)
    consensus.average_network.cache_clear()
    topology = balanced_tree_topology(9, 3)
    s = Scenario(topology=topology, application="consensus", generations=4)
    run_scenario(s)
    run_scenario(s)
    g = build_graph(topology)
    copy = build_graph(dataclasses.replace(topology))
    assert copy is not g and copy == g
    assert consensus.average_network(copy) is consensus.average_network(g)
    assert len(installed) == 1 and len(evaluated) == 2
    assert all(network is installed[0] for network in evaluated)
