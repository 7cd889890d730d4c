"""Consensus averaging: exactness, CLT band, determinism."""

import numpy as np
import pytest

from nfcsim.graph import build_graph, balanced_tree_topology, star_topology
from nfcsim.learning import ConsensusState, consensus_run, consensus_step


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


def test_run_tracks_exact_running_average():
    g = build_graph(balanced_tree_topology(8))
    rng = np.random.default_rng(31)
    samples = [rng.normal(3.0, 2.0, size=8) for _ in range(200)]
    trajectory = consensus_run(g, samples, 200, initial_estimate=1e6)
    running = np.cumsum(trajectory.means) / np.arange(1, 201)
    for t in range(1, 201):
        w = float(np.asarray(trajectory.states[t].estimate).ravel()[0])
        assert abs(w - running[t - 1]) <= 1e-12 * max(1.0, abs(running[t - 1]))


def test_initializer_independent_after_first_generation():
    g = build_graph(star_topology(5))
    rng = np.random.default_rng(32)
    samples = [rng.normal(0, 1, size=5) for _ in range(50)]
    a = consensus_run(g, samples, 50, initial_estimate=0.0)
    b = consensus_run(g, samples, 50, initial_estimate=-9999.0)
    for t in range(1, 51):
        assert np.allclose(
            np.asarray(a.states[t].estimate), np.asarray(b.states[t].estimate)
        )


def test_clt_band_for_iid_sources():
    n, generations = 10, 1000
    g = build_graph(star_topology(n))
    rng = np.random.default_rng(33)
    samples = [rng.normal(5.0, 1.0, size=n) for _ in range(generations)]
    trajectory = consensus_run(g, samples, generations)
    final = float(np.asarray(trajectory.final.estimate).ravel()[0])
    assert abs(final - 5.0) <= 3.0 / np.sqrt(n * generations)


def test_single_constant_source():
    g = build_graph(star_topology(1))
    trajectory = consensus_run(g, [np.array([4.0])] * 5, 5, initial_estimate=77.0)
    for t in range(1, 6):
        assert trajectory.states[t].estimate == 4.0


def test_identical_seed_identical_trajectory():
    g = build_graph(star_topology(4))

    def run():
        rng = np.random.default_rng(34)
        samples = [rng.normal(0, 1, size=4) for _ in range(64)]
        return consensus_run(g, samples, 64)

    a, b = run(), run()
    assert a.means == b.means
    for sa, sb in zip(a.states, b.states):
        assert np.array_equal(np.asarray(sa.estimate), np.asarray(sb.estimate))


def test_vector_estimates_supported():
    g = build_graph(star_topology(3))
    rng = np.random.default_rng(35)
    samples = [rng.normal(0, 1, size=(3, 4)) for _ in range(20)]
    trajectory = consensus_run(g, samples, 20)
    final = np.asarray(trajectory.final.estimate)
    assert final.shape == (4,)
    direct = np.mean([s.mean(axis=0) for s in samples], axis=0)
    assert np.allclose(final, direct, rtol=1e-12)


def test_too_few_samples_name_both_counts():
    g = build_graph(star_topology(4))
    with pytest.raises(ValueError, match="needs 5 samples, got 3"):
        consensus_run(g, [np.ones(4)] * 3, 5)
    with pytest.raises(ValueError, match="needs 2 samples, got 0"):
        consensus_run(g, iter([]), 2)
    assert consensus_run(g, iter([]), 0).means == ()
