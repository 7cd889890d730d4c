"""Consensus averaging: stochastic-gradient estimation of a global mean.

Each generation the network delivers the sample mean of the source
values through the sum/count decomposition, and the destination applies
the harmonic-step update

    w(t+1) = t/(t+1) * w(t) + 1/(t+1) * mean_t,

which makes w(t) the exact running average of the delivered means,
independent of the initial estimate.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import islice
from typing import Iterable

import numpy as np

from nfcsim.afc import ConfiguredNetwork, block_sizes, decompose_average, install_functions
from nfcsim.graph import NfcGraph


@dataclass(frozen=True)
class ConsensusState:
    """Current estimate and generation counter."""

    estimate: float | np.ndarray
    generation: int = 0


def consensus_step(state: ConsensusState, sample_mean: float | np.ndarray) -> ConsensusState:
    """One harmonic-step update with the network-delivered mean.

    Written in the gradient-step form w - (w - mean)/(t+1), which equals
    t/(t+1)*w + mean/(t+1) algebraically but keeps constant means an
    exact fixed point in floating point. The first step returns the mean
    itself: the initializer carries zero weight.
    """
    t = state.generation
    if t == 0:
        new = np.asarray(sample_mean, dtype=np.float64).copy()
        if new.ndim == 0:
            new = float(new)
    else:
        new = state.estimate + (sample_mean - state.estimate) / (t + 1)
    return ConsensusState(estimate=new, generation=t + 1)


@lru_cache(maxsize=8)
def average_network(g: NfcGraph) -> ConfiguredNetwork:
    """The average decomposition installed on ``g``, kept for the last 8
    graphs; an installed network is immutable, so equal graphs share one."""
    return install_functions(g, decompose_average(g))


@dataclass(frozen=True)
class ConsensusTrajectory:
    """Per-generation estimates and the means that produced them."""

    states: tuple[ConsensusState, ...]  # states[t] is the estimate after t generations
    means: tuple[float, ...]


def consensus_run(
    g: NfcGraph,
    samples: Iterable[np.ndarray],
    generations: int,
    initial_estimate: float | np.ndarray = 0.0,
) -> ConsensusTrajectory:
    """Drive the averaging network for a number of generations.

    ``samples`` yields one (N,) or (N, L) array per generation, ordered
    like ``g.sources``; they run through the network one block at a time.
    The recorded trajectory starts at the initial estimate and has one
    state per generation.
    """
    network = average_network(g)
    state = ConsensusState(estimate=initial_estimate, generation=0)
    states = [state]
    means: list[float] = []
    rows = [
        np.asarray(x, dtype=np.float64).reshape(g.n_sources, -1)
        for x in islice(samples, generations)
    ]
    if len(rows) < generations:
        raise ValueError(f"consensus_run needs {generations} samples, got {len(rows)}")
    dest, start = g.destinations[0], 0
    for size in block_sizes(generations, g.n_nodes * rows[0].shape[1] if rows else 1):
        block, start = np.stack(rows[start:start + size]), start + size
        evaluation = network.evaluate(block, np.zeros((size, g.n_nodes), dtype=bool))
        for output in evaluation.outputs[dest]:
            mean = np.asarray(output)
            if mean.size == 1:
                mean = float(mean.ravel()[0])
            state = consensus_step(state, mean)
            states.append(state)
            means.append(float(np.asarray(mean).ravel()[0]))
    return ConsensusTrajectory(states=tuple(states), means=tuple(means))
