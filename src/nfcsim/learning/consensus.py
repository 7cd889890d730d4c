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

from nfcsim.afc import ConfiguredNetwork, decompose_average, install_functions
from nfcsim.graph import NfcGraph


@dataclass(frozen=True)
class ConsensusState:
    """Current estimate and generation counter."""

    estimate: float
    generation: int = 0


def consensus_step(state: ConsensusState, sample_mean: float) -> ConsensusState:
    """One harmonic-step update with the network-delivered mean.

    Written in the gradient-step form w - (w - mean)/(t+1), which equals
    t/(t+1)*w + mean/(t+1) algebraically but keeps constant means an
    exact fixed point in floating point. The first step returns the mean
    itself: the initializer carries zero weight.
    """
    t = state.generation
    new = sample_mean if t == 0 else state.estimate + (sample_mean - state.estimate) / (t + 1)
    return ConsensusState(estimate=new, generation=t + 1)


@lru_cache(maxsize=8)
def average_network(g: NfcGraph) -> ConfiguredNetwork:
    """The average decomposition installed on ``g``, kept for the last 8
    graphs; an installed network is immutable, so equal graphs share one."""
    return install_functions(g, decompose_average(g))
