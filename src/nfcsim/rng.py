"""Seeded substreams: the one way the simulator makes a random generator."""

from __future__ import annotations  # keeps numpy.random unimported until first use

import numpy as np


def substream(seed: int, *key: int) -> np.random.Generator:
    """Named substream: independent draws per (seed, purpose, ...) key.

    Each randomness source (source data, weight init, dropout, message
    loss, one RLNC trial) draws from its own substream, so enabling or
    disabling one never perturbs another's draws.
    """
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))
