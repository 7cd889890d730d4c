"""Centralized reference for the tree network: plain recursive forward
pass and textbook backprop, independent of the message-passing path."""

import numpy as np

from nfcsim.learning import NeuralTreeNetwork
from nfcsim.learning.neural import sigmoid


class Reference:
    def __init__(self, network: NeuralTreeNetwork):
        self.g = network.graph
        self.net = network

    def forward(self, features: np.ndarray) -> dict[int, np.ndarray]:
        acts: dict[int, np.ndarray] = {}
        features = np.atleast_2d(np.asarray(features, dtype=np.float64))
        if features.shape[0] == 1 and len(self.g.sources) > 1:
            features = features.T
        for i, s in enumerate(self.g.sources):
            acts[s] = features[i]
        for v in self.g.topo_order:
            if v in acts:
                continue
            x_in = np.concatenate([acts[c] for c in self.g.in_neighbors[v]])
            acts[v] = np.array([float(sigmoid(self.net.weights[v] @ x_in))])
        return acts

    def gradients(self, features: np.ndarray, target: float) -> dict[int, np.ndarray]:
        acts = self.forward(features)
        dest = self.g.destinations[0]
        d_loss: dict[int, float] = {}
        x = float(acts[dest][0])
        d_loss[dest] = -target / x + (1 - target) / (1 - x)
        grads: dict[int, np.ndarray] = {}
        for v in reversed(self.g.topo_order):
            if v not in d_loss or v not in self.net.weights:
                continue
            x_v = float(acts[v][0])
            x_in = np.concatenate([acts[c] for c in self.g.in_neighbors[v]])
            slope = x_v * (1 - x_v)
            grads[v] = d_loss[v] * slope * x_in
            offset = 0
            for c in self.g.in_neighbors[v]:
                width = len(acts[c])
                if c in self.net.weights:
                    w_c = float(self.net.weights[v][offset])
                    d_loss[c] = d_loss.get(c, 0.0) + d_loss[v] * slope * w_c
                offset += width
        return grads
