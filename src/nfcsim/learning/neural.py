"""Binary classification by a neural network embedded in the tree.

Every non-source node is a logistic unit sigma(w . x) over its
children's activities; the destination's activity is the prediction.
Training passes messages along the tree: the upward pass computes
activities and each node stores the local gradients of its own activity,
the downward pass propagates per-child gradient contributions, updates
weights by stochastic gradient descent on the log-loss, and purges the
stored tuples. Busy nodes are modeled as dropout (activity 0, flagged)
and downward messages can be lost, which simply omits the corresponding
summand of the child's accumulated gradient.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field as dc_field
from math import comb, factorial
from typing import Callable, Mapping, Sequence

import numpy as np

from nfcsim.errors import NotATree
from nfcsim.graph import NfcGraph, NodeRole
from nfcsim.rng import substream

# External labels are -1/+1; the log-loss gradient seed wants 0/1.
LABEL_MAPPING = {-1: 0.0, 1: 1.0}

STALENESS_WINDOW = 8  # stored upward tuples older than this are evicted

MESSAGE_SYMBOLS = 2  # one activity or gradient contribution + generation tag

# separable_dataset draws 1 / acceptance samples per kept one; below this
# floor a margin makes data generation effectively never finish.
MIN_MARGIN_ACCEPTANCE = 1e-3


def sigmoid(z: np.ndarray | float) -> np.ndarray | float:
    return 1.0 / (1.0 + np.exp(-z))


def log_loss(prediction: float, target: float) -> float:
    return -(target * np.log(prediction) + (1.0 - target) * np.log(1.0 - prediction))


@dataclass(frozen=True)
class TrainingSample:
    """Per-source features plus a -1/+1 class label."""

    features: np.ndarray  # (N,) scalars or (N, L) vectors, ordered like g.sources
    label: int

    def __post_init__(self):
        if self.label not in LABEL_MAPPING:
            raise ValueError(f"label must be -1 or +1, got {self.label}")

    @property
    def target(self) -> float:
        return LABEL_MAPPING[self.label]


@dataclass(frozen=True)
class FailureModel:
    """Bernoulli failure injection, reproducible from its own seed."""

    node_dropout_p: float = 0.0
    message_loss_p: float = 0.0
    seed: int = 0

    def __post_init__(self):
        for name in ("node_dropout_p", "message_loss_p"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name}={p} outside [0, 1]")

    def streams(self) -> tuple[np.random.Generator, np.random.Generator]:
        """Independent dropout and message-loss streams, so toggling one
        failure source never perturbs the other's draws."""
        return substream(self.seed, 0), substream(self.seed, 1)


@dataclass
class _StoredGradients:
    """What a node keeps from the upward pass until the downward pass."""

    activity: float
    d_activity_d_weights: np.ndarray  # x(1-x) * incoming activities
    d_activity_d_inputs: np.ndarray  # x(1-x) * weights


@dataclass(frozen=True)
class UpwardResult:
    activations: Mapping[int, np.ndarray]  # node -> activity vector
    prediction: float
    dropped: frozenset[int]


@dataclass(frozen=True)
class DownwardResult:
    gradients: Mapping[int, np.ndarray]  # node -> dJ/dw actually assembled
    lost_messages: int
    stale_skips: int
    sent: tuple[tuple[int, int], ...] = ()  # (sender, child) pairs, lost ones included


class NeuralTreeNetwork:
    """Logistic units on a rooted tree; leaves are the data sources.

    Weight vectors are indexed by the node's in-neighborhood: one entry
    per scalar child activity, or a block of ``source_dim`` entries for
    a source child emitting a feature vector.
    """

    def __init__(
        self,
        graph: NfcGraph,
        source_dim: int = 1,
        init_rng: np.random.Generator | None = None,
        weights: Mapping[int, np.ndarray] | None = None,
    ):
        if graph.mode != "tree" or len(graph.destinations) != 1:
            raise NotATree("neural training requires a single-destination tree")
        self.graph = graph
        self.source_dim = source_dim
        self.destination = graph.destinations[0]
        source_set = set(graph.sources)
        # Concatenated-input layout per non-source node: child -> slice.
        self.input_slices: dict[int, dict[int, slice]] = {}
        self.input_dims: dict[int, int] = {}
        for v in graph.topo_order:
            if graph.roles[v] is NodeRole.SOURCE:
                continue
            offset = 0
            slices = {}
            for c in graph.in_neighbors[v]:
                width = source_dim if c in source_set else 1
                slices[c] = slice(offset, offset + width)
                offset += width
            self.input_slices[v] = slices
            self.input_dims[v] = offset

        if weights is not None:
            self.weights = {v: np.array(w, dtype=np.float64) for v, w in weights.items()}
            for v, dim in self.input_dims.items():
                if len(self.weights[v]) != dim:
                    raise ValueError(
                        f"weight length {len(self.weights[v])} != input dim {dim} at node {graph.names[v]!r}"
                    )
        else:
            rng = init_rng if init_rng is not None else np.random.default_rng(0)
            self.weights = {
                v: rng.uniform(-0.5, 0.5, size=dim) for v, dim in self.input_dims.items()
            }
        self.gradient_store: dict[int, dict[int, _StoredGradients]] = {
            v: {} for v in self.input_dims
        }

    # -- passes -----------------------------------------------------------

    def input_vector(
        self, v: int, activations: Mapping[int, np.ndarray]
    ) -> np.ndarray:
        x_in = np.zeros(self.input_dims[v])
        for c, sl in self.input_slices[v].items():
            if c in activations:
                x_in[sl] = activations[c]
        return x_in

    def upward(
        self,
        features: np.ndarray,
        generation: int,
        dropped: frozenset[int] | set[int] = frozenset(),
        store: bool = True,
    ) -> UpwardResult:
        """Forward evaluation; dropped nodes contribute activity 0.

        Alive non-source nodes store (t, dx/dw, dx/dx_in) for the
        matching downward pass; entries older than the staleness window
        are evicted on arrival of a new generation.
        """
        g = self.graph
        features = np.atleast_2d(np.asarray(features, dtype=np.float64))
        if features.shape == (1, len(g.sources)) and self.source_dim == 1:
            features = features.T
        activations: dict[int, np.ndarray] = {}
        for i, s in enumerate(g.sources):
            if s not in dropped:
                activations[s] = features[i]
        roles, source = g.roles, NodeRole.SOURCE
        for v in g.topo_order:
            if roles[v] is source or v in dropped:
                continue
            x_in = self.input_vector(v, activations)
            x = float(sigmoid(self.weights[v] @ x_in))
            activations[v] = np.array([x])
            if store:
                slope = x * (1.0 - x)
                self.gradient_store[v][generation] = _StoredGradients(
                    activity=x,
                    d_activity_d_weights=slope * x_in,
                    d_activity_d_inputs=slope * self.weights[v],
                )
                self._evict_stale(v, generation)
        prediction = float(activations[self.destination][0])
        return UpwardResult(
            activations=activations, prediction=prediction, dropped=frozenset(dropped)
        )

    def _evict_stale(self, v: int, generation: int) -> None:
        horizon = generation - STALENESS_WINDOW
        store = self.gradient_store[v]
        for t in [t for t in store if t <= horizon]:
            del store[t]

    def downward(
        self,
        target: float,
        generation: int,
        eta: float,
        message_lost: Callable[[], bool] | None = None,
        apply_updates: bool = True,
    ) -> DownwardResult:
        """Backpropagate the log-loss gradient and update weights.

        Each node that accumulated a loss gradient sends one gradient
        contribution per non-source child (subject to loss draws), then
        updates its weights from its stored upward tuple. Nodes whose
        stored tuple was evicted skip their update (counted). All tuples
        for this generation are purged at completion.
        """
        g = self.graph
        accumulated: dict[int, float] = {}
        gradients: dict[int, np.ndarray] = {}
        sent: list[tuple[int, int]] = []
        lost = 0
        stale = 0
        dest_store = self.gradient_store[self.destination].get(generation)
        if dest_store is not None:
            x = dest_store.activity
            accumulated[self.destination] = -target / x + (1.0 - target) / (1.0 - x)
        else:
            stale += 1  # no stored prediction for this generation
        roles, source = g.roles, NodeRole.SOURCE
        order = [v for v in reversed(g.topo_order) if roles[v] is not source]
        for v in order:
            if v not in accumulated:
                continue
            stored = self.gradient_store[v].get(generation)
            if stored is None:
                stale += 1
                continue
            d_loss = accumulated[v]
            for c, sl in self.input_slices[v].items():
                if roles[c] is source:
                    continue
                if c not in self.gradient_store or generation not in self.gradient_store[c]:
                    continue  # child was dropped this generation
                contribution = d_loss * float(stored.d_activity_d_inputs[sl][0])
                sent.append((v, c))
                if message_lost is not None and message_lost():
                    lost += 1
                    continue
                accumulated[c] = accumulated.get(c, 0.0) + contribution
            gradient = d_loss * stored.d_activity_d_weights
            gradients[v] = gradient
            if apply_updates:
                self.weights[v] = self.weights[v] - eta * gradient
        for v in self.gradient_store:
            self.gradient_store[v].pop(generation, None)
        return DownwardResult(
            gradients=gradients, lost_messages=lost, stale_skips=stale, sent=tuple(sent)
        )

    def predict(self, features: np.ndarray) -> float:
        return self.upward(features, generation=-1, store=False).prediction


def draw_dropped(
    g: NfcGraph, failures: FailureModel, rng: np.random.Generator, generations: int
) -> np.ndarray:
    """A block's (generations, nodes) Bernoulli dropout mask over every
    non-destination node: one uniform draw per node in id order, generation
    after generation, so a block draws what its generations would one by one."""
    dropped = np.zeros((generations, g.n_nodes), dtype=bool)
    if failures.node_dropout_p:
        nodes = sorted(g.sources + g.atomics)
        dropped[:, nodes] = rng.random((generations, len(nodes))) < failures.node_dropout_p
    return dropped


@dataclass(frozen=True)
class TrainResult:
    """Per-step losses plus failure and message counters.

    ``arc_messages`` tallies link usage per upward arc: one activity
    message per alive non-destination node per step, plus the gradient
    contributions travelling back down the same link (lost ones were
    still transmitted).
    """

    losses: tuple[float, ...]
    dropped_per_step: tuple[int, ...]
    lost_per_step: tuple[int, ...]
    stale_skips: int
    final_weights: Mapping[int, np.ndarray]
    arc_messages: Mapping[tuple[int, int], int] = dc_field(default_factory=dict)


def nn_train(
    network: NeuralTreeNetwork,
    dataset: Sequence[TrainingSample],
    epochs: int,
    eta_schedule: float | Callable[[int], float],
    failures: FailureModel | None = None,
) -> TrainResult:
    """Run upward/downward cycles over the dataset for some epochs.

    The generation counter runs across epochs; identical seeds give
    identical trajectories.
    """
    failures = failures or FailureModel()
    dropout_rng, loss_rng = failures.streams()
    eta_fn = eta_schedule if callable(eta_schedule) else (lambda t: eta_schedule)
    message_lost = None
    if failures.message_loss_p > 0.0:
        message_lost = lambda: bool(loss_rng.random() < failures.message_loss_p)
    losses: list[float] = []
    dropped_counts: list[int] = []
    lost_counts: list[int] = []
    arc_messages: Counter[tuple[int, int]] = Counter()
    g = network.graph
    upward_arcs = [(v, g.out_neighbors[v][0]) for v in g.topo_order if v != network.destination]
    stale = 0
    t = 0
    for _ in range(epochs):
        masks = draw_dropped(g, failures, dropout_rng, len(dataset))
        for sample, mask in zip(dataset, masks):
            dropped = frozenset(np.flatnonzero(mask).tolist())
            up = network.upward(sample.features, generation=t, dropped=dropped)
            arc_messages.update(arc for arc in upward_arcs if arc[0] not in dropped)
            losses.append(log_loss(up.prediction, sample.target))
            down = network.downward(
                sample.target, generation=t, eta=eta_fn(t), message_lost=message_lost
            )
            # each gradient contribution travels its upward arc backwards
            arc_messages.update((child, sender) for sender, child in down.sent)
            dropped_counts.append(len(dropped))
            lost_counts.append(down.lost_messages)
            stale += down.stale_skips
            t += 1
    return TrainResult(
        losses=tuple(losses),
        dropped_per_step=tuple(dropped_counts),
        lost_per_step=tuple(lost_counts),
        stale_skips=stale,
        final_weights={v: w.copy() for v, w in network.weights.items()},
        arc_messages=arc_messages,
    )


def dataset_loss(network: NeuralTreeNetwork, dataset: Sequence[TrainingSample]) -> float:
    """Mean log-loss over a dataset without failures or updates."""
    return float(
        np.mean([log_loss(network.predict(s.features), s.target) for s in dataset])
    )


def gradient_check(
    network: NeuralTreeNetwork,
    sample: TrainingSample,
    step: float = 1e-5,
) -> float:
    """Max relative error of message-passing gradients vs central
    finite differences of the log-loss, over every weight."""
    network.upward(sample.features, generation=0)
    down = network.downward(sample.target, generation=0, eta=0.0, apply_updates=False)
    worst = 0.0
    for v, w in network.weights.items():
        analytic = down.gradients[v]
        for i in range(len(w)):
            original = w[i]
            w[i] = original + step
            plus = log_loss(network.predict(sample.features), sample.target)
            w[i] = original - step
            minus = log_loss(network.predict(sample.features), sample.target)
            w[i] = original
            numeric = (plus - minus) / (2.0 * step)
            denom = max(abs(numeric), abs(analytic[i]), 1e-6)
            worst = max(worst, abs(numeric - analytic[i]) / denom)
    return worst


def margin_acceptance(n_sources: int, margin: float) -> float:
    """Probability that |sum of n uniform(-1, 1) features| >= margin.

    The sum is 2Y - n with Y Irwin-Hall distributed, so by symmetry the
    probability is 2 F(x) at x = (n - margin) / 2, where
    F(x) = sum_{k <= x} (-1)^k C(n, k) (x - k)^n / n!. With margin = a/b
    exactly, every term is an integer over (2b)^n n!, so the alternating
    sum cancels without rounding.
    """
    if margin <= 0:
        return 1.0
    if margin >= n_sources:
        return 0.0
    a, b = float(margin).as_integer_ratio()
    top = n_sources * b - a  # x = top / 2b
    tail = sum(
        (-1) ** k * comb(n_sources, k) * (top - 2 * k * b) ** n_sources
        for k in range(top // (2 * b) + 1)
    )
    return 2 * tail / ((2 * b) ** n_sources * factorial(n_sources))


def separable_dataset(
    n_sources: int,
    n_samples: int,
    rng: np.random.Generator,
    margin: float = 0.5,
) -> list[TrainingSample]:
    """Linearly separable toy set: label is the sign of the feature sum,
    with a margin band around zero rejected."""
    samples: list[TrainingSample] = []
    while len(samples) < n_samples:
        x = rng.uniform(-1.0, 1.0, size=n_sources)
        total = float(x.sum())
        if abs(total) < margin:
            continue
        samples.append(TrainingSample(features=x, label=1 if total > 0 else -1))
    return samples
