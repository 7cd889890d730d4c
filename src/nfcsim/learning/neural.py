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

    features: np.ndarray  # (N,) scalars, ordered like g.sources
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
    activations: np.ndarray  # (nodes,) activities; dropped nodes read 0
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

    Every non-source node is a unit whose weight vector holds one entry
    per child, in ``in_neighbors`` order. The upward pass runs on the
    graph's level plan, one stacked product per group.
    """

    def __init__(
        self,
        graph: NfcGraph,
        init_rng: np.random.Generator | None = None,
        weights: Mapping[int, np.ndarray] | None = None,
    ):
        if graph.mode != "tree" or len(graph.destinations) != 1:
            raise NotATree("neural training requires a single-destination tree")
        self.graph = graph
        self.destination = dest = graph.destinations[0]
        units = [v for v in graph.topo_order if graph.roles[v] is not NodeRole.SOURCE]
        if weights is None:
            rng = init_rng if init_rng is not None else np.random.default_rng(0)
            weights = {v: rng.uniform(-0.5, 0.5, size=len(graph.in_neighbors[v])) for v in units}
        self.weights = {v: np.array(w, dtype=np.float64) for v, w in weights.items()}
        for v in units:
            name, dim = graph.names[v], len(graph.in_neighbors[v])
            if v not in self.weights:
                raise ValueError(f"no weights for unit {name!r}")
            if len(self.weights[v]) != dim:
                raise ValueError(
                    f"weight length {len(self.weights[v])} != input dim {dim} at node {name!r}"
                )
        self.gradient_store: dict[int, dict[int, _StoredGradients]] = {v: {} for v in units}
        self._sources = np.array(graph.sources)
        # Upward: the plan's groups, then the destination on its own.
        self._levels = [group[:2] for group in graph.level_plan]
        self._levels.append((np.array([dest]), np.array([graph.in_neighbors[dest]])))
        # Downward: unit-to-unit arcs (parent, child, the child's input slot
        # at the parent), parents in reverse topological order and children
        # in in_neighbors order; message-loss draws are consumed in this order.
        self._arcs = [
            (v, c, i)
            for v in reversed(units)
            for i, c in enumerate(graph.in_neighbors[v])
            if c in self.gradient_store
        ]

    # -- passes -----------------------------------------------------------

    def upward(
        self,
        features: np.ndarray,
        generation: int,
        dropped: frozenset[int] | set[int] = frozenset(),
        store: bool = True,
    ) -> UpwardResult:
        """Forward evaluation; dropped nodes contribute activity 0.

        Alive units store (t, dx/dw, dx/dx_in) for the matching downward
        pass; entries older than the staleness window are evicted on
        arrival of a new generation.
        """
        is_dropped = np.zeros(self.graph.n_nodes, dtype=bool)
        is_dropped[list(dropped)] = True
        activity = np.zeros(self.graph.n_nodes)
        activity[self._sources] = features
        activity[is_dropped] = 0.0
        for nodes, children in self._levels:
            alive = ~is_dropped[nodes]
            nodes, inputs = nodes[alive], activity[children[alive]]
            if not nodes.size:
                continue
            weights = np.stack([self.weights[v] for v in nodes.tolist()])
            x = sigmoid(np.matmul(weights[:, None, :], inputs[:, :, None]))[:, 0, 0]
            activity[nodes] = x
            if store:
                for v, a, x_in in zip(nodes.tolist(), x.tolist(), inputs):
                    slope = a * (1.0 - a)
                    self.gradient_store[v][generation] = _StoredGradients(
                        a, slope * x_in, slope * self.weights[v]
                    )
                    self._evict_stale(v, generation)
        return UpwardResult(activity, float(activity[self.destination]), frozenset(dropped))

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

        A gradient contribution goes down a unit-to-unit arc when the
        parent received a gradient and the child stored this generation's
        tuple (subject to loss draws); each unit that received one then
        updates its weights from its stored tuple. Without a stored
        prediction nothing is sent, and the skip is counted. All tuples
        for this generation are purged at completion.
        """
        store = self.gradient_store
        accumulated: dict[int, float] = {}
        top = store[self.destination].get(generation)
        if top is not None:
            x = top.activity
            accumulated[self.destination] = -target / x + (1.0 - target) / (1.0 - x)
        sent: list[tuple[int, int]] = []
        lost = 0
        for v, c, i in self._arcs:
            if v not in accumulated or generation not in store[c]:
                continue
            contribution = accumulated[v] * float(store[v][generation].d_activity_d_inputs[i])
            sent.append((v, c))
            if message_lost is not None and message_lost():
                lost += 1
                continue
            accumulated[c] = accumulated.get(c, 0.0) + contribution
        gradients: dict[int, np.ndarray] = {}
        for v, d_loss in accumulated.items():
            gradients[v] = gradient = d_loss * store[v][generation].d_activity_d_weights
            if apply_updates:
                self.weights[v] = self.weights[v] - eta * gradient
        for tuples in store.values():
            tuples.pop(generation, None)
        return DownwardResult(gradients, lost, int(top is None), tuple(sent))

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
    alive_steps = np.zeros(g.n_nodes, dtype=np.int64)
    stale = 0
    t = 0
    for _ in range(epochs):
        masks = draw_dropped(g, failures, dropout_rng, len(dataset))
        alive_steps += (~masks).sum(axis=0)
        for sample, mask in zip(dataset, masks):
            dropped = frozenset(np.flatnonzero(mask).tolist())
            up = network.upward(sample.features, generation=t, dropped=dropped)
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
    # one activity message per alive non-destination node and step
    arc_messages.update({
        (v, g.out_neighbors[v][0]): steps
        for v, steps in enumerate(alive_steps.tolist())
        if steps and v != network.destination
    })
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
