"""Binary classification by a neural network embedded in the tree.

Every non-source node is a logistic unit sigma(w . x) over its
children's activities; the destination's activity is the prediction.
Training passes messages along the tree: the upward pass returns every
activity, and the downward pass reads each unit's local gradients off
that result, propagates per-child gradient contributions and updates
weights by stochastic gradient descent on the log-loss. Busy nodes are
modeled as dropout (activity 0, flagged) and downward messages can be
lost, which simply omits the corresponding summand of the child's
accumulated gradient.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field as dc_field
from functools import cached_property
from itertools import chain
from math import comb, factorial
from typing import Callable, Collection, Mapping, Sequence

import numpy as np

from nfcsim.errors import DomainError, NotATree
from nfcsim.graph import NfcGraph, NodeRole
from nfcsim.rng import DROPOUT, LOSS, substream

# External labels are -1/+1; the log-loss gradient seed wants 0/1.
LABEL_MAPPING = {-1: 0.0, 1: 1.0}

MESSAGE_SYMBOLS = 2  # one activity or gradient contribution + generation tag

# separable_dataset draws 1 / acceptance samples per kept one; below this
# floor a margin makes data generation effectively never finish.
MIN_MARGIN_ACCEPTANCE = 1e-3


def _logistic(z: np.ndarray | float) -> np.ndarray | float:
    """``sigmoid`` without its errstate, for a caller that already ignores overflow."""
    return 1.0 / (1.0 + np.exp(-z))


# exp(-z) overflows to inf only where the limit 0.0 is exact
sigmoid = np.errstate(over="ignore")(_logistic)


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
        return substream(self.seed, DROPOUT), substream(self.seed, LOSS)


@dataclass
class UpwardResult:
    activations: np.ndarray  # (nodes,) activities; dropped nodes read 0
    prediction: float
    is_dropped: np.ndarray  # (nodes,) boolean
    inputs: tuple[np.ndarray, ...]  # per level, the (k, arity) activities its units read

    @property
    def dropped(self) -> np.ndarray:
        """Ids of the dropped nodes."""
        return np.flatnonzero(self.is_dropped)


@dataclass
class DownwardResult:
    blocks: tuple  # per level: (nodes, (k, 1) received mask, (k, arity) dJ/dw)
    lost_messages: int
    sent: tuple[tuple[int, int], ...] = ()  # (sender, child) pairs, lost ones included

    @cached_property
    def gradients(self) -> dict[int, np.ndarray]:
        """node -> dJ/dw actually assembled, for each unit that received a gradient."""
        return {v: g for nodes, got, grads in self.blocks
                for v, g in zip(nodes[got[:, 0]].tolist(), grads[got[:, 0]])}


def _check_weights(graph: NfcGraph, units: Collection[int], weights: Mapping[int, np.ndarray]) -> None:
    """Refuse weights unless every unit, and nothing else, has one entry per child."""
    for v in units:
        name, dim = graph.names[v], len(graph.in_neighbors[v])
        if v not in weights:
            raise ValueError(f"no weights for unit {name!r}")
        if np.shape(weights[v]) != (dim,):
            raise ValueError(f"weight shape {np.shape(weights[v])} != ({dim},) at node {name!r}")
    known = set(units)
    stray = [v for v in weights if v not in known]
    if stray:
        raise ValueError(f"weights for {stray[0]!r}, which is not a unit")


class NeuralTreeNetwork:
    """Logistic units on a rooted tree; leaves are the data sources.

    Every non-source node is a unit whose weight vector holds one entry
    per child, in ``in_neighbors`` order. Each group of the graph's level
    plan, then the destination, keeps its units' weights as one
    (k, arity) block; ``weights[v]`` is a row view into it.
    """

    def __init__(self, graph: NfcGraph, init_rng: np.random.Generator | None = None,
                 weights: Mapping[int, np.ndarray] | None = None):
        if graph.mode != "tree":
            raise NotATree("neural training requires a single-destination tree")
        self.graph = graph
        self.destination = dest = graph.destinations[0]
        units = [v for v in graph.topo_order if graph.roles[v] is not NodeRole.SOURCE]
        if weights is None:
            rng = init_rng if init_rng is not None else np.random.default_rng(0)
            weights = {v: rng.uniform(-0.5, 0.5, size=len(graph.in_neighbors[v])) for v in units}
        _check_weights(graph, units, weights)
        self._sources = np.array(graph.sources)
        # Per level, lowest first: nodes, (k, arity) children, weight block, its (k, 1, arity)
        # view, the nodes as a (k, 1) column, and whether some child is a unit.
        self._levels, rows = [], {}
        plan = [group[:2] for group in graph.level_plan] + [([dest], [graph.in_neighbors[dest]])]
        for nodes, children in plan:
            nodes, children = np.array(nodes), np.array(children)
            block = np.array([weights[v] for v in nodes.tolist()], dtype=np.float64)
            rows.update(zip(nodes.tolist(), block))
            feeds = any(graph.roles[c] is not NodeRole.SOURCE for c in children.flat)
            self._levels.append((nodes, children, block, block[:, None, :], nodes[:, None], feeds))
        self._weights = {v: rows[v] for v in units}
        # Each unit's unit children with their (sender, child) arc, parents in reverse topological
        # order and children in in_neighbors order: the order the loss draws are consumed in.
        self._walk = [(v, kids) for v in reversed(units)
                      if (kids := [(c, (v, c)) for c in graph.in_neighbors[v] if c in rows])]

    @property
    def weights(self) -> dict[int, np.ndarray]:
        return self._weights

    @weights.setter
    def weights(self, values: Mapping[int, np.ndarray]) -> None:
        _check_weights(self.graph, self._weights, values)
        for v, row in self._weights.items():  # written into the blocks, which the passes read
            row[:] = values[v]

    # -- passes -----------------------------------------------------------

    def upward(self, features: np.ndarray,
               dropped: np.ndarray | Collection[int] = ()) -> UpwardResult:
        """Forward evaluation; dropped nodes contribute activity 0. ``dropped``
        is a boolean row over the nodes (a ``draw_dropped`` row) or node ids."""
        if np.shape(features) != self._sources.shape:
            raise ValueError(f"expected {self._sources.size} source features, got shape {np.shape(features)}")
        if not (isinstance(dropped, np.ndarray) and dropped.dtype == bool):
            ids, dropped = list(dropped), np.zeros(self.graph.n_nodes, dtype=bool)
            dropped[ids] = True
        activity = np.zeros(self.graph.n_nodes)
        activity[self._sources] = features
        activity[dropped] = 0.0
        inputs = []
        with np.errstate(over="ignore"):  # as sigmoid does, once for the whole pass
            for nodes, children, _, stacked, _, _ in self._levels:
                inputs.append(x := activity[children])
                out = _logistic(np.matmul(stacked, x[:, :, None]))[:, 0, 0]
                out[dropped[nodes]] = 0.0
                activity[nodes] = out
        return UpwardResult(activity, float(activity[self.destination]), dropped, tuple(inputs))

    def downward(self, up: UpwardResult, target: float, eta: float,
                 message_lost: Callable[[], bool] | None = None,
                 apply_updates: bool = True) -> DownwardResult:
        """Backpropagate the log-loss gradient of ``up`` with the current
        weights, and update them. A gradient contribution goes down a
        unit-to-unit arc when the parent received a gradient and the child
        was alive in ``up`` (subject to loss draws); each unit that received
        one updates its weights. A dropped destination sends nothing."""
        dest = self.destination
        if up.is_dropped[dest]:
            return DownwardResult((), 0)
        # The walk: which units receive a gradient, one loss draw per sent arc.
        dropped = up.is_dropped.tobytes()
        received = bytearray(len(dropped))
        received[dest] = True
        sent, lost = [], 0
        for parent, kids in self._walk:
            if received[parent]:
                for c, arc in kids:
                    if not dropped[c]:
                        sent.append(arc)
                        if message_lost is not None and message_lost():
                            lost += 1
                        else:
                            received[c] = True
        # Top-down by level: each unit's dL/da goes into every child (only one
        # that received it reads it); then the rows that received one update.
        received = np.frombuffer(received, dtype=bool)
        activity = up.activations
        slope = activity * (1.0 - activity)
        x = up.prediction
        accumulated = np.zeros(activity.size)
        accumulated[dest] = -target / x + (1.0 - target) / (1.0 - x)
        blocks = []
        for (nodes, children, block, _, column, feeds), x_in in zip(self._levels[::-1], up.inputs[::-1]):
            d_loss, s = accumulated[column], slope[column]
            if feeds:  # 0.0 + turns a -0.0 contribution into +0.0, as a sum from 0.0 does
                accumulated[children] = 0.0 + d_loss * (s * block)
            gradient = d_loss * (s * x_in)
            got = received[column]
            if apply_updates:
                np.subtract(block, eta * gradient, out=block, where=got)
            blocks.append((nodes, got, gradient))
        return DownwardResult(tuple(blocks), lost, tuple(sent))

    def predict(self, features: np.ndarray) -> float:
        return self.upward(features).prediction


def draw_dropped(g: NfcGraph, failures: FailureModel, rng: np.random.Generator,
                 generations: int) -> np.ndarray:
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
    """Per-step losses, dropped-node and lost-message counts, copies of the
    final weights, and ``arc_messages``: per upward arc, one activity message
    per alive non-destination node and step plus the gradient contributions
    sent back down it (lost ones were still transmitted)."""

    losses: tuple[float, ...]
    dropped_per_step: tuple[int, ...]
    lost_per_step: tuple[int, ...]
    final_weights: Mapping[int, np.ndarray]
    arc_messages: Mapping[tuple[int, int], int] = dc_field(default_factory=dict)


def nn_train(network: NeuralTreeNetwork, dataset: Sequence[TrainingSample], epochs: int,
             eta_schedule: float | Callable[[int], float],
             failures: FailureModel | None = None) -> TrainResult:
    """Run upward/downward cycles over the dataset for some epochs. The generation
    counter runs across epochs; identical seeds give identical trajectories."""
    failures = failures or FailureModel()
    dropout_rng, loss_rng = failures.streams()
    eta_fn = eta_schedule if callable(eta_schedule) else (lambda t: eta_schedule)
    loss_p = failures.message_loss_p
    # loss_rng.random() < loss_p per call, drawn a block at a time: the same values
    draws = chain.from_iterable(iter(lambda: (loss_rng.random(1024) < loss_p).tolist(), None))
    message_lost = draws.__next__ if loss_p > 0.0 else None
    losses, dropped_counts, lost_counts = [], [], []
    sent: Counter[tuple[int, int]] = Counter()  # per compiled (sender, child) arc
    steps_sent: list[tuple[int, int]] = []  # counted once per epoch, in bounded memory
    g = network.graph
    alive_steps = np.zeros(g.n_nodes, dtype=np.int64)
    for epoch in range(epochs):
        masks = draw_dropped(g, failures, dropout_rng, len(dataset))
        alive_steps += (~masks).sum(axis=0)
        dropped_counts += masks.sum(axis=1).tolist()
        for t, (sample, mask) in enumerate(zip(dataset, masks), start=epoch * len(dataset)):
            up = network.upward(sample.features, mask)
            if up.prediction in (0.0, 1.0):
                raise DomainError(f"step {t}: the prediction saturated to exactly {up.prediction},"
                                  " where the log-loss is infinite; a smaller eta may avoid it")
            losses.append(log_loss(up.prediction, sample.target))
            down = network.downward(up, sample.target, eta=eta_fn(t), message_lost=message_lost)
            steps_sent += down.sent
            lost_counts.append(down.lost_messages)
        sent.update(steps_sent)
        steps_sent.clear()
    # each gradient contribution travels its upward arc backwards, and each
    # alive non-destination node sends one activity message per step
    arc_messages = Counter({(child, sender): n for (sender, child), n in sent.items()})
    arc_messages.update({(v, g.out_neighbors[v][0]): steps for v, steps in enumerate(alive_steps.tolist())
                         if steps and v != network.destination})
    final_weights = {v: w.copy() for v, w in network.weights.items()}
    return TrainResult(tuple(losses), tuple(dropped_counts), tuple(lost_counts), final_weights, arc_messages)


def dataset_loss(network: NeuralTreeNetwork, dataset: Sequence[TrainingSample]) -> float:
    """Mean log-loss over a dataset without failures or updates."""
    return float(np.mean([log_loss(network.predict(s.features), s.target) for s in dataset]))


def gradient_check(network: NeuralTreeNetwork, sample: TrainingSample, step: float = 1e-5) -> float:
    """Max relative error of message-passing gradients vs central
    finite differences of the log-loss, over every weight."""
    up = network.upward(sample.features)
    down = network.downward(up, sample.target, eta=0.0, apply_updates=False)
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
    tail = sum((-1) ** k * comb(n_sources, k) * (top - 2 * k * b) ** n_sources
               for k in range(top // (2 * b) + 1))
    return 2 * tail / ((2 * b) ** n_sources * factorial(n_sources))


def separable_dataset(n_sources: int, n_samples: int, rng: np.random.Generator,
                      margin: float = 0.5) -> list[TrainingSample]:
    """Linearly separable toy set: label is the sign of the feature sum,
    with a margin band around zero rejected."""
    samples: list[TrainingSample] = []
    while len(samples) < n_samples:
        x = rng.uniform(-1.0, 1.0, size=n_sources)
        total = float(x.sum())
        if abs(total) >= margin:
            samples.append(TrainingSample(features=x, label=1 if total > 0 else -1))
    return samples
