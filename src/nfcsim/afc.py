"""Atomic function computation and network configuration.

Digital atomic functions operate in-node on packets of field symbols or
reals; the simulated-analog path models superposition: pre-processed
inputs are scaled by channel coefficients, summed (optionally with
Gaussian receiver noise), and post-processed. ``install_functions``
turns a graph plus an assignment into an executable network.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from itertools import compress
from typing import Callable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from nfcsim.errors import (
    ArityMismatch,
    DomainError,
    DomainMismatch,
    MissingAssignment,
    NotATree,
)
from nfcsim.field import FieldSpec
from nfcsim.graph import NfcGraph

Packet = np.ndarray  # (L,) of field symbols (unsigned ints) or float64 reals


def is_real_packet(p: Packet) -> bool:
    return np.issubdtype(np.asarray(p).dtype, np.floating)


class AtomicFunction:
    """Base marker for installable atomic functions.

    ``arity`` is the required input count, or None when any positive
    count is accepted.
    """

    arity: int | None = None


@dataclass(frozen=True)
class LinearCombination(AtomicFunction):
    """sum_b coefficients[b] * x_b over the field, symbol-wise."""

    coefficients: tuple[int, ...]
    field: FieldSpec

    @property
    def arity(self) -> int:  # type: ignore[override]
        return len(self.coefficients)


@dataclass(frozen=True)
class Sum(AtomicFunction):
    pass


@dataclass(frozen=True)
class Max(AtomicFunction):
    pass


@dataclass(frozen=True)
class Min(AtomicFunction):
    pass


@dataclass(frozen=True)
class Average(AtomicFunction):
    pass


@dataclass(frozen=True)
class Identity(AtomicFunction):
    arity = 1


@dataclass(frozen=True)
class Histogram(AtomicFunction):
    """Bin counts over all input symbols; out-of-range symbols clamp
    to the edge bins and are tallied in the clamp metric."""

    bins: int


@dataclass(frozen=True)
class NeuronUnit(AtomicFunction):
    """Logistic unit sigma(w . x) applied symbol-wise."""

    weights: tuple[float, ...]

    @property
    def arity(self) -> int:  # type: ignore[override]
        return len(self.weights)


@dataclass(frozen=True)
class AppendCount(AtomicFunction):
    """Source-side encoding for average decomposition: emit (x, 1)."""

    arity = 1


@dataclass(frozen=True)
class Nomographic(AtomicFunction):
    """Superposition triple (pre-functions, channel coefficients, post).

    Pre/post functions take and return float arrays; channel
    coefficients must be nonzero.
    """

    pre_functions: tuple[Callable[[np.ndarray], np.ndarray], ...]
    channel_coefficients: tuple[float, ...]
    post_function: Callable[[np.ndarray], np.ndarray]

    def __post_init__(self):
        if len(self.pre_functions) != len(self.channel_coefficients):
            raise ArityMismatch("one pre-function per channel coefficient required")
        if any(h == 0 for h in self.channel_coefficients):
            raise DomainError("channel coefficients must be nonzero")

    @property
    def arity(self) -> int:  # type: ignore[override]
        return len(self.channel_coefficients)


def _stack_inputs(spec: AtomicFunction, inputs: Sequence[Packet] | np.ndarray) -> np.ndarray:
    """The inputs as one (..., P, L) array; an array is taken as already
    stacked, its leading axes a batch of nodes that share the spec."""
    stacked = isinstance(inputs, np.ndarray)
    count = inputs.shape[-2] if stacked else len(inputs)
    if not count:
        raise ArityMismatch(f"{type(spec).__name__} needs at least one input")
    if spec.arity is not None and count != spec.arity:
        raise ArityMismatch(f"{type(spec).__name__} has arity {spec.arity}, got {count} inputs")
    if stacked:
        return inputs
    lengths = {len(p) for p in inputs}
    if len(lengths) != 1:
        raise DomainMismatch(f"inputs have mixed lengths {sorted(lengths)}")
    domains = {is_real_packet(p) for p in inputs}
    if len(domains) != 1:
        raise DomainMismatch("inputs mix field and real domains")
    return np.stack([np.asarray(p) for p in inputs])


def eval_dafc(
    spec: AtomicFunction,
    inputs: Sequence[Packet] | np.ndarray,
    metrics: dict | None = None,
) -> Packet:
    """Evaluate a digital atomic function on equal-length packets.

    ``inputs`` is a list of packets, or a stacked (..., P, L) array whose
    leading axes give one output per node. ``metrics`` (optional dict)
    accumulates the histogram clamp count under key "clamped_symbols".
    """
    stacked = _stack_inputs(spec, inputs)
    real = is_real_packet(stacked)

    if isinstance(spec, LinearCombination):
        if real:
            raise DomainMismatch("LinearCombination requires field-domain packets")
        rows = spec.field.validate_array(stacked)
        coeffs = spec.field.validate_array(np.array(spec.coefficients))
        return spec.field.combine(coeffs, rows)
    if isinstance(spec, Identity):
        return stacked[..., 0, :].copy()
    if isinstance(spec, AppendCount):
        if not real:
            raise DomainMismatch("AppendCount operates on real packets")
        return np.concatenate([stacked[..., 0, :], np.ones(stacked.shape[:-2] + (1,))], axis=-1)
    if isinstance(spec, Sum):
        return stacked.sum(axis=-2, dtype=np.float64 if real else np.int64)
    if isinstance(spec, Max):
        return stacked.max(axis=-2)
    if isinstance(spec, Min):
        return stacked.min(axis=-2)
    if isinstance(spec, Average):
        return stacked.mean(axis=-2, dtype=np.float64)
    if isinstance(spec, Histogram):
        if real:
            raise DomainMismatch("Histogram requires integer-valued symbols")
        values = stacked.astype(np.int64).reshape(*stacked.shape[:-2], -1)
        clamped = np.clip(values, 0, spec.bins - 1)
        n_clamped = int((clamped != values).sum())
        if metrics is not None and n_clamped:
            metrics["clamped_symbols"] = metrics.get("clamped_symbols", 0) + n_clamped
        return np.apply_along_axis(np.bincount, -1, clamped, minlength=spec.bins).astype(np.int64)
    if isinstance(spec, NeuronUnit):
        if not real:
            raise DomainMismatch("NeuronUnit operates on real packets")
        z = np.asarray(spec.weights, dtype=np.float64) @ stacked
        return 1.0 / (1.0 + np.exp(-z))
    if isinstance(spec, Nomographic):
        raise DomainMismatch("Nomographic functions are evaluated by eval_aafc")
    raise TypeError(f"unknown atomic function {type(spec).__name__}")


def eval_aafc(
    spec: Nomographic,
    inputs: Sequence[Packet] | np.ndarray,
    noise_sigma: float = 0.0,
    rng: np.random.Generator | None = None,
) -> Packet:
    """Simulated-analog evaluation: post(sum_s h_s * pre_s(x_s) + noise).

    ``inputs`` is stacked as in ``eval_dafc``. Noise is i.i.d.
    Normal(0, noise_sigma^2) per symbol; noise_sigma > 0 requires an rng.
    """
    stacked = _stack_inputs(spec, inputs)
    if not is_real_packet(stacked):
        raise DomainMismatch("analog evaluation requires real packets")
    received = np.zeros(stacked.shape[:-2] + stacked.shape[-1:], dtype=np.float64)
    for pre, h, x in zip(spec.pre_functions, spec.channel_coefficients, np.moveaxis(stacked, -2, 0)):
        received += h * np.asarray(pre(np.asarray(x, dtype=np.float64)), dtype=np.float64)
    if noise_sigma < 0:
        raise DomainError("noise_sigma must be >= 0")
    if noise_sigma > 0:
        if rng is None:
            raise ValueError("noise_sigma > 0 requires an rng")
        received += rng.normal(0.0, noise_sigma, size=received.shape)
    return np.asarray(spec.post_function(received), dtype=np.float64)


# -- nomographic presets --------------------------------------------------

def _scaled_pre(transform: Callable[[np.ndarray], np.ndarray], h: float):
    def pre(x: np.ndarray) -> np.ndarray:
        return transform(x) / h

    return pre


def nomographic_mean(n_inputs: int, channel_coefficients: Sequence[float] | None = None) -> Nomographic:
    """Arithmetic mean: pre_s(x) = x / h_s, post(r) = r / n."""
    h = tuple(channel_coefficients or [1.0] * n_inputs)
    pres = tuple(_scaled_pre(lambda x: x, hs) for hs in h)
    return Nomographic(pres, h, lambda r: r / n_inputs)


def nomographic_sum(n_inputs: int, channel_coefficients: Sequence[float] | None = None) -> Nomographic:
    """Plain superposition sum with identity post-processing."""
    h = tuple(channel_coefficients or [1.0] * n_inputs)
    pres = tuple(_scaled_pre(lambda x: x, hs) for hs in h)
    return Nomographic(pres, h, lambda r: r)


def nomographic_euclidean_norm(
    n_inputs: int, channel_coefficients: Sequence[float] | None = None
) -> Nomographic:
    """sqrt(sum_s x_s^2): pre_s(x) = x^2 / h_s, post(r) = sqrt(r)."""
    h = tuple(channel_coefficients or [1.0] * n_inputs)
    pres = tuple(_scaled_pre(np.square, hs) for hs in h)

    def post(r: np.ndarray) -> np.ndarray:
        if np.any(r < 0):
            raise DomainError("square root of a negative superposition")
        return np.sqrt(r)

    return Nomographic(pres, h, post)


def nomographic_geometric_mean(
    n_inputs: int, channel_coefficients: Sequence[float] | None = None
) -> Nomographic:
    """(prod_s x_s)^(1/n): pre_s(x) = ln(x) / h_s, post(r) = exp(r / n)."""
    h = tuple(channel_coefficients or [1.0] * n_inputs)

    def log_pre(x: np.ndarray) -> np.ndarray:
        if np.any(x <= 0):
            raise DomainError("geometric mean undefined for non-positive inputs")
        return np.log(x)

    pres = tuple(_scaled_pre(log_pre, hs) for hs in h)
    return Nomographic(pres, h, lambda r: np.exp(r / n_inputs))


# -- network configuration -------------------------------------------------

DecoderFn = Callable[[Sequence[Packet]], Packet]


@dataclass(frozen=True)
class FunctionAssignment:
    """Installable map from nodes (or arcs) to atomic functions.

    Keys are node names, node ids, or (tail, head) arc pairs; a node key
    applies to every outgoing arc of that node. ``decoders`` optionally
    maps destinations to finishing functions applied to their inbox.
    """

    functions: Mapping[object, AtomicFunction]
    decoders: Mapping[object, DecoderFn] = dc_field(default_factory=dict)


@dataclass(frozen=True)
class NetworkEvaluation:
    """One generation's dataflow: per-arc messages and decoded outputs."""

    messages: Mapping[tuple[int, int], Packet]
    destination_outputs: Mapping[int, object]
    clamped_symbols: int = 0


# Packet symbols a block of generations may hold, counted over every node.
BLOCK_ELEMENTS = 1 << 16


def block_sizes(generations: int, symbols_per_generation: int) -> Iterator[int]:
    """Split a run into blocks of generations that stay within BLOCK_ELEMENTS."""
    size = max(1, BLOCK_ELEMENTS // max(1, symbols_per_generation))
    for start in range(0, generations, size):
        yield min(size, generations - start)


class BlockEvaluation(NamedTuple):
    """A block of B generations' dataflow through a configured network."""

    emitted: np.ndarray  # (B, nodes): the node sent a message that generation
    packets: list[np.ndarray | None]  # per node (B, width); rows valid where emitted
    outputs: dict[int, list[object]]  # per destination and generation; None if dropped
    clamped_symbols: int


def _resolve_node(g: NfcGraph, key: object) -> int:
    if isinstance(key, str):
        return g.node_id(key)
    return int(key)  # type: ignore[arg-type]


class ConfiguredNetwork:
    """Immutable executable network: a tree and one function per node.

    The sources, then each group of the graph's level plan, are split into
    batches of nodes that share a function. A source's one child is itself
    (its input packet); without a function it forwards that packet.
    """

    def __init__(
        self,
        graph: NfcGraph,
        functions: Mapping[int, AtomicFunction],
        decoders: Mapping[int, DecoderFn],
    ):
        self.graph = graph
        self.functions = dict(functions)
        self.decoders = dict(decoders)
        sources = np.array(graph.sources, dtype=np.intp)
        levels = [(sources, sources[:, None])] + [group[:2] for group in graph.level_plan]
        self._batches = []
        for nodes, children in levels:
            members: dict[AtomicFunction, list[int]] = {}
            for i, v in enumerate(nodes.tolist()):
                members.setdefault(self.functions.get(v, Identity()), []).append(i)
            self._batches += [(spec, nodes[i], children[i]) for spec, i in members.items()]

    def evaluate(
        self,
        source_inputs: Mapping[object, Packet],
        dropped: frozenset[int] | set[int] = frozenset(),
    ) -> NetworkEvaluation:
        """Run one generation through the network: ``evaluate_block`` with B = 1."""
        g = self.graph
        inputs = {_resolve_node(g, key): p for key, p in source_inputs.items()}
        mask = np.zeros((1, g.n_nodes), dtype=bool)
        mask[0, list(dropped)] = True
        for s in g.sources:
            if s not in inputs and not mask[0, s]:
                raise MissingAssignment(f"no input packet for source {g.names[s]!r}")
        columns = [np.asarray(inputs[s])[None] if s in inputs else None for s in g.sources]
        block = self.evaluate_block(columns, mask)
        emitted = block.emitted[0].tolist()
        messages = {
            (v, g.out_neighbors[v][0]): block.packets[v][0] for v in g.topo_order if emitted[v]
        }
        outputs = {d: output[0] for d, output in block.outputs.items() if output[0] is not None}
        return NetworkEvaluation(messages, outputs, block.clamped_symbols)

    def evaluate_block(
        self, sources: np.ndarray | Sequence[np.ndarray | None], dropped: np.ndarray
    ) -> BlockEvaluation:
        """Run a block of B generations through the network, batch by batch.

        ``sources`` is a (B, sources, L) array ordered like the graph's
        sources, or one (B, L) array per source (None for a source dropped
        throughout); ``dropped`` is a (B, nodes) boolean mask. Dropped
        nodes emit nothing. One call per batch covers every (generation,
        node) pair whose children all emitted, when the batch's packets
        share a dtype and a width. Any other pair is evaluated alone over
        the inputs that arrived (fixed-arity functions restrict their
        coefficient vectors to the surviving children), and emits nothing
        if none did. Each destination that is not dropped applies its
        decoder, if any, to each generation's nonempty inbox.
        """
        g = self.graph
        B = len(dropped)
        out: list[np.ndarray | None] = [None] * g.n_nodes
        if isinstance(sources, np.ndarray):
            sources = list(np.swapaxes(sources, 0, 1))
        for s, column in zip(g.sources, sources):
            out[s] = column
        emitted = ~dropped  # until dropped or left without inputs
        emitted[:, list(g.destinations)] = False
        metrics: dict = {}
        for spec, nodes, children in self._batches:
            arrived = emitted[:, children]
            emitted[:, nodes] &= arrived.any(axis=2)
            full = emitted[:, nodes] & arrived.all(axis=2)
            alone = emitted[:, nodes]
            columns: dict[int, np.ndarray] = {}
            sub = np.flatnonzero(full.any(axis=0))
            parts = [out[c] for c in children[sub].ravel().tolist()]
            if len({(p.dtype, p.shape[-1]) for p in parts}) == 1:
                stacked = np.concatenate(parts, axis=1).reshape(B, *children[sub].shape, -1)
                packets = _apply(spec, stacked[full[:, sub]], metrics)
                batch = np.zeros((B, len(nodes)) + packets.shape[1:], packets.dtype)
                batch[full] = packets
                columns = dict(zip(sub.tolist(), batch.swapaxes(0, 1)[sub]))
                alone = alone & ~full
            ids = nodes.tolist()
            for b, i in np.argwhere(alone).tolist():
                present = children[i][arrived[b, i]].tolist()
                restricted = _restrict_arity(spec, children[i].tolist(), present)
                packet = _apply(restricted, [out[c][b] for c in present], metrics)
                column = columns.get(i)
                if column is None:
                    column = columns[i] = np.zeros((B,) + packet.shape, packet.dtype)
                elif column.shape[1:] != packet.shape:
                    raise DomainMismatch(f"node {g.names[ids[i]]!r} emits packets of unequal widths")
                elif column.dtype != (dtype := np.promote_types(column.dtype, packet.dtype)):
                    column = columns[i] = column.astype(dtype)  # which children arrived varies
                column[b] = packet
            for i, column in columns.items():
                out[ids[i]] = column
        outputs = {}
        for d in g.destinations:
            kids, decoder = g.in_neighbors[d], self.decoders.get(d)
            arrived = emitted[:, list(kids)].tolist()
            outputs[d] = [None] * B
            for b in np.flatnonzero(~dropped[:, d]).tolist():
                inbox = [out[c][b] for c in compress(kids, arrived[b])]
                outputs[d][b] = decoder(inbox) if decoder is not None and inbox else inbox
        return BlockEvaluation(emitted, out, outputs, metrics.get("clamped_symbols", 0))


def _apply(spec: AtomicFunction, packets: Sequence[Packet] | np.ndarray, metrics: dict):
    if isinstance(spec, Nomographic):
        return eval_aafc(spec, packets)
    return eval_dafc(spec, packets, metrics=metrics)


def _restrict_arity(
    spec: AtomicFunction, children: Sequence[int], present: Sequence[int]
) -> AtomicFunction:
    """Project coefficient-indexed functions onto the surviving children."""
    if len(present) == len(children):
        return spec
    keep = [i for i, c in enumerate(children) if c in set(present)]
    if isinstance(spec, LinearCombination):
        return LinearCombination(tuple(spec.coefficients[i] for i in keep), spec.field)
    if isinstance(spec, NeuronUnit):
        return NeuronUnit(tuple(spec.weights[i] for i in keep))
    if isinstance(spec, Nomographic):
        return Nomographic(
            tuple(spec.pre_functions[i] for i in keep),
            tuple(spec.channel_coefficients[i] for i in keep),
            spec.post_function,
        )
    return spec


def install_functions(g: NfcGraph, assignment: FunctionAssignment) -> ConfiguredNetwork:
    """Bind an assignment to a tree, checking coverage and arities. A tree
    node has one out-arc, so an arc key binds its tail and wins over a node key."""
    if g.mode != "tree":
        raise NotATree("installed assignments run on tree-mode graphs")
    functions: dict[int, AtomicFunction] = {}
    for key, spec in assignment.functions.items():
        if isinstance(key, tuple):
            u, v = (_resolve_node(g, key[0]), _resolve_node(g, key[1]))
            if (u, v) not in g.arcs:
                raise MissingAssignment(f"assignment names nonexistent arc {key!r}")
            functions[u] = spec
        else:
            functions.setdefault(_resolve_node(g, key), spec)
    for a in g.atomics:
        if a not in functions:
            raise MissingAssignment(
                f"atomic node {g.names[a]!r} has no function on arc to "
                f"{g.names[g.out_neighbors[a][0]]!r}"
            )
        spec = functions[a]
        if spec.arity is not None and spec.arity != len(g.in_neighbors[a]):
            raise ArityMismatch(
                f"{type(spec).__name__} arity {spec.arity} != in-degree "
                f"{len(g.in_neighbors[a])} of node {g.names[a]!r}"
            )
    decoders = {
        _resolve_node(g, key): fn for key, fn in assignment.decoders.items()
    }
    return ConfiguredNetwork(g, functions, decoders)


def average_decoder(inbox: Sequence[Packet]) -> Packet:
    """Finish the average decomposition: divide pooled sum by pooled count."""
    total = np.sum(np.stack(inbox), axis=0)
    return total[:-1] / total[-1]


def decompose_average(g: NfcGraph) -> FunctionAssignment:
    """Sum/count decomposition of the global average over a tree.

    Sources emit (x_s, 1); every atomic node adds its children's pairs
    elementwise; the destination divides pooled sum by pooled count, so
    the output equals (1/N) sum_s x_s exactly in exact arithmetic.
    """
    if g.mode != "tree":
        raise NotATree("average decomposition requires a tree-mode graph")
    functions: dict[object, AtomicFunction] = {}
    for s in g.sources:
        functions[s] = AppendCount()
    for a in g.atomics:
        functions[a] = Sum()
    decoders = {d: average_decoder for d in g.destinations}
    return FunctionAssignment(functions=functions, decoders=decoders)
