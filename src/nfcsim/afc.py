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
    """The children's packets added symbol-wise: int64 on field symbols,
    float64 on reals. At width >= 2 real children are added as a left fold
    from +0.0 in child order, numpy's order over a C-contiguous stack, so
    the result does not depend on how the stack lies in memory; at width 1
    numpy's sum adds 8 or more children pairwise."""


@dataclass(frozen=True)
class Max(AtomicFunction):
    pass


@dataclass(frozen=True)
class Min(AtomicFunction):
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
class AppendCount(AtomicFunction):
    """Source-side encoding for average decomposition: emit (x, 1)."""

    arity = 1


@dataclass(frozen=True)
class Nomographic(AtomicFunction):
    """Superposition triple (pre-functions, channel coefficients, post).

    Pre/post functions take and return float arrays; channel
    coefficients must be finite and nonzero.
    """

    pre_functions: tuple[Callable[[np.ndarray], np.ndarray], ...]
    channel_coefficients: tuple[float, ...]
    post_function: Callable[[np.ndarray], np.ndarray]

    def __post_init__(self):
        if len(self.pre_functions) != len(self.channel_coefficients):
            raise ArityMismatch("one pre-function per channel coefficient required")
        if not all(h != 0 and np.isfinite(h) for h in self.channel_coefficients):
            raise DomainError("channel coefficients must be finite and nonzero")

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


def _add_children(stacked: np.ndarray) -> np.ndarray:
    """The float64 sum over the children axis (-2) of a real (..., P, W)
    stack, in ``Sum``'s order."""
    if stacked.shape[-1] == 1:
        return stacked.sum(axis=-2, dtype=np.float64)
    total = np.zeros(stacked.shape[:-2] + stacked.shape[-1:])
    for i in range(stacked.shape[-2]):
        np.add(total, stacked[..., i, :], out=total, dtype=np.float64)
    return total


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
        return _add_children(stacked) if real else stacked.sum(axis=-2, dtype=np.int64)
    if isinstance(spec, Max):
        return stacked.max(axis=-2)
    if isinstance(spec, Min):
        return stacked.min(axis=-2)
    if isinstance(spec, Histogram):
        if real:
            raise DomainMismatch("Histogram requires integer-valued symbols")
        if spec.bins < 1:
            raise DomainError("Histogram needs at least one bin")
        values = stacked.astype(np.int64)
        clamped = np.clip(values, 0, spec.bins - 1)
        n_clamped = int((clamped != values).sum())
        if metrics is not None and n_clamped:
            metrics["clamped_symbols"] = metrics.get("clamped_symbols", 0) + n_clamped
        return (clamped[..., None] == np.arange(spec.bins)).sum(axis=(-3, -2), dtype=np.int64)
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
    Normal(0, noise_sigma^2) per symbol, for a finite noise_sigma >= 0;
    noise_sigma > 0 requires an rng.
    """
    if not (noise_sigma >= 0 and np.isfinite(noise_sigma)):
        raise DomainError("noise_sigma must be >= 0 and finite")
    if noise_sigma > 0 and rng is None:
        raise ValueError("noise_sigma > 0 requires an rng")
    stacked = _stack_inputs(spec, inputs)
    if not is_real_packet(stacked):
        raise DomainMismatch("analog evaluation requires real packets")
    received = np.zeros(stacked.shape[:-2] + stacked.shape[-1:], dtype=np.float64)
    for pre, h, x in zip(spec.pre_functions, spec.channel_coefficients, np.moveaxis(stacked, -2, 0)):
        received += h * np.asarray(pre(np.asarray(x, dtype=np.float64)), dtype=np.float64)
    if noise_sigma > 0:
        received += rng.normal(0.0, noise_sigma, size=received.shape)
    return np.asarray(spec.post_function(received), dtype=np.float64)


# -- nomographic presets --------------------------------------------------

def _nomographic(
    n_inputs: int,
    channel_coefficients: Sequence[float] | None,
    transform: Callable[[np.ndarray], np.ndarray],
    post: Callable[[np.ndarray], np.ndarray],
) -> Nomographic:
    """pre_s(x) = transform(x) / h_s, so the channel's gains cancel."""
    h = tuple(channel_coefficients or [1.0] * n_inputs)
    pres = tuple((lambda x, hs=hs: transform(x) / hs) for hs in h)
    return Nomographic(pres, h, post)


def nomographic_mean(n_inputs: int, channel_coefficients: Sequence[float] | None = None) -> Nomographic:
    """Arithmetic mean: pre_s(x) = x / h_s, post(r) = r / n."""
    return _nomographic(n_inputs, channel_coefficients, lambda x: x, lambda r: r / n_inputs)


def nomographic_sum(n_inputs: int, channel_coefficients: Sequence[float] | None = None) -> Nomographic:
    """Plain superposition sum with identity post-processing."""
    return _nomographic(n_inputs, channel_coefficients, lambda x: x, lambda r: r)


def nomographic_euclidean_norm(
    n_inputs: int, channel_coefficients: Sequence[float] | None = None
) -> Nomographic:
    """sqrt(sum_s x_s^2): pre_s(x) = x^2 / h_s, post(r) = sqrt(r)."""

    def post(r: np.ndarray) -> np.ndarray:
        if np.any(r < 0):
            raise DomainError("square root of a negative superposition")
        return np.sqrt(r)

    return _nomographic(n_inputs, channel_coefficients, np.square, post)


def nomographic_geometric_mean(
    n_inputs: int, channel_coefficients: Sequence[float] | None = None
) -> Nomographic:
    """(prod_s x_s)^(1/n): pre_s(x) = ln(x) / h_s, post(r) = exp(r / n)."""

    def log_pre(x: np.ndarray) -> np.ndarray:
        if np.any(x <= 0):
            raise DomainError("geometric mean undefined for non-positive inputs")
        return np.log(x)

    return _nomographic(n_inputs, channel_coefficients, log_pre, lambda r: np.exp(r / n_inputs))


# -- network configuration -------------------------------------------------

# A destination's finishing function over a block of generations: packets
# (B, k, W) from its k children in child order and the arrival mask (B, k)
# give one (B, W') row per generation. Every row has at least one arrival;
# the packets of a child that did not arrive are unspecified.
DecoderFn = Callable[[np.ndarray, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class FunctionAssignment:
    """Installable map from nodes (or arcs) to atomic functions.

    Keys are node names, node ids, or (tail, head) arc pairs; a node key
    applies to every outgoing arc of that node. ``decoders`` optionally
    maps destinations to a ``DecoderFn``, which finishes a block of
    generations at once; a destination without one outputs its inbox.
    """

    functions: Mapping[object, AtomicFunction]
    decoders: Mapping[object, DecoderFn] = dc_field(default_factory=dict)


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
    packets: list[np.ndarray]  # per node (B, width), rows valid where emitted; (B, 0) at a destination
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
    ``evaluate`` runs a block of generations; one generation is B = 1.
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
        # Where each node's packets are held: (batch, position); batch 0 is the source input.
        place, sizes = {s: (0, i) for i, s in enumerate(graph.sources)}, [len(sources)]
        self._batches = []
        for nodes, children in levels:
            members: dict[AtomicFunction, list[int]] = {}
            for i, v in enumerate(nodes.tolist()):
                members.setdefault(self.functions.get(v, Identity()), []).append(i)
            for spec, i in members.items():
                self._batches.append((spec, nodes[i], children[i], _reader(place, sizes, children[i])))
                place.update((v, (len(sizes), p)) for p, v in enumerate(nodes[i].tolist()))
                sizes.append(len(i))

    def evaluate(self, sources: np.ndarray, dropped: np.ndarray) -> BlockEvaluation:
        """Run a block of B generations through the network, batch by batch.

        ``sources`` is a (B, sources, L) array ordered like the graph's
        sources; ``dropped`` is a (B, nodes) boolean mask. Dropped nodes
        emit nothing, nor does a node none of whose children arrived, and
        the packets of a node that emits nothing are never read. A batch
        reads all of its children as one array at their promoted dtype, so
        children of unequal widths are refused whatever arrived, and a
        node's width is fixed by the source width and the functions. A
        batch groups its (generation, node) pairs by which children arrived
        and evaluates a group in one call over those children only
        (fixed-arity functions restrict their coefficient vectors to them).
        A destination's output is None where it is dropped. Otherwise it is
        its inbox, the list of packets that arrived, or, with a decoder,
        the decoder's row for that generation: one call covers every
        generation in which some child arrived, and the others keep an
        empty inbox. A decoder's children must share one width.
        """
        g = self.graph
        B = len(dropped)
        out = [np.empty((B, 0))] * g.n_nodes  # a destination emits nothing; the others are set below
        held = [sources]  # per batch, its (B, nodes, width) packets
        emitted = ~dropped  # until dropped or left without inputs
        emitted[:, list(g.destinations)] = False
        metrics: dict = {}
        for spec, nodes, children, reader in self._batches:
            arrived = emitted[:, children]
            live = emitted[:, nodes] = emitted[:, nodes] & arrived.any(axis=2)
            values = _read(g, held, nodes, children.shape, *reader)
            if arrived.all() and live.all():  # one group: every pair, every child
                batch = np.ascontiguousarray(_apply(spec, values, metrics))
            else:
                batch = _grouped(spec, live, arrived, values, metrics)
            held.append(batch)
            for v, column in zip(nodes.tolist(), batch.swapaxes(0, 1)):
                out[v] = column
        outputs = {}
        for d in g.destinations:
            kids, decoder = list(g.in_neighbors[d]), self.decoders.get(d)
            arrived, alive = emitted[:, kids], (~dropped[:, d]).tolist()
            if decoder is None:
                inboxes = arrived.tolist()
                outputs[d] = [
                    [out[c][b] for c in compress(kids, inboxes[b])] if alive[b] else None
                    for b in range(B)
                ]
                continue
            outputs[d] = [[] if a else None for a in alive]
            if len({out[c].shape[-1] for c in kids}) > 1:
                raise DomainMismatch(f"destination {g.names[d]!r} decodes packets of unequal widths")
            rows = np.flatnonzero(~dropped[:, d] & arrived.any(axis=1))
            if len(rows):  # a row where nothing arrived never reaches the decoder
                packets = np.stack([out[c] for c in kids], axis=1)
                for b, value in zip(rows.tolist(), decoder(packets[rows], arrived[rows])):
                    outputs[d][b] = value
        return BlockEvaluation(emitted, out, outputs, metrics.get("clamped_symbols", 0))


def _reader(place: Mapping[int, tuple[int, int]], sizes: Sequence[int], children: np.ndarray):
    """The batches that hold ``children``, by each node's (batch, position),
    and the index into the concatenation of their packets; None for the identity."""
    places = [place[c] for c in children.ravel().tolist()]
    holders = sorted({h for h, _ in places})
    start = dict(zip(holders, np.cumsum([0] + [sizes[h] for h in holders]).tolist()))
    index = np.array([start[h] + p for h, p in places], dtype=np.intp)
    identity = len(index) == sum(sizes[h] for h in holders) and (index == np.arange(len(index))).all()
    return holders, None if identity else index.reshape(children.shape)


def _read(g: NfcGraph, held: list, nodes: np.ndarray, shape: tuple[int, ...], holders: Sequence[int], index):
    """The (B, *shape, width) packets of the children of ``nodes``, at their
    promoted dtype and C-contiguous like one node's stacked inputs."""
    parts = [held[h] for h in holders]
    if len({p.shape[-1] for p in parts}) > 1:  # name the first node with a child unlike the first child
        widths = np.repeat([p.shape[-1] for p in parts], [p.shape[1] for p in parts])
        widths = widths.reshape(shape) if index is None else widths[index]
        v = nodes[(widths != widths.flat[0]).any(axis=1).argmax()]
        raise DomainMismatch(f"node {g.names[v]!r} emits packets of unequal widths")
    joined = np.concatenate(parts, axis=1) if len(parts) > 1 else parts[0]
    return joined.reshape(len(joined), *shape, -1) if index is None else np.take(joined, index, axis=1)


def _grouped(spec, live, arrived, values, metrics: dict) -> np.ndarray:
    """A batch's (B, nodes, width) packets: its live pairs evaluated one
    arrival pattern at a time, zeros elsewhere. A batch without a live pair
    takes its dtype and width from a call on zero pairs."""
    b, i = np.nonzero(live)
    seen = arrived[b, i]
    packed = np.packbits(seen, axis=1)
    key = packed.view(np.dtype((np.void, packed.shape[1]))).ravel()
    _, first, inverse, counts = np.unique(key, return_index=True, return_inverse=True, return_counts=True)
    results = []
    groups = np.split(np.argsort(inverse, kind="stable"), np.cumsum(counts)[:-1])
    for row, members in zip(first.tolist(), groups):
        bg, ig, keep = b[members], i[members], np.flatnonzero(seen[row])
        restricted = _restrict_arity(spec, keep.tolist(), seen.shape[1])
        results.append(((bg, ig), _apply(restricted, values[bg[:, None], ig[:, None], keep], metrics)))
    like = results[0][1] if results else _apply(spec, values[:0, 0], metrics)
    batch = np.zeros(live.shape + like.shape[-1:], like.dtype)
    for pairs, packets in results:
        batch[pairs] = packets
    return batch


def _apply(spec: AtomicFunction, packets: np.ndarray, metrics: dict):
    if isinstance(spec, Nomographic):
        return eval_aafc(spec, packets)
    return eval_dafc(spec, packets, metrics=metrics)


def _restrict_arity(spec: AtomicFunction, keep: Sequence[int], arity: int) -> AtomicFunction:
    """Project coefficient-indexed functions onto the surviving children,
    the positions ``keep`` of ``arity``."""
    if len(keep) == arity:
        return spec
    if isinstance(spec, LinearCombination):
        return LinearCombination(tuple(spec.coefficients[i] for i in keep), spec.field)
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


def average_decoder(packets: np.ndarray, arrived: np.ndarray) -> np.ndarray:
    """Finish the average decomposition: divide each generation's pooled sum
    by its pooled count. The children are added as ``Sum`` adds them (a
    left fold from +0.0 in child order at width >= 2), and a child that did
    not arrive adds -0.0, IEEE's additive identity, so each row's sum
    equals, bit for bit, the sum over only the children that arrived."""
    total = _add_children(np.where(arrived[..., None], packets, -0.0))
    return total[:, :-1] / total[:, -1:]


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
