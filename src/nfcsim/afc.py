"""Atomic function computation and network configuration.

Digital atomic functions operate in-node on packets of field symbols or
reals; the simulated-analog path models superposition: pre-processed
inputs are scaled by channel coefficients, summed (optionally with
Gaussian receiver noise), and post-processed. ``install_functions``
turns a graph plus an assignment into an executable network.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Callable, Mapping, Sequence

import numpy as np

from nfcsim.errors import (
    ArityMismatch,
    DomainError,
    DomainMismatch,
    MissingAssignment,
    NotATree,
)
from nfcsim.field import FieldSpec
from nfcsim.graph import NfcGraph, NodeRole

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


def _check_inputs(spec: AtomicFunction, inputs: Sequence[Packet]) -> None:
    if not inputs:
        raise ArityMismatch(f"{type(spec).__name__} needs at least one input")
    if spec.arity is not None and len(inputs) != spec.arity:
        raise ArityMismatch(
            f"{type(spec).__name__} has arity {spec.arity}, got {len(inputs)} inputs"
        )
    lengths = {len(p) for p in inputs}
    if len(lengths) != 1:
        raise DomainMismatch(f"inputs have mixed lengths {sorted(lengths)}")
    domains = {is_real_packet(p) for p in inputs}
    if len(domains) != 1:
        raise DomainMismatch("inputs mix field and real domains")


def eval_dafc(
    spec: AtomicFunction,
    inputs: Sequence[Packet],
    metrics: dict | None = None,
) -> Packet:
    """Evaluate a digital atomic function on equal-length packets.

    ``metrics`` (optional dict) accumulates the histogram clamp count
    under key "clamped_symbols".
    """
    _check_inputs(spec, inputs)
    stacked = np.stack([np.asarray(p) for p in inputs])
    real = is_real_packet(stacked)

    if isinstance(spec, LinearCombination):
        if real:
            raise DomainMismatch("LinearCombination requires field-domain packets")
        rows = spec.field.validate_array(stacked)
        coeffs = spec.field.validate_array(np.array(spec.coefficients))
        return spec.field.combine(coeffs, rows)
    if isinstance(spec, Identity):
        return stacked[0].copy()
    if isinstance(spec, AppendCount):
        if not real:
            raise DomainMismatch("AppendCount operates on real packets")
        return np.concatenate([stacked[0], [1.0]])
    if isinstance(spec, Sum):
        return stacked.sum(axis=0, dtype=np.float64 if real else np.int64)
    if isinstance(spec, Max):
        return stacked.max(axis=0)
    if isinstance(spec, Min):
        return stacked.min(axis=0)
    if isinstance(spec, Average):
        return stacked.mean(axis=0, dtype=np.float64)
    if isinstance(spec, Histogram):
        if real:
            raise DomainMismatch("Histogram requires integer-valued symbols")
        values = stacked.astype(np.int64).ravel()
        clamped = np.clip(values, 0, spec.bins - 1)
        n_clamped = int((clamped != values).sum())
        if metrics is not None and n_clamped:
            metrics["clamped_symbols"] = metrics.get("clamped_symbols", 0) + n_clamped
        return np.bincount(clamped, minlength=spec.bins).astype(np.int64)
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
    inputs: Sequence[Packet],
    noise_sigma: float = 0.0,
    rng: np.random.Generator | None = None,
) -> Packet:
    """Simulated-analog evaluation: post(sum_s h_s * pre_s(x_s) + noise).

    Noise is i.i.d. Normal(0, noise_sigma^2) per symbol; noise_sigma > 0
    requires an rng.
    """
    _check_inputs(spec, inputs)
    if not is_real_packet(inputs[0]):
        raise DomainMismatch("analog evaluation requires real packets")
    length = len(inputs[0])
    received = np.zeros(length, dtype=np.float64)
    for pre, h, x in zip(spec.pre_functions, spec.channel_coefficients, inputs):
        received += h * np.asarray(pre(np.asarray(x, dtype=np.float64)), dtype=np.float64)
    if noise_sigma < 0:
        raise DomainError("noise_sigma must be >= 0")
    if noise_sigma > 0:
        if rng is None:
            raise ValueError("noise_sigma > 0 requires an rng")
        received += rng.normal(0.0, noise_sigma, size=length)
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


def _resolve_node(g: NfcGraph, key: object) -> int:
    if isinstance(key, str):
        return g.node_id(key)
    return int(key)  # type: ignore[arg-type]


class ConfiguredNetwork:
    """Immutable executable network: graph + per-arc atomic functions."""

    def __init__(
        self,
        graph: NfcGraph,
        arc_functions: Mapping[tuple[int, int], AtomicFunction],
        decoders: Mapping[int, DecoderFn],
    ):
        self.graph = graph
        self.arc_functions = dict(arc_functions)
        self.decoders = dict(decoders)

    def evaluate(
        self,
        source_inputs: Mapping[object, Packet],
        dropped: frozenset[int] | set[int] = frozenset(),
    ) -> NetworkEvaluation:
        """Run one generation through the network in topological order.

        Dropped nodes emit nothing; consumers evaluate over whatever
        inputs arrived (fixed-arity functions restrict their coefficient
        vectors to the surviving children). A node whose inputs all
        vanished emits nothing either.
        """
        g = self.graph
        inputs_by_id: dict[int, Packet] = {
            _resolve_node(g, key): np.asarray(p) for key, p in source_inputs.items()
        }
        messages: dict[tuple[int, int], Packet] = {}
        destination_outputs: dict[int, object] = {}
        metrics: dict = {}
        source, atomic = NodeRole.SOURCE, NodeRole.ATOMIC
        for v in g.topo_order:
            if v in dropped:
                continue
            role = g.roles[v]
            if role is source:
                if v not in inputs_by_id:
                    raise MissingAssignment(f"no input packet for source {g.names[v]!r}")
                base = [inputs_by_id[v]]
                incoming = [
                    messages[(c, v)] for c in g.in_neighbors[v] if (c, v) in messages
                ]
                for w in g.out_neighbors[v]:
                    spec = self.arc_functions.get((v, w))
                    if spec is None:
                        messages[(v, w)] = base[0].copy()
                    else:
                        messages[(v, w)] = self._apply(spec, incoming + base, metrics)
            elif role is atomic:
                present = [c for c in g.in_neighbors[v] if (c, v) in messages]
                if not present:
                    continue
                packets = [messages[(c, v)] for c in present]
                for w in g.out_neighbors[v]:
                    spec = self.arc_functions[(v, w)]
                    spec = _restrict_arity(spec, g.in_neighbors[v], present)
                    messages[(v, w)] = self._apply(spec, packets, metrics)
            else:
                inbox = [messages[(c, v)] for c in g.in_neighbors[v] if (c, v) in messages]
                decoder = self.decoders.get(v)
                if decoder is not None and inbox:
                    destination_outputs[v] = decoder(inbox)
                else:
                    destination_outputs[v] = inbox
        return NetworkEvaluation(
            messages=messages,
            destination_outputs=destination_outputs,
            clamped_symbols=metrics.get("clamped_symbols", 0),
        )

    @staticmethod
    def _apply(spec, packets, metrics):
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
    """Bind an assignment to a graph, checking coverage and arities."""
    arc_functions: dict[tuple[int, int], AtomicFunction] = {}
    for key, spec in assignment.functions.items():
        if isinstance(key, tuple):
            u, v = (_resolve_node(g, key[0]), _resolve_node(g, key[1]))
            if (u, v) not in g.arcs:
                raise MissingAssignment(f"assignment names nonexistent arc {key!r}")
            arc_functions[(u, v)] = spec
        else:
            u = _resolve_node(g, key)
            for w in g.out_neighbors[u]:
                arc_functions.setdefault((u, w), spec)
    for a in g.atomics:
        for w in g.out_neighbors[a]:
            if (a, w) not in arc_functions:
                raise MissingAssignment(
                    f"atomic node {g.names[a]!r} has no function on arc to {g.names[w]!r}"
                )
            spec = arc_functions[(a, w)]
            if spec.arity is not None and spec.arity != len(g.in_neighbors[a]):
                raise ArityMismatch(
                    f"{type(spec).__name__} arity {spec.arity} != in-degree "
                    f"{len(g.in_neighbors[a])} of node {g.names[a]!r}"
                )
    decoders = {
        _resolve_node(g, key): fn for key, fn in assignment.decoders.items()
    }
    return ConfiguredNetwork(g, arc_functions, decoders)


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
