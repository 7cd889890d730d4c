"""Per-packet reference for coded recovery, and an exact rank oracle.

``source_encode`` and ``atomic_recode`` are the packet rules that
``RlncNetwork.run_pass`` computes in bulk as path products: a source
emits its payload under its unit coding vector, and a relay combines its
children's packets under fresh uniform local coefficients, drawn in
child order. The pass's coding vectors and payloads must equal a
node-by-node walk through them, bit for bit.

``exact_success_by_pass`` gives the exact probability that the
destination reaches full rank by each pass. It enumerates every choice
of one pass's local coefficients through the packet rules, and runs a
dynamic programme over the subspaces the destination has collected,
each keyed by its Gauss-Jordan reduced form. ``success_by_pass`` of the
recovery experiment must fall in the binomial region around it.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import Counter
from fractions import Fraction

import numpy as np

from nfcsim.errors import InconsistentDimensions
from nfcsim.field import FieldSpec
from nfcsim.graph import NfcGraph, NodeRole
from nfcsim.rlnc import CodedPacket
from reference_solve import row_reduce


def source_encode(
    source_index: int, payload: np.ndarray, n_sources: int, field: FieldSpec
) -> CodedPacket:
    """Leaf rule: unit coding vector at the source's own index."""
    payload = field.validate_array(payload)
    vector = np.zeros(n_sources, dtype=field.dtype)
    vector[source_index] = 1
    return CodedPacket(payload=payload, coding_vector=vector)


def atomic_recode(
    children: list[CodedPacket], rng: np.random.Generator, field: FieldSpec
) -> CodedPacket:
    """Combine child packets under fresh uniform local coefficients.

    The local coefficients are drawn independently of the payloads; the
    global coding vector is updated with the same coefficients, keeping
    the payload the matching combination of the original source packets.
    """
    if not children:
        raise InconsistentDimensions("recode needs at least one child packet")
    lengths = {len(p.payload) for p in children}
    widths = {len(p.coding_vector) for p in children}
    if len(lengths) != 1 or len(widths) != 1:
        raise InconsistentDimensions(
            f"child packets disagree on dimensions: L={sorted(lengths)}, N={sorted(widths)}"
        )
    local = field.random_elements(rng, len(children))
    payloads = np.stack([p.payload for p in children])
    vectors = np.stack([p.coding_vector for p in children])
    return CodedPacket(
        payload=field.combine(local, payloads),
        coding_vector=field.combine(local, vectors),
    )


class _Enumerated:
    """Stands in for a Generator, handing out one enumerated choice in order."""

    def __init__(self, draws: tuple[int, ...]):
        self.draws = draws

    def integers(self, low, high, size=None, dtype=None):
        out, self.draws = self.draws[:size], self.draws[size:]
        return np.array(out, dtype=dtype)


def pass_slots(graph: NfcGraph) -> int:
    """Local coefficients one pass draws: one per atomic in-arc."""
    return sum(len(graph.in_neighbors[a]) for a in graph.atomics)


def _span_key(field: FieldSpec, rows: np.ndarray) -> bytes:
    """The rows' span, as the bytes of its reduced basis: equal subspaces
    give equal keys, and rank N gives the identity's."""
    reduced, _, pivots = row_reduce(field, rows)
    return reduced[: len(pivots)].tobytes()


def destination_spans(graph: NfcGraph, field: FieldSpec) -> Counter[bytes]:
    """How many of one pass's q^slots coefficient choices deliver each
    subspace (by ``_span_key``) to the destination.

    Every choice recodes unit vectors node by node in topological order;
    the destination's incoming coding vectors span the subspace.
    """
    n = graph.n_sources
    atomics = [v for v in graph.topo_order if graph.roles[v] is NodeRole.ATOMIC]
    dest_children = graph.in_neighbors[graph.destinations[0]]
    empty = np.zeros(0, dtype=field.dtype)
    leaves = {s: source_encode(i, empty, n, field) for i, s in enumerate(graph.sources)}
    row_sets: Counter[bytes] = Counter()
    for choice in itertools.product(range(field.order), repeat=pass_slots(graph)):
        draws = _Enumerated(choice)
        packets = dict(leaves)
        for a in atomics:
            packets[a] = atomic_recode([packets[c] for c in graph.in_neighbors[a]], draws, field)
        row_sets[np.stack([packets[c].coding_vector for c in dest_children]).tobytes()] += 1
    spans: Counter[bytes] = Counter()
    for key, count in row_sets.items():
        spans[_span_key(field, np.frombuffer(key, dtype=field.dtype).reshape(-1, n))] += count
    return spans


def exact_success_by_pass(graph: NfcGraph, field: FieldSpec, n_prime: int) -> tuple[Fraction, ...]:
    """P(rank N by pass k + 1) for k < n_prime, exactly.

    Passes draw independent coefficients, so the subspace the destination
    holds after a pass is a Markov chain: each pass joins it with a
    subspace drawn from ``destination_spans``. A state's weight after k
    passes counts its coefficient choices out of (q^slots)^k. States that
    reach rank N leave the chain, and their weight is the pass's new
    successes.
    """
    n = graph.n_sources
    spans = destination_spans(graph, field)
    choices = field.order ** pass_slots(graph)

    @functools.cache
    def join(key: bytes, span_key: bytes) -> bytes:
        rows = np.frombuffer(key + span_key, dtype=field.dtype).reshape(-1, n)
        return _span_key(field, rows)

    whole = np.eye(n, dtype=field.dtype).tobytes()
    states: Counter[bytes] = Counter({b"": 1})
    full, by_pass = 0, []
    for k in range(1, n_prime + 1):
        after: Counter[bytes] = Counter()
        for key, weight in states.items():
            for span_key, count in spans.items():
                after[join(key, span_key)] += weight * count
        full = full * choices + after.pop(whole, 0)
        states = after
        by_pass.append(Fraction(full, choices**k))
    return tuple(by_pass)


def binomial_region(trials: int, p: Fraction, tail: float = 1e-6) -> range:
    """Success counts outside whose two tails of Binomial(trials, p) each
    hold at most tail / 2."""
    if p in (0, 1):
        return range(int(p) * trials, int(p) * trials + 1)
    k = np.arange(trials + 1)
    # log C(trials, k) as a running sum of log((trials - j + 1) / j), j <= k.
    log_comb = np.concatenate([[0.0], np.cumsum(np.log((trials - k[1:] + 1) / k[1:]))])
    masses = np.exp(log_comb + k * math.log(p) + (trials - k) * math.log(1 - p))
    low = int(np.argmax(np.cumsum(masses) > tail / 2))
    high = trials - int(np.argmax(np.cumsum(masses[::-1]) > tail / 2))
    return range(low, high + 1)
