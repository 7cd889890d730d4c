"""Random linear network coding over a rooted tree.

Sources emit their packet with a unit coding vector; every relay draws
fresh local coefficients uniformly over the field (zero included) and
forwards the combined payload together with updated global coefficients;
the destination decodes from the rank kernel's pivot rows once it has
collected enough pairs. Repeating the upward pass with fresh randomness
yields the extra equations needed for recovery.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from nfcsim.errors import InconsistentDimensions, NotATree
from nfcsim.field import FieldSpec
from nfcsim.graph import NfcGraph, NodeRole
from nfcsim.rng import substream, substream_integers


@dataclass(frozen=True)
class CodedPacket:
    """Payload in F^L plus its global coding vector in F^N."""

    payload: np.ndarray
    coding_vector: np.ndarray


def independent_rows(
    field: FieldSpec, rows: np.ndarray, n: int
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Which rows are not in the span of the rows before them, for T streams.

    ``rows`` (T, R, W) holds T streams of R rows each, whose first ``n``
    columns are a coding vector and whose other W - n columns (payload)
    ride along. The mask (T, R) marks the rows whose coding vector raises
    their stream's rank, so its cumulative sum is the rank after every
    row. Elimination runs column by column over the coding columns of a
    column-major copy; each column's pivot is the earliest still-free row
    with a nonzero entry there, and it clears that column from the free
    rows after it. Only later rows are ever changed, so every prefix
    keeps its span and the pivot rows are the greedy prefix basis. Rows
    no longer free are never read again, so they are updated with the
    rest rather than masked out.

    Column c's normalised pivot row, columns c.. of it as (T, W - c), is
    returned too: where column c has a pivot it reads 1 there and is zero
    before it, so the pivot rows are an echelon form that back-substitutes.
    Where it has none, the entry is meaningless.
    """
    size, r, w = rows.shape
    free = np.ones((size, r), dtype=bool)
    if not r:
        return free, []
    a = rows.transpose(0, 2, 1).copy()  # (T, W, R), C order
    t = np.arange(size)
    mul = field.mul_arrays
    pivots = []
    for c in range(n):
        col = a[:, c]
        cand = free & (col != 0)
        p = cand.argmax(axis=1)  # row 0 with no candidate: every free entry is 0
        pivot = a[t, c:, p]
        pivot = mul(field.inv_arrays(pivot[:, :1]), pivot)
        a[:, c:] ^= mul(pivot[:, :, None], col[:, None, :])
        free[t, p] &= ~cand[t, p]
        pivots.append(pivot)
    return ~free, pivots


class DecoderState:
    """Innovative ``[coding | payload]`` rows with an online rank.

    The rank is ``independent_rows`` over the rows kept so far and the
    new one (T = 1); only the innovative ones are kept.
    """

    def __init__(self, field: FieldSpec, n_sources: int):
        self.field = field
        self.n_sources = n_sources
        self.payload_length: int | None = None  # fixed by the first pair added
        self._basis = np.zeros((0, n_sources), dtype=field.dtype)

    @property
    def rank(self) -> int:
        return len(self._basis)

    def add(self, packet: CodedPacket) -> int:
        """Add one pair; returns the updated rank.

        Both arrays must hold field elements; the coding vector must have
        length N and the payload the length of the first pair added, even
        where that pair added no rank.
        """
        vector = self.field.validate_array(packet.coding_vector)
        payload = self.field.validate_array(packet.payload)
        if vector.shape != (self.n_sources,):
            raise InconsistentDimensions(
                f"coding vector shape {vector.shape} != ({self.n_sources},)"
            )
        if payload.ndim != 1 or self.payload_length not in (None, payload.size):
            raise InconsistentDimensions(
                f"payload shape {payload.shape} is not one row as long as the collected ones"
            )
        if self.payload_length is None:
            self.payload_length = payload.size
            self._basis = np.zeros((0, self.n_sources + payload.size), dtype=self.field.dtype)
        return self.add_vector(np.concatenate([vector, payload]))

    def add_vector(self, row: np.ndarray) -> int:
        """Add one ``[coding | payload]`` row; returns the updated rank.

        A row of the coding vector alone keeps rank without payloads.
        """
        rows = np.vstack([self._basis, row])
        mask, _ = independent_rows(self.field, rows[None], self.n_sources)
        self._basis = rows[mask[0]]
        return self.rank


@dataclass(frozen=True)
class DecodeOutcome:
    """Either all N source packets exactly, or Insufficient(rank)."""

    success: bool
    rank: int
    packets: np.ndarray | None  # (N, L) on success

    @classmethod
    def insufficient(cls, rank: int) -> "DecodeOutcome":
        return cls(success=False, rank=rank, packets=None)


def destination_decode(state: DecoderState) -> DecodeOutcome:
    """Back-substitute the rank kernel's pivot rows; exact recovery or Insufficient.

    At full rank the kept rows' pivot rows form an echelon form with a 1
    at every coding column, so source c is its row's payload minus the
    later columns' combination of the sources after it.
    """
    n, rows = state.n_sources, state._basis
    if len(rows) < n:
        return DecodeOutcome.insufficient(len(rows))
    _, pivots = independent_rows(state.field, rows[None], n)
    packets = np.empty((n, rows.shape[1] - n), dtype=state.field.dtype)
    for c in reversed(range(n)):
        row = pivots[c][0]  # columns c.. of [coding | payload]
        packets[c] = row[n - c :] ^ state.field.combine(row[1 : n - c], packets[c + 1 :])
    return DecodeOutcome(success=True, rank=n, packets=packets)


class RlncNetwork:
    """Coded recovery on one tree, run on the graph's level plan.

    On a tree each source has one path to the destination, so its global
    coefficient at any node above it is the product of the local
    coefficients on that path (Ho et al. 2006: a transfer-matrix entry is
    a sum over paths, and a tree has one). A pass therefore multiplies
    each source's running product by the coefficient of the arc it
    crosses in each plan group, and a node's coding vector is the running
    products masked to the sources below it.
    """

    def __init__(self, graph: NfcGraph, field: FieldSpec, payload_length: int = 1):
        if graph.mode != "tree":
            raise NotATree("coded recovery runs on tree-mode graphs")
        self.graph = graph
        self.field = field
        self.payload_length = payload_length
        self.source_ids = list(graph.sources)
        self.destination = graph.destinations[0]
        self.dest_children = list(graph.in_neighbors[self.destination])
        self.coeffs_per_pass = sum(group.slots.size for group in graph.level_plan)
        # Coding columns of the sources below each node, built up the plan.
        below = {s: [i] for i, s in enumerate(self.source_ids)}

        def masks(nodes) -> np.ndarray:
            out = np.zeros((len(nodes), self.n_sources), dtype=bool)
            for row, v in enumerate(nodes):
                out[row, below[v]] = True
            return out

        # Per plan group: each in-arc's coding columns and that arc's slot,
        # then the group's nodes and their (k, N) source masks.
        self._groups = []
        for group in graph.level_plan:
            cols, slots = [], []
            for v, kids, arc_slots in zip(
                group.nodes.tolist(), group.children.tolist(), group.slots.tolist()
            ):
                below[v] = []
                for c, slot in zip(kids, arc_slots):
                    below[v] += below[c]
                    slots += [slot] * len(below[c])
                cols += below[v]
            cols, slots = np.array(cols, dtype=np.intp), np.array(slots, dtype=np.intp)
            self._groups.append((cols, slots, group.nodes, masks(group.nodes.tolist())))
        self._dest_masks = masks(self.dest_children)

    @property
    def n_sources(self) -> int:
        return len(self.source_ids)

    def random_source_payloads(self, rng: np.random.Generator) -> np.ndarray:
        return self.field.random_elements(rng, (self.n_sources, self.payload_length))

    def run_pass(self, coeffs: np.ndarray, vectors: np.ndarray | None = None) -> np.ndarray:
        """One upward pass; returns the destination's incoming coding vectors.

        ``coeffs`` (..., coeffs_per_pass) holds the pass's local
        coefficients at the plan's slots, with any leading trial axes. The
        result is (..., dest_children, N). A tree sends each source
        through at most one arc of a group, so every group is one
        multiply of the crossing sources' running products. If given,
        ``vectors`` (..., nodes, N) also receives every atomic node's
        coding vector, read after its group.
        """
        mul = self.field.mul_arrays
        run = np.ones(coeffs.shape[:-1] + (self.n_sources,), dtype=self.field.dtype)
        for cols, slots, nodes, masks in self._groups:
            run[..., cols] = mul(run[..., cols], coeffs[..., slots])
            if vectors is not None:
                vectors[..., nodes, :] = np.where(masks, run[..., None, :], 0)
        return np.where(self._dest_masks, run[..., None, :], 0)

    def pass_once(
        self, payloads: np.ndarray, rng: np.random.Generator
    ) -> dict[int, CodedPacket]:
        """One upward pass; returns every node's emitted packet.

        ``payloads`` (N, L) is reused across passes; each pass redraws the
        local coefficients node by node in topological order (slot order).
        Every payload is its coding vector's combination of ``payloads``.
        """
        g, n, dtype = self.graph, self.n_sources, self.field.dtype
        atomics = [v for v in g.topo_order if g.roles[v] is NodeRole.ATOMIC]
        draws = [self.field.random_elements(rng, len(g.in_neighbors[a])) for a in atomics]
        vectors = np.zeros((g.n_nodes, n), dtype=dtype)
        vectors[self.source_ids, np.arange(n)] = 1
        self.run_pass(np.concatenate([np.zeros(0, dtype), *draws]), vectors)
        combined = self.field.combine(vectors, payloads)
        return {
            v: CodedPacket(combined[v].copy(), vectors[v].copy())
            for v in self.source_ids + atomics
        }

    def destination_pairs(self, packets: dict[int, CodedPacket]) -> list[CodedPacket]:
        return [packets[c] for c in self.dest_children]


@dataclass(frozen=True)
class SuccessStats:
    """Recovery experiment summary, the run's one ``stats.csv`` row. It meters
    nothing: each arc carries trials * n_prime messages, which the engine meters."""

    field_order: int
    n_sources: int
    n_prime: int
    trials: int
    successes: int
    probability: float
    seed: int
    success_by_pass: tuple[int, ...]  # successes had the run stopped after pass k+1

    CSV_COLUMNS = (
        "field_order",
        "N",
        "N_prime",
        "trials",
        "successes",
        "probability",
        "seed",
    )

    def csv_row(self) -> dict[str, object]:
        return {
            "field_order": self.field_order,
            "N": self.n_sources,
            "N_prime": self.n_prime,
            "trials": self.trials,
            "successes": self.successes,
            "probability": self.probability,
            "seed": self.seed,
        }


# Field elements per block of the recovery experiment: a block holds as
# many trials T as keep T x (n_prime * dest_children) x N, the rows that
# independent_rows eliminates, within this budget (at least one trial).
# Its working set is those rows plus its products' int32 logs.
BLOCK_ELEMENTS = 1 << 20


# Trial t of an experiment seeded s draws from its own substream(s, t).
trial_rng = substream


def run_recovery_experiment(
    graph: NfcGraph,
    field: FieldSpec,
    n_prime: int,
    trials: int,
    seed: int,
    payload_length: int = 1,
) -> SuccessStats:
    """Empirical probability that rank reaches N within n_prime passes.

    Each trial draws fresh source packets, then repeats the upward pass
    n_prime times with fresh local coefficients, feeding the
    destination's incoming pairs into the decoder state. All n_prime
    passes run regardless of when full rank is reached (the protocol has
    no feedback), and per-trial substreams make results reproducible and
    nested in n_prime for a fixed seed. Trials run in blocks sized by
    BLOCK_ELEMENTS: the payloads are drawn, keeping each trial's stream,
    but rank reads only the destination's incoming coding vectors. One
    ``run_pass`` computes all n_prime passes of the block, and one
    ``independent_rows`` over each trial's n_prime * dest_children
    vectors, pass by pass, gives its rank after every pass.
    """
    net = RlncNetwork(graph, field, payload_length)
    n = net.n_sources
    n_payload_draws = n * payload_length
    per_pass = net.coeffs_per_pass
    draws_per_trial = n_payload_draws + n_prime * per_pass
    fan_in = len(net.dest_children)
    # The pass after which each trial first reached rank N; n_prime if never.
    first_full = np.empty(trials, dtype=np.intp)
    block_trials = max(1, BLOCK_ELEMENTS // max(1, n_prime * fan_in * n))
    for start in range(0, trials, block_trials):
        stop = min(start + block_trials, trials)
        # One row per trial: source payloads first, then the local
        # coefficients pass by pass (keeps runs nested in n_prime).
        block = substream_integers(seed, start, stop, draws_per_trial, field.m, field.dtype)
        size = stop - start
        coeffs = block[:, n_payload_draws:].reshape(size, n_prime, per_pass)
        rows = net.run_pass(coeffs).reshape(size, n_prime * fan_in, n)  # pass-major
        innovative = independent_rows(field, rows, n)[0].reshape(size, n_prime, fan_in)
        ranks = np.cumsum(innovative.sum(axis=2), axis=1)
        # Rank never falls, so the passes still short of N come first.
        first_full[start:stop] = np.count_nonzero(ranks < n, axis=1)
    success_by_pass = np.cumsum(np.bincount(first_full, minlength=n_prime + 1)[:n_prime])
    successes = int(np.count_nonzero(first_full < n_prime))
    return SuccessStats(
        field_order=field.order,
        n_sources=n,
        n_prime=n_prime,
        trials=trials,
        successes=successes,
        probability=successes / trials if trials else 0.0,
        seed=seed,
        success_by_pass=tuple(success_by_pass.tolist()),
    )
