"""Solvability analysis: can a target function be computed over a graph?

Two routes: the min-cut criterion for delivering all source symbols by
linear coding (solvable iff every source/destination cut has capacity at
least N), and exhaustive witness search over all per-arc encoding
functions and destination decodings for tiny instances. The search is
exact: candidate functions are enumerated on the input combinations that
can actually reach each arc (extending to the full domain changes
nothing), and every witness is re-verified on all inputs before being
reported. Achieved K/L ratios are lower bounds on the computing
capacity; the supremum itself is not reachable by finite sweep.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterator, Mapping, Sequence

from nfcsim.errors import RoleConflict
from nfcsim.graph import NfcGraph, NodeRole, message_min_cut

PATTERN_LIMIT = 1 << 20  # full-input verification must stay enumerable


@dataclass(frozen=True)
class TargetFunction:
    """Total function over A^N, tabulated in lexicographic input order."""

    name: str
    arity: int
    input_alphabet: int
    output_alphabet: int
    table: tuple[int, ...]

    def __post_init__(self):
        if len(self.table) != self.input_alphabet**self.arity:
            raise ValueError("truth table length must be |A|^N")
        if self.table and max(self.table) >= self.output_alphabet:
            raise ValueError("truth table value outside the output alphabet")

    @classmethod
    def from_callable(
        cls,
        name: str,
        fn: Callable[..., int],
        arity: int,
        input_alphabet: int,
        output_alphabet: int,
    ) -> "TargetFunction":
        table = tuple(
            fn(*combo)
            for combo in itertools.product(range(input_alphabet), repeat=arity)
        )
        return cls(name, arity, input_alphabet, output_alphabet, table)

    def __call__(self, inputs: Sequence[int]) -> int:
        idx = 0
        for x in inputs:
            idx = idx * self.input_alphabet + x
        return self.table[idx]


def xor_target(arity: int = 2, alphabet: int = 2) -> TargetFunction:
    return TargetFunction.from_callable(
        "xor", lambda *xs: sum(xs) % alphabet, arity, alphabet, alphabet
    )


def max_target(arity: int = 2, alphabet: int = 2) -> TargetFunction:
    return TargetFunction.from_callable("max", lambda *xs: max(xs), arity, alphabet, alphabet)


def identity_target(arity: int = 2, alphabet: int = 2) -> TargetFunction:
    """Deliver all source symbols: B = A^N, encoded as a base-|A| integer,
    which in lexicographic input order is the input's table index."""
    size = alphabet**arity
    return TargetFunction("identity", arity, alphabet, size, tuple(range(size)))


TARGET_PRESETS: dict[str, Callable[[int, int], TargetFunction]] = {
    "xor": xor_target,
    "max": max_target,
    "identity": identity_target,
}


@dataclass(frozen=True)
class SolvabilityInstance:
    """One search problem: graph, alphabets, block lengths, and a cap."""

    graph: NfcGraph
    target: TargetFunction
    alphabet_size: int
    generation_length: int = 1  # K source symbols per block
    packet_length: int = 1  # L symbols per arc message
    candidate_cap: int = 10_000_000
    function_class: str = "all"  # "all" | "linear"

    def __post_init__(self):
        if self.target.arity != self.graph.n_sources:
            raise ValueError(
                f"target arity {self.target.arity} != {self.graph.n_sources} sources"
            )
        if self.target.input_alphabet != self.alphabet_size:
            raise ValueError("target input alphabet differs from the network alphabet")
        if self.function_class not in ("all", "linear"):
            raise ValueError(f"unknown function class {self.function_class!r}")
        if self.function_class == "linear" and self.alphabet_size != 2:
            raise ValueError("linear search is implemented over GF(2)")


@dataclass(frozen=True)
class Witness:
    """Per-arc encoding tables plus per-destination decodings.

    Arc tables map the reachable input keys (incoming arc vectors, plus
    the source's own symbols for source arcs) to the emitted vector;
    unlisted inputs default to the all-zero vector. Decoders map each
    reachable received tuple to the K function values.
    """

    arc_inputs: Mapping[tuple[str, str], tuple]
    arc_tables: Mapping[tuple[str, str], Mapping[tuple, tuple[int, ...]]]
    decoders: Mapping[str, Mapping[tuple, tuple[int, ...]]]


@dataclass(frozen=True)
class SolvabilityVerdict:
    solvable: str  # "yes" | "no" | "unknown-capped"
    witness: Witness | None
    achieved_ratio: float | None
    detail: str

    @property
    def is_solvable(self) -> bool:
        return self.solvable == "yes"


@dataclass(frozen=True)
class LinearIdentityVerdict:
    """Min-cut criterion for delivering all N source symbols."""

    solvable: bool
    cut: int
    n_sources: int

    @property
    def detail(self) -> str:
        relation = ">=" if self.solvable else "<"
        return f"min cut {self.cut} {relation} N={self.n_sources}"


def linear_identity_check(g: NfcGraph, dest: int | None = None) -> LinearIdentityVerdict:
    """Identity delivery is solvable iff every source-to-destination cut
    has capacity at least N (per-generation symbols, linear coding).

    The cut counts one originating symbol per source (unit-capacity
    synthetic arcs), which is the form under which the criterion is both
    necessary and sufficient for a single destination.
    """
    if dest is None:
        if len(g.destinations) != 1:
            raise RoleConflict("specify a destination for multi-destination graphs")
        dest = g.destinations[0]
    cut = message_min_cut(g, dest)
    return LinearIdentityVerdict(
        solvable=cut >= g.n_sources, cut=cut, n_sources=g.n_sources
    )


# -- exhaustive search ----------------------------------------------------

def _arc_order(g: NfcGraph) -> list[tuple[int, int]]:
    order = []
    for u in g.topo_order:
        for v in sorted(g.out_neighbors[u]):
            order.append((u, v))
    return order


def candidate_bound(instance: SolvabilityInstance) -> int:
    """Upper bound on candidate assignments, computable before search."""
    g = instance.graph
    q = instance.alphabet_size
    k, length = instance.generation_length, instance.packet_length
    n_patterns = q ** (g.n_sources * k)
    bound = 1
    for u, _v in _arc_order(g):
        in_deg = len(g.in_neighbors[u])
        if instance.function_class == "linear":
            dim = length * in_deg + (k if g.roles[u] is NodeRole.SOURCE else 0)
            bound *= q ** (length * dim)
        else:
            domain = q ** (length * in_deg)
            if g.roles[u] is NodeRole.SOURCE:
                domain *= q**k
            classes = min(domain, n_patterns)
            bound *= (q**length) ** classes
        if bound > instance.candidate_cap:
            return bound
    return bound


def _linear_apply(matrix: tuple[tuple[int, ...], ...], vec: tuple[int, ...]) -> tuple[int, ...]:
    # GF(2): dot product is parity of the masked entries.
    return tuple(
        sum(m * x for m, x in zip(row, vec)) % 2 for row in matrix
    )


def brute_force_search(instance: SolvabilityInstance) -> SolvabilityVerdict:
    """Exhaustive search for encoding functions and decodings.

    Arc functions are enumerated in a fixed lexicographic order (by arc,
    then by truth table over the arc's reachable inputs), so the first
    witness found is deterministic. Every witness is re-verified on all
    |A|^(N*K) inputs before being reported.
    """
    g = instance.graph
    q = instance.alphabet_size
    k, length = instance.generation_length, instance.packet_length
    target = instance.target

    n_patterns = q ** (g.n_sources * k)
    if n_patterns > PATTERN_LIMIT:
        return SolvabilityVerdict(
            "unknown-capped", None, None,
            f"{n_patterns} input patterns exceed the verification limit",
        )
    bound = candidate_bound(instance)
    if bound > instance.candidate_cap:
        return SolvabilityVerdict(
            "unknown-capped", None, None,
            f"{bound} candidate assignments exceed cap {instance.candidate_cap}",
        )

    sources = list(g.sources)
    patterns = list(
        itertools.product(itertools.product(range(q), repeat=k), repeat=len(sources))
    )
    targets = [
        tuple(target([sigma[s][gen] for s in range(len(sources))]) for gen in range(k))
        for sigma in patterns
    ]
    source_pos = {s: i for i, s in enumerate(sources)}
    arc_order = _arc_order(g)

    # Per-pattern value of each assigned arc, filled during the DFS.
    arc_values: dict[tuple[int, int], list[tuple[int, ...]]] = {}
    arc_tables: dict[tuple[int, int], dict[tuple, tuple[int, ...]]] = {}

    def input_key(u: int, pattern_idx: int) -> tuple:
        incoming = tuple(
            arc_values[(c, u)][pattern_idx] for c in g.in_neighbors[u]
        )
        if g.roles[u] is NodeRole.SOURCE:
            return incoming + (patterns[pattern_idx][source_pos[u]],)
        return incoming

    def key_vector(key: tuple, is_source: bool) -> tuple[int, ...]:
        flat: list[int] = []
        parts = key[:-1] if is_source else key
        for part in parts:
            flat.extend(part)
        if is_source:
            flat.extend(key[-1])
        return tuple(flat)

    def destinations_consistent() -> dict[str, dict[tuple, tuple[int, ...]]] | None:
        decoders: dict[str, dict[tuple, tuple[int, ...]]] = {}
        for d in g.destinations:
            mapping: dict[tuple, tuple[int, ...]] = {}
            for p in range(n_patterns):
                received = tuple(arc_values[(c, d)][p] for c in g.in_neighbors[d])
                want = targets[p]
                seen = mapping.get(received)
                if seen is None:
                    mapping[received] = want
                elif seen != want:
                    return None
            decoders[g.names[d]] = mapping
        return decoders

    def build_witness(decoders) -> Witness:
        named_tables = {
            (g.names[u], g.names[v]): dict(table)
            for (u, v), table in arc_tables.items()
        }
        arc_inputs = {
            (g.names[u], g.names[v]): tuple(
                (g.names[c], g.names[u]) for c in g.in_neighbors[u]
            )
            + (("sigma",) if g.roles[u] is NodeRole.SOURCE else ())
            for (u, v) in arc_order
        }
        return Witness(arc_inputs=arc_inputs, arc_tables=named_tables, decoders=decoders)

    def mappings(u: int, classes: list[tuple]) -> Iterator[dict[tuple, tuple[int, ...]]]:
        """The arc's candidate tables over its input classes, in search order."""
        if instance.function_class == "all":
            out_vectors = itertools.product(range(q), repeat=length)
            for outputs in itertools.product(out_vectors, repeat=len(classes)):
                yield dict(zip(classes, outputs))
            return
        is_source = g.roles[u] is NodeRole.SOURCE
        dim = len(key_vector(classes[0], is_source))
        for entries in itertools.product(range(q), repeat=length * dim):
            matrix = tuple(entries[r * dim : (r + 1) * dim] for r in range(length))
            yield {key: _linear_apply(matrix, key_vector(key, is_source)) for key in classes}

    def rec(i: int) -> Witness | None:
        if i == len(arc_order):
            decoders = destinations_consistent()
            if decoders is None:
                return None
            return build_witness(decoders)
        u, v = arc_order[i]
        keys = [input_key(u, p) for p in range(n_patterns)]
        for mapping in mappings(u, sorted(set(keys))):
            arc_values[(u, v)] = [mapping[key] for key in keys]
            arc_tables[(u, v)] = mapping
            found = rec(i + 1)
            if found is not None:
                return found
        del arc_values[(u, v)]
        arc_tables.pop((u, v), None)
        return None

    witness = rec(0)
    if witness is None:
        return SolvabilityVerdict(
            "no", None, None,
            f"exhausted {instance.function_class} assignments without a witness",
        )
    if not verify_witness(instance, witness):
        raise AssertionError("search produced a witness that fails verification")
    return SolvabilityVerdict(
        "yes", witness, k / length, f"witness found and verified on all {n_patterns} inputs"
    )


def verify_witness(instance: SolvabilityInstance, witness: Witness) -> bool:
    """Re-evaluate the composed witness on every input tuple.

    Independent of the search: walks the graph per pattern using only
    the witness tables (zero-vector default off the listed keys) and the
    decoders.
    """
    g = instance.graph
    q = instance.alphabet_size
    k, length = instance.generation_length, instance.packet_length
    zero = tuple([0] * length)
    source_pos = {s: i for i, s in enumerate(g.sources)}
    arc_order = _arc_order(g)
    for sigma in itertools.product(itertools.product(range(q), repeat=k), repeat=g.n_sources):
        want = tuple(
            instance.target([sigma[i][gen] for i in range(g.n_sources)])
            for gen in range(k)
        )
        values: dict[tuple[int, int], tuple[int, ...]] = {}
        for u, v in arc_order:
            key: tuple = tuple(values[(c, u)] for c in g.in_neighbors[u])
            if g.roles[u] is NodeRole.SOURCE:
                key = key + (sigma[source_pos[u]],)
            table = witness.arc_tables[(g.names[u], g.names[v])]
            values[(u, v)] = table.get(key, zero)
        for d in g.destinations:
            received = tuple(values[(c, d)] for c in g.in_neighbors[d])
            decoded = witness.decoders[g.names[d]].get(received)
            if decoded != want:
                return False
    return True


# -- capacity sweep --------------------------------------------------------

@dataclass(frozen=True)
class SweepPoint:
    generation_length: int
    packet_length: int
    verdict: SolvabilityVerdict

    @property
    def ratio(self) -> float:
        return self.generation_length / self.packet_length


@dataclass(frozen=True)
class CapacitySweep:
    """Best achieved K/L over a sweep; capped points are reported, not fatal."""

    points: tuple[SweepPoint, ...] = ()

    @property
    def solvable_points(self) -> tuple[SweepPoint, ...]:
        return tuple(p for p in self.points if p.verdict.is_solvable)

    @property
    def capped_points(self) -> tuple[SweepPoint, ...]:
        return tuple(p for p in self.points if p.verdict.solvable == "unknown-capped")

    @property
    def best_ratio(self) -> float | None:
        solvable = self.solvable_points
        if not solvable:
            return None
        return max(p.ratio for p in solvable)

    @property
    def best_point(self) -> SweepPoint | None:
        solvable = self.solvable_points
        if not solvable:
            return None
        return max(solvable, key=lambda p: (p.ratio, -p.generation_length))


def capacity_lower_bound(
    graph: NfcGraph,
    target: TargetFunction,
    alphabet_size: int,
    k_values: Sequence[int],
    l_values: Sequence[int],
    candidate_cap: int = 10_000_000,
    function_class: str = "all",
) -> CapacitySweep:
    """Search every (K, L) pair; the best solvable ratio is a lower bound
    on the computing capacity (never an exact value)."""
    points: list[SweepPoint] = []
    for k in k_values:
        for length in l_values:
            instance = SolvabilityInstance(
                graph=graph,
                target=target,
                alphabet_size=alphabet_size,
                generation_length=k,
                packet_length=length,
                candidate_cap=candidate_cap,
                function_class=function_class,
            )
            points.append(
                SweepPoint(k, length, brute_force_search(instance))
            )
    return CapacitySweep(points=tuple(points))
