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
from typing import Callable, Mapping, Sequence

import numpy as np

from nfcsim.errors import RoleConflict
from nfcsim.graph import NfcGraph, NodeRole, message_min_cut

PATTERN_LIMIT = 1 << 20  # full-input verification must stay enumerable
BLOCK_ELEMENTS = 1 << 16  # candidate output codes tabulated at once, in search order


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

    Arc tables map the reachable input keys to the emitted vector. A key
    holds the vectors on the tail's in-arcs in ``in_neighbors`` order,
    then, on a source's arc, the tuple of the source's own K symbols;
    unlisted inputs default to the all-zero vector. Decoders map each
    reachable received tuple, in ``in_neighbors`` order, to the K
    function values.
    """

    arc_tables: Mapping[tuple[str, str], Mapping[tuple, tuple[int, ...]]]
    decoders: Mapping[str, Mapping[tuple, tuple[int, ...]]]


@dataclass(frozen=True)
class SolvabilityVerdict:
    solvable: str  # "yes" | "no" | "unknown-capped"
    witness: Witness | None
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


def linear_identity_check(g: NfcGraph) -> LinearIdentityVerdict:
    """Identity delivery is solvable iff every source-to-destination cut
    has capacity at least N (per-generation symbols, linear coding).

    The cut counts one originating symbol per source (unit-capacity
    synthetic arcs), which is the form under which the criterion is both
    necessary and sufficient for the graph's one destination.
    """
    if len(g.destinations) != 1:
        raise RoleConflict(f"the linear identity check needs exactly one destination, not {len(g.destinations)}")
    cut = message_min_cut(g, g.destinations[0])
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


def _pack(parts, n_patterns: int) -> np.ndarray:
    """Integer key per pattern that orders like the tuple of its (codes,
    radix) parts; relabelled to ranks before a radix could overflow int64."""
    key, span = np.zeros(n_patterns, dtype=np.int64), 1
    for codes, radix in parts:
        if span * radix > 1 << 62:
            key, span = np.unique(key, return_inverse=True)[1], n_patterns
        key = key * radix + codes
        span *= radix
    return key


def brute_force_search(instance: SolvabilityInstance) -> SolvabilityVerdict:
    """Exhaustive search for encoding functions and decodings.

    Arc functions are enumerated in a fixed lexicographic order (by arc,
    then by truth table over the arc's reachable inputs), so the first
    witness found is deterministic. Each arc's candidates are tabulated
    a block at a time as integer output codes per input pattern, and a
    row is kept only if every destination can still decode from what it
    can learn; after the last arc that is what it receives, so the first
    row kept there completes the witness. Every witness is re-verified
    on all |A|^(N*K) inputs before being reported.
    """
    g = instance.graph
    q = instance.alphabet_size
    k, length = instance.generation_length, instance.packet_length
    target = instance.target

    n_patterns = q ** (g.n_sources * k)
    if n_patterns > PATTERN_LIMIT:
        return SolvabilityVerdict(
            "unknown-capped", None,
            f"{n_patterns} input patterns exceed the verification limit",
        )
    bound = candidate_bound(instance)
    if bound > instance.candidate_cap:
        return SolvabilityVerdict(
            "unknown-capped", None,
            f"{bound} candidate assignments exceed cap {instance.candidate_cap}",
        )
    if 2 * n_patterns**2 * q**length > 1 << 62:  # (key, target) codes must fit in int64
        return SolvabilityVerdict("unknown-capped", None,
                                  f"{q**length}-valued messages on {n_patterns} inputs exceed int64 codes")

    sources = list(g.sources)
    patterns = list(
        itertools.product(itertools.product(range(q), repeat=k), repeat=len(sources))
    )
    targets = [
        tuple(target([sigma[s][gen] for s in range(len(sources))]) for gen in range(k))
        for sigma in patterns
    ]
    target_ids: dict[tuple[int, ...], int] = {}
    wants = np.array([target_ids.setdefault(t, len(target_ids)) for t in targets])
    n_targets = len(target_ids)
    spacing = 2 * n_targets  # key * spacing + target: codes under n_targets apart share a key
    source_pos = {s: i for i, s in enumerate(sources)}
    index = np.arange(n_patterns, dtype=np.int64)
    sigma_codes = {s: index // q ** (k * (len(sources) - 1 - i)) % q**k for s, i in source_pos.items()}
    radix = q**length  # an arc message as a code: base-q digits, first symbol most significant
    weights = radix // q ** np.arange(1, length + 1)  # the place value of each symbol
    rows = max(1, BLOCK_ELEMENTS // n_patterns)
    linear = instance.function_class == "linear"
    arc_order = _arc_order(g)
    arc_values: dict[tuple[int, int], np.ndarray] = {}  # per-pattern code of each assigned arc

    def known(arcs: list, srcs: list) -> list:
        return [(arc_values[a], radix) for a in arcs] + [(sigma_codes[s], q**k) for s in srcs]

    # Once arcs 0..i are assigned, a destination can still learn the
    # assigned arcs into nodes that still send toward it (or into it) and
    # the symbols of sources that still send toward it. It must decode
    # from those; after the last arc they are exactly what it receives.
    reaches: dict[int, set[int]] = {}
    for x in reversed(g.topo_order):
        reaches[x] = {x} if g.roles[x] is NodeRole.DESTINATION else set()
        reaches[x].update(*(reaches[y] for y in g.out_neighbors[x]))
    last_out = {u: i for i, (u, _v) in enumerate(arc_order)}

    def feeds(x: int, d: int, i: int) -> bool:
        return d in reaches[x] and last_out.get(x, len(arc_order)) > i

    views = [  # per arc, per destination: (earlier arcs, sources, carries this arc)
        [([a for a in arc_order[:i] if feeds(a[1], d, i)], [s for s in sources if feeds(s, d, i)],
          feeds(arc_order[i][1], d, i)) for d in g.destinations]
        for i in range(len(arc_order))
    ]

    def decodable(pairs: np.ndarray) -> np.ndarray:
        """Per row of (known key, target) codes: does each key meet one target only?
        A row sort, linear in patterns: neighbours 1 to n_targets - 1 apart clash."""
        pairs.sort()
        gaps = pairs[..., 1:] - pairs[..., :-1] - 1
        return (gaps.view(np.uint64) >= n_targets - 1).all(-1)

    def candidates(width: int, start: int, stop: int) -> np.ndarray:
        """Candidates [start, stop): for "all", the output code on each of `width`
        input classes, digit j for class j, the first most significant; for
        "linear", the L x width GF(2) matrix of its bits, the first most significant."""
        cand = np.arange(start, stop, dtype=np.int64)[:, None]
        if not linear:
            return cand // radix ** np.arange(width - 1, -1, -1) % radix
        bits = (cand >> np.arange(length * width - 1, -1, -1)) & 1
        return bits.reshape(stop - start, length, width)

    def rec(i: int) -> bool:
        arc = u, v = arc_order[i]
        own = [u] if u in sigma_codes else []
        key = _pack(known([(c, u) for c in g.in_neighbors[u]], own), n_patterns)
        if linear:  # the key is the input vector
            width = length * len(g.in_neighbors[u]) + k * len(own)
            vectors = (key >> np.arange(width - 1, -1, -1)[:, None]) & 1
            count = q ** (length * width)
        else:  # the key ranks the input class
            classes = np.unique(key)
            vectors, width = np.searchsorted(classes, key), len(classes)
            count = radix**width
        checks = []  # what each destination knows, a digit left free for this arc's code
        for arcs, srcs, carried in views[i]:
            fixed = _pack(known(arcs, srcs) + [(wants, (radix if carried else 1) * spacing)], n_patterns)
            if carried:
                checks.append(fixed)
            elif not decodable(fixed):
                return False
        for start in range(0, count, rows):
            table = candidates(width, start, min(count, start + rows))
            block = weights @ (table @ vectors & 1) if linear else table[:, vectors]
            ok = np.ones(len(block), dtype=bool)
            for fixed in checks:
                ok &= decodable(fixed + block * spacing)
            for hit in np.flatnonzero(ok):
                arc_values[arc] = block[hit]
                if i == len(arc_order) - 1 or rec(i + 1):
                    return True
        return False

    if not (rec(0) if arc_order else all(decodable(wants.copy()) for _ in g.destinations)):
        return SolvabilityVerdict(
            "no", None,
            f"exhausted {instance.function_class} assignments without a witness",
        )
    symbols = {
        arc: [tuple(c // q ** (length - 1 - j) % q for j in range(length)) for c in codes.tolist()]
        for arc, codes in arc_values.items()
    }
    arc_tables = {}
    for u, v in arc_order:
        table = {}
        for p, pattern in enumerate(patterns):
            key = tuple(symbols[(c, u)][p] for c in g.in_neighbors[u])
            table[key + ((pattern[source_pos[u]],) if u in source_pos else ())] = symbols[(u, v)][p]
        arc_tables[(g.names[u], g.names[v])] = dict(sorted(table.items()))
    decoders = {}
    for d in g.destinations:
        decoder: dict[tuple, tuple[int, ...]] = {}
        for p, want in enumerate(targets):
            decoder.setdefault(tuple(symbols[(c, d)][p] for c in g.in_neighbors[d]), want)
        decoders[g.names[d]] = decoder
    witness = Witness(arc_tables=arc_tables, decoders=decoders)
    if not verify_witness(instance, witness):
        raise AssertionError("search produced a witness that fails verification")
    return SolvabilityVerdict(
        "yes", witness, f"witness found and verified on all {n_patterns} inputs"
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

