"""Per-candidate reference for the exhaustive witness search: a plain
depth-first search that builds every candidate arc table as a dict and
checks each destination pattern by pattern. Its first witness, verdict
and detail are the ones ``brute_force_search`` must reproduce."""

from __future__ import annotations

import itertools
from typing import Iterator

from nfcsim.graph import NodeRole
from nfcsim.solvability import (
    PATTERN_LIMIT,
    SolvabilityInstance,
    SolvabilityVerdict,
    Witness,
    candidate_bound,
    verify_witness,
)


def _linear_apply(matrix: tuple[tuple[int, ...], ...], vec: tuple[int, ...]) -> tuple[int, ...]:
    # GF(2): dot product is parity of the masked entries.
    return tuple(
        sum(m * x for m, x in zip(row, vec)) % 2 for row in matrix
    )


def reference_search(instance: SolvabilityInstance) -> SolvabilityVerdict:
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

    sources = list(g.sources)
    patterns = list(
        itertools.product(itertools.product(range(q), repeat=k), repeat=len(sources))
    )
    targets = [
        tuple(target([sigma[s][gen] for s in range(len(sources))]) for gen in range(k))
        for sigma in patterns
    ]
    source_pos = {s: i for i, s in enumerate(sources)}
    arc_order = instance.arc_order

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
        return Witness(arc_tables=named_tables, decoders=decoders)

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
            "no", None,
            f"exhausted {instance.function_class} assignments without a witness",
        )
    if not verify_witness(instance, witness):
        raise AssertionError("search produced a witness that fails verification")
    return SolvabilityVerdict(
        "yes", witness, f"witness found and verified on all {n_patterns} inputs"
    )
