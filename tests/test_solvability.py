"""Witness search, min-cut criterion, and their agreement."""

import itertools
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nfcsim import solvability
from nfcsim.graph import (
    NodeRole,
    TopologyConfig,
    build_graph,
    chain_topology,
    random_tree_topology,
    star_topology,
)
from nfcsim.scenario import load_scenario_file
from nfcsim.solvability import (
    TARGET_PRESETS,
    SolvabilityInstance,
    TargetFunction,
    Witness,
    brute_force_search,
    identity_target,
    linear_identity_check,
    max_target,
    verify_witness,
    xor_target,
)
from graph_patch import to_config
from reference_search import reference_search

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
S, A, D = NodeRole.SOURCE, NodeRole.ATOMIC, NodeRole.DESTINATION
STAR2 = build_graph(star_topology(2))


def two_source_candidate_arcs(n_relays: int) -> list[tuple[str, str]]:
    """The arcs a DAG on {s0, s1, relays..., d0} may draw from."""
    relay_names = [f"a{i}" for i in range(n_relays)]
    candidates: list[tuple[str, str]] = []
    for s in ("s0", "s1"):
        for r in relay_names:
            candidates.append((s, r))
        candidates.append((s, "d0"))
    for i in range(n_relays):
        for j in range(i + 1, n_relays):
            candidates.append((relay_names[i], relay_names[j]))
    for r in relay_names:
        candidates.append((r, "d0"))
    return candidates


def two_source_dag(n_relays: int, mask: int):
    """The DAG whose arcs are the candidate arcs selected by the mask bits."""
    candidates = two_source_candidate_arcs(n_relays)
    roles = {"s0": S, "s1": S, **{f"a{i}": A for i in range(n_relays)}, "d0": D}
    children: dict[str, list[str]] = {}
    for i, (child, parent) in enumerate(candidates):
        if (mask >> i) & 1:
            children.setdefault(parent, []).append(child)
    return build_graph(TopologyConfig(roles=roles, children=children, mode="dag"))


def two_source_topologies(n_relays: int):
    """Every DAG on {s0, s1, relays..., d0} drawn from the candidate arcs."""
    return [
        two_source_dag(n_relays, mask)
        for mask in range(1 << len(two_source_candidate_arcs(n_relays)))
    ]


def test_xor_on_star_is_solvable_with_verified_witness():
    verdict = brute_force_search(SolvabilityInstance(STAR2, xor_target(2, 2), 2))
    assert verdict.solvable == "yes"
    relay_table = verdict.witness.arc_tables[("a0", "d0")]
    # the found relay function computes xor on its reachable inputs
    assert relay_table[((0,), (1,))] == (1,)
    assert relay_table[((1,), (1,))] == (0,)
    assert verify_witness(
        SolvabilityInstance(STAR2, xor_target(2, 2), 2), verdict.witness
    )


def test_identity_on_star_not_solvable_at_unit_lengths():
    verdict = brute_force_search(SolvabilityInstance(STAR2, identity_target(2, 2), 2))
    assert verdict.solvable == "no"
    assert verdict.witness is None


def test_identity_on_star_solvable_with_double_packet():
    instance = SolvabilityInstance(STAR2, identity_target(2, 2), 2, packet_length=2)
    verdict = brute_force_search(instance)
    assert verdict.solvable == "yes"
    assert verify_witness(instance, verdict.witness)


def test_tampered_witness_fails_verification():
    instance = SolvabilityInstance(STAR2, xor_target(2, 2), 2)
    verdict = brute_force_search(instance)
    decoders = {
        dest: {key: (1 - value[0],) for key, value in mapping.items()}
        for dest, mapping in verdict.witness.decoders.items()
    }
    tampered = Witness(arc_tables=verdict.witness.arc_tables, decoders=decoders)
    assert not verify_witness(instance, tampered)


def test_cap_exceeded_maps_to_unknown():
    instance = SolvabilityInstance(STAR2, xor_target(2, 2), 2, candidate_cap=10)
    verdict = brute_force_search(instance)
    assert verdict.solvable == "unknown-capped"
    assert "cap" in verdict.detail


def test_linear_identity_check_examples():
    assert not linear_identity_check(STAR2).solvable  # cut 1 < 2
    disjoint = build_graph(
        TopologyConfig(
            roles={"s0": S, "s1": S, "a0": A, "a1": A, "d0": D},
            children={"a0": ["s0"], "a1": ["s1"], "d0": ["a0", "a1"]},
        )
    )
    assert linear_identity_check(disjoint).solvable
    chain = build_graph(chain_topology(2))
    verdict = linear_identity_check(chain)
    assert verdict.solvable and verdict.cut == 1 and verdict.n_sources == 1


def test_linear_search_agrees_with_min_cut_single_relay():
    for g in two_source_topologies(1):
        km = linear_identity_check(g)
        search = brute_force_search(
            SolvabilityInstance(g, identity_target(2, 2), 2, function_class="linear")
        )
        assert search.solvable in ("yes", "no")
        assert (search.solvable == "yes") == km.solvable, to_config(g).children


def test_max_target_solvable_on_star():
    verdict = brute_force_search(SolvabilityInstance(STAR2, max_target(2, 2), 2))
    assert verdict.solvable == "yes"


def test_search_deterministic_witness():
    instance = SolvabilityInstance(STAR2, xor_target(2, 2), 2)
    a = brute_force_search(instance)
    b = brute_force_search(instance)
    assert a.witness.arc_tables == b.witness.arc_tables
    assert a.witness.decoders == b.witness.decoders


def test_target_function_validation():
    with pytest.raises(ValueError):
        TargetFunction("bad", 2, 2, 2, (0, 1, 1))  # wrong table length
    with pytest.raises(ValueError):
        TargetFunction("bad", 1, 2, 2, (0, 5))  # value outside B
    with pytest.raises(ValueError):
        SolvabilityInstance(STAR2, xor_target(3, 2), 2)  # arity mismatch
    with pytest.raises(ValueError):
        SolvabilityInstance(STAR2, xor_target(2, 2), 2, function_class="affine")
    with pytest.raises(ValueError, match="target input alphabet differs from the network alphabet"):
        SolvabilityInstance(STAR2, xor_target(2, 3), 2)
    with pytest.raises(ValueError, match=r"linear search is implemented over GF\(2\)"):
        SolvabilityInstance(STAR2, xor_target(2, 3), 3, function_class="linear")


def test_more_input_patterns_than_can_be_verified_is_capped():
    # 2 sources x K = 11 symbols: 2^22 binary input patterns
    verdict = brute_force_search(SolvabilityInstance(STAR2, identity_target(2, 2), 2, generation_length=11))
    assert (verdict.solvable, verdict.witness) == ("unknown-capped", None)
    assert verdict.detail == f"{2**22} input patterns exceed the verification limit"


def test_multi_generation_identity_needs_wider_packets():
    # K=2 over a single relay: 16 patterns cannot fit through 2 values
    verdict = brute_force_search(
        SolvabilityInstance(STAR2, identity_target(2, 2), 2, generation_length=2)
    )
    assert verdict.solvable == "no"


@pytest.mark.parametrize("arity", [1, 2, 3])
@pytest.mark.parametrize("alphabet", [2, 3])
def test_identity_target_is_the_base_alphabet_encoding(arity, alphabet):
    def encode(*xs: int) -> int:
        idx = 0
        for x in xs:
            idx = idx * alphabet + x
        return idx

    target = identity_target(arity, alphabet)
    assert target == TargetFunction.from_callable("identity", encode, arity, alphabet, alphabet**arity)
    for combo in itertools.product(range(alphabet), repeat=arity):
        assert target(combo) == encode(*combo)


def assert_same_verdict(got, want, instance):
    """Same verdict and detail; a witness with the same tables and
    decoders in the same iteration order, and it verifies."""
    assert (got.solvable, got.detail) == (want.solvable, want.detail)
    assert (got.witness is None) == (want.witness is None)
    if want.witness is not None:
        for name in ("arc_tables", "decoders"):
            got_map, want_map = getattr(got.witness, name), getattr(want.witness, name)
            assert list(got_map) == list(want_map)
            assert [list(m.items()) for m in got_map.values()] == [
                list(m.items()) for m in want_map.values()
            ]
        assert verify_witness(instance, got.witness)


@settings(max_examples=300, deadline=None)
@given(
    shape=st.one_of(
        st.tuples(st.just("tree"), st.integers(1, 3), st.integers(0, 2**32 - 1)),
        st.tuples(st.just("dag"), st.integers(1, 2), st.integers(0, 2**9 - 1)),
    ),
    target_name=st.sampled_from(sorted(TARGET_PRESETS)),
    function_class=st.sampled_from(["all", "linear"]),
    k=st.integers(1, 2),
    length=st.integers(1, 2),
)
def test_search_matches_the_per_candidate_reference(shape, target_name, function_class, k, length):
    kind, size, seed = shape
    if kind == "tree":
        g = build_graph(random_tree_topology(np.random.default_rng(seed), size, max_depth=3))
    else:
        g = two_source_dag(size, seed % (1 << len(two_source_candidate_arcs(size))))
    instance = SolvabilityInstance(
        g, TARGET_PRESETS[target_name](g.n_sources, 2), 2, generation_length=k,
        packet_length=length, candidate_cap=3000, function_class=function_class,
    )
    assert_same_verdict(brute_force_search(instance), reference_search(instance), instance)


@pytest.mark.parametrize(
    "roles, children",
    [
        ({"s0": S, "d0": D}, {}),  # no arcs at all
        ({"s0": S, "a0": A, "d0": D}, {"d0": ["s0", "a0"]}),  # an atomic without inputs
        ({"s0": S, "s1": S, "a0": A, "d0": D, "d1": D},
         {"a0": ["s0", "s1"], "d0": ["a0", "s0"], "d1": ["a0", "s1"]}),  # two destinations
        ({"s0": S, "s1": S, "a0": A, "a1": A, "d0": D},
         {"a0": ["s0"], "a1": ["s1"], "d0": ["a0"]}),  # a relay that reaches no destination
        ({"s0": S, **{f"a{i}": A for i in range(32)}, "d0": D},
         {"d0": ["s0", *(f"a{i}" for i in range(32))]}),  # 4^33 received tuples at L=2
    ],
    ids=["no_arcs", "atomic_without_inputs", "two_destinations", "dead_end_relay", "wide_destination"],
)
@pytest.mark.parametrize("function_class", ["all", "linear"])
@pytest.mark.parametrize("target_name", sorted(TARGET_PRESETS))
def test_search_matches_the_reference_on_edge_graphs(roles, children, function_class, target_name):
    g = build_graph(TopologyConfig(roles=roles, children=children, mode="dag"))
    for length in (1, 2):
        instance = SolvabilityInstance(
            g, TARGET_PRESETS[target_name](g.n_sources, 2), 2, packet_length=length,
            candidate_cap=20_000, function_class=function_class,
        )
        assert_same_verdict(brute_force_search(instance), reference_search(instance), instance)


def test_messages_too_wide_for_int64_codes_are_capped():
    # No source sends, so the only arc is a constant one with 2^60 possible messages.
    g = build_graph(TopologyConfig(roles={"s0": S, "a0": A, "d0": D}, children={"d0": ["a0"]}, mode="dag"))
    instance = SolvabilityInstance(g, xor_target(1, 2), 2, packet_length=60, function_class="linear")
    verdict = brute_force_search(instance)
    assert verdict.solvable == "unknown-capped"
    assert verdict.detail == f"{2**60}-valued messages on 2 inputs exceed int64 codes"
    narrower = SolvabilityInstance(g, xor_target(1, 2), 2, packet_length=59, function_class="linear")
    assert_same_verdict(brute_force_search(narrower), reference_search(narrower), narrower)


def clear_search_caches():
    solvability._pattern_tables.cache_clear()
    solvability._shared_candidates.cache_clear()


def test_shared_tables_give_criterion_07_the_same_verdicts_in_either_order():
    """Criterion 07's DAGs searched forward from empty caches, then in reverse
    with the caches filled: each graph gets the same verdict, detail and witness."""
    graphs = two_source_topologies(1) + two_source_topologies(2)

    def instance(g):
        return SolvabilityInstance(g, identity_target(2, 2), 2, function_class="linear")

    clear_search_caches()
    forward = [brute_force_search(instance(g)) for g in graphs]
    backward = [brute_force_search(instance(g)) for g in reversed(graphs)][::-1]
    assert {v.solvable for v in forward} == {"yes", "no"}
    for g, got, want in zip(graphs, backward, forward):
        assert_same_verdict(got, want, instance(g))


def test_shared_tables_give_capacity_star_the_same_points_in_either_k_order():
    loaded = load_scenario_file(SCENARIOS / "capacity_star.yaml")
    request, g = loaded.capacity, loaded.graph
    target = TARGET_PRESETS[request.target](g.n_sources, request.alphabet)

    def instance(k, length):
        return SolvabilityInstance(g, target, request.alphabet, k, length, request.cap,
                                   request.function_class)

    def sweep(k_values):
        return {(k, length): brute_force_search(instance(k, length))
                for k in k_values for length in request.l_values}

    clear_search_caches()
    first, second = sweep(request.k_values), sweep(request.k_values[::-1])
    assert list(first) != list(second) and first[(2, 2)].solvable == "unknown-capped"
    for point, verdict in first.items():
        assert_same_verdict(second[point], verdict, instance(*point))


def test_shared_tables_are_read_only():
    _, _, wants, _, sigma_codes = solvability._pattern_tables(identity_target(2, 2), 2, 1)
    tables = [solvability._shared_candidates(function_class, 2, 1, 2, 0, 4)
              for function_class in ("all", "linear")]
    for array in (wants, *sigma_codes, *tables):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1
    instance = SolvabilityInstance(STAR2, identity_target(2, 2), 2)
    assert instance.arc_order is instance.arc_order
