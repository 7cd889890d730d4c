"""Witness search, min-cut criterion, and their agreement."""

import itertools

import pytest

from nfcsim.graph import NodeRole, TopologyConfig, build_graph, chain_topology, star_topology
from nfcsim.solvability import (
    CapacitySweep,
    SolvabilityInstance,
    TargetFunction,
    Witness,
    brute_force_search,
    capacity_lower_bound,
    identity_target,
    linear_identity_check,
    max_target,
    verify_witness,
    xor_target,
)

S, A, D = NodeRole.SOURCE, NodeRole.ATOMIC, NodeRole.DESTINATION
STAR2 = build_graph(star_topology(2))


def two_source_topologies(n_relays: int):
    """Every DAG on {s0, s1, relays..., d0} drawn from the candidate arcs."""
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
    roles = {"s0": S, "s1": S, **{r: A for r in relay_names}, "d0": D}
    graphs = []
    for mask in range(1 << len(candidates)):
        arcs = [candidates[i] for i in range(len(candidates)) if (mask >> i) & 1]
        children: dict[str, list[str]] = {}
        for child, parent in arcs:
            children.setdefault(parent, []).append(child)
        graphs.append(build_graph(TopologyConfig(roles=roles, children=children, mode="dag")))
    return graphs


def test_xor_on_star_is_solvable_with_verified_witness():
    verdict = brute_force_search(SolvabilityInstance(STAR2, xor_target(2, 2), 2))
    assert verdict.solvable == "yes"
    assert verdict.achieved_ratio == 1.0
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
    assert verdict.achieved_ratio == 0.5
    assert verify_witness(instance, verdict.witness)


def test_tampered_witness_fails_verification():
    instance = SolvabilityInstance(STAR2, xor_target(2, 2), 2)
    verdict = brute_force_search(instance)
    decoders = {
        dest: {key: (1 - value[0],) for key, value in mapping.items()}
        for dest, mapping in verdict.witness.decoders.items()
    }
    tampered = Witness(
        arc_inputs=verdict.witness.arc_inputs,
        arc_tables=verdict.witness.arc_tables,
        decoders=decoders,
    )
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
        assert (search.solvable == "yes") == km.solvable, g.to_config().children


def test_capacity_sweep_identity_star():
    sweep = capacity_lower_bound(STAR2, identity_target(2, 2), 2, [1, 2], [1, 2])
    assert sweep.best_ratio == 0.5
    assert sweep.best_point.generation_length == 1
    assert sweep.best_point.packet_length == 2
    capped = {(p.generation_length, p.packet_length) for p in sweep.capped_points}
    assert capped == {(2, 2)}
    # never above the min-cut bound cut/N for identity
    km = linear_identity_check(STAR2)
    assert sweep.best_ratio <= km.cut / STAR2.n_sources


def test_capacity_sweep_xor_reaches_ratio_one():
    sweep = capacity_lower_bound(STAR2, xor_target(2, 2), 2, [1], [1])
    assert sweep.best_ratio == 1.0


def test_empty_sweep_has_no_ratio():
    sweep = CapacitySweep(points=())
    assert sweep.best_ratio is None
    assert sweep.best_point is None
    assert capacity_lower_bound(STAR2, xor_target(2, 2), 2, [], []).best_ratio is None


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
