"""Graph construction, validation, and the message min-cut against brute force."""

import dataclasses
import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nfcsim import graph as graph_module
from nfcsim.errors import CycleDetected, DanglingReference, RoleConflict, TreeViolation
from nfcsim.graph import (
    NfcGraph,
    NodeRole,
    TopologyConfig,
    balanced_tree_topology,
    build_graph,
    chain_topology,
    message_min_cut,
    random_tree_topology,
    star_topology,
    validate_config,
)
from graph_patch import set_topology, validate_graph

S, A, D = NodeRole.SOURCE, NodeRole.ATOMIC, NodeRole.DESTINATION


def brute_force_source_cut(g: NfcGraph, dest: int) -> int:
    """Smallest cut between a super-source feeding each source one unit
    and dest, over unit arcs: over every node set on the super-source
    side, the feeds of the sources outside it plus the arcs leaving it."""
    others = [v for v in range(g.n_nodes) if v != dest]
    best = g.n_sources
    for r in range(1, len(others) + 1):
        for side in map(set, itertools.combinations(others, r)):
            cut = sum(s not in side for s in g.sources)
            cut += sum(u in side and v not in side for u, v in g.arcs)
            best = min(best, cut)
    return best


@st.composite
def layered_dags(draw):
    """Sources, then atomics, then one destination; each node's children are
    drawn from the nodes before it, so arcs may skip layers or repeat, and
    a source or an atomic may reach nothing."""
    n_sources, n_atomics = draw(st.integers(1, 3)), draw(st.integers(0, 4))
    names = [f"s{i}" for i in range(n_sources)] + [f"a{i}" for i in range(n_atomics)] + ["d0"]
    roles = {name: S for name in names[:n_sources]}
    roles.update({name: A for name in names[n_sources:-1]}, d0=D)
    children = {}
    for j in range(n_sources, len(names)):
        kids = draw(st.lists(st.sampled_from(names[:j]), max_size=3))
        if kids:
            children[names[j]] = kids
    return TopologyConfig(roles=roles, children=children, mode="dag")


@st.composite
def wired_configs(draw):
    """Arbitrary roles and child sets: cycles, names nobody declared,
    several or no destinations, sources with children, unknown modes."""
    names = draw(st.permutations([f"n{i}" for i in range(draw(st.integers(1, 6)))]))
    roles = {name: draw(st.sampled_from(list(NodeRole))) for name in names}
    undeclared = draw(st.sampled_from([(), ("ghost",)]))  # now and then a name nobody declared
    pool = st.sampled_from([*names, *undeclared])
    children = draw(st.dictionaries(pool, st.lists(pool, max_size=3), max_size=len(names)))
    return TopologyConfig(roles=roles, children=children, mode=draw(st.sampled_from(["dag", "tree"] * 2 + ["ring"])))


def generated_trees():
    return st.builds(lambda seed, n: random_tree_topology(np.random.default_rng(seed), n),
                     st.integers(0, 2**32 - 1), st.integers(1, 12))


@settings(max_examples=300, deadline=None)
@given(config=st.one_of(wired_configs(), layered_dags(), generated_trees()))
def test_build_graph_raises_the_first_violation_or_follows_the_config(config):
    report = validate_config(config)
    if not report.ok:
        assert report.graph is None
        with pytest.raises(Exception) as raised:
            build_graph(config)
        assert type(raised.value) is report.violations[0].error
        assert str(raised.value) == str(report)
        return
    g = build_graph(config)
    assert g == report.graph
    names = tuple(config.roles)
    arcs = tuple((names.index(c), names.index(v)) for v, kids in config.children.items() for c in kids)
    assert (g.names, g.roles, g.arcs, g.mode) == (names, tuple(config.roles.values()), arcs, config.mode)
    for v in range(g.n_nodes):
        assert g.in_neighbors[v] == tuple(u for u, w in arcs if w == v)
        assert g.out_neighbors[v] == tuple(w for u, w in arcs if u == v)
    assert sorted(g.topo_order) == list(range(g.n_nodes))
    position = {v: i for i, v in enumerate(g.topo_order)}
    assert all(position[u] < position[v] for u, v in arcs)


def test_a_config_compiles_once():
    config = balanced_tree_topology(100, branching=10)
    with mock.patch.object(graph_module, "validate_config", wraps=validate_config) as validated:
        g = build_graph(config)
        assert build_graph(config) is g is config.report.graph
        assert g.level_plan is build_graph(config).level_plan
        assert validated.call_count == 1
        copy = dataclasses.replace(config)  # an equal config is a new value, compiled anew
        assert copy == config and repr(copy) == repr(config)
        assert build_graph(copy) is not g and build_graph(copy) == g
        assert validated.call_count == 2


@settings(max_examples=150, deadline=None)
@given(config=st.one_of(layered_dags(), generated_trees()))
def test_the_compiled_graph_is_what_a_fresh_validation_builds(config):
    g = build_graph(config)
    fresh = validate_config(TopologyConfig(
        dict(config.roles), {node: list(kids) for node, kids in config.children.items()}, config.mode
    )).graph
    assert g is build_graph(config) and g is not fresh
    for name in [f.name for f in dataclasses.fields(NfcGraph)] + ["sources", "atomics", "destinations",
                                                                   "arcs_by_name", "_ids"]:
        assert getattr(g, name) == getattr(fresh, name), name
    assert len(g.level_plan) == len(fresh.level_plan)
    for group, expected in zip(g.level_plan, fresh.level_plan):
        for array, want in zip(group, expected):
            assert array.dtype == want.dtype and np.array_equal(array, want)


@pytest.mark.parametrize("config, error", [
    (TopologyConfig({"a": A, "b": A, "s": S, "d": D}, {"a": ["b", "s"], "b": ["a"], "d": ["a"]}, "dag"),
     CycleDetected),
    (TopologyConfig({"s0": S, "d0": D}, {"d0": ["ghost"]}), DanglingReference),
    (TopologyConfig({"s0": S, "s1": S, "d0": D}, {"d0": ["s0"]}), TreeViolation),
    (TopologyConfig({"s0": S, "d0": D}, {"d0": ["s0"]}, "ring"), RoleConflict),
], ids=["cycle", "dangling", "tree", "mode"])
def test_an_invalid_config_raises_the_same_error_on_every_build(config, error):
    raised = []
    for _ in range(3):
        with pytest.raises(error) as caught:
            build_graph(config)
        raised.append(caught.value)
    assert {str(exc) for exc in raised} == {str(validate_config(config))}
    assert len({id(exc) for exc in raised}) == 3  # the report is kept, not the exception
    assert config.report is config.report and config.report.graph is None


@settings(max_examples=200, deadline=None)
@given(config=layered_dags())
def test_message_min_cut_matches_brute_force(config):
    g = build_graph(config)
    dest = g.destinations[0]
    assert message_min_cut(g, dest) == brute_force_source_cut(g, dest)


def test_star_counts_and_validity():
    g = build_graph(star_topology(2))
    assert g.n_sources == 2
    assert len(g.atomics) == 1
    assert len(g.destinations) == 1
    assert validate_graph(g).ok


def test_destination_with_outgoing_arc_rejected():
    config = TopologyConfig(
        roles={"s0": S, "a0": A, "d0": D},
        children={"a0": ["s0", "d0"], "d0": ["a0"]},
    )
    codes = {v.code for v in validate_config(config).violations}
    assert "RoleConflict" in codes or "TreeViolation" in codes
    with pytest.raises((RoleConflict, TreeViolation, CycleDetected)):
        build_graph(config)


def test_balanced_binary_tree_64_sources():
    g = build_graph(balanced_tree_topology(64))
    assert g.n_nodes == 127
    assert len(g.arcs) == 126
    assert g.n_sources == 64
    # tree invariants: arcs = nodes - 1, single sink
    sinks = [v for v in range(g.n_nodes) if not g.out_neighbors[v]]
    assert sinks == [g.destinations[0]]


def test_two_cycle_reported():
    config = TopologyConfig(
        roles={"a": A, "b": A, "s": S, "d": D},
        children={"a": ["b", "s"], "b": ["a"], "d": ["a"]},
        mode="dag",
    )
    assert "CycleDetected" in {v.code for v in validate_config(config).violations}


def test_source_with_incoming_arc_flagged_in_tree_mode():
    config = TopologyConfig(
        roles={"s0": S, "s1": S, "a0": A, "d0": D},
        children={"s0": ["s1"], "a0": ["s0"], "d0": ["a0"]},
        mode="tree",
    )
    assert "TreeViolation" in {v.code for v in validate_config(config).violations}
    # the same wiring is legal in dag mode
    dag = TopologyConfig(config.roles, config.children, mode="dag")
    assert validate_config(dag).ok


def test_dangling_reference_reported():
    config = TopologyConfig(roles={"s0": S, "d0": D}, children={"d0": ["ghost"]})
    assert "DanglingReference" in {v.code for v in validate_config(config).violations}


def test_min_cut_star_single_bottleneck():
    g = build_graph(star_topology(3))
    assert message_min_cut(g, g.destinations[0]) == 1


def test_min_cut_two_disjoint_paths():
    config = TopologyConfig(
        roles={"s0": S, "s1": S, "a0": A, "a1": A, "d0": D},
        children={"a0": ["s0"], "a1": ["s1"], "d0": ["a0", "a1"]},
    )
    g = build_graph(config)
    assert message_min_cut(g, g.destinations[0]) == 2
    assert brute_force_source_cut(g, g.destinations[0]) == 2


def test_min_cut_depth2_binary_tree():
    g = build_graph(balanced_tree_topology(4))
    assert message_min_cut(g, g.destinations[0]) == 2


def test_min_cut_matches_brute_force_on_small_graphs():
    cases = [
        build_graph(star_topology(3)),
        build_graph(balanced_tree_topology(4)),
        build_graph(chain_topology(3)),
    ]
    # a dag with skip arcs
    cases.append(
        build_graph(
            TopologyConfig(
                roles={"s0": S, "s1": S, "a0": A, "a1": A, "d0": D},
                children={"a0": ["s0", "s1"], "a1": ["a0", "s0"], "d0": ["a1", "a0"]},
                mode="dag",
            )
        )
    )
    rng = np.random.default_rng(11)
    for _ in range(6):
        cases.append(build_graph(random_tree_topology(rng, int(rng.integers(2, 6)))))
    for g in cases:
        if len(g.arcs) <= 10:
            dest = g.destinations[0]
            assert message_min_cut(g, dest) == brute_force_source_cut(g, dest)


def test_min_cut_unreachable_source_returns_zero():
    config = TopologyConfig(
        roles={"s0": S, "s1": S, "a0": A, "d0": D},
        children={"a0": ["s0"], "d0": ["a0"]},
        mode="dag",
    )
    g = build_graph(config)
    # s1 has no path, so only s0's symbol reaches d0
    assert message_min_cut(g, g.destinations[0]) == 1
    isolated = build_graph(
        TopologyConfig(roles={"s0": S, "d0": D}, children={}, mode="dag")
    )
    assert message_min_cut(isolated, isolated.destinations[0]) == 0


def test_min_cut_requires_destination():
    g = build_graph(star_topology(2))
    with pytest.raises(RoleConflict):
        message_min_cut(g, g.sources[0])


def test_topological_order_property():
    rng = np.random.default_rng(12)
    for _ in range(20):
        g = build_graph(random_tree_topology(rng, int(rng.integers(2, 17))))
        position = {v: i for i, v in enumerate(g.topo_order)}
        for u, v in g.arcs:
            assert position[u] < position[v]
        assert len(g.arcs) == g.n_nodes - 1


def test_set_topology_adds_layer():
    g = build_graph(star_topology(2))
    patch = TopologyConfig(
        roles={"a1": A},
        children={"a1": ["a0"], "d0": ["a1"]},
    )
    g2 = set_topology(g, patch)
    assert g2.n_nodes == g.n_nodes + 1
    assert len(g2.arcs) == len(g.arcs) + 1
    assert g.n_nodes == 4  # original untouched


def test_set_topology_cycle_rejected():
    g = build_graph(star_topology(2))
    patch = TopologyConfig(
        roles={"a1": A},
        children={"a1": ["a0"], "a0": ["s0", "s1", "a1"]},
        mode="dag",
    )
    with pytest.raises(CycleDetected):
        set_topology(g, patch)


def test_set_topology_reparent_updates_two_neighborhoods():
    config = TopologyConfig(
        roles={"s0": S, "s1": S, "s2": S, "a0": A, "a1": A, "d0": D},
        children={"a0": ["s0", "s1"], "a1": ["s2"], "d0": ["a0", "a1"]},
    )
    g = build_graph(config)
    patch = TopologyConfig(roles={}, children={"a0": ["s0"], "a1": ["s2", "s1"]})
    g2 = set_topology(g, patch)
    before = {g.names[v]: tuple(g.names[c] for c in kids) for v, kids in enumerate(g.in_neighbors)}
    after = {g2.names[v]: tuple(g2.names[c] for c in kids) for v, kids in enumerate(g2.in_neighbors)}
    changed = {name for name in before if before[name] != after[name]}
    assert changed == {"a0", "a1"}


def test_set_topology_role_conflict():
    g = build_graph(star_topology(2))
    with pytest.raises(RoleConflict):
        set_topology(g, TopologyConfig(roles={"a0": D}, children={}))


@pytest.mark.parametrize("built, expected", [
    (star_topology(1), TopologyConfig(
        roles={"s0": S, "a0": A, "d0": D},
        children={"a0": ["s0"], "d0": ["a0"]})),
    (star_topology(3), TopologyConfig(
        roles={"s0": S, "s1": S, "s2": S, "a0": A, "d0": D},
        children={"a0": ["s0", "s1", "s2"], "d0": ["a0"]})),
    (balanced_tree_topology(2), TopologyConfig(
        roles={"s0": S, "s1": S, "d0": D},
        children={"d0": ["s0", "s1"]})),
    (balanced_tree_topology(8), TopologyConfig(
        roles={**{f"s{i}": S for i in range(8)}, "a1_0": A, "a1_1": A, "a1_2": A, "a1_3": A,
               "a2_0": A, "a2_1": A, "d0": D},
        children={"a1_0": ["s0", "s1"], "a1_1": ["s2", "s3"], "a1_2": ["s4", "s5"], "a1_3": ["s6", "s7"],
                  "a2_0": ["a1_0", "a1_1"], "a2_1": ["a1_2", "a1_3"], "d0": ["a2_0", "a2_1"]})),
    (balanced_tree_topology(9, 3), TopologyConfig(
        roles={**{f"s{i}": S for i in range(9)}, "a1_0": A, "a1_1": A, "a1_2": A, "d0": D},
        children={"a1_0": ["s0", "s1", "s2"], "a1_1": ["s3", "s4", "s5"], "a1_2": ["s6", "s7", "s8"],
                  "d0": ["a1_0", "a1_1", "a1_2"]})),
    (chain_topology(0), TopologyConfig(
        roles={"s0": S, "d0": D},
        children={"d0": ["s0"]})),
    (chain_topology(2), TopologyConfig(
        roles={"s0": S, "a0": A, "a1": A, "d0": D},
        children={"a0": ["s0"], "a1": ["a0"], "d0": ["a1"]})),
], ids=["star1", "star3", "tree2", "tree8", "tree9x3", "chain0", "chain2"])
def test_generators_build_these_trees_node_for_node(built, expected):
    # A manifest echoes a generated topology as its generator and keys, so its
    # replay rebuilds whatever the generator builds: a change here changes replays.
    def ordered(config: TopologyConfig):  # dict equality ignores the order that fixes node ids
        return list(config.roles.items()), list(config.children.items()), config.mode
    assert ordered(built) == ordered(expected)


def test_chain_refuses_a_negative_relay_count():
    assert build_graph(chain_topology(0)).names == ("s0", "d0")
    with pytest.raises(ValueError, match="n_relays"):
        chain_topology(-3)


@pytest.mark.parametrize(
    "n_sources, branching, message",
    [
        (4, 1, "branching must be >= 2"),
        (6, 2, "6 sources is not a power of branching 2"),
        (12, 3, "12 sources is not a power of branching 3"),
        (1, 2, "a balanced tree needs at least 2 sources, got 1"),
        (0, 2, "a balanced tree needs at least 2 sources, got 0"),
        (-4, 2, "a balanced tree needs at least 2 sources, got -4"),
    ],
    ids=["branching_1", "six_binary", "twelve_ternary", "one_source", "no_source", "negative"],
)
def test_balanced_tree_refuses_what_it_cannot_build(n_sources, branching, message):
    with pytest.raises(ValueError) as raised:
        balanced_tree_topology(n_sources, branching)
    assert str(raised.value) == message


def test_random_tree_generator_valid():
    rng = np.random.default_rng(13)
    for _ in range(25):
        config = random_tree_topology(rng, int(rng.integers(2, 17)), max_depth=4)
        g = build_graph(config)
        assert validate_graph(g).ok
        assert len(g.destinations) == 1
