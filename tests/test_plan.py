"""The level plan and the evaluator that runs installed assignments on it.

``ConfiguredNetwork.evaluate`` batches the nodes of each plan group that
share a function. On random trees, dropout masks and mixed assignments
it must reproduce, byte for byte, a per-node reference that calls
``eval_dafc`` / ``eval_aafc`` in topological order over the children
that emitted.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nfcsim.afc import (
    AppendCount,
    Average,
    FunctionAssignment,
    Histogram,
    Identity,
    LinearCombination,
    Max,
    Min,
    NeuronUnit,
    Nomographic,
    Sum,
    average_decoder,
    eval_aafc,
    eval_dafc,
    install_functions,
    nomographic_sum,
)
from nfcsim.errors import DanglingReference, DomainMismatch, NotATree
from nfcsim.field import FieldSpec
from nfcsim.graph import NodeRole, TopologyConfig, balanced_tree_topology, build_graph

GF16 = FieldSpec(4)


def random_tree(rng: np.random.Generator, n_sources: int, n_atomics: int) -> TopologyConfig:
    """A tree whose nodes may have children of different heights.

    Atomic i hangs under a later atomic or the destination, atomic i
    first adopts source i, and the other sources hang anywhere. Node
    ids follow a shuffled declaration order.
    """
    atomics = [f"a{i}" for i in range(n_atomics)]
    children: dict[str, list[str]] = {name: [] for name in atomics + ["d0"]}
    for i, name in enumerate(atomics):
        children[name].append(f"s{i}")
        parents = atomics[i + 1 :] + ["d0"]
        children[parents[rng.integers(len(parents))]].append(name)
    for i in range(n_atomics, n_sources):
        children[(atomics + ["d0"])[rng.integers(n_atomics + 1)]].append(f"s{i}")
    for kids in children.values():
        rng.shuffle(kids)
    roles = {f"s{i}": NodeRole.SOURCE for i in range(n_sources)}
    roles.update({name: NodeRole.ATOMIC for name in atomics}, d0=NodeRole.DESTINATION)
    order = list(roles)
    rng.shuffle(order)
    return TopologyConfig(roles={name: roles[name] for name in order}, children=children)


def random_assignment(rng, g, family):
    """A valid assignment of one family, plus matching source packets.

    real: AppendCount sources under Sum, Max, Min, Average, NeuronUnit.
    field: forwarding sources under GF(16) LinearCombination, Max, Min,
    with Histogram or Sum on the destination's children.
    mixed: float32 and float64 sources forwarded under the real kinds,
    so one group's packets may not share a dtype.
    """
    length = int(rng.choice([1, 2, 9]))
    dest = g.destinations[0]
    functions: dict[object, object] = {}
    decoders = {}
    pool: dict = {}
    for a in g.atomics:
        arity = len(g.in_neighbors[a])
        # Two weight and coefficient vectors per arity, so equal functions recur and batch.
        variant = (arity, int(rng.integers(2)))
        weights = pool.setdefault(("w", *variant), tuple(rng.normal(size=arity)))
        coeffs = pool.setdefault(("c", *variant), tuple(GF16.random_elements(rng, arity).tolist()))
        kinds = {
            "real": [Sum(), Max(), Min(), Average(), NeuronUnit(weights)],
            "mixed": [Sum(), Max(), Min(), Average(), NeuronUnit(weights)],
            "field": [LinearCombination(coeffs, GF16), Max(), Min()],
        }[family]
        if family == "field" and g.out_neighbors[a][0] == dest:
            kinds += [Histogram(5), Sum()]
        functions[a] = kinds[rng.integers(len(kinds))]
    if family == "real":
        functions.update({s: AppendCount() for s in g.sources})
        decoders = {dest: average_decoder} if all(
            isinstance(functions[c], (Sum, AppendCount)) for c in g.in_neighbors[dest]
        ) else {}
        values = list(rng.normal(0.0, 10.0, size=(g.n_sources, length)))
    elif family == "field":
        functions.update({s: Identity() for s in g.sources if rng.random() < 0.5})
        values = list(GF16.random_elements(rng, (g.n_sources, length)))
    else:
        values = [
            rng.normal(size=length).astype([np.float32, np.float64][rng.integers(2)])
            for _ in g.sources
        ]
    # Arc keys bind the tail node, like node keys.
    for a in g.atomics[: len(g.atomics) // 2]:
        functions[(a, g.out_neighbors[a][0])] = functions.pop(a)
    return FunctionAssignment(functions, decoders), dict(zip(g.sources, values))


def reference(g, assignment, inputs, dropped):
    """Per-node evaluation in topological order over the children that emitted."""
    spec_of = {
        (key[0] if isinstance(key, tuple) else key): spec
        for key, spec in assignment.functions.items()
    }
    out: dict[int, np.ndarray] = {}
    metrics: dict = {}
    for v in g.topo_order:
        if v in dropped or g.roles[v] is NodeRole.DESTINATION:
            continue
        kids = g.in_neighbors[v]
        packets = [inputs[v]] if g.roles[v] is NodeRole.SOURCE else [out[c] for c in kids if c in out]
        if not packets:
            continue
        spec = spec_of.get(v)
        keep = [i for i, c in enumerate(kids) if c in out]
        if isinstance(spec, LinearCombination) and len(keep) < len(kids):
            spec = LinearCombination(tuple(spec.coefficients[i] for i in keep), spec.field)
        if isinstance(spec, NeuronUnit) and len(keep) < len(kids):
            spec = NeuronUnit(tuple(spec.weights[i] for i in keep))
        if isinstance(spec, Nomographic) and len(keep) < len(kids):
            spec = Nomographic(
                tuple(spec.pre_functions[i] for i in keep),
                tuple(spec.channel_coefficients[i] for i in keep),
                spec.post_function,
            )
        if spec is None:
            out[v] = packets[0].copy()
        elif isinstance(spec, Nomographic):
            out[v] = eval_aafc(spec, packets)
        else:
            out[v] = eval_dafc(spec, packets, metrics=metrics)
    messages = {(v, g.out_neighbors[v][0]): out[v] for v in g.topo_order if v in out}
    outputs = {}
    for d in g.destinations:
        if d not in dropped:
            inbox = [out[c] for c in g.in_neighbors[d] if c in out]
            decoder = assignment.decoders.get(d)
            outputs[d] = decoder(inbox) if decoder is not None and inbox else inbox
    return messages, outputs, metrics.get("clamped_symbols", 0)


def assert_identical(actual, expected):
    if isinstance(expected, np.ndarray):
        assert isinstance(actual, np.ndarray)
        assert (actual.dtype, actual.shape) == (expected.dtype, expected.shape)
        assert actual.tobytes() == expected.tobytes()
    else:
        assert len(actual) == len(expected)
        for a, e in zip(actual, expected):
            assert_identical(a, e)


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_sources=st.integers(1, 24),
    atomic_share=st.floats(0.0, 1.0),
    family=st.sampled_from(["real", "field", "mixed"]),
    dropout_p=st.sampled_from([0.0, 0.2, 0.5]),
)
def test_evaluate_matches_per_node_reference(seed, n_sources, atomic_share, family, dropout_p):
    rng = np.random.default_rng(seed)
    g = build_graph(random_tree(rng, n_sources, max(1, round(atomic_share * n_sources))))
    assignment, inputs = random_assignment(rng, g, family)
    network = install_functions(g, assignment)
    for _ in range(3):
        dropped = {v for v in g.sources + g.atomics if rng.random() < dropout_p}
        evaluation = network.evaluate(inputs, dropped=dropped)
        messages, outputs, clamped = reference(g, assignment, inputs, dropped)
        assert list(evaluation.messages) == list(messages)
        assert_identical(list(evaluation.messages.values()), list(messages.values()))
        assert list(evaluation.destination_outputs) == list(outputs)
        assert_identical(list(evaluation.destination_outputs.values()), list(outputs.values()))
        assert evaluation.clamped_symbols == clamped


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_sources=st.integers(1, 24), atomic_share=st.floats(0.0, 1.0))
def test_name_keys_evaluate_like_id_keys(seed, n_sources, atomic_share):
    rng = np.random.default_rng(seed)
    g = build_graph(random_tree(rng, n_sources, max(1, round(atomic_share * n_sources))))
    assignment, inputs = random_assignment(rng, g, "real")
    network = install_functions(g, assignment)
    dropped = {v for v in g.sources + g.atomics if rng.random() < 0.3}
    by_id = network.evaluate(inputs, dropped=dropped)
    by_name = network.evaluate({g.names[s]: p for s, p in inputs.items()}, dropped=dropped)
    assert list(by_name.messages) == list(by_id.messages)
    assert_identical(list(by_name.messages.values()), list(by_id.messages.values()))
    assert list(by_name.destination_outputs) == list(by_id.destination_outputs)
    assert_identical(list(by_name.destination_outputs.values()), list(by_id.destination_outputs.values()))
    with pytest.raises(DanglingReference):
        network.evaluate({**inputs, "no such node": inputs[g.sources[0]]})


def test_wide_groups_sum_like_one_node_at_a_time():
    """Ten 10-ary nodes summing width-1 and width-2 packets in one batch
    give the per-node sums bit for bit (numpy sums 8 or more terms
    pairwise, so a hand-written running sum would not)."""
    g = build_graph(balanced_tree_topology(100, branching=10))
    assignment = FunctionAssignment({a: Sum() for a in g.atomics})
    network = install_functions(g, assignment)
    rng = np.random.default_rng(3)
    for length in (1, 2):
        scales = 10.0 ** rng.integers(-8, 8, size=(100, 1))
        inputs = dict(zip(g.sources, rng.normal(size=(100, length)) * scales))
        messages, _, _ = reference(g, assignment, inputs, set())
        evaluation = network.evaluate(inputs)
        assert_identical(list(evaluation.messages.values()), list(messages.values()))


def test_analog_batch_matches_reference():
    g = build_graph(balanced_tree_topology(27, branching=3))
    spec = nomographic_sum(3, (0.5, 2.0, -1.5))
    assignment = FunctionAssignment({a: spec for a in g.atomics})
    network = install_functions(g, assignment)
    inputs = dict(zip(g.sources, np.random.default_rng(4).normal(size=(27, 4))))
    for dropped in (set(), {g.sources[0], g.atomics[2]}):
        evaluation = network.evaluate(inputs, dropped=dropped)
        messages, outputs, _ = reference(g, assignment, inputs, dropped)
        assert_identical(list(evaluation.messages.values()), list(messages.values()))
        assert_identical(list(evaluation.destination_outputs.values()), list(outputs.values()))


def test_block_rejects_a_node_whose_packet_width_changes():
    """One generation at a time, a node emits whichever of its unequal-width
    children arrived; a block holds one width per node, so it refuses."""
    roles = {"s0": NodeRole.SOURCE, "s1": NodeRole.SOURCE, "a0": NodeRole.ATOMIC,
             "d0": NodeRole.DESTINATION}
    g = build_graph(TopologyConfig(roles=roles, children={"a0": ["s0", "s1"], "d0": ["a0"]}))
    network = install_functions(g, FunctionAssignment({"s0": AppendCount(), "a0": Max()}))
    s0, s1 = g.node_id("s0"), g.node_id("s1")
    inputs = {s0: np.array([1.0]), s1: np.array([2.0])}
    assert len(network.evaluate(inputs, dropped={s1}).messages[(g.node_id("a0"), g.node_id("d0"))]) == 2
    assert len(network.evaluate(inputs, dropped={s0}).messages[(g.node_id("a0"), g.node_id("d0"))]) == 1
    dropped = np.zeros((2, g.n_nodes), dtype=bool)
    dropped[0, s1] = dropped[1, s0] = True
    with pytest.raises(DomainMismatch):
        network.evaluate_block(np.ones((2, 2, 1)), dropped)


def dag_graph():
    roles = {"s0": NodeRole.SOURCE, "a0": NodeRole.ATOMIC, "d0": NodeRole.DESTINATION}
    return build_graph(
        TopologyConfig(roles=roles, children={"a0": ["s0"], "d0": ["a0", "s0"]}, mode="dag")
    )


def test_install_functions_rejects_dag():
    with pytest.raises(NotATree):
        install_functions(dag_graph(), FunctionAssignment({"a0": Sum()}))


def test_level_plan_rejects_dag():
    with pytest.raises(NotATree):
        dag_graph().level_plan


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_sources=st.integers(1, 24), atomic_share=st.floats(0.0, 1.0))
def test_level_plan_covers_each_atomic_once_after_its_children(seed, n_sources, atomic_share):
    rng = np.random.default_rng(seed)
    g = build_graph(random_tree(rng, n_sources, max(1, round(atomic_share * n_sources))))
    height = dict.fromkeys(g.sources, 0)
    keys = []
    for group in g.level_plan:
        k, arity = group.children.shape
        assert group.nodes.shape == (k,) and group.slots.shape == (k, arity)
        for v, kids in zip(group.nodes.tolist(), group.children.tolist()):
            assert tuple(kids) == g.in_neighbors[v]
            height[v] = 1 + max(height[c] for c in kids)  # KeyError if a child comes later
            keys.append((height[v], arity))
    assert keys == sorted(keys)
    assert sorted(height) == sorted(g.sources + g.atomics)
    # Slots are the atomic in-arcs laid out node by node in topological order.
    slots = {v: s for group in g.level_plan for v, s in zip(group.nodes.tolist(), group.slots.tolist())}
    flat = [slot for v in g.topo_order if v in slots for slot in slots[v]]
    assert flat == list(range(len(flat)))
