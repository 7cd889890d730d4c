"""The level plan and the evaluator that runs installed assignments on it.

``ConfiguredNetwork.evaluate`` runs a block of generations and batches
the nodes of each plan group that share a function. On random trees,
dropout masks and mixed assignments it must reproduce, byte for byte, a
per-node reference that calls ``eval_dafc`` / ``eval_aafc`` in
topological order over the children that emitted. The reference decodes
each generation's inbox list with its own oracle, never with the block
decoder it checks. Both read the source packets at their promoted
dtype. ``evaluate_one`` runs one generation, a block with B = 1, from
source packets keyed by name or id, and reads it back as per-arc
messages and decoded outputs, the form the reference returns.
"""

from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nfcsim import afc
from nfcsim.afc import (
    AppendCount,
    FunctionAssignment,
    Histogram,
    Identity,
    LinearCombination,
    Max,
    Min,
    Nomographic,
    Sum,
    average_decoder,
    decompose_average,
    eval_aafc,
    eval_dafc,
    install_functions,
    nomographic_sum,
)
from nfcsim.errors import DanglingReference, DomainMismatch, NotATree
from nfcsim.field import FieldSpec
from nfcsim.graph import NodeRole, TopologyConfig, balanced_tree_topology, build_graph
from nfcsim.learning.neural import NeuralTreeNetwork

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

    real: AppendCount sources under Sum, Max, Min.
    field: forwarding sources under GF(16) LinearCombination, Max, Min,
    with Histogram or Sum on the destination's children.
    mixed: the field kinds, with some sources re-typing their packet to
    int64 by a Sum, so a batch may read uint8 beside int64 children.
    """
    length = int(rng.choice([1, 2, 9]))
    dest = g.destinations[0]
    functions: dict[object, object] = {}
    decoders = {}
    pool: dict = {}
    for a in g.atomics:
        arity = len(g.in_neighbors[a])
        # Two coefficient vectors per arity, so equal functions recur and batch.
        variant = (arity, int(rng.integers(2)))
        coeffs = pool.setdefault(variant, tuple(GF16.random_elements(rng, arity).tolist()))
        if family == "real":
            kinds = [Sum(), Max(), Min()]
        else:
            kinds = [LinearCombination(coeffs, GF16), Max(), Min()]
        if family != "real" and g.out_neighbors[a][0] == dest:
            kinds += [Histogram(5), Sum()]
        functions[a] = kinds[rng.integers(len(kinds))]
    if family == "real":
        functions.update({s: AppendCount() for s in g.sources})
        decoders = {dest: average_decoder} if all(
            isinstance(functions[c], (Sum, AppendCount)) for c in g.in_neighbors[dest]
        ) else {}
        values = list(rng.normal(0.0, 10.0, size=(g.n_sources, length)))
    else:
        functions.update({s: Identity() for s in g.sources if rng.random() < 0.5})
        if family == "mixed":
            functions.update({s: Sum() for s in g.sources if rng.random() < 0.5})
        values = list(GF16.random_elements(rng, (g.n_sources, length)))
    # Arc keys bind the tail node, like node keys.
    for a in g.atomics[: len(g.atomics) // 2]:
        functions[(a, g.out_neighbors[a][0])] = functions.pop(a)
    return FunctionAssignment(functions, decoders), dict(zip(g.sources, values))


def average_oracle(inbox):
    """One generation's average decode over the packets that arrived."""
    total = np.sum(np.stack(inbox), axis=0)
    return total[:-1] / total[-1]


ORACLE_DECODERS = {average_decoder: average_oracle}


def reference(g, assignment, inputs, dropped):
    """Per-node evaluation in topological order over the children that
    emitted, from source packets promoted to one dtype."""
    inputs = dict(zip(inputs, np.stack(list(inputs.values()))))
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
            outputs[d] = ORACLE_DECODERS[decoder](inbox) if decoder is not None and inbox else inbox
    return messages, outputs, metrics.get("clamped_symbols", 0)


class OneGeneration(NamedTuple):
    """One generation's dataflow: per-arc messages and decoded outputs."""

    messages: dict
    destination_outputs: dict
    clamped_symbols: int


def evaluate_one(network, source_inputs, dropped=frozenset()):
    """Run one generation, a block with B = 1, from source packets keyed by
    name or id. They stack into one array at their promoted dtype, and a
    dropped source's packet is zeros."""
    g = network.graph
    inputs = {g.node_id(key) if isinstance(key, str) else key: p for key, p in source_inputs.items()}
    mask = np.zeros((1, g.n_nodes), dtype=bool)
    mask[0, list(dropped)] = True
    zeros = np.zeros_like(next(iter(inputs.values())))
    block = network.evaluate(np.stack([zeros if s in dropped else inputs[s] for s in g.sources])[None], mask)
    emitted = block.emitted[0].tolist()
    messages = {(v, g.out_neighbors[v][0]): block.packets[v][0] for v in g.topo_order if emitted[v]}
    outputs = {d: output[0] for d, output in block.outputs.items() if output[0] is not None}
    return OneGeneration(messages, outputs, block.clamped_symbols)


def assert_identical(actual, expected, promoted=False):
    """Equal dtype, shape and bytes; ``promoted`` lets ``actual`` hold the
    bytes of ``expected`` at a dtype that ``expected`` casts to safely."""
    if isinstance(expected, np.ndarray):
        assert isinstance(actual, np.ndarray)
        if promoted:
            assert np.can_cast(expected.dtype, actual.dtype)
            expected = expected.astype(actual.dtype)
        assert (actual.dtype, actual.shape) == (expected.dtype, expected.shape)
        assert actual.tobytes() == expected.tobytes()
    else:
        assert len(actual) == len(expected)
        for a, e in zip(actual, expected):
            assert_identical(a, e, promoted)


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
        evaluation = evaluate_one(network, inputs, dropped=dropped)
        messages, outputs, clamped = reference(g, assignment, inputs, dropped)
        promoted = family == "mixed"  # a batch may read a node's children at a wider dtype
        assert list(evaluation.messages) == list(messages)
        assert_identical(list(evaluation.messages.values()), list(messages.values()), promoted)
        assert list(evaluation.destination_outputs) == list(outputs)
        assert_identical(list(evaluation.destination_outputs.values()), list(outputs.values()), promoted)
        assert evaluation.clamped_symbols == clamped


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_sources=st.integers(1, 24), atomic_share=st.floats(0.0, 1.0))
def test_name_keys_evaluate_like_id_keys(seed, n_sources, atomic_share):
    rng = np.random.default_rng(seed)
    g = build_graph(random_tree(rng, n_sources, max(1, round(atomic_share * n_sources))))
    assignment, inputs = random_assignment(rng, g, "real")
    network = install_functions(g, assignment)
    dropped = {v for v in g.sources + g.atomics if rng.random() < 0.3}
    by_id = evaluate_one(network, inputs, dropped=dropped)
    by_name = evaluate_one(network, {g.names[s]: p for s, p in inputs.items()}, dropped=dropped)
    assert list(by_name.messages) == list(by_id.messages)
    assert_identical(list(by_name.messages.values()), list(by_id.messages.values()))
    assert list(by_name.destination_outputs) == list(by_id.destination_outputs)
    assert_identical(list(by_name.destination_outputs.values()), list(by_id.destination_outputs.values()))
    with pytest.raises(DanglingReference):
        evaluate_one(network, {**inputs, "no such node": inputs[g.sources[0]]})


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
        evaluation = evaluate_one(network, inputs)
        assert_identical(list(evaluation.messages.values()), list(messages.values()))


def test_analog_batch_matches_reference():
    g = build_graph(balanced_tree_topology(27, branching=3))
    spec = nomographic_sum(3, (0.5, 2.0, -1.5))
    assignment = FunctionAssignment({a: spec for a in g.atomics})
    network = install_functions(g, assignment)
    inputs = dict(zip(g.sources, np.random.default_rng(4).normal(size=(27, 4))))
    for dropped in (set(), {g.sources[0], g.atomics[2]}):
        evaluation = evaluate_one(network, inputs, dropped=dropped)
        messages, outputs, _ = reference(g, assignment, inputs, dropped)
        assert_identical(list(evaluation.messages.values()), list(messages.values()))
        assert_identical(list(evaluation.destination_outputs.values()), list(outputs.values()))


def with_wide_relay(rng, topology: TopologyConfig, wide: int) -> TopologyConfig:
    """The topology plus a relay of ``wide`` new sources, hung under a random
    atomic node or the destination."""
    roles = dict(topology.roles)
    parents = [name for name, role in roles.items() if role is not NodeRole.SOURCE]
    children = {name: list(kids) for name, kids in topology.children.items()}
    children["w"] = [f"t{i}" for i in range(wide)]
    children[parents[rng.integers(len(parents))]].append("w")
    roles.update({f"t{i}": NodeRole.SOURCE for i in range(wide)}, w=NodeRole.ATOMIC)
    return TopologyConfig(roles=roles, children=children)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_sources=st.integers(1, 12),
    wide=st.integers(8, 20),
    dropout_p=st.floats(0.05, 0.5),
)
def test_blocks_over_a_wide_relay_match_the_reference(seed, n_sources, wide, dropout_p):
    """Width-1 packets summed by a relay of 8 or more children, with some
    missing: numpy sums 8 or more terms pairwise, so a block that padded a
    missing child with -0.0 would sum in another order than the reference,
    which sums only the children that emitted."""
    rng = np.random.default_rng(seed)
    base = random_tree(rng, n_sources, max(1, int(rng.integers(n_sources + 1))))
    g = build_graph(with_wide_relay(rng, base, wide))
    assignment = FunctionAssignment({a: [Sum(), Max()][rng.integers(2)] for a in g.atomics})
    network = install_functions(g, assignment)
    generations = 14
    scales = 10.0 ** rng.integers(-8, 8, size=(generations, g.n_sources, 1))
    values = rng.normal(size=(generations, g.n_sources, 1)) * scales
    values[rng.random(values.shape) < 0.1] = -0.0
    dropped = np.zeros((generations, g.n_nodes), dtype=bool)
    dropped[:, g.sources + g.atomics] = rng.random((generations, g.n_sources + len(g.atomics))) < dropout_p
    expected = [reference(g, assignment, dict(zip(g.sources, values[t])), set(np.flatnonzero(dropped[t])))
                for t in range(generations)]
    for size in (1, 3, 7):
        for start in range(0, generations, size):
            block = network.evaluate(values[start : start + size], dropped[start : start + size])
            for b, (messages, outputs, _) in enumerate(expected[start : start + size]):
                emitted = [v for v in g.topo_order if block.emitted[b, v]]
                assert [(v, g.out_neighbors[v][0]) for v in emitted] == list(messages)
                assert_identical([block.packets[v][b] for v in emitted], list(messages.values()))
                assert_identical([block.outputs[d][b] for d in outputs], list(outputs.values()))


def counted_calls(monkeypatch) -> list:
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[0])
        return eval_dafc(*args, **kwargs)

    monkeypatch.setattr(afc, "eval_dafc", counting)
    return calls


def expected_calls(batches, emitted):
    """One call per (batch, arrival pattern), and one call on zero pairs for a
    batch that no pair emits from. A batch is a list of (node, children)
    that share a function; a source is its own child."""
    count = 0
    for batch in batches:
        patterns = {tuple(emitted[b, kids].tolist()) for v, kids in batch for b in np.flatnonzero(emitted[:, v])}
        count += max(1, len(patterns))
    return count


def test_a_dropout_free_block_makes_one_call_per_batch(monkeypatch):
    calls = counted_calls(monkeypatch)
    g = build_graph(balanced_tree_topology(100, branching=10))
    network = install_functions(g, decompose_average(g))
    values = np.random.default_rng(5).normal(size=(50, 100, 1))
    block = network.evaluate(values, np.zeros((50, g.n_nodes), dtype=bool))
    assert len(calls) == 1 + len(g.level_plan)  # the sources, then one batch per level
    assert block.emitted[:, g.sources + g.atomics].all()


def test_a_block_with_dropout_makes_one_call_per_arrival_pattern(monkeypatch):
    calls = counted_calls(monkeypatch)
    rng = np.random.default_rng(6)
    g = build_graph(balanced_tree_topology(100, branching=10))
    network = install_functions(g, decompose_average(g))
    dropped = np.zeros((200, g.n_nodes), dtype=bool)
    dropped[:, g.sources + g.atomics] = rng.random((200, 110)) < 0.05
    block = network.evaluate(rng.normal(size=(200, 100, 1)), dropped)
    batches = [[(s, [s]) for s in g.sources]]
    batches += [list(zip(group.nodes.tolist(), group.children.tolist())) for group in g.level_plan]
    expected = expected_calls(batches, block.emitted)
    assert len(calls) == expected and len(g.level_plan) + 1 < expected < 200


def test_a_relay_reads_a_sum_child_and_a_forwarded_source_at_the_promoted_dtype(monkeypatch):
    """A GF(16) Max relay over a Sum child (int64) and a forwarded source
    (uint8), under dropout: one call per arrival pattern, an int64 column,
    and each row the per-node reference at that dtype."""
    roles = {f"s{i}": NodeRole.SOURCE for i in range(3)}
    roles.update(a0=NodeRole.ATOMIC, a1=NodeRole.ATOMIC, d0=NodeRole.DESTINATION)
    children = {"a0": ["s0", "s1"], "a1": ["a0", "s2"], "d0": ["a1"]}
    g = build_graph(TopologyConfig(roles=roles, children=children))
    a0, a1 = g.node_id("a0"), g.node_id("a1")
    assignment = FunctionAssignment({a0: Sum(), a1: Max()})
    network = install_functions(g, assignment)
    rng = np.random.default_rng(7)
    sources = GF16.random_elements(rng, (40, 3, 2))
    dropped = np.zeros((40, g.n_nodes), dtype=bool)
    dropped[:, [*g.sources, a0]] = rng.random((40, 4)) < 0.3
    calls = counted_calls(monkeypatch)
    block = network.evaluate(sources, dropped)
    batches = [[(s, [s]) for s in g.sources]] + [[(v, list(g.in_neighbors[v]))] for v in (a0, a1)]
    assert len(calls) == expected_calls(batches, block.emitted) > len(batches)
    assert block.packets[a1].dtype == np.int64 and block.packets[g.node_id("s2")].dtype == np.uint8
    for b in range(40):
        inputs = dict(zip(g.sources, sources[b]))
        messages, _, _ = reference(g, assignment, inputs, set(np.flatnonzero(dropped[b])))
        emitted = [v for v in g.topo_order if block.emitted[b, v]]
        assert [v for v, _ in messages] == emitted
        assert_identical([block.packets[v][b] for v in emitted], list(messages.values()), promoted=True)


def test_block_rejects_a_node_whose_packet_width_changes():
    """a0 takes Max over s0's 2-symbol and s1's 1-symbol packets. A batch
    reads its children as one array, so it refuses whatever arrived, even
    one generation at a time."""
    roles = {"s0": NodeRole.SOURCE, "s1": NodeRole.SOURCE, "a0": NodeRole.ATOMIC,
             "d0": NodeRole.DESTINATION}
    g = build_graph(TopologyConfig(roles=roles, children={"a0": ["s0", "s1"], "d0": ["a0"]}))
    network = install_functions(g, FunctionAssignment({"s0": AppendCount(), "a0": Max()}))
    s0, s1 = g.node_id("s0"), g.node_id("s1")
    inputs = {s0: np.array([1.0]), s1: np.array([2.0])}
    for dropped in (set(), {s0}, {s1}):
        with pytest.raises(DomainMismatch, match="node 'a0' emits packets of unequal widths"):
            evaluate_one(network, inputs, dropped=dropped)
    dropped = np.zeros((2, g.n_nodes), dtype=bool)
    dropped[0, s1] = dropped[1, s0] = True
    with pytest.raises(DomainMismatch, match="node 'a0' emits packets of unequal widths"):
        network.evaluate(np.ones((2, 2, 1)), dropped)


def test_a_batch_refuses_relays_whose_packets_differ_in_width():
    """Two Max relays share a batch, a0 over 2-symbol AppendCount packets and
    a1 over 1-symbol packets: the batch's packets hold one width, so it
    refuses and names a1, the relay whose children differ from the first."""
    roles = {f"s{i}": NodeRole.SOURCE for i in range(4)}
    roles.update(a0=NodeRole.ATOMIC, a1=NodeRole.ATOMIC, d0=NodeRole.DESTINATION)
    children = {"a0": ["s0", "s1"], "a1": ["s2", "s3"], "d0": ["a0", "a1"]}
    g = build_graph(TopologyConfig(roles=roles, children=children))
    network = install_functions(g, FunctionAssignment({"s0": AppendCount(), "s1": AppendCount(), "a0": Max(),
                                                       "a1": Max()}))
    with pytest.raises(DomainMismatch, match="node 'a1' emits packets of unequal widths"):
        evaluate_one(network, {f"s{i}": np.array([1.0]) for i in range(4)})


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    generations=st.integers(1, 6),
    k=st.integers(1, 12),
    length=st.sampled_from([1, 3]),
    one_child=st.booleans(),
)
def test_average_decoder_matches_the_list_oracle(seed, generations, k, length, one_child):
    """Each row of the block decode equals, byte for byte, the sum over only
    the packets that arrived, in child order, divided by their count."""
    rng = np.random.default_rng(seed)
    signed_zeros = rng.choice([0.0, -0.0], size=(generations, k, length))
    values = np.where(rng.random((generations, k, length)) < 0.5, signed_zeros,
                      rng.normal(0.0, 10.0, size=(generations, k, length)))
    counts = rng.integers(1, 5, size=(generations, k, 1)).astype(np.float64)
    packets = np.concatenate([values, counts], axis=2)
    arrived = rng.random((generations, k)) < (0.0 if one_child else rng.random())
    arrived[np.arange(generations), rng.integers(k, size=generations)] = True  # a lone packet may hold -0.0
    decoded = average_decoder(packets, arrived)
    assert decoded.shape == (generations, length)
    for b in range(generations):
        assert_identical(decoded[b], average_oracle(list(packets[b][arrived[b]])))


def test_average_decoder_decodes_a_lone_negative_zero_like_the_list_sum():
    packets = np.array([[[5.0, 1.0], [-0.0, 1.0], [7.0, 1.0]]])
    decoded = average_decoder(packets, np.array([[False, True, False]]))
    assert_identical(decoded[0], average_oracle([packets[0, 1]]))


def sources_under_destination(decoder, widen_s0=False):
    """s0 and s1 hang straight under d0; AppendCount on s0 widens its packet by one."""
    roles = {"s0": NodeRole.SOURCE, "s1": NodeRole.SOURCE, "d0": NodeRole.DESTINATION}
    g = build_graph(TopologyConfig(roles=roles, children={"d0": ["s0", "s1"]}))
    functions = {"s0": AppendCount()} if widen_s0 else {s: AppendCount() for s in ("s0", "s1")}
    return g, install_functions(g, FunctionAssignment(functions, {"d0": decoder}))


def test_decoder_sees_only_generations_where_a_child_arrived():
    """A generation in which nothing arrived keeps the empty inbox and is never
    handed to the decoder; a dropped destination outputs None."""
    calls = []

    def recording(packets, arrived):
        calls.append(arrived.copy())
        return average_decoder(packets, arrived)

    g, network = sources_under_destination(recording)
    s0, s1, d0 = (g.node_id(name) for name in ("s0", "s1", "d0"))
    dropped = np.zeros((4, g.n_nodes), dtype=bool)
    dropped[0, [s0, s1]] = True  # nothing arrives
    dropped[1, d0] = True  # the destination is down
    dropped[2, s1] = True  # s0 alone
    sources = np.array([[[1.0], [3.0]]] * 4)
    outputs = network.evaluate(sources, dropped).outputs[d0]
    assert outputs[0] == [] and outputs[1] is None
    assert_identical(outputs[2:], [np.array([1.0]), np.array([2.0])])
    assert len(calls) == 1 and calls[0].tolist() == [[True, False], [True, True]]
    calls.clear()
    dropped[:, [s0, s1]] = True
    assert network.evaluate(sources, dropped).outputs[d0] == [[], None, [], []]
    assert calls == []


def test_decoder_rejects_children_of_unequal_widths():
    """Refused whatever arrived, even at B = 1 with one child arriving, and
    the error names the destination."""
    g, network = sources_under_destination(average_decoder, widen_s0=True)
    inputs = {"s0": np.array([1.0]), "s1": np.array([2.0])}
    with pytest.raises(DomainMismatch, match="destination 'd0' decodes packets of unequal widths"):
        evaluate_one(network, inputs)
    dropped = np.zeros((2, g.n_nodes), dtype=bool)
    dropped[0, g.node_id("s1")] = dropped[1, g.node_id("s0")] = True
    with pytest.raises(DomainMismatch, match="destination 'd0' decodes packets of unequal widths"):
        network.evaluate(np.ones((2, 2, 1)), dropped)
    with pytest.raises(DomainMismatch, match="destination 'd0' decodes packets of unequal widths"):
        evaluate_one(network, inputs, dropped={g.node_id("s1")})


def dag_graph():
    roles = {"s0": NodeRole.SOURCE, "a0": NodeRole.ATOMIC, "d0": NodeRole.DESTINATION}
    return build_graph(
        TopologyConfig(roles=roles, children={"a0": ["s0"], "d0": ["a0", "s0"]}, mode="dag")
    )


def test_install_functions_rejects_dag():
    with pytest.raises(NotATree):
        install_functions(dag_graph(), FunctionAssignment({"a0": Sum()}))


def test_neural_network_rejects_dag():
    with pytest.raises(NotATree):
        NeuralTreeNetwork(dag_graph())


def random_dag(rng: np.random.Generator, n_sources: int, n_atomics: int) -> TopologyConfig:
    """A dag-mode graph in which atomic a0 has no children and source s0
    has a parent in every other atomic node and the destination; each of
    those also takes up to three more nodes declared before it."""
    roles = {f"s{i}": NodeRole.SOURCE for i in range(n_sources)}
    children: dict[str, list[str]] = {"a0": []}
    roles["a0"] = NodeRole.ATOMIC
    for name in [f"a{i}" for i in range(1, n_atomics)] + ["d0"]:
        earlier = list(roles)[1:]
        count = int(rng.integers(0, min(3, len(earlier)) + 1))
        children[name] = ["s0"] + [earlier[i] for i in rng.choice(len(earlier), size=count, replace=False)]
        roles[name] = NodeRole.DESTINATION if name == "d0" else NodeRole.ATOMIC
    return TopologyConfig(roles=roles, children=children, mode="dag")


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_sources=st.integers(1, 24),
    atomic_share=st.floats(0.0, 1.0),
    dag=st.booleans(),
)
def test_level_plan_covers_each_atomic_once_after_its_children(seed, n_sources, atomic_share, dag):
    rng = np.random.default_rng(seed)
    n_atomics = max(1, round(atomic_share * n_sources))
    g = build_graph(random_dag(rng, n_sources, n_atomics + 1) if dag else random_tree(rng, n_sources, n_atomics))
    height = dict.fromkeys(g.sources, 0)
    keys = []
    for group in g.level_plan:
        k, arity = group.children.shape
        assert group.nodes.shape == (k,) and group.slots.shape == (k, arity)
        assert all(column.dtype == np.intp for column in group)
        for v, kids in zip(group.nodes.tolist(), group.children.tolist()):
            assert tuple(kids) == g.in_neighbors[v]
            height[v] = 1 + max((height[c] for c in kids), default=0)  # KeyError if a child comes later
            keys.append((height[v], arity))
    assert keys == sorted(keys)
    assert sorted(height) == sorted(g.sources + g.atomics)
    # Slots are the atomic in-arcs laid out node by node in topological order.
    slots = {v: s for group in g.level_plan for v, s in zip(group.nodes.tolist(), group.slots.tolist())}
    flat = [slot for v in g.topo_order if v in slots for slot in slots[v]]
    assert flat == list(range(len(flat)))
