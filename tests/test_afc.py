"""Atomic functions: digital kinds, analog presets, network composition."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nfcsim.afc import (
    AppendCount,
    AtomicFunction,
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
    decompose_average,
    eval_aafc,
    eval_dafc,
    install_functions,
    nomographic_euclidean_norm,
    nomographic_geometric_mean,
    nomographic_mean,
    nomographic_sum,
)
from nfcsim.errors import (
    ArityMismatch,
    DomainError,
    DomainMismatch,
    MissingAssignment,
    NotATree,
)
from nfcsim.field import FieldSpec
from nfcsim.graph import (
    NodeRole,
    TopologyConfig,
    balanced_tree_topology,
    build_graph,
    random_tree_topology,
    star_topology,
)
from test_plan import evaluate_one, random_assignment, random_tree

GF2 = FieldSpec(1)
GF256 = FieldSpec(8)


def test_linear_combination_gf2_is_xor():
    spec = LinearCombination((1, 1), GF2)
    out = eval_dafc(spec, [np.array([1, 0, 1], dtype=np.uint8), np.array([0, 0, 1], dtype=np.uint8)])
    assert out.tolist() == [1, 0, 0]


def test_max_min_sum_average():
    a = np.array([3, 7])
    b = np.array([5, 2])
    assert eval_dafc(Max(), [a, b]).tolist() == [5, 7]
    assert eval_dafc(Min(), [a, b]).tolist() == [3, 2]
    assert eval_dafc(Sum(), [a, b]).tolist() == [8, 9]
    packets = [np.array([float(v)] * 3) for v in (1, 2, 3, 4)]
    assert eval_dafc(Average(), packets).tolist() == [2.5, 2.5, 2.5]


def test_identity_and_arity():
    x = np.array([1.0, 2.0])
    assert eval_dafc(Identity(), [x]).tolist() == [1.0, 2.0]
    with pytest.raises(ArityMismatch):
        eval_dafc(Identity(), [x, x])
    with pytest.raises(ArityMismatch):
        eval_dafc(LinearCombination((1, 1), GF2), [x.astype(np.uint8)])


def test_domain_checks():
    with pytest.raises(DomainMismatch):
        eval_dafc(LinearCombination((1, 1), GF2), [np.array([0.5]), np.array([1.0])])
    with pytest.raises(DomainMismatch):
        eval_dafc(Sum(), [np.array([1.0]), np.array([1], dtype=np.uint8)])
    with pytest.raises(DomainMismatch):
        eval_dafc(Sum(), [np.array([1.0, 2.0]), np.array([1.0])])


def test_histogram_counts_and_clamps():
    metrics = {}
    out = eval_dafc(
        Histogram(bins=4),
        [np.array([0, 1, 1, 9], dtype=np.int64), np.array([3, 3, -2, 2], dtype=np.int64)],
        metrics=metrics,
    )
    # 9 clamps to bin 3, -2 clamps to bin 0
    assert out.tolist() == [2, 2, 1, 3]
    assert metrics["clamped_symbols"] == 2
    empty = eval_dafc(Histogram(bins=4), np.zeros((0, 2, 3), dtype=np.int64), metrics=metrics)
    assert (empty.dtype, empty.shape) == (np.int64, (0, 4))  # a batch with no live pair
    assert metrics["clamped_symbols"] == 2


def test_neuron_unit_sigmoid():
    spec = NeuronUnit((1.0, -1.0))
    out = eval_dafc(spec, [np.array([0.0, 2.0]), np.array([0.0, 2.0])])
    assert np.allclose(out, [0.5, 0.5])


def test_neuron_unit_saturates_to_zero_without_a_warning():
    out = eval_dafc(NeuronUnit((1.0,)), [np.array([-1000.0])])  # exp(1000) overflows to inf
    assert out.tolist() == [0.0]


def test_nomographic_mean_matches_paper_class():
    spec = nomographic_mean(4)
    inputs = [np.full(3, float(v)) for v in (1, 2, 3, 4)]
    out = eval_aafc(spec, inputs)
    assert np.allclose(out, 2.5, rtol=0, atol=1e-12)


def test_nomographic_norm_three_four_five():
    spec = nomographic_euclidean_norm(2)
    out = eval_aafc(spec, [np.array([3.0]), np.array([4.0])])
    assert abs(out[0] - 5.0) <= 1e-12


def test_nomographic_geometric_mean():
    spec = nomographic_geometric_mean(2)
    out = eval_aafc(spec, [np.array([1.0]), np.array([4.0])])
    assert abs(out[0] - np.exp((np.log(1.0) + np.log(4.0)) / 2)) <= 1e-12
    assert abs(out[0] - 2.0) <= 1e-12


def test_nomographic_with_nonuniform_channel():
    h = (0.3, 2.5, -1.2)
    rng = np.random.default_rng(8)
    xs = [rng.uniform(0.5, 2.0, size=16) for _ in range(3)]
    mean = eval_aafc(nomographic_mean(3, h), xs)
    assert np.allclose(mean, np.mean(xs, axis=0), rtol=1e-12)
    norm = eval_aafc(nomographic_euclidean_norm(3, h), xs)
    assert np.allclose(norm, np.sqrt(np.sum(np.square(xs), axis=0)), rtol=1e-12)
    geo = eval_aafc(nomographic_geometric_mean(3, h), xs)
    assert np.allclose(geo, np.prod(xs, axis=0) ** (1 / 3), rtol=1e-12)


def test_nomographic_domain_errors():
    with pytest.raises(DomainError):
        eval_aafc(nomographic_geometric_mean(2), [np.array([0.0]), np.array([1.0])])
    with pytest.raises(DomainError):
        Nomographic((lambda x: x,), (0.0,), lambda r: r)
    with pytest.raises(ValueError):
        eval_aafc(nomographic_mean(2), [np.array([1.0]), np.array([2.0])], noise_sigma=0.1)


def test_nomographic_noise_statistics():
    spec = nomographic_sum(2)
    rng = np.random.default_rng(9)
    clean = eval_aafc(spec, [np.ones(2000), np.ones(2000)])
    noisy = eval_aafc(spec, [np.ones(2000), np.ones(2000)], noise_sigma=0.5, rng=rng)
    err = noisy - clean
    assert abs(err.std() - 0.5) < 0.05


def test_install_star_sum():
    g = build_graph(star_topology(3))
    network = install_functions(g, FunctionAssignment(functions={"a0": Sum()}))
    inputs = {f"s{i}": np.array([float(i + 1)]) for i in range(3)}
    evaluation = evaluate_one(network, inputs)
    inbox = evaluation.destination_outputs[g.destinations[0]]
    assert np.allclose(inbox[0], [6.0])


def test_install_missing_assignment_names_node():
    g = build_graph(balanced_tree_topology(4))
    with pytest.raises(MissingAssignment) as excinfo:
        install_functions(g, FunctionAssignment(functions={"a1_0": Sum()}))
    assert "a1_1" in str(excinfo.value)


def test_install_rejects_an_arc_key_not_in_the_graph():
    g = build_graph(star_topology(3))
    with pytest.raises(MissingAssignment, match=r"assignment names nonexistent arc \('s0', 'd0'\)"):
        install_functions(g, FunctionAssignment(functions={("s0", "d0"): Sum()}))


def block_bytes(block):
    """The bytes of each emitted packet and each destination output of a block."""
    packets = [block.packets[v][b].tobytes() for b, v in zip(*np.nonzero(block.emitted))]
    outputs = [None if o is None else [p.tobytes() for p in o] if isinstance(o, list) else o.tobytes()
               for rows in block.outputs.values() for o in rows]
    return packets, outputs


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_sources=st.integers(1, 16),
    atomic_share=st.floats(0.0, 1.0),
    dropout_p=st.sampled_from([0.2, 0.5]),
)
def test_a_dropped_sources_row_is_never_read(seed, n_sources, atomic_share, dropout_p):
    """NaN in a dropped source's row gives the bytes of a zero row."""
    rng = np.random.default_rng(seed)
    g = build_graph(random_tree(rng, n_sources, max(1, round(atomic_share * n_sources))))
    assignment, inputs = random_assignment(rng, g, "real")
    network = install_functions(g, assignment)
    dropped = np.zeros((6, g.n_nodes), dtype=bool)
    dropped[:, g.sources + g.atomics] = rng.random((6, g.n_sources + len(g.atomics))) < dropout_p
    values = rng.normal(size=(6, g.n_sources, len(inputs[g.sources[0]])))
    zero, nan = (np.where(dropped[:, g.sources, None], fill, values) for fill in (0.0, np.nan))
    assert block_bytes(network.evaluate(nan, dropped)) == block_bytes(network.evaluate(zero, dropped))


def test_install_checks_arity():
    g = build_graph(star_topology(3))
    with pytest.raises(ArityMismatch):
        install_functions(
            g, FunctionAssignment(functions={"a0": LinearCombination((1, 1), GF2)})
        )


def test_depth2_tree_sum_grand_total():
    g = build_graph(balanced_tree_topology(4))
    network = install_functions(
        g, FunctionAssignment(functions={a: Sum() for a in g.atomics})
    )
    rng = np.random.default_rng(10)
    values = rng.uniform(-5, 5, size=(4, 6))
    inputs = {s: values[i] for i, s in enumerate(g.sources)}
    evaluation = evaluate_one(network, inputs)
    inbox = evaluation.destination_outputs[g.destinations[0]]
    total = np.sum(np.stack(inbox), axis=0)
    assert np.allclose(total, values.sum(axis=0), rtol=1e-12)


def test_decompose_average_star():
    g = build_graph(star_topology(3))
    network = install_functions(g, decompose_average(g))
    inputs = {f"s{i}": np.array([float(v)]) for i, v in enumerate((1, 2, 3))}
    out = evaluate_one(network, inputs).destination_outputs[g.destinations[0]]
    assert np.allclose(out, [2.0])
    # every message carries the count symbol: L + 1 symbols
    for message in evaluate_one(network, inputs).messages.values():
        assert len(message) == 2


def test_decompose_average_equal_values():
    g = build_graph(balanced_tree_topology(8))
    network = install_functions(g, decompose_average(g))
    inputs = {s: np.array([1.0]) for s in g.sources}
    out = evaluate_one(network, inputs).destination_outputs[g.destinations[0]]
    assert np.allclose(out, [1.0])


def test_decompose_average_random_trees_match_direct_mean():
    rng = np.random.default_rng(11)
    for _ in range(10):
        g = build_graph(random_tree_topology(rng, 10))
        network = install_functions(g, decompose_average(g))
        values = rng.normal(0, 10, size=(10, 4))
        inputs = {s: values[i] for i, s in enumerate(g.sources)}
        out = evaluate_one(network, inputs).destination_outputs[g.destinations[0]]
        direct = values.mean(axis=0)
        assert np.allclose(out, direct, rtol=1e-12)


def test_decompose_average_requires_tree():
    config = TopologyConfig(
        roles={"s0": NodeRole.SOURCE, "a0": NodeRole.ATOMIC, "d0": NodeRole.DESTINATION},
        children={"a0": ["s0"], "d0": ["a0", "s0"]},
        mode="dag",
    )
    g = build_graph(config)
    with pytest.raises(NotATree):
        decompose_average(g)


def test_linear_network_matches_direct_combination():
    """Composing per-node linear maps equals one global linear map."""
    rng = np.random.default_rng(12)
    for _ in range(8):
        n = int(rng.integers(2, 17))
        g = build_graph(random_tree_topology(rng, n))
        coeffs = {}
        functions = {}
        for a in g.atomics:
            local = GF256.random_elements(rng, len(g.in_neighbors[a]))
            coeffs[a] = local
            functions[a] = LinearCombination(tuple(int(c) for c in local), GF256)
        network = install_functions(g, FunctionAssignment(functions=functions))
        values = GF256.random_elements(rng, (n, 3))
        inputs = {s: values[i] for i, s in enumerate(g.sources)}
        evaluation = evaluate_one(network, inputs)
        # oracle: propagate global source coefficients through the tree
        global_coeffs: dict[int, np.ndarray] = {}
        for i, s in enumerate(g.sources):
            unit = np.zeros(n, dtype=GF256.dtype)
            unit[i] = 1
            global_coeffs[s] = unit
        for v in g.topo_order:
            if v in g.atomics:
                stacked = np.stack([global_coeffs[c] for c in g.in_neighbors[v]])
                global_coeffs[v] = GF256.combine(coeffs[v], stacked)
        dest = g.destinations[0]
        for c in g.in_neighbors[dest]:
            expected = GF256.combine(global_coeffs[c], values)
            assert np.array_equal(evaluation.messages[(c, dest)], expected)


def test_topological_tie_break_invariance():
    """Two declaration orders of the same tree give identical outputs."""
    roles = {"s0": NodeRole.SOURCE, "s1": NodeRole.SOURCE, "s2": NodeRole.SOURCE,
             "a0": NodeRole.ATOMIC, "a1": NodeRole.ATOMIC, "d0": NodeRole.DESTINATION}
    children = {"a0": ["s0", "s1"], "a1": ["a0", "s2"], "d0": ["a1"]}
    g1 = build_graph(TopologyConfig(roles=roles, children=children))
    shuffled = dict(reversed(list(roles.items())))
    g2 = build_graph(TopologyConfig(roles=shuffled, children=children))
    inputs = {f"s{i}": np.array([float(i), 2.0 * i]) for i in range(3)}
    for g in (g1, g2):
        network = install_functions(
            g, FunctionAssignment(functions={a: Sum() for a in g.atomics})
        )
        out = evaluate_one(network, inputs).destination_outputs[g.destinations[0]]
        assert np.allclose(out[0], [3.0, 6.0])


def test_dropped_child_equals_zero_contribution():
    g = build_graph(star_topology(3))
    weights = (0.7, -1.3, 0.4)
    network = install_functions(
        g, FunctionAssignment(functions={"a0": NeuronUnit(weights)})
    )
    inputs = {f"s{i}": np.array([1.5]) for i in range(3)}
    dropped = evaluate_one(network, inputs, dropped={g.node_id("s1")})
    zeroed = dict(inputs)
    zeroed["s1"] = np.array([0.0])
    explicit = evaluate_one(network, zeroed)
    d = g.destinations[0]
    assert np.allclose(
        dropped.destination_outputs[d][0], explicit.destination_outputs[d][0]
    )


FIELD_PACKET = np.array([1, 2], dtype=np.uint8)
REAL_PACKET = np.array([1.0, 2.0])


@pytest.mark.parametrize("call, error, message", [
    pytest.param(lambda: Nomographic((np.negative,), (1.0, 2.0), np.negative),
                 ArityMismatch, "one pre-function per channel coefficient", id="nomographic_unmatched"),
    pytest.param(lambda: eval_dafc(Sum(), []), ArityMismatch, "Sum needs at least one input",
                 id="no_inputs"),
    pytest.param(lambda: eval_dafc(AppendCount(), [FIELD_PACKET]), DomainMismatch,
                 "AppendCount operates on real packets", id="append_count_on_field"),
    pytest.param(lambda: eval_dafc(Histogram(4), [REAL_PACKET]), DomainMismatch,
                 "Histogram requires integer-valued symbols", id="histogram_on_reals"),
    pytest.param(lambda: eval_dafc(Histogram(0), [FIELD_PACKET]), DomainError,
                 "Histogram needs at least one bin", id="histogram_without_bins"),
    pytest.param(lambda: eval_dafc(NeuronUnit((0.5,)), [FIELD_PACKET]), DomainMismatch,
                 "NeuronUnit operates on real packets", id="neuron_on_field"),
    pytest.param(lambda: eval_dafc(nomographic_sum(1), [REAL_PACKET]), DomainMismatch,
                 "Nomographic functions are evaluated by eval_aafc", id="nomographic_in_eval_dafc"),
    pytest.param(lambda: eval_dafc(AtomicFunction(), [REAL_PACKET]), TypeError,
                 "unknown atomic function AtomicFunction", id="bare_atomic_function"),
    pytest.param(lambda: eval_aafc(nomographic_sum(1), [FIELD_PACKET]), DomainMismatch,
                 "analog evaluation requires real packets", id="analog_on_field"),
    pytest.param(lambda: eval_aafc(nomographic_sum(1), [REAL_PACKET], noise_sigma=-1.0), DomainError,
                 "noise_sigma must be >= 0", id="negative_noise_sigma"),
    pytest.param(lambda: eval_aafc(nomographic_euclidean_norm(1), [np.zeros(64)], noise_sigma=1.0,
                                   rng=np.random.default_rng(0)),
                 DomainError, "square root of a negative superposition", id="noisy_norm_below_zero"),
])
def test_atomic_functions_refuse_what_they_cannot_evaluate(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_append_count_source_encoding():
    out = eval_dafc(AppendCount(), [np.array([2.0, 4.0])])
    assert out.tolist() == [2.0, 4.0, 1.0]


def signed_values(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """Magnitudes from 1e-5 to 1e12 of either sign, a fifth of them signed zeros."""
    values = rng.choice([-1.0, 1.0], size=shape) * 10.0 ** rng.uniform(-5, 12, size=shape)
    zeros = rng.random(shape) < 0.2
    values[zeros] = np.copysign(0.0, values[zeros])
    return values


STACKS = dict(seed=st.integers(0, 2**32 - 1), batch=st.integers(1, 3),
              children=st.integers(1, 33), width=st.integers(1, 4))


@settings(max_examples=200, deadline=None)
@given(**STACKS)
def test_sum_has_the_bits_of_numpys_sum(seed, batch, children, width):
    """At width >= 2 ``Sum`` folds the children from +0.0 in child order,
    which is what numpy's sum does over a C-contiguous stack."""
    x = signed_values(np.random.default_rng(seed), (batch, children, width))
    assert eval_dafc(Sum(), x).tobytes() == x.sum(axis=-2, dtype=np.float64).tobytes()


def test_sum_of_eight_or_more_width_one_children_is_numpys_pairwise_sum():
    """numpy adds 8 or more width-1 terms pairwise, so a left fold would
    lose the small terms that pairing keeps."""
    x = np.array([1e16] + [1.0] * 7)[:, None]
    fold = 0.0
    for value in x[:, 0].tolist():
        fold += value
    assert eval_dafc(Sum(), x).tobytes() == x.sum(axis=-2, dtype=np.float64).tobytes()
    assert eval_dafc(Sum(), x).tolist() == [1e16 + 6]
    assert fold == 1e16


@settings(max_examples=200, deadline=None)
@given(**STACKS)
def test_average_decoder_has_the_bits_of_the_padded_numpy_sum(seed, batch, children, width):
    rng = np.random.default_rng(seed)
    packets = signed_values(rng, (batch, children, width))
    arrived = rng.random((batch, children)) < 0.7
    total = np.where(arrived[..., None], packets, -0.0).sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        expected = total[:, :-1] / total[:, -1:]
        assert average_decoder(packets, arrived).tobytes() == expected.tobytes()


@pytest.mark.parametrize("width", [2, 3, 4])
def test_sum_does_not_depend_on_the_memory_layout(width):
    """A stack whose children lie contiguous in memory sums like its
    C-contiguous copy; numpy's own sum would pair them instead."""
    x = signed_values(np.random.default_rng(width), (20, width, 33)).swapaxes(-1, -2)
    assert eval_dafc(Sum(), x).tobytes() == eval_dafc(Sum(), np.ascontiguousarray(x)).tobytes()
