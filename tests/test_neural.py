"""Distributed training against a centralized reference implementation."""

import numpy as np
import pytest

from nfcsim.graph import build_graph, balanced_tree_topology, chain_topology, star_topology
from nfcsim.learning import (
    FailureModel,
    NeuralTreeNetwork,
    TrainingSample,
    dataset_loss,
    gradient_check,
    nn_train,
)
from nfcsim.learning.neural import (
    LABEL_MAPPING,
    log_loss,
    margin_acceptance,
    separable_dataset,
    sigmoid,
)
from reference_nn import Reference


def build_7_node(seed: int = 42) -> NeuralTreeNetwork:
    g = build_graph(balanced_tree_topology(4))
    return NeuralTreeNetwork(g, init_rng=np.random.default_rng(seed))


def test_zero_weights_give_half_activities():
    net = build_7_node()
    for v in net.weights:
        net.weights[v][:] = 0.0
    up = net.upward(np.array([0.3, -0.7, 1.1, 0.0]), generation=0, store=False)
    for v in net.graph.atomics + net.graph.destinations:
        assert up.activations[v][0] == 0.5
    assert up.prediction == 0.5


def test_single_edge_prediction_is_sigmoid():
    g = build_graph(chain_topology(0))  # s0 -> d0
    net = NeuralTreeNetwork(g, weights={g.destinations[0]: np.array([0.8])})
    assert net.predict(np.array([1.0])) == pytest.approx(float(sigmoid(0.8)), abs=1e-15)


def test_forward_matches_reference_to_1e15():
    net = build_7_node(7)
    ref = Reference(net)
    rng = np.random.default_rng(70)
    for _ in range(10):
        x = rng.uniform(-2, 2, size=4)
        up = net.upward(x, generation=0, store=False)
        acts = ref.forward(x)
        for v, a in acts.items():
            assert abs(float(up.activations[v][0]) - float(a[0])) <= 1e-15


def test_saturated_activity_zeroes_stored_gradients():
    g = build_graph(star_topology(2))
    dest = g.destinations[0]
    atomic = g.atomics[0]
    net = NeuralTreeNetwork(
        g, weights={atomic: np.array([60.0, 60.0]), dest: np.array([1.0])}
    )
    net.upward(np.array([1.0, 1.0]), generation=0)
    stored = net.gradient_store[atomic][0]
    assert stored.activity == 1.0
    assert np.all(stored.d_activity_d_weights == 0.0)
    assert np.all(stored.d_activity_d_inputs == 0.0)


def test_stored_gradient_plug_in_values():
    g = build_graph(star_topology(2))
    atomic = g.atomics[0]
    dest = g.destinations[0]
    net = NeuralTreeNetwork(
        g, weights={atomic: np.array([1.0, 2.0]), dest: np.array([1.0])}
    )
    a, b = 2.0, -1.0  # chosen so w . x = 0 and the activity is exactly 0.5
    net.upward(np.array([a, b]), generation=0)
    stored = net.gradient_store[atomic][0]
    assert np.allclose(stored.d_activity_d_weights, [0.25 * a, 0.25 * b])
    assert np.allclose(stored.d_activity_d_inputs, [0.25, 0.5])


def test_gradient_check_random_weights():
    net = build_7_node(1)
    rng = np.random.default_rng(2)
    sample = TrainingSample(features=rng.uniform(-1, 1, 4), label=1)
    assert gradient_check(net, sample) < 1e-4


def test_gradient_check_zero_weights():
    net = build_7_node()
    for v in net.weights:
        net.weights[v][:] = 0.0
    sample = TrainingSample(features=np.array([0.5, -0.5, 1.0, 0.25]), label=-1)
    assert gradient_check(net, sample) < 1e-4


def test_single_edge_gradient_matches_closed_form():
    g = build_graph(chain_topology(0))
    dest = g.destinations[0]
    w = 0.37
    net = NeuralTreeNetwork(g, weights={dest: np.array([w])})
    x_in = 1.7
    target = 1.0
    net.upward(np.array([x_in]), generation=0)
    down = net.downward(target, generation=0, eta=0.0, apply_updates=False)
    x = float(sigmoid(w * x_in))
    expected = (-target / x) * x * (1 - x) * x_in
    assert abs(down.gradients[dest][0] - expected) <= 1e-10


def test_distributed_gradients_match_reference():
    net = build_7_node(5)
    ref = Reference(net)
    rng = np.random.default_rng(55)
    for trial in range(10):
        x = rng.uniform(-1.5, 1.5, size=4)
        target = float(trial % 2)
        expected = ref.gradients(x, target)
        net.upward(x, generation=trial)
        down = net.downward(target, generation=trial, eta=0.0, apply_updates=False)
        for v, grad in expected.items():
            assert np.allclose(down.gradients[v], grad, atol=1e-12)


def test_top_layer_seed_value():
    # prediction 0.5 with label mapped to 1 gives seed -2
    g = build_graph(chain_topology(0))
    dest = g.destinations[0]
    net = NeuralTreeNetwork(g, weights={dest: np.array([1.0])})
    net.upward(np.array([0.0]), generation=0)  # activity sigma(0) = 0.5
    down = net.downward(1.0, generation=0, eta=1.0)
    # dJ/dw = seed * x(1-x) * x_in = -2 * 0.25 * 0 = 0 here; check via grads
    assert down.gradients[dest].tolist() == [0.0]


def test_distributed_updates_match_centralized_sgd_100_steps():
    net = build_7_node(9)
    shadow = {v: w.copy() for v, w in net.weights.items()}
    ref = Reference(net)
    rng = np.random.default_rng(99)
    eta = 0.3
    for t in range(100):
        x = rng.uniform(-1, 1, size=4)
        target = float(t % 2)
        # centralized step on the shadow weights
        saved = {v: w.copy() for v, w in net.weights.items()}
        net.weights = {v: w.copy() for v, w in shadow.items()}
        grads = ref.gradients(x, target)
        shadow = {v: shadow[v] - eta * grads[v] for v in shadow}
        net.weights = saved
        # distributed step
        net.upward(x, generation=t)
        net.downward(target, generation=t, eta=eta)
        for v in shadow:
            assert np.allclose(net.weights[v], shadow[v], atol=1e-10)


def test_message_loss_one_freezes_everything_below_top():
    net = build_7_node(3)
    dest = net.destination
    before = {v: w.copy() for v, w in net.weights.items()}
    failures = FailureModel(message_loss_p=1.0, seed=1)
    data = separable_dataset(4, 8, np.random.default_rng(4))
    result = nn_train(net, data, epochs=2, eta_schedule=0.5, failures=failures)
    assert sum(result.lost_per_step) > 0
    for v, w in net.weights.items():
        if v == dest:
            assert not np.allclose(w, before[v])
        else:
            assert np.array_equal(w, before[v])


def test_purge_contract():
    net = build_7_node()
    net.upward(np.array([1.0, 2.0, 3.0, 4.0]), generation=5)
    assert all(5 in net.gradient_store[v] for v in net.gradient_store)
    net.downward(1.0, generation=5, eta=0.1)
    assert all(5 not in net.gradient_store[v] for v in net.gradient_store)


def test_purge_even_when_messages_lost():
    net = build_7_node()
    net.upward(np.zeros(4), generation=0)
    net.downward(1.0, generation=0, eta=0.1, message_lost=lambda: True)
    assert all(0 not in net.gradient_store[v] for v in net.gradient_store)


def test_staleness_eviction_and_skip_count():
    net = build_7_node()
    for t in range(9):  # window is 8: generation 0 evicted at t=8
        net.upward(np.zeros(4), generation=t)
    assert all(0 not in net.gradient_store[v] for v in net.gradient_store)
    before = {v: w.copy() for v, w in net.weights.items()}
    down = net.downward(1.0, generation=0, eta=0.5)
    assert down.stale_skips >= 1
    for v, w in net.weights.items():
        assert np.array_equal(w, before[v])


def test_all_hidden_dropped_constant_loss():
    g = build_graph(balanced_tree_topology(4))
    net = NeuralTreeNetwork(g, init_rng=np.random.default_rng(8))
    dropped = frozenset(set(g.sources) | set(g.atomics))
    data = separable_dataset(4, 6, np.random.default_rng(6))
    losses = []
    for t, sample in enumerate(data):
        up = net.upward(sample.features, generation=t, dropped=dropped)
        assert up.prediction == 0.5  # all-dropped prediction
        losses.append(log_loss(up.prediction, sample.target))
        net.downward(sample.target, generation=t, eta=0.5)
    assert np.allclose(losses, np.log(2.0))


def test_dropped_source_equals_zero_feature():
    net = build_7_node(11)
    x = np.array([0.8, -0.2, 0.4, 1.0])
    dropped_run = net.upward(x, generation=0, dropped={net.graph.sources[1]}, store=False)
    x_zeroed = x.copy()
    x_zeroed[1] = 0.0
    zeroed_run = net.upward(x_zeroed, generation=1, store=False)
    assert dropped_run.prediction == zeroed_run.prediction


def test_training_reduces_loss_without_failures():
    g = build_graph(balanced_tree_topology(4))
    data = separable_dataset(4, 32, np.random.default_rng(12))
    net = NeuralTreeNetwork(g, init_rng=np.random.default_rng(13))
    before = dataset_loss(net, data)
    nn_train(net, data, epochs=100, eta_schedule=0.5)
    after = dataset_loss(net, data)
    assert after < before


def test_train_determinism():
    g = build_graph(balanced_tree_topology(4))
    data = separable_dataset(4, 16, np.random.default_rng(14))

    def run():
        net = NeuralTreeNetwork(g, init_rng=np.random.default_rng(15))
        failures = FailureModel(node_dropout_p=0.3, message_loss_p=0.1, seed=16)
        return nn_train(net, data, epochs=4, eta_schedule=0.5, failures=failures)

    a, b = run(), run()
    assert a.losses == b.losses
    assert a.dropped_per_step == b.dropped_per_step
    assert a.lost_per_step == b.lost_per_step


def test_label_validation_and_mapping():
    assert LABEL_MAPPING == {-1: 0.0, 1: 1.0}
    assert TrainingSample(features=np.zeros(1), label=-1).target == 0.0
    assert TrainingSample(features=np.zeros(1), label=1).target == 1.0
    with pytest.raises(ValueError):
        TrainingSample(features=np.zeros(1), label=0)


def test_failure_model_validation():
    with pytest.raises(ValueError):
        FailureModel(node_dropout_p=1.5)
    with pytest.raises(ValueError):
        FailureModel(message_loss_p=-0.1)


def test_vector_source_features():
    g = build_graph(star_topology(2))
    net = NeuralTreeNetwork(g, source_dim=2, init_rng=np.random.default_rng(17))
    assert len(net.weights[g.atomics[0]]) == 4
    sample = TrainingSample(features=np.array([[0.5, -1.0], [0.25, 2.0]]), label=1)
    assert gradient_check(net, sample) < 1e-4


def test_train_arc_message_accounting():
    g = build_graph(star_topology(2))
    net = NeuralTreeNetwork(g, init_rng=np.random.default_rng(18))
    data = separable_dataset(2, 4, np.random.default_rng(19), margin=0.2)
    result = nn_train(net, data, epochs=1, eta_schedule=0.5)
    a0, d0 = g.atomics[0], g.destinations[0]
    s0, s1 = g.sources
    # upward: each alive non-destination node sends once per step;
    # downward: one contribution to each non-source child per step
    assert result.arc_messages[(s0, a0)] == 4
    assert result.arc_messages[(s1, a0)] == 4
    assert result.arc_messages[(a0, d0)] == 4 + 4


def test_margin_acceptance_irwin_hall_tail():
    assert margin_acceptance(1, 0.25) == pytest.approx(0.75)  # |U| >= c
    assert margin_acceptance(2, 1.0) == pytest.approx(0.25)  # triangle density
    # below one unit from the extreme only the k=0 term is left
    assert margin_acceptance(8, 7.0) == pytest.approx(2 * 0.5**8 / 40320)
    assert margin_acceptance(8, 0.0) == 1.0 and margin_acceptance(8, 8.0) == 0.0
    rng = np.random.default_rng(20)
    sums = np.abs(rng.uniform(-1.0, 1.0, size=(20_000, 64)).sum(axis=1))
    assert margin_acceptance(64, 0.5) == pytest.approx((sums >= 0.5).mean(), abs=0.01)
