"""Distributed training against a centralized reference implementation."""

import re
from dataclasses import replace

import numpy as np
import pytest

import nfcsim.engine as engine
from nfcsim.afc import sigmoid
from nfcsim.errors import DomainError
from nfcsim.graph import build_graph, balanced_tree_topology, chain_topology, star_topology
from nfcsim.learning import (
    FailureModel,
    NeuralTreeNetwork,
    TrainingSample,
    dataset_loss,
    gradient_check,
    neural,
    nn_train,
)
from nfcsim.learning.neural import (
    LABEL_MAPPING,
    log_loss,
    margin_acceptance,
    separable_dataset,
)
from nfcsim.rng import DATA, INIT, substream
from reference_nn import Reference


def build_7_node(seed: int = 42) -> NeuralTreeNetwork:
    g = build_graph(balanced_tree_topology(4))
    return NeuralTreeNetwork(g, init_rng=np.random.default_rng(seed))


def test_zero_weights_give_half_activities():
    net = build_7_node()
    for v in net.weights:
        net.weights[v][:] = 0.0
    up = net.upward(np.array([0.3, -0.7, 1.1, 0.0]))
    for v in net.graph.atomics + net.graph.destinations:
        assert up.activations[v] == 0.5
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
        up = net.upward(x)
        acts = ref.forward(x)
        for v, a in acts.items():
            assert abs(float(up.activations[v]) - float(a[0])) <= 1e-15


def test_saturated_activity_zeroes_stored_gradients():
    # s0 -> a0 -> a1 -> d0 with a1 saturated: its slope a(1-a) is exactly 0,
    # so its own gradient and its contribution to a0 both vanish
    g = build_graph(chain_topology(2))
    a0, a1 = g.atomics
    dest = g.destinations[0]
    net = NeuralTreeNetwork(
        g, weights={a0: np.array([1.0]), a1: np.array([100.0]), dest: np.array([1.0])}
    )
    up = net.upward(np.array([1.0]))
    assert up.activations[a1] == 1.0
    down = net.downward(up, 1.0, eta=0.0, apply_updates=False)
    assert np.all(down.gradients[a1] == 0.0)
    assert np.all(down.gradients[a0] == 0.0)
    assert np.all(down.gradients[dest] != 0.0)


def test_stored_gradient_plug_in_values():
    # every unit sits at w . x = 0, so each activity is 0.5, each slope 0.25,
    # the seed for target 1 is -2 and every value below is exact
    g = build_graph(balanced_tree_topology(4))
    dest = g.destinations[0]
    left, right = g.in_neighbors[dest]
    weights = {left: np.array([1.0, 2.0]), right: np.array([0.0, 0.0]), dest: np.array([2.0, -2.0])}
    net = NeuralTreeNetwork(g, weights=weights)
    features = np.zeros(4)
    a, b = 2.0, -1.0
    features[g.sources.index(g.in_neighbors[left][0])] = a
    features[g.sources.index(g.in_neighbors[left][1])] = b
    features[g.sources.index(g.in_neighbors[right][1])] = 4.0
    up = net.upward(features)
    assert up.activations[left] == up.activations[right] == up.prediction == 0.5
    down = net.downward(up, 1.0, eta=0.0, apply_updates=False)
    # dJ/dw = seed * 0.25 * inputs; contributions -2 * 0.25 * (2, -2) = (-1, 1)
    assert down.gradients[dest].tolist() == [-2.0 * 0.25 * 0.5, -2.0 * 0.25 * 0.5]
    assert down.gradients[left].tolist() == [-1.0 * 0.25 * a, -1.0 * 0.25 * b]
    assert down.gradients[right].tolist() == [0.0, 1.0 * 0.25 * 4.0]


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


def test_weights_must_cover_every_unit():
    g = build_graph(star_topology(2))
    with pytest.raises(ValueError, match="no weights for unit 'a0'"):
        NeuralTreeNetwork(g, weights={})
    with pytest.raises(ValueError, match="no weights for unit 'd0'"):
        NeuralTreeNetwork(g, weights={g.atomics[0]: np.zeros(2)})
    with pytest.raises(ValueError, match=r"weight shape \(1,\) != \(2,\) at node 'a0'"):
        NeuralTreeNetwork(g, weights={g.atomics[0]: np.zeros(1), g.destinations[0]: np.zeros(1)})


@pytest.mark.parametrize("values, message", [
    ({0: np.array([0.3])}, "no weights for unit 'a0'"),  # a source id
    ({2: np.array([0.3, 0.3])}, "no weights for unit 'd0'"),  # every unit gets a row
    ({2: np.array([0.3]), 3: np.array([0.3])}, r"weight shape \(1,\) != \(2,\) at node 'a0'"),
    ({2: 0.3, 3: np.array([0.3])}, r"weight shape \(\) != \(2,\) at node 'a0'"),
    ({2: np.zeros((1, 2)), 3: np.array([0.3])}, r"weight shape \(1, 2\) != \(2,\) at node 'a0'"),
])
def test_weights_setter_checks_as_the_constructor_does(values, message):
    g = build_graph(star_topology(2))
    assert (g.atomics, g.destinations) == ((2,), (3,))
    net = NeuralTreeNetwork(g, init_rng=np.random.default_rng(0))
    before = {v: w.copy() for v, w in net.weights.items()}
    with pytest.raises(ValueError, match=message):
        NeuralTreeNetwork(g, weights=values)
    with pytest.raises(ValueError, match=message):
        net.weights = values
    assert all(np.array_equal(net.weights[v], w) for v, w in before.items())  # nothing written


def test_single_edge_gradient_matches_closed_form():
    g = build_graph(chain_topology(0))
    dest = g.destinations[0]
    w = 0.37
    net = NeuralTreeNetwork(g, weights={dest: np.array([w])})
    x_in = 1.7
    target = 1.0
    up = net.upward(np.array([x_in]))
    down = net.downward(up, target, eta=0.0, apply_updates=False)
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
        up = net.upward(x)
        down = net.downward(up, target, eta=0.0, apply_updates=False)
        for v, grad in expected.items():
            assert np.allclose(down.gradients[v], grad, atol=1e-12)


def test_top_layer_seed_value():
    # prediction 0.5 with label mapped to 1 gives seed -2
    g = build_graph(chain_topology(0))
    dest = g.destinations[0]
    net = NeuralTreeNetwork(g, weights={dest: np.array([1.0])})
    up = net.upward(np.array([0.0]))  # activity sigma(0) = 0.5
    down = net.downward(up, 1.0, eta=1.0)
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
        net.downward(net.upward(x), target, eta=eta)
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


def test_all_hidden_dropped_constant_loss():
    g = build_graph(balanced_tree_topology(4))
    net = NeuralTreeNetwork(g, init_rng=np.random.default_rng(8))
    dropped = frozenset(set(g.sources) | set(g.atomics))
    data = separable_dataset(4, 6, np.random.default_rng(6))
    losses = []
    for sample in data:
        up = net.upward(sample.features, dropped=dropped)
        assert up.prediction == 0.5  # all-dropped prediction
        losses.append(log_loss(up.prediction, sample.target))
        net.downward(up, sample.target, eta=0.5)
    assert np.allclose(losses, np.log(2.0))


def test_dropped_source_equals_zero_feature():
    net = build_7_node(11)
    x = np.array([0.8, -0.2, 0.4, 1.0])
    dropped_run = net.upward(x, dropped={net.graph.sources[1]})
    x_zeroed = x.copy()
    x_zeroed[1] = 0.0
    zeroed_run = net.upward(x_zeroed)
    assert dropped_run.prediction == zeroed_run.prediction


def test_dropped_destination_sends_and_updates_nothing():
    net = build_7_node(12)
    before = {v: w.copy() for v, w in net.weights.items()}
    up = net.upward(np.array([0.8, -0.2, 0.4, 1.0]), dropped={net.destination})
    assert up.prediction == 0.0
    down = net.downward(up, 1.0, eta=0.5, message_lost=lambda: True)
    assert down.gradients == {} and down.sent == () and down.lost_messages == 0
    assert all(np.array_equal(w, before[v]) for v, w in net.weights.items())


def test_features_must_match_source_count():
    net = build_7_node()
    for features in (np.array([0.7]), np.zeros(5), np.zeros((4, 1))):
        with pytest.raises(
            ValueError, match=re.escape(f"expected 4 source features, got shape {features.shape}")
        ):
            net.upward(features)
    data = [TrainingSample(features=np.array([0.3]), label=1)]
    with pytest.raises(ValueError, match=r"expected 4 source features, got shape \(1,\)"):
        nn_train(net, data, epochs=1, eta_schedule=0.5)


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


def test_saturated_prediction_raises_domain_error_naming_the_step():
    # sigmoid(40) rounds to exactly 1.0: the log-loss and its gradient seed are infinite
    g = build_graph(chain_topology(0))
    net = NeuralTreeNetwork(g, weights={g.destinations[0]: np.array([40.0])})
    data = [TrainingSample(features=np.array([0.0]), label=1),
            TrainingSample(features=np.array([1.0]), label=-1)]
    with pytest.raises(DomainError, match=r"^step 1: .*exactly 1\.0, where the log-loss is infinite"):
        nn_train(net, data, epochs=1, eta_schedule=0.5)


def test_weights_are_row_views_of_the_level_blocks():
    net, fresh = build_7_node(21), build_7_node(21)
    x = np.array([0.4, -0.9, 0.3, 0.7])
    v = net.destination
    net.weights[v][1] += 0.25  # an in-place edit reaches the network
    assert net.predict(x) != fresh.predict(x)
    edited = NeuralTreeNetwork(net.graph, weights={u: w.copy() for u, w in net.weights.items()})
    assert net.predict(x) == edited.predict(x)
    # assignment writes through, and later in-place edits still reach the network
    net.weights = {u: w.copy() for u, w in fresh.weights.items()}
    assert net.predict(x) == fresh.predict(x)
    net.weights[v][:] = 0.0
    assert net.predict(x) == 0.5
    # gradient_check perturbs through the views and restores every weight
    before = {u: w.copy() for u, w in fresh.weights.items()}
    assert gradient_check(fresh, TrainingSample(features=x, label=1)) < 1e-4
    assert all(fresh.weights[u].tobytes() == w.tobytes() for u, w in before.items())


def test_final_weights_are_copies():
    net = build_7_node(22)
    data = separable_dataset(4, 4, np.random.default_rng(23))
    result = nn_train(net, data, epochs=1, eta_schedule=0.5)
    for v, w in result.final_weights.items():
        assert np.array_equal(w, net.weights[v]) and not np.shares_memory(w, net.weights[v])
        w[:] = 7.0
    assert not any(np.any(w == 7.0) for w in net.weights.values())


def recording(fn, log):
    """fn, logging each result, as the bench tracer wraps a traced name."""

    def wrapper(*args, **kwargs):
        log.append(fn(*args, **kwargs))
        return log[-1]

    return wrapper


def test_nn_train_keeps_the_surface_the_bench_tracer_wraps(monkeypatch):
    # bench/tracing.py wraps NeuralTreeNetwork.upward/downward on the class and
    # engine.nn_train as a module global, and reads len(up.dropped) and len(down.sent).
    ups, downs, runs = [], [], []
    monkeypatch.setattr(NeuralTreeNetwork, "upward", recording(NeuralTreeNetwork.upward, ups))
    monkeypatch.setattr(NeuralTreeNetwork, "downward", recording(NeuralTreeNetwork.downward, downs))
    g = build_graph(balanced_tree_topology(8))
    net = NeuralTreeNetwork(g, init_rng=np.random.default_rng(24))
    data = separable_dataset(8, 6, np.random.default_rng(25))
    failures = FailureModel(node_dropout_p=0.3, message_loss_p=0.4, seed=26)
    result = nn_train(net, data, epochs=3, eta_schedule=0.5, failures=failures)
    assert len(ups) == len(downs) == len(result.losses) == 18
    assert [len(up.dropped) for up in ups] == list(result.dropped_per_step)
    assert [down.lost_messages for down in downs] == list(result.lost_per_step)
    assert all(down.lost_messages <= len(down.sent) for down in downs)
    alive = sum(g.n_nodes - 1 - len(up.dropped) for up in ups)  # one activity message each
    assert sum(len(down.sent) for down in downs) == sum(result.arc_messages.values()) - alive
    assert sum(result.lost_per_step) > 0 and sum(result.dropped_per_step) > 0

    assert engine.nn_train is neural.nn_train
    monkeypatch.setattr(engine, "nn_train", recording(neural.nn_train, runs))
    scenario = engine.Scenario(topology=balanced_tree_topology(4), application="neural",
                               neural=engine.NeuralParams(samples=2, epochs=1))
    engine.run_scenario(scenario)
    assert len(runs) == 1 and len(ups) == 18 + 2


def test_harmonic_eta_steps_with_one_over_t_plus_one():
    # eta {kind: harmonic} steps with 1/(t+1), t counting the steps across epochs.
    failures = FailureModel(node_dropout_p=0.2, message_loss_p=0.1, seed=31)
    params = engine.NeuralParams(samples=6, epochs=3)
    scenario = engine.Scenario(topology=balanced_tree_topology(4), application="neural", seed=30,
                               failures=failures, eta=engine.EtaSchedule(kind="harmonic"), neural=params)
    trajectory = engine.run_scenario(scenario).tables["trajectory"][1]
    g = build_graph(scenario.topology)
    data = separable_dataset(g.n_sources, params.samples, substream(30, DATA), margin=params.margin)
    want = nn_train(NeuralTreeNetwork(g, init_rng=substream(30, INIT)), data, params.epochs,
                    lambda t: 1 / (t + 1), failures=failures)
    assert [row["value"] for row in trajectory] == list(want.losses)
    constant = engine.run_scenario(replace(scenario, eta=engine.EtaSchedule()))
    assert [row["value"] for row in constant.tables["trajectory"][1]] != list(want.losses)


def test_upward_takes_a_dropout_row_or_node_ids():
    net = build_7_node(27)
    x = np.array([0.8, -0.2, 0.4, 1.0])
    ids = [net.graph.sources[1], net.graph.atomics[0]]
    row = np.zeros(net.graph.n_nodes, dtype=bool)
    row[ids] = True
    runs = [net.upward(x, dropped) for dropped in (row, set(ids), np.array(ids), tuple(ids))]
    for up in runs:
        assert up.activations.tobytes() == runs[0].activations.tobytes()
        assert up.dropped.tolist() == sorted(ids) and up.is_dropped.tolist() == row.tolist()
