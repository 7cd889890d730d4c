"""Randomized properties of the generation loop and the coded-recovery experiment.

Consensus is the average decomposition run as a custom assignment plus
the harmonic fold, so on any tree, dropout rate and seed the two
applications meter and drop identically, and the consensus estimate is
the running mean of the values custom delivered.

Consensus, custom and forwarding run a block of generations at a time;
split into blocks of any size, a run must write the tables, headline,
meters and dropped counts of a generation-by-generation oracle.

The recovery experiment runs blocks of trials through one batched rank
kernel; a trial-by-trial oracle built on the packet API and full row
reduction must give the same successes, pass by pass, and any block size
must give the same statistics.

Neural training runs its upward pass on the level plan; a node-by-node
walk in topological order must give the same losses, counters, arc
messages and final weights, bit for bit. A downward pass reads only the
upward result it is handed, so later upward passes cannot change it.

Validation reads the application table: on random trees and single- or
multi-destination dags, a scenario it accepts runs without a simulator
error, and each rejection names the application with a changed key it
does not read, or the mode, or the destination count.
"""

import math
from collections import Counter
from itertools import compress
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nfcsim import afc, rlnc
from nfcsim.afc import FunctionAssignment, Sum, decompose_average, sigmoid
from nfcsim.engine import (
    APPLICATION_TABLE,
    ARC_COLUMNS,
    SCENARIO_KEYS,
    TRAJECTORY_COLUMNS,
    DataModel,
    EtaSchedule,
    GenerationBarrier,
    Metrics,
    NeuralParams,
    Scenario,
    run_scenario,
)
from nfcsim.errors import NfcSimError
from nfcsim.field import FieldSpec
from nfcsim.graph import NodeRole, TopologyConfig, build_graph, random_tree_topology, star_topology
from nfcsim.learning.consensus import ConsensusState, consensus_step
from nfcsim.learning.neural import (
    FailureModel,
    NeuralTreeNetwork,
    TrainingSample,
    log_loss,
    nn_train,
)
from nfcsim.rng import DATA, substream
from nfcsim.rlnc import (
    CodedPacket,
    DecoderState,
    RlncNetwork,
    destination_decode,
    run_recovery_experiment,
    trial_rng,
)
from reference_rlnc import atomic_recode, source_encode
from reference_solve import RankDeficient, gaussian_solve, matrix_rank
from test_plan import random_assignment, random_dag, random_tree, reference

FIELDS = {m: FieldSpec(m) for m in (1, 4, 8, 12, 16)}


@settings(max_examples=40, deadline=None)
@given(
    tree_seed=st.integers(0, 2**32 - 1),
    n_sources=st.integers(1, 12),
    dropout_p=st.floats(0.0, 0.6),
    seed=st.integers(0, 2**32 - 1),
)
def test_consensus_is_custom_average_plus_fold(tree_seed, n_sources, dropout_p, seed):
    topology = random_tree_topology(np.random.default_rng(tree_seed), n_sources)
    common = dict(
        topology=topology,
        seed=seed,
        generations=12,
        packet_length=2,
        failures=FailureModel(node_dropout_p=dropout_p, seed=seed),
        data=DataModel(mean=5.0, std=1.0),
    )
    consensus = run_scenario(Scenario(application="consensus", **common))
    custom = run_scenario(
        Scenario(application="custom", assignment=decompose_average(build_graph(topology)), **common)
    )
    assert consensus.tables["arcs"] == custom.tables["arcs"]
    consensus_rows = consensus.tables["trajectory"][1]
    custom_rows = custom.tables["trajectory"][1]
    assert [r["dropped_nodes"] for r in consensus_rows] == [
        r["dropped_nodes"] for r in custom_rows
    ]
    delivered: list[float] = []
    for consensus_row, custom_row in zip(consensus_rows, custom_rows, strict=True):
        if math.isfinite(custom_row["value"]):
            delivered.append(custom_row["value"])
        running_mean = float(np.mean(delivered)) if delivered else 0.0
        assert math.isclose(consensus_row["value"], running_mean, rel_tol=1e-12)


def oracle_dropped(g, failures, rng):
    """One generation's dropped nodes: a uniform draw per node in id order."""
    if not failures.node_dropout_p:
        return set()
    nodes = sorted(g.sources + g.atomics)
    return set(compress(nodes, (rng.random(len(nodes)) < failures.node_dropout_p).tolist()))


def oracle_evaluated(s, g, assignment):
    """Generation by generation: draw, evaluate node by node, meter every message."""
    data_rng = substream(s.seed, DATA)
    dropout_rng, _ = s.failures.streams()
    dest = g.destinations[0]
    metrics, generations = Metrics(), []
    for _ in range(s.generations):
        dropped = oracle_dropped(g, s.failures, dropout_rng)
        shape = (g.n_sources, s.packet_length)
        if s.field is not None:
            values = s.field.random_elements(data_rng, shape)
        else:
            values = data_rng.normal(s.data.mean, s.data.std, size=shape)
        messages, outputs, _ = reference(g, assignment, dict(zip(g.sources, values)), dropped)
        for arc, message in messages.items():
            metrics.record(arc, len(message))
        generations.append((len(dropped), outputs[dest]))
    return metrics, generations


def oracle_consensus(s, g):
    metrics, generations = oracle_evaluated(s, g, decompose_average(g))
    state, rows = ConsensusState(estimate=np.zeros(s.packet_length)), []
    for t, (dropped, delivered) in enumerate(generations):
        if not isinstance(delivered, list):
            state = consensus_step(state, np.asarray(delivered))
        rows.append(row(t, float(state.estimate[0]), dropped))
    return metrics, rows, {"final_estimate": float(state.estimate[0])}


def oracle_custom(s, g):
    metrics, generations = oracle_evaluated(s, g, s.assignment)
    last, rows = float("nan"), []
    for t, (dropped, delivered) in enumerate(generations):
        if isinstance(delivered, list):
            delivered = delivered[0] if delivered else None
        value = float("nan")
        if delivered is not None:
            value = last = float(np.asarray(delivered).ravel()[0])
        rows.append(row(t, value, dropped))
    return metrics, rows, {"final_value": last}


def oracle_forwarding(s, g):
    """The generation barrier walk: each node relays its buffered inbox."""
    dropout_rng, _ = s.failures.streams()
    dest = g.destinations[0]
    metrics, barrier, rows, total = Metrics(), GenerationBarrier(), [], 0
    for t in range(s.generations):
        dropped = oracle_dropped(g, s.failures, dropout_rng)
        for v in g.topo_order:
            if v in dropped or g.roles[v] is NodeRole.DESTINATION:
                continue
            if g.roles[v] is NodeRole.SOURCE:
                outbox = [v]
            else:
                expected = {c for c in g.in_neighbors[v] if c not in dropped}
                assert barrier.ready(v, t, expected)
                outbox = [m for msgs in barrier.take(v, t).values() for m in msgs]
            for w in g.out_neighbors[v]:
                barrier.deliver(v, w, t, outbox)
                if outbox:
                    metrics.record((v, w), s.packet_length, messages=len(outbox))
        delivered = sum(len(m) for m in barrier.take(dest, t).values())
        total += delivered
        rows.append(row(t, delivered, len(dropped)))
    return metrics, rows, {"delivered_packets": total}


def row(t, value, dropped):
    return {"generation": t, "value": value, "dropped_nodes": dropped, "lost_messages": 0}


def same_value(a, b):
    return a == b or (isinstance(a, float) and math.isnan(a) and math.isnan(b))


ORACLES = {"consensus": oracle_consensus, "custom": oracle_custom, "forwarding": oracle_forwarding}


def assert_matches_oracle(s, g, per_generation):
    """Runs split into blocks of 1, 3 and 7 generations write what the oracle does."""
    metrics, rows, headline = ORACLES[s.application](s, g)
    for block in (1, 3, 7):
        with mock.patch.object(afc, "BLOCK_ELEMENTS", block * per_generation):
            result = run_scenario(s)
        assert result.tables["arcs"] == (ARC_COLUMNS, metrics.arc_rows(g))
        columns, actual = result.tables["trajectory"]
        assert columns == TRAJECTORY_COLUMNS and len(actual) == len(rows)
        for got, want in zip(actual, rows):
            assert got.keys() == want.keys()
            assert all(same_value(got[key], want[key]) for key in want)
        assert result.headline.keys() == headline.keys()
        assert all(same_value(result.headline[k], headline[k]) for k in headline)


def blocked_case(rng, topology, g, case, seed, dropout_p, generations):
    """The scenario of one case: consensus, custom on a real or a GF(16)
    assignment, or forwarding."""
    application, extra = case, {}
    if case in ("real", "gf16"):
        assignment, _ = random_assignment(rng, g, {"real": "real", "gf16": "field"}[case])
        if case == "gf16":  # sources that re-type their packet to int64 widen their parents' dtype
            retyped = {s: Sum() for s in g.sources if rng.random() < 0.3}
            assignment = FunctionAssignment({**assignment.functions, **retyped}, assignment.decoders)
            extra["field"] = FieldSpec(4)
        application, extra["assignment"] = "custom", assignment
    return Scenario(
        topology=topology,
        application=application,
        seed=seed,
        generations=generations,
        packet_length=int(rng.integers(1, 4)),
        failures=FailureModel(node_dropout_p=dropout_p, seed=seed ^ 1),
        data=DataModel(mean=2.0, std=3.0) if case in ("consensus", "real") else DataModel(),
        **extra,
    )


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_sources=st.integers(1, 16),
    atomic_share=st.floats(0.0, 1.0),
    dropout_p=st.floats(0.0, 0.6),
    generations=st.integers(0, 16),
)
def test_blocked_runs_match_generation_by_generation_oracle(
    seed, n_sources, atomic_share, dropout_p, generations
):
    rng = np.random.default_rng(seed)
    topology = random_tree(rng, n_sources, max(1, round(atomic_share * n_sources)))
    g = build_graph(topology)
    for case in ("consensus", "real", "gf16", "forwarding"):
        s = blocked_case(rng, topology, g, case, seed, dropout_p, generations)
        assert_matches_oracle(s, g, g.n_nodes * (1 if case == "forwarding" else s.packet_length))


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_sources=st.integers(1, 6),
    n_atomics=st.integers(0, 6),
    dropout_p=st.floats(0.0, 0.6),
    generations=st.integers(0, 16),
)
def test_blocked_forwarding_on_a_dag_matches_the_barrier_walk(
    seed, n_sources, n_atomics, dropout_p, generations
):
    """Forwarding also runs on dag-mode graphs, where a node may relay to
    several parents and a destination may take any node's packets."""
    rng = np.random.default_rng(seed)
    roles = {f"s{i}": NodeRole.SOURCE for i in range(n_sources)}
    children: dict[str, list[str]] = {}
    for name in [f"a{i}" for i in range(n_atomics)] + ["d0"]:
        earlier = list(roles)
        count = int(rng.integers(1, min(3, len(earlier)) + 1))
        children[name] = [earlier[i] for i in rng.choice(len(earlier), size=count, replace=False)]
        roles[name] = NodeRole.DESTINATION if name == "d0" else NodeRole.ATOMIC
    topology = TopologyConfig(roles=roles, children=children, mode="dag")
    s = Scenario(
        topology=topology,
        application="forwarding",
        seed=seed,
        generations=generations,
        packet_length=2,
        failures=FailureModel(node_dropout_p=dropout_p, seed=seed),
    )
    g = build_graph(topology)
    assert_matches_oracle(s, g, g.n_nodes)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_sources=st.integers(1, 6),
    n_atomics=st.integers(2, 6),
    dropout_p=st.floats(0.0, 0.6),
    generations=st.integers(0, 16),
)
def test_forwarding_past_a_childless_node_matches_the_barrier_walk(
    seed, n_sources, n_atomics, dropout_p, generations
):
    """On the level plan a childless atomic node relays nothing, and a
    source with several parents is counted once under each."""
    topology = random_dag(np.random.default_rng(seed), n_sources, n_atomics)
    s = Scenario(
        topology=topology,
        application="forwarding",
        seed=seed,
        generations=generations,
        failures=FailureModel(node_dropout_p=dropout_p, seed=seed),
    )
    g = build_graph(topology)
    assert_matches_oracle(s, g, g.n_nodes)


# A valid base per application, and a non-default value for every table key.
VALID_BASE = {
    "forwarding": {"generations": 3},
    "rlnc": {"field": FIELDS[4], "n_prime": 2, "trials": 3},
    "consensus": {"generations": 3},
    "neural": {"neural": NeuralParams(samples=3, epochs=2)},
}
CHANGED = {
    "generations": 4,
    "field": FIELDS[1],
    "n_prime": 1,
    "trials": 2,
    "data": DataModel(mean=1.0, std=2.0),
    "eta": EtaSchedule(kind="harmonic"),
    "neural": NeuralParams(samples=2, epochs=1),
    "failures.node_dropout_p": 0.3,
    "failures.message_loss_p": 0.3,
    "assignment": FunctionAssignment(functions={}),
}


def random_topology(rng, n_sources, n_atomics, shape):
    """A tree, a one-destination dag, or that dag with a second destination."""
    if shape == "tree":  # atomic i adopts source i
        return random_tree(rng, n_sources, min(n_atomics, n_sources))
    dag = random_dag(rng, n_sources, n_atomics)
    if shape == "dag":
        return dag
    earlier = [name for name in dag.roles if name != "d0"]
    picked = rng.choice(len(earlier), size=int(rng.integers(1, min(3, len(earlier)) + 1)), replace=False)
    return TopologyConfig(
        roles={**dag.roles, "d1": NodeRole.DESTINATION},
        children={**dag.children, "d1": [earlier[i] for i in picked]},
        mode="dag",
    )


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_sources=st.integers(1, 5),
    n_atomics=st.integers(1, 4),
    shape=st.sampled_from(["tree", "dag", "two_destinations"]),
    application=st.sampled_from(sorted(VALID_BASE)),
    changed=st.lists(st.sampled_from(SCENARIO_KEYS), max_size=3, unique=True),
)
def test_validation_accepts_only_what_runs(seed, n_sources, n_atomics, shape, application, changed):
    topology = random_topology(np.random.default_rng(seed), n_sources, n_atomics, shape)
    keys = {**VALID_BASE[application], **{key: CHANGED[key] for key in changed}}
    failures = {key.split(".")[1]: keys.pop(key) for key in list(keys) if key.startswith("failures.")}
    s = Scenario(
        topology=topology,
        application=application,
        seed=seed,
        failures=FailureModel(**failures, seed=seed),
        **keys,
    )
    problems = s.validation_errors()
    if not problems:
        try:
            run_scenario(s)
        except NfcSimError as exc:
            raise AssertionError(f"accepted, then failed at run time: {exc}") from exc
    unread = [key for key in changed if key not in APPLICATION_TABLE[application].reads]
    for problem in problems:
        assert problem in [
            *(f"{application} does not read {key}; it must keep its default" for key in unread),
            *([f"{application} does not run on mode 'dag'"] if shape != "tree" else []),
            *(["the topology must have exactly one destination, not 2"] if shape == "two_destinations" else []),
        ]


def oracle_train(g, weights, dataset, epochs, eta, failures):
    """Node by node: each unit assembles its input vector from the alive
    children and stores its local gradients; parents in reverse topological
    order send one contribution per alive unit child, in in_neighbors order."""
    dropout_rng, loss_rng = failures.streams()
    weights = {v: w.copy() for v, w in weights.items()}
    dest = g.destinations[0]
    units = [v for v in g.topo_order if g.roles[v] is not NodeRole.SOURCE]
    losses, dropped_counts, lost_counts, stale, arcs = [], [], [], 0, Counter()
    for t in range(epochs * len(dataset)):
        sample = dataset[t % len(dataset)]
        dropped = oracle_dropped(g, failures, dropout_rng)
        activations = {s: x for s, x in zip(g.sources, sample.features.tolist()) if s not in dropped}
        stored = {}
        for v in units:
            if v in dropped:
                continue
            x_in = np.zeros(len(g.in_neighbors[v]))
            for i, c in enumerate(g.in_neighbors[v]):
                if c in activations:
                    x_in[i] = activations[c]
            activations[v] = x = float(sigmoid(weights[v] @ x_in))
            slope = x * (1.0 - x)
            stored[v] = (slope * x_in, slope * weights[v])
        arcs.update((v, g.out_neighbors[v][0]) for v in g.topo_order if v != dest and v not in dropped)
        x = activations[dest]
        losses.append(log_loss(x, sample.target))
        accumulated = {dest: -sample.target / x + (1.0 - sample.target) / (1.0 - x)}
        lost = 0
        for v in reversed(units):
            if v not in accumulated:
                continue
            if v not in stored:
                stale += 1
                continue
            d_weights, d_inputs = stored[v]
            for i, c in enumerate(g.in_neighbors[v]):
                if c not in stored:  # a source, or dropped this step
                    continue
                contribution = accumulated[v] * float(d_inputs[i])
                arcs[(c, v)] += 1
                if failures.message_loss_p > 0.0 and loss_rng.random() < failures.message_loss_p:
                    lost += 1
                    continue
                accumulated[c] = accumulated.get(c, 0.0) + contribution
            weights[v] = weights[v] - eta(t) * (accumulated[v] * d_weights)
        dropped_counts.append(len(dropped))
        lost_counts.append(lost)
    return losses, dropped_counts, lost_counts, stale, dict(arcs), weights


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_sources=st.integers(1, 20),
    atomic_share=st.floats(0.0, 1.0),
    dropout_p=st.floats(0.0, 0.6),
    loss_p=st.floats(0.0, 0.4),
)
def test_plan_training_matches_node_by_node_walk(seed, n_sources, atomic_share, dropout_p, loss_p):
    rng = np.random.default_rng(seed)
    g = build_graph(random_tree(rng, n_sources, round(atomic_share * n_sources)))
    dataset = [
        TrainingSample(features=rng.uniform(-2.0, 2.0, n_sources), label=int(rng.choice([-1, 1])))
        for _ in range(5)
    ]
    failures = FailureModel(node_dropout_p=dropout_p, message_loss_p=loss_p, seed=seed ^ 2)
    network = NeuralTreeNetwork(g, init_rng=np.random.default_rng(seed ^ 3))
    eta = lambda t: 0.8 / (1.0 + 0.1 * t)
    losses, dropped, lost, _, arcs, weights = oracle_train(
        g, network.weights, dataset, 3, eta, failures
    )
    result = nn_train(network, dataset, epochs=3, eta_schedule=eta, failures=failures)
    assert np.array(result.losses).tobytes() == np.array(losses).tobytes()
    assert list(result.dropped_per_step) == dropped
    assert list(result.lost_per_step) == lost
    assert dict(result.arc_messages) == arcs
    assert result.final_weights.keys() == weights.keys()
    assert all(result.final_weights[v].tobytes() == w.tobytes() for v, w in weights.items())


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_sources=st.integers(1, 20),
    atomic_share=st.floats(0.0, 1.0),
    dropout_p=st.floats(0.0, 0.6),
    later_passes=st.integers(1, 3),
)
def test_downward_reads_only_the_upward_result_it_is_given(
    seed, n_sources, atomic_share, dropout_p, later_passes
):
    rng = np.random.default_rng(seed)
    g = build_graph(random_tree(rng, n_sources, round(atomic_share * n_sources)))
    network = NeuralTreeNetwork(g, init_rng=np.random.default_rng(seed ^ 3))
    failures = FailureModel(node_dropout_p=dropout_p)

    def upward():
        dropped = frozenset(oracle_dropped(g, failures, rng))
        return network.upward(rng.uniform(-2.0, 2.0, n_sources), dropped=dropped)

    def downward(up):
        loss_rng = substream(seed, 4)
        lost = lambda: bool(loss_rng.random() < 0.3)
        return network.downward(up, 1.0, eta=0.5, message_lost=lost, apply_updates=False)

    up_1 = upward()
    right_after = downward(up_1)
    for _ in range(later_passes):
        upward()
    later = downward(up_1)
    assert later.sent == right_after.sent
    assert later.lost_messages == right_after.lost_messages
    assert later.gradients.keys() == right_after.gradients.keys()
    for v, gradient in right_after.gradients.items():
        assert later.gradients[v].tobytes() == gradient.tobytes()


class ScriptedRng:
    """Stands in for a Generator, handing out pre-drawn values in order."""

    def __init__(self, draws):
        self.draws = draws

    def integers(self, low, high, size=None, dtype=None):
        out, self.draws = self.draws[:size], self.draws[size:]
        return out


def scalar_first_full_rank(graph, field, n_prime, trials, seed, payload_length):
    """Trial by trial: the pass after which rank first reached N, or None.

    Each trial spends the same draw block as the experiment (source
    payloads, then every pass's local coefficients node by node in
    topological order), recodes through the packet API and takes the
    rank of every pair collected so far by full row reduction.
    """
    n = len(graph.sources)
    atomics = [v for v in graph.topo_order if graph.roles[v] is NodeRole.ATOMIC]
    dest_children = graph.in_neighbors[graph.destinations[0]]
    per_pass = sum(len(graph.in_neighbors[a]) for a in atomics)
    first_full = []
    for trial in range(trials):
        block = field.random_elements(
            trial_rng(seed, trial), n * payload_length + n_prime * per_pass
        )
        payloads = block[: n * payload_length].reshape(n, payload_length)
        coefficients = ScriptedRng(block[n * payload_length :])
        leaves = {s: source_encode(i, payloads[i], n, field) for i, s in enumerate(graph.sources)}
        collected, reached = [], None
        for k in range(n_prime):
            packets = dict(leaves)
            for a in atomics:
                children = [packets[c] for c in graph.in_neighbors[a]]
                packets[a] = atomic_recode(children, coefficients, field)
            collected += [packets[c].coding_vector for c in dest_children]
            if reached is None and matrix_rank(field, np.stack(collected)) == n:
                reached = k
        first_full.append(reached)
    return first_full


def trial_elements(graph, n_prime):
    """Field elements one trial's rows put in a recovery block."""
    dest_children = graph.in_neighbors[graph.destinations[0]]
    return n_prime * len(dest_children) * graph.n_sources


def summarize(first_full, n_prime):
    """(successes, success_by_pass) of a list of first-full-rank passes."""
    by_pass = tuple(
        sum(1 for r in first_full if r is not None and r <= k) for k in range(n_prime)
    )
    return sum(1 for r in first_full if r is not None), by_pass


@settings(max_examples=40, deadline=None)
@given(
    tree_seed=st.integers(0, 2**32 - 1),
    n_sources=st.integers(1, 10),
    m=st.sampled_from(sorted(FIELDS)),
    payload_length=st.sampled_from([1, 3]),
    n_prime=st.sampled_from([0, 1, 5]),
    trials=st.sampled_from([3, 8, 13, 16]),
    seed=st.integers(0, 2**32 - 1),
)
def test_batched_experiment_matches_scalar_oracle(
    tree_seed, n_sources, m, payload_length, n_prime, trials, seed
):
    field = FIELDS[m]
    graph = build_graph(random_tree_topology(np.random.default_rng(tree_seed), n_sources))
    budget = 8 * trial_elements(graph, n_prime)  # below, at and across blocks of 8 trials
    with mock.patch.object(rlnc, "BLOCK_ELEMENTS", budget):
        stats = run_recovery_experiment(graph, field, n_prime, trials, seed, payload_length)
    oracle = scalar_first_full_rank(graph, field, n_prime, trials, seed, payload_length)
    assert (stats.successes, stats.success_by_pass) == summarize(oracle, n_prime)


def test_batched_experiment_matches_scalar_oracle_at_block_size():
    graph = build_graph(star_topology(3))
    field = FIELDS[1]
    block = 1024
    trials = block + 37
    oracle = scalar_first_full_rank(graph, field, 4, trials, 5, 2)
    assert 0 < summarize(oracle, 4)[0] < trials  # the check sees failures and successes
    for count in (block, trials):
        with mock.patch.object(rlnc, "BLOCK_ELEMENTS", block * trial_elements(graph, 4)):
            stats = run_recovery_experiment(graph, field, 4, count, 5, 2)
        assert (stats.successes, stats.success_by_pass) == summarize(oracle[:count], 4)


@settings(max_examples=30, deadline=None)
@given(
    tree_seed=st.integers(0, 2**32 - 1),
    n_sources=st.integers(1, 8),
    m=st.sampled_from([1, 8, 16]),
    payload_length=st.sampled_from([1, 3]),
    n_prime=st.sampled_from([1, 3]),
    trials=st.integers(1, 20),
    seed=st.integers(0, 2**32 - 1),
)
def test_recovery_experiment_does_not_depend_on_the_blocking(
    tree_seed, n_sources, m, payload_length, n_prime, trials, seed
):
    field = FIELDS[m]
    graph = build_graph(random_tree_topology(np.random.default_rng(tree_seed), n_sources))
    default = run_recovery_experiment(graph, field, n_prime, trials, seed, payload_length)
    # Blocks of 1, 3 and 7 trials, and a budget below one trial's rows (one trial a block).
    per_trial = trial_elements(graph, n_prime)
    for budget in (per_trial, 3 * per_trial, 7 * per_trial, per_trial - 1):
        with mock.patch.object(rlnc, "BLOCK_ELEMENTS", budget):
            stats = run_recovery_experiment(graph, field, n_prime, trials, seed, payload_length)
        assert stats == default  # success_by_pass included


def edge_tree(children):
    """A hand-built tree: names starting with s are sources, d0 the destination."""
    names = {name for kids in children.values() for name in kids} | set(children)
    roles = {
        name: NodeRole.SOURCE if name.startswith("s")
        else NodeRole.DESTINATION if name == "d0" else NodeRole.ATOMIC
        for name in sorted(names)
    }
    return build_graph(TopologyConfig(roles=roles, children=children, mode="tree"))


EDGE_TREES = {
    # s2 reaches the destination without crossing a relay.
    "source_at_destination": {"d0": ["a0", "s2"], "a0": ["s0", "s1"]},
    # a0's one group holds an arc from a source and one from a relay.
    "source_and_relay_siblings": {"d0": ["a0"], "a0": ["s0", "a1"], "a1": ["s1", "s2"]},
    # Single-child relays on the way up, beside a source one hop below d0's relay.
    "single_child_chain": {"d0": ["a0"], "a0": ["a1", "s2"], "a1": ["a2"], "a2": ["a3"],
                           "a3": ["s0", "s1"]},
}


@pytest.mark.parametrize("m", [1, 8, 16])
@pytest.mark.parametrize("shape", sorted(EDGE_TREES))
def test_path_products_on_edge_tree_shapes(shape, m):
    """Sources at mixed depths: each pass's vectors equal a node-by-node walk
    through source_encode/atomic_recode, and the experiment equals the
    scalar oracle."""
    field, graph = FIELDS[m], edge_tree(EDGE_TREES[shape])
    n = graph.n_sources
    atomics = [v for v in graph.topo_order if graph.roles[v] is NodeRole.ATOMIC]
    dest_children = graph.in_neighbors[graph.destinations[0]]
    net = RlncNetwork(graph, field, payload_length=3)
    rng = np.random.default_rng(m)
    payloads = net.random_source_payloads(rng)
    coeffs = field.random_elements(rng, (4, net.coeffs_per_pass))
    rows = net.run_pass(coeffs)
    assert rows.shape == (4, len(dest_children), n) and rows.dtype == field.dtype
    for t in range(len(coeffs)):
        walk = {s: source_encode(i, payloads[i], n, field) for i, s in enumerate(graph.sources)}
        scripted = ScriptedRng(coeffs[t])
        for a in atomics:
            walk[a] = atomic_recode([walk[c] for c in graph.in_neighbors[a]], scripted, field)
        packets = net.pass_once(payloads, ScriptedRng(coeffs[t]))
        assert packets.keys() == walk.keys()
        for v, packet in packets.items():
            assert packet.coding_vector.tobytes() == walk[v].coding_vector.tobytes(), graph.names[v]
            assert packet.payload.tobytes() == walk[v].payload.tobytes(), graph.names[v]
        expected = np.stack([walk[c].coding_vector for c in dest_children])
        assert rows[t].tobytes() == expected.tobytes()
    stats = run_recovery_experiment(graph, field, 3, 20, m, 2)
    oracle = scalar_first_full_rank(graph, field, 3, 20, m, 2)
    assert (stats.successes, stats.success_by_pass) == summarize(oracle, 3)


@settings(max_examples=60, deadline=None)
@given(
    m=st.sampled_from(sorted(FIELDS)),
    n=st.integers(1, 8),
    batch=st.integers(1, 5),
    pairs=st.integers(0, 12),
    seed=st.integers(0, 2**32 - 1),
)
def test_independent_rows_match_prefix_ranks(m, n, batch, pairs, seed):
    """Streams mixing fresh, zero, repeated and dependent rows, with R = pairs
    below, at and above N: the mask's running count is every prefix's rank."""
    field = FIELDS[m]
    rng = np.random.default_rng(seed)
    stream = field.random_elements(rng, (batch, pairs, n))
    for t in range(batch):
        for p in range(pairs):
            kind = int(rng.integers(0, 4))
            if kind == 1:
                stream[t, p] = 0
            elif kind == 2 and p:
                stream[t, p] = stream[t, int(rng.integers(0, p))]
            elif kind == 3 and p:
                stream[t, p] = field.combine(field.random_elements(rng, p), stream[t, :p])
    before = stream.copy()
    mask, _ = rlnc.independent_rows(field, stream, n)
    assert mask.shape == (batch, pairs) and mask.dtype == bool
    assert stream.tobytes() == before.tobytes()
    # Payload columns ride along and never pick a pivot.
    wide = np.concatenate([stream, field.random_elements(rng, (batch, pairs, 3))], axis=2)
    wide_mask, pivots = rlnc.independent_rows(field, wide, n)
    assert wide_mask.tobytes() == mask.tobytes()
    assert [p.shape for p in pivots] == ([(batch, n + 3 - c) for c in range(n)] if pairs else [])
    ranks = np.cumsum(mask, axis=1)
    for t in range(batch):
        assert ranks[t].tolist() == [matrix_rank(field, stream[t, : p + 1]) for p in range(pairs)]
    single = DecoderState(field, n)
    for p in range(pairs):
        assert single.add_vector(stream[0, p]) == ranks[0, p]


@settings(max_examples=80, deadline=None)
@given(
    tree_seed=st.integers(0, 2**32 - 1),
    n_sources=st.integers(1, 8),
    m=st.sampled_from([1, 4, 8, 16]),
    payload_length=st.sampled_from([1, 3]),
    passes=st.integers(1, 10),
    seed=st.integers(0, 2**32 - 1),
)
def test_destination_decode_matches_gaussian_solve(
    tree_seed, n_sources, m, payload_length, passes, seed
):
    """A random tree's destination pairs, mixed with zero, repeated and
    dependent rows whose payloads are their coding vectors' combinations of
    the same hidden source packets: decode equals the Gauss-Jordan oracle
    in packets and rank, and at full rank every pivot row the kernel
    freezes reads 1 at its own column."""
    field = FIELDS[m]
    graph = build_graph(random_tree_topology(np.random.default_rng(tree_seed), n_sources))
    net = RlncNetwork(graph, field, payload_length)
    rng = np.random.default_rng(seed)
    sources = net.random_source_payloads(rng)
    vectors = []
    for _ in range(passes):
        for packet in net.destination_pairs(net.pass_once(sources, rng)):
            kind = int(rng.integers(0, 4))
            if kind == 1:
                vectors.append(np.zeros(n_sources, dtype=field.dtype))
            elif kind == 2 and vectors:
                vectors.append(vectors[int(rng.integers(0, len(vectors)))])
            elif kind == 3 and vectors:
                vectors.append(field.combine(field.random_elements(rng, len(vectors)), vectors))
            vectors.append(packet.coding_vector)
    a = np.stack(vectors)
    b = field.combine(a, sources)
    state = DecoderState(field, n_sources)
    for vector, payload in zip(a, b):
        state.add(CodedPacket(payload, vector))
    outcome = destination_decode(state)
    try:
        solved = gaussian_solve(field, a, b)
    except RankDeficient as exc:
        assert (outcome.success, outcome.rank, outcome.packets) == (False, exc.rank, None)
        return
    assert outcome.success and outcome.rank == solved.rank == n_sources
    assert outcome.packets.dtype == field.dtype
    assert outcome.packets.tobytes() == solved.solution.tobytes() == sources.tobytes()
    _, pivots = rlnc.independent_rows(field, np.hstack([a, b])[None], n_sources)
    assert [int(p[0, 0]) for p in pivots] == [1] * n_sources
