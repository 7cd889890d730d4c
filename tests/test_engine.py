"""Scenario execution: accounting, barriers, determinism, comparisons."""

import numpy as np
import pytest

from nfcsim.engine import (
    APPLICATION_TABLE,
    APPLICATIONS,
    DataModel,
    EtaSchedule,
    GenerationBarrier,
    NeuralParams,
    Scenario,
    compare_costs,
    run_scenario,
)
from nfcsim.errors import MismatchedScenarios, ScenarioError
from nfcsim.field import FieldSpec
from nfcsim.graph import (
    NodeRole,
    TopologyConfig,
    balanced_tree_topology,
    chain_topology,
    star_topology,
)
from nfcsim.learning.neural import FailureModel
from nfcsim.scenario import render_csv

TREE64 = balanced_tree_topology(64)


def forwarding_scenario(generations=1, length=64, seed=1):
    return Scenario(
        topology=TREE64,
        application="forwarding",
        generations=generations,
        packet_length=length,
        seed=seed,
    )


def consensus_scenario(generations=1, length=64, seed=1):
    return Scenario(
        topology=TREE64,
        application="consensus",
        generations=generations,
        packet_length=length,
        seed=seed,
        data=DataModel(mean=5.0, std=1.0),
    )


def test_forwarding_totals_are_path_length_sums():
    length = 64
    result = run_scenario(forwarding_scenario(generations=1, length=length))
    assert result.metrics.total_symbols == 64 * 6 * length
    assert result.metrics.total_messages == 64 * 6
    three = run_scenario(forwarding_scenario(generations=3, length=length))
    assert three.metrics.total_symbols == 3 * 64 * 6 * length


def test_consensus_totals_include_count_symbol():
    length = 64
    result = run_scenario(consensus_scenario(generations=1, length=length))
    assert result.metrics.total_symbols == 126 * (length + 1)
    assert result.metrics.total_messages == 126
    # conservation: every arc carries exactly L+1 symbols per message
    for arc, symbols in result.metrics.arc_symbols.items():
        assert symbols == result.metrics.arc_messages[arc] * (length + 1)


def test_compare_costs_ratio_matches_arithmetic():
    length = 64
    nfc = run_scenario(consensus_scenario(generations=4, length=length))
    fwd = run_scenario(forwarding_scenario(generations=4, length=length))
    report = compare_costs(nfc, fwd)
    assert report.ratio == (64 * 6 * length) / (126 * (length + 1))
    assert report.forwarding_total == 4 * 64 * 6 * length
    assert report.nfc_total == 4 * 126 * (length + 1)


def test_single_source_chain_message_parity():
    topo = chain_topology(3)
    nfc = run_scenario(
        Scenario(topology=topo, application="consensus", generations=5, seed=2)
    )
    fwd = run_scenario(
        Scenario(topology=topo, application="forwarding", generations=5, seed=2)
    )
    # one message per arc per generation on both sides; the average
    # decomposition additionally pays its count symbol per message
    assert nfc.metrics.arc_messages == fwd.metrics.arc_messages
    report = compare_costs(nfc, fwd)
    assert report.ratio == pytest.approx(1 / 2)  # L=1: 1 vs (1+1) symbols


def test_single_source_chain_headerless_function_ratio_one():
    from nfcsim.afc import FunctionAssignment, Max
    from nfcsim.graph import build_graph

    topo = chain_topology(3)
    g = build_graph(topo)
    assignment = FunctionAssignment(functions={a: Max() for a in g.atomics})
    nfc = run_scenario(
        Scenario(
            topology=topo,
            application="custom",
            generations=5,
            packet_length=3,
            seed=2,
            assignment=assignment,
        )
    )
    fwd = run_scenario(
        Scenario(
            topology=topo,
            application="forwarding",
            generations=5,
            packet_length=3,
            seed=2,
        )
    )
    report = compare_costs(nfc, fwd)
    assert report.ratio == 1.0  # one L-symbol message per arc either way


def test_custom_assignment_max_network():
    from nfcsim.afc import FunctionAssignment, Max
    from nfcsim.graph import build_graph

    topo = balanced_tree_topology(4)
    g = build_graph(topo)
    scenario = Scenario(
        topology=topo,
        application="custom",
        generations=3,
        seed=7,
        assignment=FunctionAssignment(functions={a: Max() for a in g.atomics}),
        data=DataModel(mean=0.0, std=1.0),
    )
    result = run_scenario(scenario)
    assert result.metrics.total_messages == 3 * 6
    assert np.isfinite(result.headline["final_value"])
    missing = Scenario(topology=topo, application="custom", generations=1)
    assert any("FunctionAssignment" in p for p in missing.validation_errors())


def test_zero_generations_zero_totals():
    result = run_scenario(forwarding_scenario(generations=0))
    assert result.metrics.total_symbols == 0
    assert result.metrics.total_messages == 0
    assert result.tables["trajectory"][1] == []


def test_rlnc_accounting_and_headline():
    scenario = Scenario(
        topology=star_topology(2),
        application="rlnc",
        seed=3,
        packet_length=4,
        field=FieldSpec(1),
        n_prime=2,
        trials=2000,
    )
    result = run_scenario(scenario)
    # 3 arcs, one message per arc per pass: trials * n_prime messages
    assert result.metrics.total_messages == 3 * 2000 * 2
    assert result.metrics.total_symbols == 3 * 2000 * 2 * (4 + 2)
    assert 0.3 < result.headline["probability"] < 0.45


def test_neural_run_and_metering():
    scenario = Scenario(
        topology=balanced_tree_topology(4),
        application="neural",
        seed=4,
        neural=NeuralParams(samples=8, epochs=2),
    )
    result = run_scenario(scenario)
    steps = 16
    # no failures: 6 upward messages per step, and gradient contributions
    # only toward non-source children (the root's two hidden nodes)
    assert result.metrics.total_messages == steps * (6 + 2)
    assert result.metrics.total_symbols == steps * 8 * 2
    assert "final_loss" in result.headline


def test_scenario_validation_errors():
    with pytest.raises(ScenarioError):
        run_scenario(Scenario(topology=TREE64, application="warp"))
    bad_rlnc = Scenario(topology=TREE64, application="rlnc")
    assert any("field" in p for p in bad_rlnc.validation_errors())
    assert any("n_prime" in p for p in bad_rlnc.validation_errors())
    real_field = Scenario(
        topology=TREE64, application="consensus", field=FieldSpec(2), generations=1
    )
    assert "consensus does not read field; it must keep its default" in real_field.validation_errors()
    rlnc_failures = Scenario(
        topology=star_topology(2),
        application="rlnc",
        field=FieldSpec(1),
        n_prime=2,
        trials=10,
        failures=FailureModel(node_dropout_p=0.5),
    )
    assert rlnc_failures.validation_errors() == [
        "rlnc does not read failures.node_dropout_p; it must keep its default"
    ]


def test_validation_rejects_an_unknown_eta_kind():
    def neural(kind):
        return Scenario(topology=star_topology(2), application="neural", eta=EtaSchedule(kind=kind))

    assert neural("bogus").validation_errors() == ["eta.kind must be one of ('constant', 'harmonic')"]
    with pytest.raises(ScenarioError, match="eta.kind"):
        run_scenario(neural("bogus"))
    assert all(neural(kind).validation_errors() == [] for kind in EtaSchedule.KINDS)


def test_validation_reads_the_application_table():
    from nfcsim.afc import FunctionAssignment, Max

    assignment = FunctionAssignment(functions={"a0": Max()})
    ignored = Scenario(topology=TREE64, application="consensus", generations=1, assignment=assignment)
    assert ignored.validation_errors() == ["consensus does not read assignment; it must keep its default"]
    dag = TopologyConfig(
        roles={"s0": NodeRole.SOURCE, "a0": NodeRole.ATOMIC, "d0": NodeRole.DESTINATION},
        children={"a0": ["s0"], "d0": ["a0", "s0"]},
        mode="dag",
    )
    for application, extra in (
        ("consensus", {}),
        ("rlnc", {"field": FieldSpec(1), "n_prime": 1, "trials": 1}),
        ("neural", {}),
    ):
        scenario = Scenario(topology=dag, application=application, **extra)
        assert scenario.validation_errors() == [f"{application} does not run on mode 'dag'"]
    assert Scenario(topology=dag, application="forwarding", generations=2).validation_errors() == []
    two_roots = TopologyConfig(
        roles={"s0": NodeRole.SOURCE, "d0": NodeRole.DESTINATION, "d1": NodeRole.DESTINATION},
        children={"d0": ["s0"], "d1": ["s0"]},
        mode="dag",
    )
    assert Scenario(topology=two_roots, application="forwarding").validation_errors() == [
        "the topology must have exactly one destination, not 2"
    ]
    assert APPLICATIONS == tuple(APPLICATION_TABLE)
    assert APPLICATIONS == ("forwarding", "rlnc", "consensus", "neural", "custom")


def test_validation_rejects_unreachable_margin_and_negative_std():
    def neural(margin):
        return Scenario(
            topology=star_topology(2), application="neural", neural=NeuralParams(margin=margin)
        )

    assert "neural.margin must be below the source count 2" in neural(2.0).validation_errors()
    assert neural(1.9).validation_errors() == []
    noisy = Scenario(
        topology=TREE64, application="consensus", generations=1, data=DataModel(std=-0.5)
    )
    assert noisy.validation_errors() == ["data.std must be >= 0"]
    with pytest.raises(ScenarioError, match="data.std"):
        run_scenario(noisy)


@pytest.mark.parametrize("application", ["consensus", "custom"])
def test_message_loss_rejected_where_not_modelled(application):
    from nfcsim.afc import FunctionAssignment, Max
    from nfcsim.graph import build_graph

    topo = balanced_tree_topology(4)
    assignment = FunctionAssignment(functions={a: Max() for a in build_graph(topo).atomics})
    lossy = Scenario(
        topology=topo,
        application=application,
        generations=2,
        assignment=assignment if application == "custom" else None,
        failures=FailureModel(message_loss_p=0.5),
    )
    message = f"{application} does not read failures.message_loss_p; it must keep its default"
    assert message in lossy.validation_errors()
    with pytest.raises(ScenarioError, match="failures.message_loss_p"):
        run_scenario(lossy)
    dropout_only = Scenario(
        topology=topo,
        application=application,
        generations=2,
        assignment=lossy.assignment,
        failures=FailureModel(node_dropout_p=0.5),
    )
    assert dropout_only.validation_errors() == []


def test_determinism_identical_serialized_tables():
    for make in (lambda: forwarding_scenario(3, 8, seed=9),
                 lambda: consensus_scenario(3, 8, seed=9)):
        a = run_scenario(make())
        b = run_scenario(make())
        for name in a.tables:
            cols_a, rows_a = a.tables[name]
            cols_b, rows_b = b.tables[name]
            assert render_csv(cols_a, rows_a) == render_csv(cols_b, rows_b)
        assert a.headline == b.headline


def test_barrier_audit_order():
    scenario = forwarding_scenario(generations=2, length=2)
    result = run_scenario(scenario, audit=True)
    events = result.audit_events
    assert events, "audit requested but no events recorded"
    g = result.graph
    delivered: set[tuple[int, int, int]] = set()
    for event in events:
        if event[0] == "deliver":
            _, child, node, generation = event
            delivered.add((child, node, generation))
        else:
            _, node, generation = event
            for child in g.in_neighbors[node]:
                assert (child, node, generation) in delivered, (
                    f"node {node} evaluated generation {generation} before "
                    f"child {child} delivered"
                )


def test_barrier_audit_consensus():
    result = run_scenario(consensus_scenario(generations=1, length=2), audit=True)
    events = result.audit_events
    kinds = {e[0] for e in events}
    assert kinds == {"deliver", "evaluate"}


def test_generation_barrier_buffering():
    barrier = GenerationBarrier(audit=True)
    barrier.deliver(child=0, node=2, generation=0, messages=["x"])
    assert not barrier.ready(2, 0, expected={0, 1})
    barrier.deliver(child=1, node=2, generation=0, messages=[])
    assert barrier.ready(2, 0, expected={0, 1})  # empty batch still completes
    inbox = barrier.take(2, 0)
    assert inbox == {0: ["x"], 1: []}
    assert barrier.take(2, 0) == {}


def test_compare_costs_mismatches():
    nfc = run_scenario(consensus_scenario(generations=2))
    other_graph = run_scenario(
        Scenario(
            topology=balanced_tree_topology(4),
            application="forwarding",
            generations=2,
            packet_length=64,
            seed=1,
        )
    )
    with pytest.raises(MismatchedScenarios):
        compare_costs(nfc, other_graph)
    wrong_t = run_scenario(forwarding_scenario(generations=3))
    with pytest.raises(MismatchedScenarios):
        compare_costs(nfc, wrong_t)
    with pytest.raises(MismatchedScenarios):
        compare_costs(nfc, nfc)  # baseline must be forwarding


def test_consensus_with_dropout_degrades_gracefully():
    scenario = Scenario(
        topology=TREE64,
        application="consensus",
        generations=20,
        seed=5,
        failures=FailureModel(node_dropout_p=0.1, seed=5),
        data=DataModel(mean=5.0, std=0.5),
    )
    result = run_scenario(scenario)
    assert result.metrics.dropped_nodes > 0
    final = result.headline["final_estimate"]
    assert np.isfinite(final)
    assert abs(final - 5.0) < 1.0  # survivors still average near the mean


def test_metrics_totals_equal_sum_of_arcs():
    result = run_scenario(consensus_scenario(generations=2, length=3))
    assert result.metrics.total_symbols == sum(result.metrics.arc_symbols.values())
    assert result.metrics.total_messages == sum(result.metrics.arc_messages.values())


def test_forwarding_drops_reduce_delivery():
    scenario = Scenario(
        topology=TREE64,
        application="forwarding",
        generations=5,
        packet_length=2,
        seed=6,
        failures=FailureModel(node_dropout_p=0.3, seed=6),
    )
    result = run_scenario(scenario)
    full = run_scenario(forwarding_scenario(generations=5, length=2))
    assert result.headline["delivered_packets"] < full.headline["delivered_packets"]
    assert result.metrics.total_symbols < full.metrics.total_symbols


def test_summary_line_content():
    result = run_scenario(consensus_scenario(generations=1))
    line = result.summary_line()
    assert "application=consensus" in line
    assert "final_estimate=" in line


@pytest.mark.parametrize("generations_per_block", [1, 2])
def test_width_change_fails_under_any_block_split(generations_per_block):
    """a0 takes Max over whichever child arrived: s0's 2-symbol packet in
    one generation and s1's 1-symbol packet in the other."""
    from unittest import mock

    from nfcsim import afc
    from nfcsim.afc import AppendCount, FunctionAssignment, Max
    from nfcsim.errors import DomainMismatch
    from nfcsim.graph import NodeRole, TopologyConfig

    roles = {"s0": NodeRole.SOURCE, "s1": NodeRole.SOURCE, "a0": NodeRole.ATOMIC,
             "d0": NodeRole.DESTINATION}
    scenario = Scenario(
        topology=TopologyConfig(roles=roles, children={"a0": ["s0", "s1"], "d0": ["a0"]}),
        application="custom",
        generations=2,
        failures=FailureModel(node_dropout_p=0.5, seed=6),
        assignment=FunctionAssignment({"s0": AppendCount(), "a0": Max()}),
    )
    with mock.patch.object(afc, "BLOCK_ELEMENTS", generations_per_block * 4):
        with pytest.raises(DomainMismatch, match="node 'a0' emits packets of unequal widths"):
            run_scenario(scenario)
