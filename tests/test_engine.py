"""Scenario execution: accounting, barriers, determinism, comparisons."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nfcsim.engine import (
    APPLICATION_TABLE,
    DataModel,
    EtaSchedule,
    GenerationBarrier,
    Metrics,
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
    build_graph,
    chain_topology,
    star_topology,
)
from nfcsim.learning.neural import FailureModel
from nfcsim.scenario import parse_scenario_text, render_csv
from test_graph import layered_dags

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


def test_compare_costs_ratio_without_nfc_symbols():
    """No symbols on either side is no ratio (nan); forwarding's symbols
    over none of the network's are an infinite one."""
    star = star_topology(3)
    fwd = Scenario(topology=star, application="forwarding", generations=0)
    nothing = compare_costs(run_scenario(dataclasses.replace(fwd, application="consensus")), run_scenario(fwd))
    assert (nothing.nfc_total, nothing.forwarding_total) == (0, 0)
    assert np.isnan(nothing.ratio)
    fwd = dataclasses.replace(fwd, generations=2)
    all_dropped = dataclasses.replace(fwd, application="consensus", failures=FailureModel(node_dropout_p=1.0))
    unmatched = compare_costs(run_scenario(all_dropped), run_scenario(fwd))
    assert (unmatched.nfc_total, unmatched.forwarding_total) == (0, 12)  # 3 + 3 relayed, twice
    assert unmatched.ratio == float("inf")


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


@pytest.mark.parametrize("seed, refused", [(99, True), (0, False), (7, False)])
def test_rlnc_rejects_a_failures_seed_it_does_not_read(seed, refused):
    s = Scenario(topology=star_topology(2), application="rlnc", seed=7, field=FieldSpec(1),
                 n_prime=2, trials=10, failures=FailureModel(seed=seed))
    problem = ("failures.seed", "rlnc does not read failures.seed; it must keep its default")
    assert s.keyed_errors() == ([problem] if refused else [])


def test_unknown_application_lists_the_choices():
    assert Scenario(topology=star_topology(2), application="warp").keyed_errors() == [
        ("application", "unknown application 'warp'; must be one of forwarding, rlnc, consensus, neural, custom")
    ]


def test_validation_rejects_an_unknown_eta_kind():
    def neural(kind):
        return Scenario(topology=star_topology(2), application="neural", eta=EtaSchedule(kind=kind))

    assert neural("bogus").validation_errors() == ["eta.kind must be one of ('constant', 'harmonic')"]
    with pytest.raises(ScenarioError, match="eta.kind"):
        run_scenario(neural("bogus"))
    assert all(neural(kind).validation_errors() == [] for kind in EtaSchedule.KINDS)


def test_effective_generations_reads_the_application_table():
    """rlnc runs a generation per trial and neural one per training step;
    the others run the scenario's generations."""
    counts = {"rlnc": 5, "neural": 4 * 3}
    for application, app in APPLICATION_TABLE.items():
        scenario = Scenario(
            topology=TREE64, application=application, generations=7, trials=5,
            neural=NeuralParams(samples=4, epochs=3),
        )
        assert scenario.effective_generations == counts.get(application, 7)
        assert app.generations(scenario) == scenario.effective_generations
    assert Scenario(topology=TREE64, application="rlnc").effective_generations == 0


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
    assert tuple(APPLICATION_TABLE) == ("forwarding", "rlnc", "consensus", "neural", "custom")


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


@pytest.mark.parametrize(
    "application, changes, key",
    [
        ("neural", {"neural": NeuralParams(margin=float("nan"))}, "neural.margin"),
        ("neural", {"eta": EtaSchedule(value=float("inf"))}, "eta.value"),
        ("consensus", {"generations": 1, "data": DataModel(std=float("nan"))}, "data.std"),
        ("consensus", {"generations": 1, "data": DataModel(mean=float("-inf"))}, "data.mean"),
    ],
)
def test_validation_rejects_non_finite_values(application, changes, key):
    s = Scenario(topology=star_topology(2), application=application, **changes)
    assert s.keyed_errors() == [(key, f"{key} must be a finite number")]
    with pytest.raises(ScenarioError, match=f"{key} must be a finite number"):
        s.validate()


@pytest.mark.parametrize(
    "seeds, key",
    [({"seed": -3}, "seed"), ({"failures": FailureModel(seed=-5)}, "failures.seed")],
)
def test_validation_rejects_negative_seeds(seeds, key):
    s = Scenario(topology=star_topology(2), application="consensus", generations=1, **seeds)
    assert s.keyed_errors() == [(key, f"{key} must be >= 0")]
    with pytest.raises(ScenarioError, match=f"{key} must be >= 0"):
        s.validate()


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


def test_custom_on_a_field_rejects_data():
    from nfcsim.afc import FunctionAssignment, Max
    from nfcsim.graph import build_graph

    topo = balanced_tree_topology(4)
    assignment = FunctionAssignment(functions={a: Max() for a in build_graph(topo).atomics})

    def custom(field, data):
        return Scenario(topology=topo, application="custom", generations=2, field=field,
                        data=data, assignment=assignment)

    with pytest.raises(ScenarioError, match="custom does not read data; it must keep its default"):
        run_scenario(custom(FieldSpec(4), DataModel(mean=9.0, std=5.0)))
    assert custom(FieldSpec(4), DataModel()).validation_errors() == []
    assert custom(None, DataModel(mean=9.0, std=5.0)).validation_errors() == []


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


def test_generation_barrier_buffering():
    barrier = GenerationBarrier()
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
    wrong_length = run_scenario(forwarding_scenario(generations=2, length=32))
    with pytest.raises(MismatchedScenarios, match="scenarios use different packet lengths"):
        compare_costs(nfc, wrong_length)
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
    assert sum(row["dropped_nodes"] for row in result.tables["trajectory"][1]) > 0
    final = result.headline["final_estimate"]
    assert np.isfinite(final)
    assert abs(final - 5.0) < 1.0  # survivors still average near the mean


def test_metrics_totals_equal_sum_of_arcs():
    result = run_scenario(consensus_scenario(generations=2, length=3))
    assert result.metrics.total_symbols == sum(result.metrics.arc_symbols.values())
    assert result.metrics.total_messages == sum(result.metrics.arc_messages.values())


def test_every_run_on_a_config_shares_the_parsed_graph():
    loaded = parse_scenario_text("""\
schema_version: 1
seed: 3
application: consensus
topology: {generator: balanced_tree, sources: 8}
generations: 4
failures: {node_dropout_p: 0.25}
""")
    s = loaded.scenario
    twin = Scenario(topology=s.topology, application="forwarding", seed=s.seed,
                    generations=s.effective_generations, failures=FailureModel(seed=s.failures.seed))
    results = [run_scenario(s), run_scenario(twin), run_scenario(dataclasses.replace(s, seed=4))]
    assert all(result.graph is loaded.graph for result in results)


@settings(max_examples=100, deadline=None)
@given(config=layered_dags(), data=st.data())
def test_arc_rows_list_each_metered_arc_once_by_name(config, data):
    g = build_graph(config)  # a node may take one child twice, so an arc may repeat
    metrics = Metrics()
    for arc in data.draw(st.lists(st.sampled_from(g.arcs), max_size=8)) if g.arcs else ():
        metrics.record(arc, data.draw(st.integers(0, 3)), messages=data.draw(st.integers(0, 2)))
    by_name = sorted(metrics.arc_symbols, key=lambda arc: (g.names[arc[0]], g.names[arc[1]]))
    assert metrics.arc_rows(g) == [
        {"src": g.names[u], "dst": g.names[v], "messages": metrics.arc_messages[(u, v)],
         "symbols": metrics.arc_symbols[(u, v)]}
        for u, v in by_name
    ]


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
        failures=FailureModel(node_dropout_p=0.5, seed=10),  # drops s1, then s0
        assignment=FunctionAssignment({"s0": AppendCount(), "a0": Max()}),
    )
    with mock.patch.object(afc, "BLOCK_ELEMENTS", generations_per_block * 4):
        with pytest.raises(DomainMismatch, match="node 'a0' emits packets of unequal widths"):
            run_scenario(scenario)


@pytest.mark.parametrize("generations_per_block", [1, 2])
def test_decoder_width_mismatch_fails_under_any_block_split(generations_per_block):
    """d0 decodes s0's 2-symbol and s1's 1-symbol packets, which arrive in
    different generations (seed 4 drops s1, then s0), so one block holds
    both and a split into single generations never decodes them together."""
    from unittest import mock

    from nfcsim import afc
    from nfcsim.afc import AppendCount, FunctionAssignment, average_decoder
    from nfcsim.errors import DomainMismatch

    roles = {"s0": NodeRole.SOURCE, "s1": NodeRole.SOURCE, "d0": NodeRole.DESTINATION}
    scenario = Scenario(
        topology=TopologyConfig(roles=roles, children={"d0": ["s0", "s1"]}),
        application="custom",
        generations=2,
        failures=FailureModel(node_dropout_p=0.5, seed=4),
        assignment=FunctionAssignment({"s0": AppendCount()}, {"d0": average_decoder}),
    )
    with mock.patch.object(afc, "BLOCK_ELEMENTS", generations_per_block * 3):
        with pytest.raises(DomainMismatch, match="destination 'd0' decodes packets of unequal widths"):
            run_scenario(scenario)


def test_a_decoder_that_returns_an_empty_row_is_named():
    """average_decoder over width-1 Sum packets, which carry no count
    symbol, divides an empty column set."""
    from nfcsim.afc import FunctionAssignment, Sum, average_decoder
    from nfcsim.errors import DomainMismatch

    scenario = Scenario(
        topology=star_topology(3),
        application="custom",
        generations=2,
        assignment=FunctionAssignment({"a0": Sum()}, {"d0": average_decoder}),
    )
    with pytest.raises(DomainMismatch, match="decoder 'average_decoder' of destination 'd0' returned an empty row"):
        run_scenario(scenario)
