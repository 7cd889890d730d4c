"""Command surface: exit codes, diagnostics, outputs, reproducibility."""

import os
import subprocess
import sys
import time
from pathlib import Path
from unittest import mock

import pytest
import yaml
from click.testing import CliRunner

import nfcsim
from nfcsim import cli, graph
from nfcsim.cli import main
from nfcsim.scenario import load_scenario_file
from nfcsim.solvability import linear_identity_check

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
DATA = Path(__file__).resolve().parent / "data"


@pytest.fixture
def runner():
    return CliRunner()


def write(tmp_path: Path, name: str, text: str) -> Path:
    path = tmp_path / name
    path.write_text(text)
    return path


VALID_RLNC = """\
schema_version: 1
seed: 5
application: rlnc
topology:
  generator: star
  sources: 2
field:
  m: 1
packet_length: 2
n_prime: 2
trials: 4000
"""

CYCLE_SCENARIO = """\
schema_version: 1
application: forwarding
generations: 1
topology:
  mode: dag
  nodes:
    s0: source
    a0: atomic
    a1: atomic
    d0: destination
  children:
    a0: [s0, a1]
    a1: [a0]
    d0: [a0]
"""


def test_validate_ok(runner, tmp_path):
    path = write(tmp_path, "ok.yaml", VALID_RLNC)
    result = runner.invoke(main, ["validate", str(path)])
    assert result.exit_code == 0
    assert "valid" in result.output


def test_validate_cycle_exit_2_with_diagnostic(runner, tmp_path):
    path = write(tmp_path, "cycle.yaml", CYCLE_SCENARIO)
    result = runner.invoke(main, ["validate", str(path)])
    assert result.exit_code == 2
    assert "CycleDetected" in result.output
    assert "topology" in result.output


def test_validate_missing_file_exit_3(runner, tmp_path):
    result = runner.invoke(main, ["validate", str(tmp_path / "nope.yaml")])
    assert result.exit_code == 3


def test_validate_unknown_key_line_addressed(runner, tmp_path):
    text = VALID_RLNC + "unknown_knob: 3\n"
    path = write(tmp_path, "unknown.yaml", text)
    result = runner.invoke(main, ["validate", str(path)])
    assert result.exit_code == 2
    line_no = text.splitlines().index("unknown_knob: 3") + 1
    assert f"line {line_no}" in result.output
    assert "unknown_knob" in result.output


def test_validate_bad_yaml_exit_2(runner, tmp_path):
    path = write(tmp_path, "broken.yaml", "application: [unclosed\n")
    result = runner.invoke(main, ["validate", str(path)])
    assert result.exit_code == 2


@pytest.mark.parametrize("value", ["3", "[s0, d0]", "ab"], ids=["int", "list", "str"])
def test_validate_topology_not_a_mapping_exit_2(runner, tmp_path, value):
    path = write(tmp_path, "bad.yaml", f"schema_version: 1\napplication: forwarding\ntopology: {value}\n")
    result = runner.invoke(main, ["validate", str(path)])
    assert result.exit_code == 2, result.output
    assert "line 3: topology: must be a mapping" in result.output
    assert "required section missing" not in result.output


def test_run_rlnc_summary_and_outputs(runner, tmp_path):
    path = write(tmp_path, "rlnc.yaml", VALID_RLNC)
    out = tmp_path / "out"
    result = runner.invoke(main, ["run", str(path), "--out", str(out)])
    assert result.exit_code == 0
    assert "probability=" in result.output
    probability = float(result.output.split("probability=")[1].split()[0])
    assert abs(probability - 0.375) < 0.05
    assert (out / "stats.csv").exists()
    assert (out / "arcs.csv").exists()
    assert (out / "manifest.yaml").exists()
    stats = (out / "stats.csv").read_text().splitlines()
    assert stats[0] == "field_order,N,N_prime,trials,successes,probability,seed"


def test_run_twice_identical_bytes(runner, tmp_path):
    path = write(tmp_path, "rlnc.yaml", VALID_RLNC)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert runner.invoke(main, ["run", str(path), "--out", str(out1), "--quiet"]).exit_code == 0
    assert runner.invoke(main, ["run", str(path), "--out", str(out2), "--quiet"]).exit_code == 0
    for name in ("stats.csv", "arcs.csv", "manifest.yaml"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_run_seed_override_recorded_in_manifest(runner, tmp_path):
    path = write(tmp_path, "rlnc.yaml", VALID_RLNC)
    out = tmp_path / "seeded"
    result = runner.invoke(
        main, ["run", str(path), "--seed", "123", "--out", str(out), "--quiet"]
    )
    assert result.exit_code == 0
    assert "seed: 123" in (out / "manifest.yaml").read_text()


@pytest.mark.parametrize("command", ["run", "compare"])
def test_seed_override_on_an_rlnc_manifest(runner, tmp_path, command):
    # The manifest echoes failures.seed equal to its seed; --seed moves both.
    first = tmp_path / "first"
    path = write(tmp_path, "rlnc.yaml", VALID_RLNC)
    assert runner.invoke(main, ["run", str(path), "--out", str(first), "--quiet"]).exit_code == 0
    second = ["--out", str(tmp_path / "second")]  # not the manifest's output directory
    result = runner.invoke(main, [command, str(first / "manifest.yaml"), "--seed", "123", *second, "--quiet"])
    assert result.exit_code == 0, result.output
    loaded = load_scenario_file(first / "manifest.yaml", seed_override=123)
    assert (loaded.scenario.seed, loaded.scenario.failures.seed) == (123, 123)


def test_seed_override_replays_a_manifest_as_its_scenario():
    # A dropout run draws its failure stream from failures.seed, which follows --seed.
    scenario = DATA / "forwarding_dropout_tree8" / "scenario.yaml"
    manifest = DATA / "forwarding_dropout_tree8" / "manifest.yaml"
    assert (load_scenario_file(manifest, seed_override=9).scenario
            == load_scenario_file(scenario, seed_override=9).scenario)


def test_run_negative_seed_override_exit_2(runner, tmp_path):
    path = write(tmp_path, "rlnc.yaml", VALID_RLNC)
    out = tmp_path / "seeded"
    result = runner.invoke(main, ["run", str(path), "--seed", "-1", "--out", str(out)])
    assert result.exit_code == 2, result.output
    assert "--seed: seed must be >= 0" in result.output
    assert "line 2:" not in result.output
    assert "Traceback" not in result.output
    assert not out.exists()


@pytest.mark.parametrize("name, trials, message", [
    ("consensus_tree.yaml", "3", "--trials: consensus does not read trials; it must keep its default"),
    ("rlnc_star.yaml", "0", "--trials: rlnc requires trials >= 1"),
    ("rlnc_star.yaml", "-3", "--trials: rlnc requires trials >= 1"),
])
def test_trials_override_diagnostic_names_the_flag(runner, tmp_path, name, trials, message):
    result = runner.invoke(main, ["run", str(SCENARIOS / name), "--trials", trials, "--out", str(tmp_path)])
    assert result.exit_code == 2, result.output
    assert result.output.splitlines() == [message]


def test_run_trials_override(runner, tmp_path):
    path = write(tmp_path, "rlnc.yaml", VALID_RLNC)
    out = tmp_path / "trials"
    result = runner.invoke(
        main, ["run", str(path), "--trials", "500", "--out", str(out), "--quiet"]
    )
    assert result.exit_code == 0
    assert ",500," in (out / "stats.csv").read_text().splitlines()[1]


def test_manifest_replay_byte_identical(runner, tmp_path):
    path = write(tmp_path, "rlnc.yaml", VALID_RLNC)
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert runner.invoke(main, ["run", str(path), "--out", str(out1), "--quiet"]).exit_code == 0
    manifest = out1 / "manifest.yaml"
    assert runner.invoke(main, ["run", str(manifest), "--out", str(out2), "--quiet"]).exit_code == 0
    for name in ("stats.csv", "arcs.csv", "manifest.yaml"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_run_consensus_final_estimate(runner, tmp_path):
    text = """\
schema_version: 1
seed: 11
application: consensus
topology:
  generator: star
  sources: 10
generations: 500
data:
  mean: 5.0
  std: 1.0
"""
    path = write(tmp_path, "consensus.yaml", text)
    out = tmp_path / "cons"
    result = runner.invoke(main, ["run", str(path), "--out", str(out)])
    assert result.exit_code == 0
    final = float(result.output.split("final_estimate=")[1].split()[0])
    assert abs(final - 5.0) < 0.1
    trajectory = (out / "trajectory.csv").read_text().splitlines()
    assert trajectory[0] == "generation,value,dropped_nodes,lost_messages"
    assert len(trajectory) == 501


CONSENSUS_ON_NINE = """\
schema_version: 1
seed: 4
application: consensus
topology: {generator: balanced_tree, sources: 9, branching: 3}
"""


@pytest.mark.parametrize("extra, trajectory", [
    ("generations: 0\n", ""),
    ("generations: 3\npacket_length: 3\nfailures: {node_dropout_p: 1.0}\n",
     "0,0.0,12,0\n1,0.0,12,0\n2,0.0,12,0\n"),
], ids=["no_generations", "nothing_arrives"])
def test_consensus_estimate_starts_at_zero(runner, tmp_path, extra, trajectory):
    """Before any mean arrives the estimate prints as 0.0, in the headline
    and in every trajectory row."""
    path = write(tmp_path, "consensus.yaml", CONSENSUS_ON_NINE + extra)
    result = runner.invoke(main, ["run", str(path), "--out", str(tmp_path / "out")])
    assert result.exit_code == 0
    generations = 3 if trajectory else 0
    assert result.output.splitlines()[0] == (
        f"application=consensus generations={generations} total_symbols=0 total_messages=0"
        " final_estimate=0.0")
    header = "generation,value,dropped_nodes,lost_messages\n"
    assert (tmp_path / "out" / "trajectory.csv").read_text() == header + trajectory


def test_capacity_identity_star(runner, tmp_path):
    result = runner.invoke(main, ["capacity", str(SCENARIOS / "capacity_star.yaml")])
    assert result.exit_code == 5  # the (2, 2) point is capped
    assert "not solvable (min cut 1 < N=2)" in result.output
    assert "K=1 L=2: yes" in result.output
    assert "unknown-capped" in result.output
    # never above the min-cut bound cut/N for identity
    best = float(result.output.split("best achieved ratio K/L = ")[1].split()[0])
    identity = linear_identity_check(load_scenario_file(SCENARIOS / "capacity_star.yaml").graph)
    assert best == 0.5 <= identity.cut / identity.n_sources


XOR_STAR = """\
schema_version: 1
topology: {generator: star, sources: 2}
capacity: {target: xor, function_class: linear, k_values: [2, 1], l_values: [2, 1]}
"""


def test_capacity_best_point_prefers_the_smaller_k_on_a_tie(runner, tmp_path):
    result = runner.invoke(main, ["capacity", str(write(tmp_path, "xor.yaml", XOR_STAR))])
    assert result.exit_code == 0, result.output
    lines = result.output.splitlines()
    assert "target=xor K=2 L=2: yes (witness found and verified on all 16 inputs)" in lines
    assert "target=xor K=1 L=1: yes (witness found and verified on all 4 inputs)" in lines
    assert lines[-1] == "best achieved ratio K/L = 1.0 at K=1, L=1 (lower bound)"


def test_capacity_max_target_on_the_shipped_star(runner, tmp_path):
    text = (SCENARIOS / "capacity_star.yaml").read_text().replace("target: identity", "target: max")
    text = text.replace("k_values: [1, 2]", "k_values: [1]").replace("l_values: [1, 2]", "l_values: [1]")
    result = runner.invoke(main, ["capacity", str(write(tmp_path, "max.yaml", text))])
    assert result.exit_code == 0, result.output
    assert "target=max K=1 L=1: yes (witness found and verified on all 4 inputs)" in result.output.splitlines()


def test_capacity_sweep_without_a_solvable_point(runner, tmp_path):
    path = write(tmp_path, "identity.yaml", CAPACITY_STAR)
    result = runner.invoke(main, ["capacity", str(path)])
    assert result.exit_code == 0, result.output
    assert result.output.splitlines()[-2:] == [
        "target=identity K=1 L=1: no (exhausted all assignments without a witness)",
        "no solvable point in the sweep",
    ]


def test_capacity_xor_star_solvable(runner, tmp_path):
    out = tmp_path / "cap"
    result = runner.invoke(
        main, ["capacity", str(SCENARIOS / "capacity_xor.yaml"), "--out", str(out)]
    )
    assert result.exit_code == 0
    assert "K=1 L=1: yes" in result.output
    assert (out / "capacity.csv").exists()
    report = (out / "capacity_report.txt").read_text()
    assert "encoding" in report and "decoding" in report


def test_capacity_requires_capacity_section(runner, tmp_path):
    path = write(tmp_path, "noncap.yaml", VALID_RLNC)
    result = runner.invoke(main, ["capacity", str(path)])
    assert result.exit_code == 2


def test_compare_reports_ratio(runner, tmp_path):
    text = """\
schema_version: 1
seed: 2
application: consensus
topology:
  generator: balanced_tree
  sources: 64
generations: 2
packet_length: 64
"""
    path = write(tmp_path, "avg.yaml", text)
    out = tmp_path / "cmp"
    result = runner.invoke(main, ["compare", str(path), "--out", str(out)])
    assert result.exit_code == 0
    ratio = float(result.output.split("ratio: ")[1].split()[0])
    assert abs(ratio - (64 * 6 * 64) / (126 * 65)) < 1e-12
    lines = (out / "compare.csv").read_text().splitlines()
    assert lines[0] == "src,dst,nfc_symbols,forwarding_symbols"
    assert len(lines) == 127  # 126 arcs


def test_compare_compiles_the_topology_once(runner, tmp_path):
    loads, results, run_scenario = [], [], cli.run_scenario

    def load(*args, **kwargs):
        loads.append(load_scenario_file(*args, **kwargs))
        return loads[-1]

    def run(scenario):
        results.append(run_scenario(scenario))
        return results[-1]

    with mock.patch.object(graph, "validate_config", wraps=graph.validate_config) as validated, \
            mock.patch.object(cli, "load_scenario_file", load), mock.patch.object(cli, "run_scenario", run):
        result = runner.invoke(main, ["compare", str(SCENARIOS / "consensus_tree.yaml"),
                                      "--out", str(tmp_path)])
    assert result.exit_code == 0, result.output
    assert [r.scenario.application for r in results] == ["consensus", "forwarding"]
    assert all(r.graph is loads[0].graph for r in results)
    assert validated.call_count == 1


def test_compare_notes_failure_free_baseline(runner, tmp_path):
    text = """\
schema_version: 1
seed: 2
application: consensus
topology:
  generator: balanced_tree
  sources: 16
generations: 3
packet_length: 4
failures:
  node_dropout_p: 0.25
  seed: 9
"""
    path = write(tmp_path, "dropout.yaml", text)
    out = tmp_path / "cmp"
    result = runner.invoke(main, ["compare", str(path), "--out", str(out), "--quiet"])
    assert result.exit_code == 0
    notes = [line for line in result.output.splitlines() if "failure-free" in line]
    assert notes == [
        "note: the forwarding baseline runs failure-free; "
        "node_dropout_p=0.25 applies to consensus only"
    ]
    csv = (out / "compare.csv").read_text()
    assert csv.startswith("src,dst,nfc_symbols,forwarding_symbols\n")
    assert "failure-free" not in csv
    no_dropout = write(tmp_path, "plain.yaml", text.replace("0.25", "0.0"))
    plain = runner.invoke(main, ["compare", str(no_dropout)])
    assert plain.exit_code == 0
    assert "failure-free" not in plain.output


def test_consensus_and_custom_reject_message_loss(runner, tmp_path):
    for application in ("consensus", "custom"):
        text = f"""\
schema_version: 1
application: {application}
topology:
  generator: star
  sources: 3
generations: 2
failures:
  message_loss_p: 0.5
"""
        path = write(tmp_path, f"{application}_loss.yaml", text)
        result = runner.invoke(main, ["validate", str(path)])
        assert result.exit_code == 2
        message = f"{application} does not read failures.message_loss_p; it must keep its default"
        assert f"line 8: failures.message_loss_p: {message}" in result.output


def test_compare_rejects_forwarding(runner, tmp_path):
    out = tmp_path / "out"
    result = runner.invoke(main, ["compare", str(SCENARIOS / "forwarding_tree.yaml"), "--out", str(out)])
    assert result.exit_code == 2
    assert (result.stdout, result.stderr) == ("", "compare needs an in-network application, not forwarding\n")
    assert not out.exists()


TWO_ROOT_DAG = """\
topology:
  mode: dag
  nodes:
    s0: source
    s1: source
    d0: destination
    d1: destination
  children:
    d0: [s0, s1]
    d1: [s0]
"""

ONE_ROOT_DAG = """\
topology:
  mode: dag
  nodes: {s0: source, s1: source, a0: atomic, d0: destination}
  children: {a0: [s0, s1], d0: [a0, s0]}
"""


@pytest.mark.parametrize(
    "text, messages",
    [
        ("schema_version: 1\napplication: consensus\ngenerations: 2\n" + ONE_ROOT_DAG,
         ["consensus does not run on mode 'dag'"]),
        # Coded recovery needs a tree with a single root.
        ("schema_version: 1\napplication: rlnc\nfield: {m: 1}\nn_prime: 2\ntrials: 10\n" + TWO_ROOT_DAG,
         ["rlnc does not run on mode 'dag'", "the topology must have exactly one destination, not 2"]),
        ("schema_version: 1\napplication: neural\nneural: {samples: 4, epochs: 1}\n" + ONE_ROOT_DAG,
         ["neural does not run on mode 'dag'"]),
        ("schema_version: 1\napplication: forwarding\ngenerations: 2\n" + TWO_ROOT_DAG,
         ["the topology must have exactly one destination, not 2"]),
    ],
    ids=["dag_consensus", "dag_rlnc", "dag_neural", "two_destination_forwarding"],
)
def test_run_rejects_topologies_the_application_does_not_run_on(runner, tmp_path, text, messages):
    path = write(tmp_path, "topology.yaml", text)
    out = tmp_path / "out"
    for args in (["validate", str(path)], ["run", str(path), "--out", str(out)]):
        result = runner.invoke(main, args)
        assert result.exit_code == 2, result.output
        assert all(message in result.output for message in messages), result.output
    assert not out.exists()


def test_capacity_runtime_failure_exit_4(runner, tmp_path):
    # schema-valid, but identity delivery is checked toward a single destination
    path = write(tmp_path, "two_roots.yaml", "schema_version: 1\ncapacity: {target: identity}\n" + TWO_ROOT_DAG)
    result = runner.invoke(main, ["capacity", str(path)])
    assert result.exit_code == 4, result.output
    assert result.output.startswith("runtime failure: ")
    assert "the linear identity check needs exactly one destination, not 2" in result.output
    assert "Traceback" not in result.output


def test_custom_application_needs_library_use(runner, tmp_path):
    text = VALID_RLNC.replace("application: rlnc", "application: custom")
    path = write(tmp_path, "custom.yaml", text)
    result = runner.invoke(main, ["validate", str(path)])
    assert result.exit_code == 2
    assert "FunctionAssignment" in result.output
    assert ("line 3: application: custom runs a FunctionAssignment, which a file cannot hold;"
            " must be one of forwarding, rlnc, consensus, neural") in result.output.splitlines()


def test_unknown_application_in_a_file_lists_what_a_file_runs(runner, tmp_path):
    path = write(tmp_path, "warp.yaml", VALID_RLNC.replace("application: rlnc", "application: warp"))
    result = runner.invoke(main, ["validate", str(path)])
    assert result.exit_code == 2
    assert result.output.splitlines() == [
        "line 3: application: unknown application 'warp'; must be one of forwarding, rlnc, consensus, neural"
    ]


def test_run_uses_output_key_as_default_dir(runner, tmp_path):
    text = VALID_RLNC + "output: outdir_from_file\n"
    path = write(tmp_path, "withoutput.yaml", text)
    with runner.isolated_filesystem(temp_dir=tmp_path):
        result = runner.invoke(main, ["run", str(path), "--quiet"])
        assert result.exit_code == 0
        assert Path("outdir_from_file/stats.csv").exists()


def test_sample_scenarios_validate(runner):
    for name in (
        "rlnc_star.yaml",
        "consensus_tree.yaml",
        "neural_tree.yaml",
        "forwarding_tree.yaml",
        "average_binary_tree.yaml",
        "capacity_star.yaml",
        "capacity_xor.yaml",
    ):
        result = runner.invoke(main, ["validate", str(SCENARIOS / name)])
        assert result.exit_code == 0, f"{name}: {result.output}"


CAPACITY_STAR = """\
schema_version: 1
topology:
  generator: star
  sources: 2
capacity:
  target: identity
  k_values: [1]
  l_values: [1]
"""


@pytest.mark.parametrize(
    "text, line, path",
    [
        (VALID_RLNC + "failures:\n  node_dropout_p: 1.5\n", 13, "failures.node_dropout_p"),
        (VALID_RLNC + "failures:\n  message_loss_p: -0.1\n", 13, "failures.message_loss_p"),
        (CAPACITY_STAR.replace("k_values: [1]", "k_values: [1, a]"), 7, "capacity.k_values"),
        (CAPACITY_STAR.replace("l_values: [1]", "l_values: [x]"), 8, "capacity.l_values"),
        (CAPACITY_STAR.replace("k_values: [1]", "k_values: [0]"), 7, "capacity.k_values"),
        (CAPACITY_STAR.replace("l_values: [1]", "l_values: [2, 0]"), 8, "capacity.l_values"),
        (CAPACITY_STAR.replace("k_values: [1]", "k_values: []"), 7, "capacity.k_values"),
        (CAPACITY_STAR.replace("l_values: [1]", "l_values: []"), 8, "capacity.l_values"),
        (VALID_RLNC.replace("application: rlnc", "application: neural") + "eta:\n  kind: bogus\n",
         13, "eta.kind"),
        (VALID_RLNC.replace("seed: 5", "seed: -3"), 2, "seed"),
        (VALID_RLNC + "failures:\n  seed: -5\n", 13, "failures.seed"),
        (CAPACITY_STAR + "  alphabet: 0\n", 9, "capacity.alphabet"),
        (CAPACITY_STAR + "  alphabet: 1\n", 9, "capacity.alphabet"),
        (CAPACITY_STAR + "  alphabet: 3\n  function_class: linear\n", 9, "capacity.alphabet"),
        (VALID_RLNC.replace("trials: 4000", "trials: -3"), 11, "trials"),
        (CAPACITY_STAR + "  cap: 0\n", 9, "capacity.cap"),
        (CAPACITY_STAR + "  cap: -5\n", 9, "capacity.cap"),
    ],
    ids=[
        "dropout_above_1", "loss_below_0", "k_not_int", "l_not_int", "k_zero", "l_zero",
        "k_empty", "l_empty", "eta_kind_unknown", "seed_negative", "failures_seed_negative",
        "alphabet_zero", "alphabet_one", "linear_alphabet_3", "trials_negative", "cap_zero",
        "cap_negative",
    ],
)
def test_validate_out_of_range_values_exit_2_line_addressed(runner, tmp_path, text, line, path):
    scenario = write(tmp_path, "bad.yaml", text)
    result = runner.invoke(main, ["validate", str(scenario)])
    assert result.exit_code == 2, result.output
    assert f"line {line}: {path}:" in result.output
    assert "Traceback" not in result.output


FORWARDING_HEADER = "schema_version: 1\napplication: forwarding\ngenerations: 1\ntopology:\n"


@pytest.mark.parametrize(
    "topology, line, path, message",
    [
        ("  generator: chain\n  relays: -3\n", 6, "topology.relays", "must be a non-negative integer"),
        ("  generator: star\n  sources: 2\n  branching: 3\n", 7, "topology.branching",
         "not read by generator 'star'"),
        ("  generator: balanced_tree\n  sources: 4\n  relays: 2\n", 7, "topology.relays",
         "not read by generator 'balanced_tree'"),
        ("  generator: chain\n  sources: 3\n", 6, "topology.sources", "not read by generator 'chain'"),
        ("  generator: star\n  sources: 2\n  mode: dag\n", 7, "topology.mode",
         "generator 'star' builds a tree; mode must be 'tree'"),
        ("  generator: chain\n  nodes: {s0: source}\n", 6, "topology.nodes",
         "not read by generator 'chain'"),
        ("  generator: balanced_tree\n  sources: 4\n  branching: 1\n", 7, "topology.branching",
         "must be >= 2"),
    ],
    ids=["negative_relays", "branching_on_star", "relays_on_balanced_tree", "sources_on_chain",
         "dag_mode_on_star", "nodes_on_chain", "branching_below_2"],
)
def test_topology_keys_a_generator_does_not_read_exit_2(runner, tmp_path, topology, line, path, message):
    scenario = write(tmp_path, "topology.yaml", FORWARDING_HEADER + topology)
    result = runner.invoke(main, ["validate", str(scenario)])
    assert result.exit_code == 2, result.output
    assert f"line {line}: {path}: {message}" in result.output


def test_generated_topology_accepts_explicit_tree_mode(runner, tmp_path):
    text = FORWARDING_HEADER + "  generator: star\n  sources: 2\n  mode: tree\n"
    scenario = write(tmp_path, "topology.yaml", text)
    result = runner.invoke(main, ["validate", str(scenario)])
    assert result.exit_code == 0, result.output


NEURAL_TWO_SOURCES = """\
schema_version: 1
application: neural
topology:
  generator: star
  sources: 2
neural:
  samples: 4
  epochs: 1
  margin: 5.0
"""


def test_run_rejects_unreachable_neural_margin(runner, tmp_path):
    scenario = write(tmp_path, "margin.yaml", NEURAL_TWO_SOURCES)
    result = runner.invoke(main, ["run", str(scenario), "--out", str(tmp_path / "out")])
    assert result.exit_code == 2
    assert "line 9: neural.margin: neural.margin must be below the source count 2" in result.output


def test_run_rejects_margin_too_rare_to_sample(runner, tmp_path):
    text = NEURAL_TWO_SOURCES.replace("sources: 2", "sources: 8").replace("5.0", "7.0")
    scenario = write(tmp_path, "margin.yaml", text)
    started = time.perf_counter()
    result = runner.invoke(main, ["run", str(scenario), "--out", str(tmp_path / "out")])
    assert time.perf_counter() - started < 1.0
    assert result.exit_code == 2, result.output
    assert "line 9: neural.margin: neural.margin 7.0 is cleared by a fraction 1.9e-07 of samples" in result.output


def test_run_rejects_negative_data_std(runner, tmp_path):
    text = VALID_RLNC.replace("application: rlnc", "application: consensus").replace(
        "field:\n  m: 1\n", ""
    ) + "generations: 2\ndata:\n  std: -1.0\n"
    scenario = write(tmp_path, "std.yaml", text)
    result = runner.invoke(main, ["run", str(scenario), "--out", str(tmp_path / "out")])
    assert result.exit_code == 2
    assert "line 12: data.std: data.std must be >= 0" in result.output


CONSENSUS_STAR = """\
schema_version: 1
application: consensus
topology:
  generator: star
  sources: 2
generations: 2
"""

NEURAL_STAR = NEURAL_TWO_SOURCES.replace("5.0", "0.5")


@pytest.mark.parametrize(
    "text, line, path, message",
    [
        (CONSENSUS_STAR + "eta:\n  kind: constant\n  value: 0.9\n", 7, "eta",
         "consensus does not read eta; it must keep its default"),
        (VALID_RLNC + "eta:\n  kind: harmonic\n", 12, "eta", "rlnc does not read eta; it must keep its default"),
        (CONSENSUS_STAR + "neural:\n  epochs: 3\n", 7, "neural",
         "consensus does not read neural; it must keep its default"),
        (VALID_RLNC + "generations: 5\n", 12, "generations",
         "rlnc does not read generations; it must keep its default"),
        (NEURAL_STAR + "generations: 5\n", 10, "generations",
         "neural does not read generations; it must keep its default"),
        (CONSENSUS_STAR + "n_prime: 3\n", 7, "n_prime", "consensus does not read n_prime; it must keep its default"),
        (CONSENSUS_STAR + "trials: 7\n", 7, "trials", "consensus does not read trials; it must keep its default"),
        (VALID_RLNC + "data:\n  mean: 9.0\n", 12, "data", "rlnc does not read data; it must keep its default"),
        (NEURAL_STAR + "data:\n  std: 2.0\n", 10, "data", "neural does not read data; it must keep its default"),
        (NEURAL_STAR + "eta:\n  kind: harmonic\n  value: 0.9\n", 12, "eta.value",
         "eta.value is not read under kind harmonic; it must keep its default"),
        (CONSENSUS_STAR.replace("consensus", "forwarding") + "field:\n  m: 4\n", 7, "field",
         "forwarding does not read field; it must keep its default"),
    ],
    ids=["eta_on_consensus", "eta_on_rlnc", "neural_on_consensus", "generations_on_rlnc",
         "generations_on_neural", "n_prime_on_consensus", "trials_on_consensus", "data_on_rlnc",
         "data_on_neural", "eta_value_under_harmonic", "field_on_forwarding"],
)
def test_run_rejects_values_the_application_does_not_read(runner, tmp_path, text, line, path, message):
    scenario = write(tmp_path, "inert.yaml", text)
    out = tmp_path / "out"
    result = runner.invoke(main, ["run", str(scenario), "--out", str(out)])
    assert result.exit_code == 2, result.output
    assert f"line {line}: {path}: {message}" in result.output
    assert not out.exists()


@pytest.mark.parametrize(
    "key, text",
    [
        ("generations", "generations: 50\n"),
        ("packet_length", "packet_length: 7\n"),
        ("n_prime", "n_prime: 4\n"),
        ("trials", "trials: 3\n"),
        ("field", "field:\n  m: 2\n"),
        ("failures", "failures:\n  node_dropout_p: 0.1\n"),
        ("data", "data:\n  mean: 2.0\n"),
        ("eta", "eta:\n  value: 0.3\n"),
        ("neural", "neural:\n  epochs: 3\n"),
    ],
    ids=["generations", "packet_length", "n_prime", "trials", "field", "failures", "data", "eta", "neural"],
)
def test_capacity_rejects_run_keys_it_does_not_read(runner, tmp_path, key, text):
    scenario = write(tmp_path, "capacity.yaml", CAPACITY_STAR + text)
    out = tmp_path / "out"
    result = runner.invoke(main, ["capacity", str(scenario), "--out", str(out)])
    assert result.exit_code == 2, result.output
    assert f"line 9: {key}: capacity does not read {key}; it must keep its default" in result.output
    assert not out.exists()


def test_capacity_accepts_run_keys_at_their_defaults(runner, tmp_path):
    text = CAPACITY_STAR + (
        "seed: 11\noutput: elsewhere\ngenerations: 0\npacket_length: 1\n"
        "failures:\n  node_dropout_p: 0.0\n  seed: 11\ndata:\n  mean: 0.0\n"
        "eta:\n  kind: constant\nneural: {}\n"
    )
    result = runner.invoke(main, ["validate", str(write(tmp_path, "capacity.yaml", text))])
    assert result.exit_code == 0, result.output


@pytest.mark.parametrize("seed, refused", [(99, True), (0, False), (5, False)])
def test_rlnc_rejects_a_failures_seed_it_does_not_read(runner, tmp_path, seed, refused):
    scenario = write(tmp_path, "rlnc.yaml", VALID_RLNC + f"failures:\n  seed: {seed}\n")
    result = runner.invoke(main, ["validate", str(scenario)])
    message = "line 13: failures.seed: rlnc does not read failures.seed; it must keep its default"
    assert result.exit_code == (2 if refused else 0), result.output
    assert (message in result.output) == refused


EXPLICIT_STAR = """\
schema_version: 1
application: consensus
generations: 1
topology:
  nodes:
    {name}: source
    d0: destination
  children:
    d0: [{name}]
"""


@pytest.mark.parametrize(
    "name",
    ["''", '"s\\r0"', "s" * 65, "capteur_é"],
    ids=["empty", "carriage_return", "65_characters", "non_ascii"],
)
def test_node_names_outside_short_printable_ascii_exit_2(runner, tmp_path, name):
    scenario = write(tmp_path, "names.yaml", EXPLICIT_STAR.format(name=name))
    result = runner.invoke(main, ["validate", str(scenario)])
    assert result.exit_code == 2, result.output
    assert "line 6: topology.nodes." in result.output
    assert "must be 1 to 64 printable ASCII characters" in result.output


@pytest.mark.parametrize(
    "name, read_as",
    [("yes", "True"), ("0x10", "16"), ("1.50", "1.5"), ("null", "None")],
    ids=["bool", "hex_int", "float", "null"],
)
def test_node_names_yaml_reads_as_non_strings_exit_2(runner, tmp_path, name, read_as):
    scenario = write(tmp_path, "names.yaml", EXPLICIT_STAR.format(name=name))
    result = runner.invoke(main, ["validate", str(scenario)])
    assert result.exit_code == 2, result.output
    assert (
        f"line 6: topology.nodes.{read_as}: "
        f"YAML reads this node name as {read_as}, not a string; quote the name"
    ) in result.output


def test_unquoted_child_names_exit_2(runner, tmp_path):
    entry = EXPLICIT_STAR.format(name="'yes'").replace("['yes']", "[yes]")
    result = runner.invoke(main, ["validate", str(write(tmp_path, "entry.yaml", entry))])
    assert result.exit_code == 2, result.output
    assert "line 9: topology.children.d0.0: YAML reads this node name as True" in result.output
    parent = (
        "schema_version: 1\napplication: consensus\ngenerations: 1\ntopology:\n"
        "  nodes:\n    s0: source\n    '0x10': atomic\n    d0: destination\n"
        "  children:\n    0x10: [s0]\n    d0: ['0x10']\n"
    )
    result = runner.invoke(main, ["validate", str(write(tmp_path, "parent.yaml", parent))])
    assert result.exit_code == 2, result.output
    assert "line 10: topology.children.16: YAML reads this node name as 16" in result.output


@pytest.mark.parametrize("name", ["yes", "0x10", "1.50", "null"])
def test_quoted_yaml_special_node_names_are_accepted(runner, tmp_path, name):
    scenario = write(tmp_path, "names.yaml", EXPLICIT_STAR.format(name=f"'{name}'"))
    result = runner.invoke(main, ["validate", str(scenario)])
    assert result.exit_code == 0, result.output
    loaded = load_scenario_file(scenario)
    assert loaded.scenario.topology.roles[name].value == "source"


def test_longest_printable_ascii_node_name_is_accepted(runner, tmp_path):
    scenario = write(tmp_path, "names.yaml", EXPLICIT_STAR.format(name="'" + "~ #:" * 16 + "'"))
    result = runner.invoke(main, ["validate", str(scenario)])
    assert result.exit_code == 0, result.output


def test_non_ascii_output_exit_2(runner, tmp_path):
    scenario = write(tmp_path, "output.yaml", CONSENSUS_STAR + "output: résultats\n")
    result = runner.invoke(main, ["validate", str(scenario)])
    assert result.exit_code == 2, result.output
    assert "line 7: output: must be printable ASCII" in result.output


def test_explicit_defaults_are_accepted_on_every_application(runner, tmp_path):
    defaults = (
        "eta:\n  kind: constant\n  value: 0.5\n"
        "neural:\n  samples: 32\n  epochs: 10\n  margin: 0.5\n"
    )
    for text in (
        CONSENSUS_STAR + defaults,
        VALID_RLNC + "generations: 0\n" + defaults + "data:\n  mean: 0.0\n  std: 1.0\n",
        NEURAL_STAR + "eta:\n  kind: harmonic\n  value: 0.5\n" + "data:\n  mean: 0.0\n",
    ):
        scenario = write(tmp_path, "defaults.yaml", text)
        result = runner.invoke(main, ["validate", str(scenario)])
        assert result.exit_code == 0, result.output


def test_trials_flag_is_rlnc_only(runner, tmp_path):
    scenario = write(tmp_path, "consensus.yaml", CONSENSUS_STAR)
    for command in ("run", "compare"):
        result = runner.invoke(main, [command, str(scenario), "--trials", "5"])
        assert result.exit_code == 2, result.output
        assert "consensus does not read trials; it must keep its default" in result.output
    rlnc = write(tmp_path, "rlnc.yaml", VALID_RLNC)
    result = runner.invoke(main, ["run", str(rlnc), "--trials", "5", "--out", str(tmp_path / "out")])
    assert result.exit_code == 0, result.output


RLNC_STAR = CONSENSUS_STAR.replace("consensus", "rlnc").replace("generations: 2\n", "")


@pytest.mark.parametrize(
    "text, stderr",
    [
        ("schema_version: 1\napplication: forwarding\ngenerations: 1\n", "topology: required section missing"),
        (FORWARDING_HEADER + "  generator: star\n  sources: 2\n  mode: ring\n",
         "line 7: topology.mode: must be 'tree' or 'dag'"),
        (FORWARDING_HEADER + "  sources: 2\n", "line 4: topology: needs a generator or explicit nodes"),
        (FORWARDING_HEADER + "  generator: ring\n", "line 5: topology.generator: unknown generator 'ring'"),
        (FORWARDING_HEADER + "  generator: star\n  sources: 0\n",
         "line 6: topology.sources: must be a positive integer"),
        (FORWARDING_HEADER + "  generator: star\n", "line 4: topology.sources: required key missing"),
        (FORWARDING_HEADER + "  generator: balanced_tree\n", "line 4: topology.sources: required key missing"),
        (FORWARDING_HEADER + "  generator: star\n  sources: two\n",
         "line 6: topology.sources: expected int, got str"),
        (FORWARDING_HEADER + "  generator: balanced_tree\n  sources: 6\n",
         "line 6: topology.sources: 6 sources is not a power of branching 2"),
        (FORWARDING_HEADER + "  generator: explicit\n  children: {d0: [s0]}\n",
         "line 4: topology.nodes: required key missing"),
        (FORWARDING_HEADER + "  nodes: {s0: relay, d0: destination}\n  children: {d0: [s0]}\n",
         "line 5: topology.nodes.s0: unknown role 'relay'"),
        (FORWARDING_HEADER + "  nodes: {s0: source, d0: destination}\n  children: {d0: s0}\n",
         "line 6: topology.children.d0: must be a list of node names"),
        ("- schema_version: 1\n- application: forwarding\n", "<document>: document must be a mapping"),
        (CONSENSUS_STAR.replace("schema_version: 1", "schema_version: 2"),
         "line 1: schema_version: unsupported schema version 2"),
        (CONSENSUS_STAR.replace("schema_version: 1\n", ""), "schema_version: required key missing"),
        (CONSENSUS_STAR + "seed: abc\n", "line 7: seed: expected int, got str"),
        (RLNC_STAR + "field: {m: 8, polynomial: 256}\n",
         "line 6: field: reduction polynomial 0x100 is reducible over GF(2)"),
        (RLNC_STAR + "field: {m: 17}\n", "line 6: field: extension degree m=17 outside supported range 1..16"),
        (RLNC_STAR + "field: {polynomial: 3}\n", "line 6: field.m: required key missing"),
        (CAPACITY_STAR + "  function_class: affine\n", "line 9: capacity.function_class: must be 'all' or 'linear'"),
    ],
    ids=["no_topology", "mode_ring", "no_generator_or_nodes", "generator_ring", "star_sources_0",
         "star_sources_missing", "balanced_tree_sources_missing", "star_sources_str", "balanced_tree_6",
         "explicit_without_nodes", "role_relay", "children_not_a_list", "document_list", "schema_version_2",
         "schema_version_missing", "seed_str", "field_reducible", "field_m_17", "field_without_m",
         "function_class_affine"],
)
def test_parser_diagnostic_is_the_only_line(runner, tmp_path, text, stderr):
    result = runner.invoke(main, ["validate", str(write(tmp_path, "bad.yaml", text))])
    assert result.exit_code == 2
    assert (result.stdout, result.stderr) == ("", stderr + "\n")


@pytest.mark.parametrize("polynomial", [-5, -7])
def test_a_negative_reduction_polynomial_exits_2(tmp_path, polynomial):
    """-5 has the bit length of a degree-2 polynomial and once sent the
    irreducibility test into an endless loop; -7 overflowed the tables. A
    child process with a timeout fails here instead of hanging the suite."""
    path = write(tmp_path, "bad.yaml", RLNC_STAR + f"field: {{m: 2, polynomial: {polynomial}}}\n")
    src = str(Path(nfcsim.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run([sys.executable, "-m", "nfcsim.cli", "validate", str(path)],
                            capture_output=True, text=True, timeout=10, env=env)
    assert result.returncode == 2
    assert (result.stdout, result.stderr) == ("", f"line 6: field: reduction polynomial {polynomial} is negative\n")


@pytest.mark.parametrize(
    "text, stderr",
    [
        (FORWARDING_HEADER + f"  generator: balanced_tree\n  sources: {n}\n",
         f"line 6: topology.sources: a balanced tree needs at least 2 sources, got {n}")
        for n in (1, 0, -4)
    ] + [
        (CAPACITY_STAR.replace("target: identity", "target: parity"),
         "line 6: capacity.target: must be one of identity, max, xor"),
        ("schema_version: 1\ntopology: {generator: star, sources: 2}\ncapacity: {alphabet: 2}\n",
         "line 3: capacity.target: required key missing"),
        ("schema_version: 1\ntopology: {generator: star, sources: 2}\ncapacity: 3\n",
         "line 3: capacity: must be a mapping"),
        (RLNC_STAR + "field: 3\n", "line 6: field: must be a mapping"),
        ("schema_version: 1\ntopology: {generator: star, sources: 2}\napplication: 3\n",
         "line 3: application: expected str, got int"),
        ("schema_version: 1\ntopology: {generator: star, sources: 2}\n",
         "<root>: scenario declares neither an application nor a capacity request"),
    ],
    ids=["balanced_tree_1", "balanced_tree_0", "balanced_tree_negative", "capacity_target_parity",
         "capacity_without_target", "capacity_not_a_mapping", "field_not_a_mapping",
         "application_not_a_string", "neither_application_nor_capacity"],
)
def test_a_bad_section_gets_its_true_line_only(runner, tmp_path, text, stderr):
    for command in ("validate", "capacity"):
        result = runner.invoke(main, [command, str(write(tmp_path, "bad.yaml", text))])
        assert result.exit_code == 2
        assert (result.stdout, result.stderr) == ("", stderr + "\n")


def test_data_mean_given_as_an_int_echoes_as_a_float(runner, tmp_path):
    out = tmp_path / "out"
    result = runner.invoke(main, ["run", str(write(tmp_path, "mean.yaml", CONSENSUS_STAR + "data: {mean: 2}\n")),
                                  "--out", str(out), "--quiet"])
    assert result.exit_code == 0, result.output
    assert "data:\n  mean: 2.0\n  std: 1.0\n" in (out / "manifest.yaml").read_text()


def test_an_empty_failures_section_reads_as_the_defaults(tmp_path):
    empty = load_scenario_file(write(tmp_path, "empty.yaml", CONSENSUS_STAR + "failures:\n"))
    assert empty.ok, empty.diagnostics
    assert empty.scenario == load_scenario_file(write(tmp_path, "plain.yaml", CONSENSUS_STAR)).scenario
    assert empty.resolved == load_scenario_file(tmp_path / "plain.yaml").resolved


# Capacity-only files have no application to run and so no manifest.
RUNNABLE_SCENARIOS = sorted(
    path.name for path in SCENARIOS.glob("*.yaml") if "application" in yaml.safe_load(path.read_text())
)


@pytest.mark.parametrize("name", RUNNABLE_SCENARIOS)
def test_shipped_scenario_manifest_replays_byte_identical(runner, tmp_path, name):
    first, replay = tmp_path / "run", tmp_path / "replay"
    result = runner.invoke(main, ["run", str(SCENARIOS / name), "--out", str(first), "--quiet"])
    assert result.exit_code == 0, result.output
    manifest = first / "manifest.yaml"
    result = runner.invoke(main, ["run", str(manifest), "--out", str(replay), "--quiet"])
    assert result.exit_code == 0, result.output
    written = sorted(path.name for path in first.iterdir())
    assert written == sorted(path.name for path in replay.iterdir())
    for output in written:
        assert (first / output).read_bytes() == (replay / output).read_bytes(), output


@pytest.mark.parametrize(
    "text, line, path",
    [
        (NEURAL_TWO_SOURCES.replace("5.0", ".nan"), 9, "neural.margin"),
        (NEURAL_STAR + "eta:\n  value: .nan\n", 11, "eta.value"),
        (CONSENSUS_STAR + "data:\n  std: .nan\n", 8, "data.std"),
        (CONSENSUS_STAR + "data:\n  mean: .inf\n", 8, "data.mean"),
    ],
    ids=["margin_nan", "eta_nan", "std_nan", "mean_inf"],
)
def test_run_rejects_non_finite_values_exit_2_line_addressed(runner, tmp_path, text, line, path):
    scenario = write(tmp_path, "non_finite.yaml", text)
    out = tmp_path / "out"
    result = runner.invoke(main, ["run", str(scenario), "--out", str(out)])
    assert result.exit_code == 2, result.output
    assert f"line {line}: {path}: {path} must be a finite number" in result.output
    assert "Traceback" not in result.output
    assert not out.exists()


SATURATING_NEURAL = """\
schema_version: 1
application: neural
seed: 3
topology: {generator: balanced_tree, sources: 8}
eta: {kind: constant, value: 200.0}
neural: {samples: 16, epochs: 20, margin: 0.5}
"""


def test_run_saturated_prediction_exit_4(runner, tmp_path):
    scenario = write(tmp_path, "saturating.yaml", SATURATING_NEURAL)
    result = runner.invoke(main, ["run", str(scenario), "--out", str(tmp_path / "out")])
    assert result.exit_code == 4, result.output
    assert result.output.startswith("runtime failure: step 1: ")
    assert "the log-loss is infinite" in result.output
    assert "Traceback" not in result.output


@pytest.mark.parametrize(
    "command, name, code, stderr",
    [
        ("run", "capacity_star.yaml", 2, "scenario file declares no runnable application"),
        ("compare", "capacity_star.yaml", 2, "scenario file declares no runnable application"),
        ("compare", None, 4, "runtime failure: step 1: the prediction saturated to exactly 1.0,"
         " where the log-loss is infinite; a smaller eta may avoid it"),
    ],
    ids=["run_capacity_only", "compare_capacity_only", "compare_saturated"],
)
def test_a_file_the_command_cannot_run_gets_one_line(runner, tmp_path, command, name, code, stderr):
    path = SCENARIOS / name if name else write(tmp_path, "saturating.yaml", SATURATING_NEURAL)
    out = tmp_path / "out"
    result = runner.invoke(main, [command, str(path), "--out", str(out)])
    assert result.exit_code == code
    assert (result.stdout, result.stderr) == ("", stderr + "\n")
    assert not out.exists()


def test_run_unit_saturating_towards_zero_exits_0_without_a_warning(runner, tmp_path):
    # A unit's exp(-z) overflows on this seed; its limit 0.0 is exact. Warnings are errors here.
    scenario = write(tmp_path, "saturating.yaml", SATURATING_NEURAL.replace("seed: 3", "seed: 6"))
    result = runner.invoke(main, ["run", str(scenario), "--out", str(tmp_path / "out")])
    assert result.exit_code == 0, result.output
    assert "RuntimeWarning" not in result.output
