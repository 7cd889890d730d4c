"""Command surface: exit codes, diagnostics, outputs, reproducibility."""

import time
from pathlib import Path

import pytest
import yaml
from click.testing import CliRunner

from nfcsim.cli import main

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


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


def test_capacity_identity_star(runner, tmp_path):
    result = runner.invoke(main, ["capacity", str(SCENARIOS / "capacity_star.yaml")])
    assert result.exit_code == 5  # the (2, 2) point is capped
    assert "not solvable (min cut 1 < N=2)" in result.output
    assert "K=1 L=2: yes" in result.output
    assert "unknown-capped" in result.output


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
        assert f"{application} does not read failures.message_loss_p; it must keep its default" in result.output


def test_compare_rejects_forwarding(runner, tmp_path):
    text = VALID_RLNC.replace("application: rlnc", "application: forwarding").replace(
        "n_prime: 2\n", ""
    )
    path = write(tmp_path, "fwd.yaml", text)
    result = runner.invoke(main, ["compare", str(path)])
    assert result.exit_code == 2


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
    assert "Traceback" not in result.output


def test_custom_application_needs_library_use(runner, tmp_path):
    text = VALID_RLNC.replace("application: rlnc", "application: custom")
    path = write(tmp_path, "custom.yaml", text)
    result = runner.invoke(main, ["validate", str(path)])
    assert result.exit_code == 2
    assert "FunctionAssignment" in result.output


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
    ],
    ids=[
        "dropout_above_1", "loss_below_0", "k_not_int", "l_not_int", "k_zero", "l_zero",
        "k_empty", "l_empty", "eta_kind_unknown",
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
    assert "neural.margin must be below the source count 2" in result.output


def test_run_rejects_margin_too_rare_to_sample(runner, tmp_path):
    text = NEURAL_TWO_SOURCES.replace("sources: 2", "sources: 8").replace("5.0", "7.0")
    scenario = write(tmp_path, "margin.yaml", text)
    started = time.perf_counter()
    result = runner.invoke(main, ["run", str(scenario), "--out", str(tmp_path / "out")])
    assert time.perf_counter() - started < 1.0
    assert result.exit_code == 2, result.output
    assert "neural.margin 7.0 is cleared by a fraction 1.9e-07 of samples" in result.output


def test_run_rejects_negative_data_std(runner, tmp_path):
    text = VALID_RLNC.replace("application: rlnc", "application: consensus").replace(
        "field:\n  m: 1\n", ""
    ) + "generations: 2\ndata:\n  std: -1.0\n"
    scenario = write(tmp_path, "std.yaml", text)
    result = runner.invoke(main, ["run", str(scenario), "--out", str(tmp_path / "out")])
    assert result.exit_code == 2
    assert "data.std must be >= 0" in result.output


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
    "text, message",
    [
        (CONSENSUS_STAR + "eta:\n  kind: constant\n  value: 0.9\n",
         "consensus does not read eta; it must keep its default"),
        (VALID_RLNC + "eta:\n  kind: harmonic\n", "rlnc does not read eta; it must keep its default"),
        (CONSENSUS_STAR + "neural:\n  epochs: 3\n",
         "consensus does not read neural; it must keep its default"),
        (VALID_RLNC + "generations: 5\n", "rlnc does not read generations; it must keep its default"),
        (NEURAL_STAR + "generations: 5\n", "neural does not read generations; it must keep its default"),
        (CONSENSUS_STAR + "n_prime: 3\n", "consensus does not read n_prime; it must keep its default"),
        (CONSENSUS_STAR + "trials: 7\n", "consensus does not read trials; it must keep its default"),
        (VALID_RLNC + "data:\n  mean: 9.0\n", "rlnc does not read data; it must keep its default"),
        (NEURAL_STAR + "data:\n  std: 2.0\n", "neural does not read data; it must keep its default"),
        (NEURAL_STAR + "eta:\n  kind: harmonic\n  value: 0.9\n",
         "eta.value is not read under kind harmonic; it must keep its default"),
        (CONSENSUS_STAR.replace("consensus", "forwarding") + "field:\n  m: 4\n",
         "forwarding does not read field; it must keep its default"),
    ],
    ids=["eta_on_consensus", "eta_on_rlnc", "neural_on_consensus", "generations_on_rlnc",
         "generations_on_neural", "n_prime_on_consensus", "trials_on_consensus", "data_on_rlnc",
         "data_on_neural", "eta_value_under_harmonic", "field_on_forwarding"],
)
def test_run_rejects_values_the_application_does_not_read(runner, tmp_path, text, message):
    scenario = write(tmp_path, "inert.yaml", text)
    out = tmp_path / "out"
    result = runner.invoke(main, ["run", str(scenario), "--out", str(out)])
    assert result.exit_code == 2, result.output
    assert message in result.output
    assert not out.exists()


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
