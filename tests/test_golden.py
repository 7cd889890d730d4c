"""Checked-in run outputs replay byte for byte.

Each directory under ``tests/data`` holds a ``scenario.yaml`` and every
file an earlier ``nfcsim run`` of it wrote; a fresh run must write the
same set of files with the same bytes. ``compare_dropout_tree8`` holds
what ``nfcsim compare`` wrote instead, with its standard output, and
``capacity_star`` and ``capacity_xor`` what ``nfcsim capacity`` wrote,
with its standard output and exit code.

A golden's ``manifest.yaml`` echoes a generated topology as its
generator. ``tests/expanded_manifests`` holds manifests written before
that, with the tree written out node by node; they must still replay.
"""

from pathlib import Path

import pytest
from click.testing import CliRunner

from nfcsim.cli import main
from nfcsim.scenario import load_scenario_file

DATA = Path(__file__).resolve().parent / "data"
EXPANDED = Path(__file__).resolve().parent / "expanded_manifests"


@pytest.mark.parametrize(
    "name",
    [
        "rlnc_gf4096_star6",
        "rlnc_gf65536_star6",
        "rlnc_gf4_tree8",
        "consensus_dropout_tree8",
        "forwarding_dropout_tree8",
        "neural_dropout_loss_tree8",
    ],
)
def test_large_field_rlnc_outputs_byte_identical(name, tmp_path):
    golden = DATA / name
    out = tmp_path / name
    result = CliRunner().invoke(
        main, ["run", str(golden / "scenario.yaml"), "--out", str(out), "--quiet"]
    )
    assert result.exit_code == 0, result.output
    expected = sorted(p.name for p in golden.iterdir() if p.name != "scenario.yaml")
    assert sorted(p.name for p in out.iterdir()) == expected
    for file_name in expected:
        assert (out / file_name).read_bytes() == (golden / file_name).read_bytes()


def test_compare_outputs_byte_identical(tmp_path):
    golden = DATA / "compare_dropout_tree8"
    out = tmp_path / "compare"
    result = CliRunner().invoke(
        main, ["compare", str(golden / "scenario.yaml"), "--out", str(out), "--quiet"]
    )
    assert result.exit_code == 0, result.output
    assert result.output == (golden / "stdout.txt").read_text()
    assert sorted(p.name for p in out.iterdir()) == ["compare.csv"]
    assert (out / "compare.csv").read_bytes() == (golden / "compare.csv").read_bytes()


@pytest.mark.parametrize("name", ["capacity_star", "capacity_xor"])
def test_capacity_outputs_byte_identical(name, tmp_path):
    golden = DATA / name
    out = tmp_path / name
    result = CliRunner().invoke(
        main, ["capacity", str(golden / "scenario.yaml"), "--out", str(out), "--quiet"]
    )
    assert result.exit_code == int((golden / "exit_code.txt").read_text()), result.output
    assert result.output == (golden / "stdout.txt").read_text()
    assert sorted(p.name for p in out.iterdir()) == ["capacity.csv", "capacity_report.txt"]
    for file_name in ("capacity.csv", "capacity_report.txt"):
        assert (out / file_name).read_bytes() == (golden / file_name).read_bytes()


@pytest.mark.parametrize("name", sorted(p.stem for p in EXPANDED.glob("*.yaml")))
def test_an_expanded_manifest_replays_as_the_generator_echo(name, tmp_path):
    expanded, golden = EXPANDED / f"{name}.yaml", DATA / name
    assert load_scenario_file(expanded).resolved == load_scenario_file(golden / "manifest.yaml").resolved
    for manifest in (expanded, golden / "manifest.yaml"):
        out = tmp_path / manifest.parent.name
        result = CliRunner().invoke(main, ["run", str(manifest), "--out", str(out), "--quiet"])
        assert result.exit_code == 0, result.output
        assert (out / "manifest.yaml").read_bytes() == manifest.read_bytes()  # each echoes its own form
        for csv in golden.glob("*.csv"):
            assert (out / csv.name).read_bytes() == csv.read_bytes(), (manifest, csv.name)
