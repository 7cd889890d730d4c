"""Checked-in run outputs replay byte for byte.

Each directory under ``tests/data`` holds a ``scenario.yaml`` and every
file an earlier ``nfcsim run`` of it wrote; a fresh run must write the
same set of files with the same bytes.
"""

from pathlib import Path

import pytest
from click.testing import CliRunner

from nfcsim.cli import main

DATA = Path(__file__).resolve().parent / "data"


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
