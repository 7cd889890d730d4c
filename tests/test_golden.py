"""Checked-in rlnc outputs over GF(2^12) and GF(2^16) replay byte for byte."""

from pathlib import Path

import pytest
from click.testing import CliRunner

from nfcsim.cli import main

DATA = Path(__file__).resolve().parent / "data"


@pytest.mark.parametrize("name", ["rlnc_gf4096_star6", "rlnc_gf65536_star6"])
def test_large_field_rlnc_outputs_byte_identical(name, tmp_path):
    golden = DATA / name
    out = tmp_path / name
    result = CliRunner().invoke(
        main, ["run", str(golden / "scenario.yaml"), "--out", str(out), "--quiet"]
    )
    assert result.exit_code == 0, result.output
    for file_name in ("stats.csv", "arcs.csv", "manifest.yaml"):
        assert (out / file_name).read_bytes() == (golden / file_name).read_bytes()
