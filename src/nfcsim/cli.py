"""Command-line surface: validate, run, capacity, compare.

Exit codes are a contract: 0 success, 2 validation failure, 3 unreadable
input, 4 runtime failure, 5 search cap exceeded (partial results still
printed).
"""

from __future__ import annotations

import sys
from pathlib import Path

import click

import nfcsim
from nfcsim.engine import Scenario, compare_costs, run_scenario
from nfcsim.errors import NfcSimError
from nfcsim.learning.neural import FailureModel
from nfcsim.scenario import (
    LoadedScenario,
    load_scenario_file,
    render_csv,
    write_outputs,
)
from nfcsim.solvability import (
    TARGET_PRESETS,
    SolvabilityInstance,
    brute_force_search,
    linear_identity_check,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_IO = 3
EXIT_RUNTIME = 4
EXIT_CAP = 5


def _load(path: str, seed: int | None = None, trials: int | None = None) -> LoadedScenario:
    try:
        return load_scenario_file(path, seed_override=seed, trials_override=trials)
    except OSError as exc:
        click.echo(f"cannot read {path}: {exc}", err=True)
        sys.exit(EXIT_IO)


def _require_valid(loaded: LoadedScenario) -> None:
    if not loaded.ok:
        for diagnostic in loaded.diagnostics:
            click.echo(str(diagnostic), err=True)
        sys.exit(EXIT_VALIDATION)


@click.group()
@click.version_option(version=nfcsim.__version__, prog_name="nfcsim")
def main():
    """Deterministic network function computation simulator."""


@main.command()
@click.argument("scenario_file", type=click.Path())
def validate(scenario_file: str):
    """Check a scenario file; exit 0 only if schema and graph are valid."""
    loaded = _load(scenario_file)
    _require_valid(loaded)
    click.echo(f"{scenario_file}: valid")


@main.command()
@click.argument("scenario_file", type=click.Path())
@click.option("--seed", type=int, default=None, help="Override the file's seed.")
@click.option("--out", type=click.Path(), default=None, help="Output directory.")
@click.option("--trials", type=int, default=None, help="Override trial count (rlnc).")
@click.option("--quiet", is_flag=True, help="Suppress the summary line.")
def run(scenario_file: str, seed: int | None, out: str | None, trials: int | None, quiet: bool):
    """Run a scenario; write CSV metrics and a replayable manifest."""
    loaded = _load(scenario_file, seed=seed, trials=trials)
    _require_valid(loaded)
    if loaded.scenario is None:
        click.echo("scenario file declares no runnable application", err=True)
        sys.exit(EXIT_VALIDATION)
    try:
        result = run_scenario(loaded.scenario)
    except NfcSimError as exc:
        click.echo(f"runtime failure: {exc}", err=True)
        sys.exit(EXIT_RUNTIME)
    out_dir = Path(out) if out else Path(loaded.resolved.get("output", "results"))
    paths = write_outputs(loaded, result, out_dir)
    if not quiet:
        click.echo(result.summary_line())
        click.echo(f"wrote {', '.join(str(p) for p in paths)}")
    sys.exit(EXIT_OK)


@main.command()
@click.argument("scenario_file", type=click.Path())
@click.option("--out", type=click.Path(), default=None, help="Output directory.")
@click.option("--quiet", is_flag=True, help="Print verdict lines only.")
def capacity(scenario_file: str, out: str | None, quiet: bool):
    """Solvability verdicts: min-cut check plus exhaustive sweep."""
    loaded = _load(scenario_file)
    _require_valid(loaded)
    if loaded.capacity is None:
        click.echo("scenario file declares no capacity section", err=True)
        sys.exit(EXIT_VALIDATION)
    request = loaded.capacity
    graph = loaded.graph
    target = TARGET_PRESETS[request.target](graph.n_sources, request.alphabet)
    try:
        identity = linear_identity_check(graph)
        click.echo(
            f"linear identity delivery: {'solvable' if identity.solvable else 'not solvable'}"
            f" ({identity.detail})"
        )
        points = [
            (k, length, brute_force_search(SolvabilityInstance(
                graph, target, request.alphabet, k, length, request.cap, request.function_class
            )))
            for k in request.k_values
            for length in request.l_values
        ]
    except NfcSimError as exc:
        click.echo(f"runtime failure: {exc}", err=True)
        sys.exit(EXIT_RUNTIME)
    rows = []
    for k, length, verdict in points:
        click.echo(
            f"target={target.name} K={k} L={length}: "
            f"{verdict.solvable} ({verdict.detail})"
        )
        rows.append(
            {
                "target": target.name,
                "K": k,
                "L": length,
                "verdict": verdict.solvable,
                "ratio": k / length if verdict.is_solvable else "",
            }
        )
    solvable = [(k, length) for k, length, verdict in points if verdict.is_solvable]
    if solvable:  # the largest K/L; on a tie the smaller K, then the first in sweep order
        k, length = max(solvable, key=lambda point: (point[0] / point[1], -point[0]))
        click.echo(
            f"best achieved ratio K/L = {k / length} "
            f"at K={k}, L={length} (lower bound)"
        )
    else:
        click.echo("no solvable point in the sweep")
    if out:
        out_dir = Path(out)
        out_dir.mkdir(parents=True, exist_ok=True)
        columns = ("target", "K", "L", "verdict", "ratio")
        (out_dir / "capacity.csv").write_text(render_csv(columns, rows))
        (out_dir / "capacity_report.txt").write_text(_witness_report(points, target.name))
        if not quiet:
            click.echo(f"wrote {out_dir / 'capacity.csv'}, {out_dir / 'capacity_report.txt'}")
    sys.exit(EXIT_CAP if any(verdict.solvable == "unknown-capped" for *_, verdict in points) else EXIT_OK)


@main.command()
@click.argument("scenario_file", type=click.Path())
@click.option("--seed", type=int, default=None, help="Override the file's seed.")
@click.option("--out", type=click.Path(), default=None, help="Output directory.")
@click.option("--trials", type=int, default=None, help="Override trial count (rlnc).")
@click.option("--quiet", is_flag=True, help="Suppress the per-arc note.")
def compare(scenario_file: str, seed: int | None, out: str | None, trials: int | None, quiet: bool):
    """Run the scenario and its raw-forwarding twin; report the cost ratio."""
    loaded = _load(scenario_file, seed=seed, trials=trials)
    _require_valid(loaded)
    scenario = loaded.scenario
    if scenario is None:
        click.echo("scenario file declares no runnable application", err=True)
        sys.exit(EXIT_VALIDATION)
    if scenario.application == "forwarding":
        click.echo("compare needs an in-network application, not forwarding", err=True)
        sys.exit(EXIT_VALIDATION)
    try:
        result = run_scenario(scenario)
        twin = Scenario(
            topology=scenario.topology,
            application="forwarding",
            seed=scenario.seed,
            generations=scenario.effective_generations,
            packet_length=scenario.packet_length,
            failures=FailureModel(seed=scenario.failures.seed),
        )
        baseline = run_scenario(twin)
        report = compare_costs(result, baseline)
    except NfcSimError as exc:
        click.echo(f"runtime failure: {exc}", err=True)
        sys.exit(EXIT_RUNTIME)
    click.echo(
        f"forwarding/nfc symbol ratio: {report.ratio} "
        f"(forwarding {report.forwarding_total}, nfc {report.nfc_total})"
    )
    if scenario.failures.node_dropout_p:
        click.echo(
            "note: the forwarding baseline runs failure-free; node_dropout_p="
            f"{scenario.failures.node_dropout_p} applies to {scenario.application} only"
        )
    if out:
        out_dir = Path(out)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "compare.csv").write_text(render_csv(report.ARC_COLUMNS, report.arc_rows))
        if not quiet:
            click.echo(f"wrote {out_dir / 'compare.csv'}")
    sys.exit(EXIT_OK)


def _witness_report(points, target_name: str) -> str:
    lines = [f"capacity sweep for target {target_name!r}", ""]
    for k, length, verdict in points:
        lines.append(
            f"K={k} L={length}: {verdict.solvable}"
            f" ({verdict.detail})"
        )
        if verdict.witness is not None:
            for arc, table in verdict.witness.arc_tables.items():
                lines.append(f"  encoding {arc[0]} -> {arc[1]}:")
                for key in sorted(table):
                    lines.append(f"    {key} -> {table[key]}")
            for dest, decoder in verdict.witness.decoders.items():
                lines.append(f"  decoding at {dest}:")
                for key in sorted(decoder):
                    lines.append(f"    {key} -> {decoder[key]}")
        lines.append("")
    return "\n".join(lines)


if __name__ == "__main__":
    main()
