"""Reachability census: every function under src/ is run by the product or allowlisted.

    python tests/reachability_census.py

Runs ``validate``, ``run``, ``compare`` and ``capacity`` (without
``--quiet``) in this process on every shipped scenario, every golden
scenario and manifest, the expanded manifests, the replay of each
manifest a run writes, and the derived files below: the invalid files
of CI's exit-code loop, a cyclic and a chain topology, and a
``target: max`` sweep.
A function-level profiler records which functions under src/ ran.

It exits 1, naming each function, when a function under src/ is neither
reached nor allowlisted, when an allowlisted function is reached, or
when an allowlist line names no function. pytest does not collect this
file. Standard library only.
"""

from __future__ import annotations

import ast
import contextlib
import io
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# One line per function the commands do not reach: "<module path> <qualified name>  <reason>".
# bench/ may change only with the benchmark record, so what it calls stays until then.
BENCH = "bench-held: bench/ calls or traces it until the benchmark record moves it to tests/"
PACKETS = "bench-held rlnc packet API: bench/ replays a tree with it; it judges the experiment's ranks"
CUSTOM = "README library API: the custom application and its atomic functions"
ALLOWLIST = f"""
nfcsim/engine.py GenerationBarrier.__init__  {BENCH}
nfcsim/engine.py GenerationBarrier.deliver  {BENCH}
nfcsim/engine.py GenerationBarrier.ready  {BENCH}
nfcsim/engine.py GenerationBarrier.take  {BENCH}
nfcsim/learning/neural.py UpwardResult.dropped  {BENCH}
nfcsim/rlnc.py DecoderState.__init__  {PACKETS}
nfcsim/rlnc.py DecoderState.rank  {PACKETS}
nfcsim/rlnc.py DecoderState.add  {PACKETS}
nfcsim/rlnc.py DecoderState.add_vector  {PACKETS}
nfcsim/rlnc.py DecodeOutcome.insufficient  {PACKETS}
nfcsim/rlnc.py destination_decode  {PACKETS}
nfcsim/rlnc.py RlncNetwork.random_source_payloads  {PACKETS}
nfcsim/rlnc.py RlncNetwork.pass_once  {PACKETS}
nfcsim/rlnc.py RlncNetwork.destination_pairs  {PACKETS}
nfcsim/field.py FieldSpec.validate_array  {CUSTOM}, and the packet API
nfcsim/field.py FieldSpec.combine  {CUSTOM}, and the packet API
nfcsim/field.py FieldSpec.random_elements  {CUSTOM}, and the packet API
nfcsim/engine.py _run_custom  {CUSTOM}
nfcsim/afc.py LinearCombination.arity  {CUSTOM}
nfcsim/afc.py NeuronUnit.arity  {CUSTOM}
nfcsim/afc.py Nomographic.__post_init__  {CUSTOM}
nfcsim/afc.py Nomographic.arity  {CUSTOM}
nfcsim/afc.py eval_aafc  README library API: the analog evaluator, criterion 10's subject
nfcsim/afc.py _nomographic  README library API: builds the nomographic presets
nfcsim/afc.py nomographic_mean  README library API: a nomographic preset, criterion 10's subject
nfcsim/afc.py nomographic_sum  README library API: a nomographic preset, criterion 10's subject
nfcsim/afc.py nomographic_euclidean_norm  README library API: a nomographic preset, criterion 10's subject
nfcsim/afc.py nomographic_euclidean_norm.post  README library API: a nomographic preset's post-function
nfcsim/afc.py nomographic_geometric_mean  README library API: a nomographic preset, criterion 10's subject
nfcsim/afc.py nomographic_geometric_mean.log_pre  README library API: a nomographic preset's pre-function
nfcsim/graph.py NfcGraph.node_id  README library API: a node's id by name
nfcsim/graph.py NfcGraph._ids  README library API: the index behind node_id
nfcsim/graph.py ValidationReport.__str__  README library API: the message build_graph raises on a bad config
nfcsim/field.py FieldSpec.__repr__  README library API: FieldSpec is a value
nfcsim/field.py FieldSpec.__eq__  README library API: FieldSpec is a value; equal specs compare equal
nfcsim/field.py FieldSpec.__hash__  README library API: FieldSpec is a value; equal specs hash equal
nfcsim/learning/consensus.py consensus_run  criterion subject: criterion 04 runs consensus through it
nfcsim/learning/neural.py gradient_check  criterion subject: criterion 05 judges training with it; bench/ calls it too
nfcsim/learning/neural.py dataset_loss  criterion subject: criterion 06 judges training with it; bench/ calls it too
nfcsim/learning/neural.py NeuralTreeNetwork.predict  criterion subject: gradient_check and dataset_loss read it
nfcsim/learning/neural.py NeuralTreeNetwork.weights.setter  criterion subject: criterion 05 loads the reference's weights with it
nfcsim/learning/neural.py DownwardResult.gradients  criterion subject: gradient_check reads it
nfcsim/graph.py random_tree_topology  test generator: moves to tests/ once criterion 03 judges what nfcsim runs
"""


def allowlist() -> dict[tuple[str, str], str]:
    entries = {}
    for line in ALLOWLIST.strip().splitlines():
        module, name, reason = line.split(maxsplit=2)
        if (module, name) in entries:
            raise SystemExit(f"allowlist names {module} {name} twice")
        entries[(module, name)] = reason
    return entries


def src_functions() -> dict[tuple[str, int], tuple[str, str]]:
    """(file, first line) -> (module path, qualified name) for every def under src/.

    A function's first line is that of its first decorator, as in its code
    object; a property's setter is named ``<name>.setter``.
    """
    found = {}

    def visit(node: ast.AST, path: Path, module: str, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                for decorator in child.decorator_list:
                    if isinstance(decorator, ast.Attribute) and decorator.attr in ("setter", "deleter"):
                        name += "." + decorator.attr
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found[(str(path), first)] = (module, name)
                visit(child, path, module, name + ".")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, module, prefix + child.name + ".")
            else:
                visit(child, path, module, prefix)

    for path in sorted((SRC / "nfcsim").rglob("*.py")):
        visit(ast.parse(path.read_text(), str(path)), path.resolve(), path.relative_to(SRC).as_posix(), "")
    return found


def derived_inputs(directory: Path) -> list[Path]:
    """The invalid files of CI's exit-code loop, plus inputs that reach what
    no shipped file does: a cyclic topology, a chain topology and a
    ``target: max`` sweep."""
    scenarios = ROOT / "scenarios"
    saturating = (
        "schema_version: 1\napplication: neural\nseed: 3\n"
        "topology: {generator: balanced_tree, sources: 8}\n"
        "eta: {kind: constant, value: 200.0}\n"
        "neural: {samples: 16, epochs: 20, margin: 0.5}\n"
    )
    capacity_star = (scenarios / "capacity_star.yaml").read_text()
    rlnc_star = (scenarios / "rlnc_star.yaml").read_text()
    texts = {
        "saturating": saturating,
        "saturating_6": saturating.replace("seed: 3", "seed: 6"),
        "eta_nan": saturating.replace("value: 200.0", "value: .nan"),
        "seed_negative": saturating.replace("seed: 3", "seed: -3"),
        "balanced_tree_1": saturating.replace("sources: 8}", "sources: 1}"),
        "alphabet_0": capacity_star.replace("alphabet: 2", "alphabet: 0"),
        "alphabet_1": capacity_star.replace("alphabet: 2", "alphabet: 1"),
        "linear_alphabet_3": capacity_star.replace("alphabet: 2", "alphabet: 3") + "  function_class: linear\n",
        "capacity_generations": capacity_star + "generations: 5\n",
        "target_parity": capacity_star.replace("target: identity", "target: parity"),
        "cap_0": capacity_star + "  cap: 0\n",
        "rlnc_failures_seed": rlnc_star + "failures: {seed: 99}\n",
        "trials_negative": rlnc_star.replace("trials: 20000", "trials: -3"),
        "polynomial_negative": rlnc_star.replace("  m: 1\n", "  m: 2\n  polynomial: -5\n"),
        "custom_application": (scenarios / "consensus_tree.yaml").read_text().replace(
            "application: consensus", "application: custom"),
        "cycle": (
            "schema_version: 1\napplication: forwarding\ngenerations: 1\ntopology:\n  mode: dag\n"
            "  nodes: {s0: source, a0: atomic, a1: atomic, d0: destination}\n"
            "  children: {a0: [s0, a1], a1: [a0], d0: [a0]}\n"
        ),
        "chain": (
            "schema_version: 1\napplication: consensus\ngenerations: 3\n"
            "topology: {generator: chain, relays: 2}\n"
        ),
        "max_star": capacity_star.replace("target: identity", "target: max")
        .replace("k_values: [1, 2]", "k_values: [1]").replace("l_values: [1, 2]", "l_values: [1]"),
    }
    paths = []
    for name, text in texts.items():
        path = directory / f"{name}.yaml"
        path.write_text(text)
        paths.append(path)
    return paths


def census(directory: Path) -> set[tuple[str, int]]:
    """Run the four commands on every input; the (file, first line) of each code object called."""
    called: set = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    sys.path.insert(0, str(SRC))
    sys.setprofile(profile)
    try:
        from nfcsim.cli import main

        inputs = sorted((ROOT / "scenarios").glob("*.yaml"))
        inputs += sorted((ROOT / "tests" / "data").glob("*/scenario.yaml"))
        inputs += sorted((ROOT / "tests" / "data").glob("*/manifest.yaml"))
        inputs += sorted((ROOT / "tests" / "expanded_manifests").glob("*.yaml"))
        inputs += derived_inputs(directory)
        runs = [(command, path) for path in inputs for command in ("validate", "run", "compare", "capacity")]
        runs.append(("run", ROOT / "scenarios" / "consensus_tree.yaml", "--seed", "-3"))
        for number, (command, path, *flags) in enumerate(runs):
            out = directory / f"out{number}"
            args = [command, str(path), *flags] + ([] if command == "validate" else ["--out", str(out)])
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                with contextlib.suppress(SystemExit):
                    main.main(args, prog_name="nfcsim", standalone_mode=False)
            if command == "run" and path.name != "manifest.yaml" and (out / "manifest.yaml").is_file():
                runs.append(("run", out / "manifest.yaml"))  # the replay
    finally:
        sys.setprofile(None)
    return {(str(Path(code.co_filename).resolve()), code.co_firstlineno) for code in called}


def main() -> int:
    functions = src_functions()
    allowed = allowlist()
    with tempfile.TemporaryDirectory() as directory:
        reached = census(Path(directory))
    problems = []
    names = set(functions.values())
    for (path, line), (module, name) in sorted(functions.items()):
        where = f"src/{module}:{line} {name}"
        if (path, line) in reached and (module, name) in allowed:
            problems.append(f"{where}: allowlisted ({allowed[(module, name)]}) but reached")
        elif (path, line) not in reached and (module, name) not in allowed:
            problems.append(f"{where}: neither reached nor allowlisted")
    problems += [f"allowlist names {module} {name}, which is not a function under src/"
                 for module, name in allowed if (module, name) not in names]
    print("\n".join(problems))
    print(f"reachability census: {len(functions)} functions under src/, {len(allowed)} allowlisted,"
          f" {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
