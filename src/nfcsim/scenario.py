"""Scenario files: YAML schema, validation, manifests, CSV emission.

A scenario file declares the topology (explicit or generated), the
application, and its parameters. Validation is strict: unknown keys are
rejected, and every diagnostic carries the offending line. A run
manifest is the fully resolved scenario (defaults filled in, overrides
applied) plus the tool version; replaying a manifest reproduces the run
byte for byte.
"""

from __future__ import annotations

import csv
import io
from dataclasses import MISSING, asdict, dataclass, field as dc_field, fields
from pathlib import Path

import yaml

import nfcsim
from nfcsim.engine import (
    APPLICATIONS,
    DataModel,
    EtaSchedule,
    NeuralParams,
    Scenario,
    ScenarioResult,
)
from nfcsim.field import FieldSpec
from nfcsim.graph import (
    NodeRole,
    TopologyConfig,
    balanced_tree_topology,
    chain_topology,
    star_topology,
    validate_config,
)
from nfcsim.learning.neural import FailureModel
from nfcsim.solvability import TARGET_PRESETS

SCHEMA_VERSION = 1

_ROLES = {role.value: role for role in NodeRole}


@dataclass(frozen=True)
class Diagnostic:
    line: int | None
    path: str
    message: str

    def __str__(self) -> str:
        where = f"line {self.line}: " if self.line is not None else ""
        return f"{where}{self.path}: {self.message}"


@dataclass(frozen=True)
class CapacityRequest:
    """Solvability sweep parameters for the capacity command."""

    target: str
    alphabet: int = 2
    k_values: tuple[int, ...] = (1,)
    l_values: tuple[int, ...] = (1,)
    cap: int = 10_000_000
    function_class: str = "all"


@dataclass
class LoadedScenario:
    """Parse/validation outcome: resolved echo, built values, diagnostics."""

    resolved: dict
    topology: TopologyConfig | None = None
    scenario: Scenario | None = None
    capacity: CapacityRequest | None = None
    diagnostics: list[Diagnostic] = dc_field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.diagnostics


# Each section's dataclass declares its keys, their types and defaults
# (the type of a key is the type of its default), and their manifest order.
_SECTIONS = {
    "failures": FailureModel,
    "data": DataModel,
    "eta": EtaSchedule,
    "neural": NeuralParams,
    "capacity": CapacityRequest,
}

_SECTION_KEYS = {
    (): {
        "schema_version", "seed", "topology", "application", "generations",
        "packet_length", "field", "n_prime", "trials", "output", "tool_version",
    } | _SECTIONS.keys(),
    ("topology",): {
        "mode", "generator", "sources", "branching", "relays", "nodes", "children",
    },
    ("field",): {"m", "polynomial"},
    **{(name,): {f.name for f in fields(cls)} for name, cls in _SECTIONS.items()},
}


def _line_index(root: yaml.Node) -> dict[tuple, int]:
    """Map of key paths to 1-based line numbers, from the YAML node tree."""
    lines: dict[tuple, int] = {}
    stack = [((), root)]
    while stack:
        path, node = stack.pop()
        if isinstance(node, yaml.MappingNode):
            for key_node, value_node in node.value:
                lines[path + (key_node.value,)] = key_node.start_mark.line + 1
                stack.append((path + (key_node.value,), value_node))
    return lines


class _Checker:
    def __init__(self, data: dict, lines: dict[tuple, int]):
        self.data = data
        self.lines = lines
        self.diagnostics: list[Diagnostic] = []

    def fail(self, path: tuple, message: str) -> None:
        line = self.lines.get(path) or self.lines.get(path[:-1])
        self.diagnostics.append(Diagnostic(line, ".".join(map(str, path)) or "<root>", message))

    def section(self, path: tuple) -> dict | None:
        node = self.data
        for key in path:
            if not isinstance(node, dict) or key not in node:
                return None
            node = node[key]
        if node is None:
            return {}
        if not isinstance(node, dict):
            self.fail(path, "must be a mapping")
            return None
        return node

    def reject_unknown(self, path: tuple, mapping: dict) -> None:
        allowed = _SECTION_KEYS.get(path, set())
        for key in mapping:
            if key not in allowed:
                self.fail(path + (key,), "unknown key")

    def value(self, path: tuple, kind, default=None, required=False):
        node = self.data
        for key in path[:-1]:
            node = node.get(key, {}) if isinstance(node, dict) else {}
        if not isinstance(node, dict) or path[-1] not in node:
            if required:
                self.fail(path, "required key missing")
            return default
        raw = node[path[-1]]
        if kind is float and isinstance(raw, int) and not isinstance(raw, bool):
            raw = float(raw)
        if kind is not None and (not isinstance(raw, kind) or isinstance(raw, bool)):
            self.fail(path, f"expected {getattr(kind, '__name__', kind)}, got {type(raw).__name__}")
            return default
        return raw

    def read(self, section: str, **defaults) -> dict:
        """Every field of the section's dataclass, typed by its default
        (``defaults`` replace field defaults): a field without a default
        is a required string, and a tuple default reads a list."""
        values = {}
        for f in fields(_SECTIONS[section]):
            path = (section, f.name)
            default = defaults.get(f.name, f.default)
            if default is MISSING:
                values[f.name] = self.value(path, str, required=True)
            elif isinstance(default, tuple):
                values[f.name] = tuple(self.value(path, list, default=default))
            else:
                values[f.name] = self.value(path, type(default), default=default)
        return values


# The topology keys each generator reads; a generated topology is a tree.
_GENERATOR_KEYS = {
    "star": {"sources"},
    "balanced_tree": {"sources", "branching"},
    "chain": {"relays"},
    "explicit": {"nodes", "children", "mode"},
}


def _build_topology(checker: _Checker) -> TopologyConfig | None:
    topo = checker.section(("topology",))
    if topo is None:
        checker.fail(("topology",), "required section missing")
        return None
    checker.reject_unknown(("topology",), topo)
    mode = checker.value(("topology", "mode"), str, default="tree")
    if mode not in ("tree", "dag"):
        checker.fail(("topology", "mode"), "must be 'tree' or 'dag'")
        return None
    generator = checker.value(("topology", "generator"), str,
                              default="explicit" if "nodes" in topo else None)
    if generator is None:
        checker.fail(("topology",), "needs a generator or explicit nodes")
        return None
    if generator not in _GENERATOR_KEYS:
        checker.fail(("topology", "generator"), f"unknown generator {generator!r}")
        return None
    unread = _SECTION_KEYS[("topology",)] - _GENERATOR_KEYS[generator] - {"generator"}
    for key in [key for key in topo if key in unread]:  # unknown keys are already reported
        if key != "mode":
            checker.fail(("topology", key), f"not read by generator {generator!r}")
        elif mode != "tree":
            checker.fail(("topology", key), f"generator {generator!r} builds a tree; mode must be 'tree'")
    if generator == "star":
        n = checker.value(("topology", "sources"), int, required=True)
        if n is None or n < 1:
            checker.fail(("topology", "sources"), "must be a positive integer")
            return None
        return star_topology(n)
    if generator == "balanced_tree":
        n = checker.value(("topology", "sources"), int, required=True)
        branching = checker.value(("topology", "branching"), int, default=2)
        if n is None:
            return None
        if branching < 2:
            checker.fail(("topology", "branching"), "must be >= 2")
            return None
        try:
            return balanced_tree_topology(n, branching)
        except ValueError as exc:
            checker.fail(("topology", "sources"), str(exc))
            return None
    if generator == "chain":
        relays = checker.value(("topology", "relays"), int, default=1)
        if relays < 0:
            checker.fail(("topology", "relays"), "must be a non-negative integer")
            return None
        return chain_topology(relays)
    nodes = checker.value(("topology", "nodes"), dict, required=True)
    children = checker.value(("topology", "children"), dict, default={})
    if nodes is None:
        return None
    roles = {}
    for name, role in nodes.items():
        if role not in _ROLES:
            checker.fail(("topology", "nodes", name), f"unknown role {role!r}")
            return None
        roles[str(name)] = _ROLES[role]
    child_map = {}
    for parent, kids in (children or {}).items():
        if not isinstance(kids, list):
            checker.fail(("topology", "children", parent), "must be a list of node names")
            return None
        child_map[str(parent)] = [str(k) for k in kids]
    return TopologyConfig(roles=roles, children=child_map, mode=mode)


def parse_scenario_text(
    text: str,
    seed_override: int | None = None,
    trials_override: int | None = None,
) -> LoadedScenario:
    """Validate a scenario document and build the runnable values.

    Diagnostics carry line numbers; an empty diagnostic list means the
    scenario (and/or capacity request) is ready to run.
    """
    loader = yaml.SafeLoader(text)
    try:
        root = loader.get_single_node()
        data = None if root is None else loader.construct_document(root)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        line = mark.line + 1 if mark else None
        return LoadedScenario(
            resolved={}, diagnostics=[Diagnostic(line, "<document>", f"not valid YAML: {exc}")]
        )
    finally:
        loader.dispose()
    if not isinstance(data, dict):
        return LoadedScenario(
            resolved={}, diagnostics=[Diagnostic(None, "<document>", "document must be a mapping")]
        )

    checker = _Checker(data, _line_index(root))
    checker.reject_unknown((), data)
    for section in ("field", *_SECTIONS):
        if section in data:
            mapping = checker.section((section,))
            if mapping is not None:
                checker.reject_unknown((section,), mapping)

    version = checker.value(("schema_version",), int, required=True)
    if version is not None and version != SCHEMA_VERSION:
        checker.fail(("schema_version",), f"unsupported schema version {version}")

    seed = checker.value(("seed",), int, default=0)
    if seed_override is not None:
        seed = seed_override
    config = _build_topology(checker)
    if config is not None:
        graph_report = validate_config(config)
        for violation in graph_report.violations:
            checker.fail(("topology",), f"{violation.code}: {violation.message}")

    application = checker.value(("application",), str)
    if application is not None and application not in APPLICATIONS:
        checker.fail(("application",), f"must be one of {', '.join(APPLICATIONS)}")

    generations = checker.value(("generations",), int, default=0)
    packet_length = checker.value(("packet_length",), int, default=1)
    n_prime = checker.value(("n_prime",), int)
    trials = checker.value(("trials",), int)
    if trials_override is not None:
        trials = trials_override
    output = checker.value(("output",), str, default="results")

    field_spec = None
    field_resolved = None
    if "field" in data:
        m = checker.value(("field", "m"), int, required=True)
        poly = checker.value(("field", "polynomial"), int)
        if m is not None:
            try:
                field_spec = FieldSpec(m) if poly is None else FieldSpec(m, poly)
                field_resolved = {"m": field_spec.m, "polynomial": field_spec.reduction_polynomial}
            except ValueError as exc:
                checker.fail(("field",), str(exc))

    probabilities = checker.read("failures", seed=seed)
    for key in ("node_dropout_p", "message_loss_p"):
        if not 0.0 <= probabilities[key] <= 1.0:
            checker.fail(("failures", key), "must be within [0, 1]")
            probabilities[key] = 0.0
    failures = FailureModel(**probabilities)
    data_model = DataModel(**checker.read("data"))
    eta = EtaSchedule(**checker.read("eta"))
    if eta.kind not in EtaSchedule.KINDS:
        checker.fail(("eta", "kind"), "must be " + " or ".join(map(repr, EtaSchedule.KINDS)))
    neural = NeuralParams(**checker.read("neural"))

    capacity = None
    if "capacity" in data:
        request = checker.read("capacity")
        if request["target"] not in (None, *TARGET_PRESETS):
            checker.fail(("capacity", "target"), f"must be one of {', '.join(sorted(TARGET_PRESETS))}")
        for key in ("k_values", "l_values"):
            if not request[key]:
                checker.fail(("capacity", key), "must list at least one length")
            elif not all(isinstance(v, int) and not isinstance(v, bool) and v >= 1 for v in request[key]):
                checker.fail(("capacity", key), "entries must be integers >= 1")
        if request["function_class"] not in ("all", "linear"):
            checker.fail(("capacity", "function_class"), "must be 'all' or 'linear'")
        if request["target"] in TARGET_PRESETS:
            capacity = CapacityRequest(**request)

    if application is None and capacity is None:
        checker.fail((), "scenario declares neither an application nor a capacity request")

    scenario = None
    if config is not None and application is not None and not checker.diagnostics:
        scenario = Scenario(
            topology=config,
            application=application,
            seed=seed,
            generations=generations,
            packet_length=packet_length,
            field=field_spec,
            n_prime=n_prime,
            trials=trials,
            failures=failures,
            data=data_model,
            eta=eta,
            neural=neural,
        )
        for problem in scenario.validation_errors():
            checker.fail((), problem)
        if checker.diagnostics:
            scenario = None

    resolved: dict = {
        "schema_version": SCHEMA_VERSION,
        "seed": seed,
        "topology": _topology_echo(config, data.get("topology") or {}),
        "generations": generations,
        "packet_length": packet_length,
        "failures": asdict(failures),
        "data": asdict(data_model),
        "eta": asdict(eta),
        "output": output,
    }
    if application is not None:
        resolved["application"] = application
    if field_resolved is not None:
        resolved["field"] = field_resolved
    if n_prime is not None:
        resolved["n_prime"] = n_prime
    if trials is not None:
        resolved["trials"] = trials
    if application == "neural":
        resolved["neural"] = asdict(neural)
    if capacity is not None:
        resolved["capacity"] = asdict(capacity)

    return LoadedScenario(
        resolved=resolved,
        topology=config,
        scenario=scenario,
        capacity=capacity,
        diagnostics=checker.diagnostics,
    )


def _topology_echo(config: TopologyConfig | None, raw: dict) -> dict:
    if config is None:
        return dict(raw)
    return {
        "mode": config.mode,
        "generator": "explicit",
        "nodes": {name: role.value for name, role in config.roles.items()},
        "children": {k: list(v) for k, v in config.children.items()},
    }


def load_scenario_file(
    path: str | Path,
    seed_override: int | None = None,
    trials_override: int | None = None,
) -> LoadedScenario:
    text = Path(path).read_text()
    return parse_scenario_text(text, seed_override=seed_override, trials_override=trials_override)


# -- output emission ---------------------------------------------------------

def render_csv(columns: tuple[str, ...], rows: list[dict[str, object]]) -> str:
    """Deterministic CSV text: header row then rows, LF line endings."""
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=list(columns), lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    return buffer.getvalue()


def render_manifest(loaded: LoadedScenario) -> str:
    # Insertion order is kept (sort_keys=False) because node declaration
    # order defines node ids and therefore the rng draw order on replay.
    manifest = dict(loaded.resolved)
    manifest["tool_version"] = nfcsim.__version__
    return yaml.safe_dump(manifest, sort_keys=False)


def write_outputs(
    loaded: LoadedScenario, result: ScenarioResult, out_dir: str | Path
) -> list[Path]:
    """Write every result table as CSV plus the replayable manifest."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    for name, (columns, rows) in result.tables.items():
        path = out / f"{name}.csv"
        path.write_text(render_csv(columns, rows))
        written.append(path)
    manifest_path = out / "manifest.yaml"
    manifest_path.write_text(render_manifest(loaded))
    written.append(manifest_path)
    return written
