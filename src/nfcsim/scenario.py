"""Scenario files: YAML schema, validation, manifests, CSV emission.

A scenario file declares the topology (explicit or generated), the
application, and its parameters. Validation is strict: unknown keys are
rejected, and every diagnostic carries the offending line. A run
manifest is the fully resolved scenario (defaults filled in, overrides
applied) plus the tool version; replaying a manifest reproduces the run
byte for byte. A generated topology is echoed as its generator and the
keys it read, which rebuild the same tree node for node; an explicit one
as its nodes and children.
"""

from __future__ import annotations

import csv
import io
from dataclasses import MISSING, asdict, dataclass, field as dc_field, fields
from operator import itemgetter
from pathlib import Path

import yaml

import nfcsim
from nfcsim.engine import (
    APPLICATION_TABLE,
    DataModel,
    EtaSchedule,
    NeuralParams,
    Scenario,
    ScenarioResult,
    unread_errors,
)
from nfcsim.field import FieldSpec
from nfcsim.graph import (
    NfcGraph,
    NodeRole,
    TopologyConfig,
    balanced_tree_topology,
    chain_topology,
    star_topology,
)
from nfcsim.learning.neural import FailureModel
from nfcsim.solvability import TARGET_PRESETS

SCHEMA_VERSION = 1

_ROLES = {role.value: role for role in NodeRole}

# libyaml's emitter where PyYAML was built with it, else the pure-Python one.
# The two write the same bytes on every manifest the parser accepts, which is
# why node names and the output path are held to short printable ASCII.
_DUMPER = getattr(yaml, "CSafeDumper", yaml.SafeDumper)
MAX_NAME_LENGTH = 64


def _printable_ascii(text: str) -> bool:
    return text.isascii() and text.isprintable()  # 0x20-0x7E only


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
    """Parse/validation outcome: resolved echo, built values, diagnostics.

    ``resolved`` is what was built: every key with its defaults filled in
    and the topology expanded to its mode, nodes and children. The
    manifest is how to rebuild it: ``resolved`` with a generated topology
    replaced by ``generator_echo``, its generator and the keys it read.
    """

    resolved: dict
    graph: NfcGraph | None = None  # the topology, validated and built
    scenario: Scenario | None = None
    capacity: CapacityRequest | None = None
    diagnostics: list[Diagnostic] = dc_field(default_factory=list)
    generator_echo: dict | None = None  # None for an explicit topology

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

# Every top-level key, in manifest order. A scalar maps to its type and default,
# Scenario's for its field (Scenario gives application none and has no output);
# any other key maps to None and is read on its own.
_TOP_LEVEL = {
    "schema_version": None,
    "seed": (int, Scenario.seed),
    "topology": None,
    "generations": (int, Scenario.generations),
    "packet_length": (int, Scenario.packet_length),
    **dict.fromkeys(["failures", "data", "eta"]),
    "output": (str, "results"),
    "application": (str, None),
    "field": None,
    "n_prime": (int, Scenario.n_prime),
    "trials": (int, Scenario.trials),
    **dict.fromkeys(["neural", "capacity"]),
}
_SCALARS = {key: spec for key, spec in _TOP_LEVEL.items() if spec is not None}

# A file cannot hold a FunctionAssignment, so it runs the applications that read none.
_FILE_APPLICATIONS = tuple(name for name, app in APPLICATION_TABLE.items() if "assignment" not in app.reads)

# The topology keys each generator reads; a generated topology is a tree.
_GENERATOR_KEYS = {
    "star": {"sources"},
    "balanced_tree": {"sources", "branching"},
    "chain": {"relays"},
    "explicit": {"nodes", "children", "mode"},
}

_SECTION_KEYS = {
    (): _TOP_LEVEL.keys() | {"tool_version"},
    ("topology",): {"generator"}.union(*_GENERATOR_KEYS.values()),
    ("field",): {"m", "polynomial"},
    **{(name,): {f.name for f in fields(cls)} for name, cls in _SECTIONS.items()},
}


_STR_TAG = "tag:yaml.org,2002:str"


def _line_index(root: yaml.Node) -> dict[tuple, int]:
    """Map of key paths to 1-based line numbers, from the YAML node tree.

    A key is indexed as the loader reads it (``yes`` as True), and a list
    item by its position.
    """
    keys = yaml.constructor.SafeConstructor()
    lines: dict[tuple, int] = {}
    stack = [((), root)]
    while stack:
        path, node = stack.pop()
        if isinstance(node, yaml.MappingNode):
            for key_node, value_node in node.value:
                key = key_node.value if key_node.tag == _STR_TAG else keys.construct_object(key_node)
                lines[path + (key,)] = key_node.start_mark.line + 1
                stack.append((path + (key,), value_node))
        elif isinstance(node, yaml.SequenceNode):
            for i, item in enumerate(node.value):
                lines[path + (i,)] = item.start_mark.line + 1
                stack.append((path + (i,), item))
    return lines


class _Checker:
    def __init__(self, data: dict, lines: dict[tuple, int]):
        self.data = data
        self.lines = lines
        self.diagnostics: list[Diagnostic] = []
        self.flags: dict[tuple, str] = {}  # key path -> the command-line flag that overrode it

    def fail(self, path: tuple, message: str) -> None:
        if path in self.flags:
            self.diagnostics.append(Diagnostic(None, self.flags[path], message))
            return
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
        self.reject_unknown(path, node)  # a section read reports its unknown keys
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


def _build_topology(checker: _Checker) -> tuple[TopologyConfig | None, dict | None]:
    """The topology's config, and for a generated one the generator and the keys it read."""
    if "topology" not in checker.data:
        checker.fail(("topology",), "required section missing")
        return None, None
    topo = checker.section(("topology",))
    if topo is None:  # not a mapping, and section() said so
        return None, None
    mode = checker.value(("topology", "mode"), str, default="tree")
    if mode not in ("tree", "dag"):
        checker.fail(("topology", "mode"), "must be 'tree' or 'dag'")
        return None, None
    generator = checker.value(("topology", "generator"), str,
                              default="explicit" if "nodes" in topo else None)
    if generator is None:
        checker.fail(("topology",), "needs a generator or explicit nodes")
        return None, None
    if generator not in _GENERATOR_KEYS:
        checker.fail(("topology", "generator"), f"unknown generator {generator!r}")
        return None, None
    unread = _SECTION_KEYS[("topology",)] - _GENERATOR_KEYS[generator] - {"generator"}
    for key in [key for key in topo if key in unread]:  # unknown keys are already reported
        if key != "mode":
            checker.fail(("topology", key), f"not read by generator {generator!r}")
        elif mode != "tree":
            checker.fail(("topology", key), f"generator {generator!r} builds a tree; mode must be 'tree'")
    if generator == "star":
        n = checker.value(("topology", "sources"), int, required=True)
        if n is None:
            return None, None
        if n < 1:
            checker.fail(("topology", "sources"), "must be a positive integer")
            return None, None
        return star_topology(n), {"generator": generator, "sources": n}
    if generator == "balanced_tree":
        n = checker.value(("topology", "sources"), int, required=True)
        branching = checker.value(("topology", "branching"), int, default=2)
        if n is None:
            return None, None
        if branching < 2:
            checker.fail(("topology", "branching"), "must be >= 2")
            return None, None
        try:
            return balanced_tree_topology(n, branching), {"generator": generator, "sources": n,
                                                          "branching": branching}
        except ValueError as exc:
            checker.fail(("topology", "sources"), str(exc))
            return None, None
    if generator == "chain":
        relays = checker.value(("topology", "relays"), int, default=1)
        if relays < 0:
            checker.fail(("topology", "relays"), "must be a non-negative integer")
            return None, None
        return chain_topology(relays), {"generator": generator, "relays": relays}
    nodes = checker.value(("topology", "nodes"), dict, required=True)
    children = checker.value(("topology", "children"), dict, default={})
    if nodes is None:
        return None, None
    names = [(("topology", "nodes", name), name) for name in nodes]
    for parent, kids in children.items():
        names.append((("topology", "children", parent), parent))
        if isinstance(kids, list):
            names += [(("topology", "children", parent, i), kid) for i, kid in enumerate(kids)]
    for path, name in names:
        if not isinstance(name, str):
            checker.fail(path, f"YAML reads this node name as {name!r}, not a string; quote the name")
            return None, None
    roles = {}
    for name, role in nodes.items():
        if not (0 < len(name) <= MAX_NAME_LENGTH and _printable_ascii(name)):
            checker.fail(("topology", "nodes", name),
                         f"node name {name!r} must be 1 to {MAX_NAME_LENGTH} printable ASCII characters")
            return None, None
        if role not in _ROLES:
            checker.fail(("topology", "nodes", name), f"unknown role {role!r}")
            return None, None
        roles[name] = _ROLES[role]
    for parent, kids in children.items():
        if not isinstance(kids, list):
            checker.fail(("topology", "children", parent), "must be a list of node names")
            return None, None
    children = {parent: list(kids) for parent, kids in children.items()}
    return TopologyConfig(roles=roles, children=children, mode=mode), None


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
        return LoadedScenario({}, diagnostics=[Diagnostic(line, "<document>", f"not valid YAML: {exc}")])
    finally:
        loader.dispose()
    if not isinstance(data, dict):
        return LoadedScenario({}, diagnostics=[Diagnostic(None, "<document>", "document must be a mapping")])

    checker = _Checker(data, _line_index(root))
    checker.reject_unknown((), data)
    # Each section present as a mapping; a section that is absent, or is not a mapping, is None.
    mappings = {section: checker.section((section,)) for section in ("field", *_SECTIONS)}

    version = checker.value(("schema_version",), int, required=True)
    if version is not None and version != SCHEMA_VERSION:
        checker.fail(("schema_version",), f"unsupported schema version {version}")

    (config, generator_echo), graph = _build_topology(checker), None
    if config is not None:
        graph = config.report.graph
        for violation in config.report.violations:
            checker.fail(("topology",), f"{violation.code}: {violation.message}")

    # The scalars Scenario is built from, and output, which only the CLI reads.
    settings = {key: checker.value((key,), kind, default=default)
                for key, (kind, default) in _SCALARS.items()}
    file_seed = settings["seed"]
    for key, override in (("seed", seed_override), ("trials", trials_override)):
        if override is not None:
            settings[key] = override
            checker.flags[(key,)] = f"--{key}"
    seed, application, output = settings["seed"], settings["application"], settings.pop("output")
    if not _printable_ascii(output):
        checker.fail(("output",), "must be printable ASCII (use --out for other paths)")

    field_spec = None
    if mappings["field"] is not None:
        m = checker.value(("field", "m"), int, required=True)
        poly = checker.value(("field", "polynomial"), int)
        if m is not None:
            try:
                field_spec = FieldSpec(m) if poly is None else FieldSpec(m, poly)
            except ValueError as exc:
                checker.fail(("field",), str(exc))

    # failures.seed defaults to the seed; one equal to it, as a manifest echoes it, follows --seed
    probabilities = checker.read("failures", seed=file_seed)
    if probabilities["seed"] == file_seed:
        probabilities["seed"] = seed
    for key in ("node_dropout_p", "message_loss_p"):
        if not 0.0 <= probabilities[key] <= 1.0:
            checker.fail(("failures", key), "must be within [0, 1]")
            probabilities[key] = 0.0
    settings.update(
        field=field_spec,
        failures=FailureModel(**probabilities),
        data=DataModel(**checker.read("data")),
        eta=EtaSchedule(**checker.read("eta")),
        neural=NeuralParams(**checker.read("neural")),
    )

    capacity = None
    if mappings["capacity"] is not None:
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
        if request["cap"] < 1:
            checker.fail(("capacity", "cap"), "must be >= 1")
        if request["alphabet"] < 2:  # over one symbol every target is constant
            checker.fail(("capacity", "alphabet"), "must be >= 2")
        elif request["function_class"] == "linear" and request["alphabet"] != 2:
            checker.fail(("capacity", "alphabet"), "must be 2 under function_class 'linear' (GF(2))")
        if request["target"] in TARGET_PRESETS:
            capacity = CapacityRequest(**request)
        if "application" not in data:  # capacity reads only the topology
            default = Scenario(config, None, seed=seed, failures=FailureModel(seed=seed))
            for key, problem in unread_errors("capacity", Scenario(config, **settings), default, settings):
                checker.fail((key,), problem)

    if "application" not in data and "capacity" not in data:
        checker.fail((), "scenario declares neither an application nor a capacity request")

    scenario = None
    if config is not None and application is not None and not checker.diagnostics:
        scenario = Scenario(topology=config, **settings)
        for key, problem in scenario.keyed_errors():
            if key in ("application", "assignment"):  # a file offers only what it can run
                problem = (f"{application} runs a FunctionAssignment, which a file cannot hold"
                           if key == "assignment" else f"unknown application {application!r}")
                key, problem = "application", f"{problem}; must be one of {', '.join(_FILE_APPLICATIONS)}"
            checker.fail(tuple(key.split(".")), problem)
        if checker.diagnostics:
            scenario = None

    echo = {
        **settings,
        "schema_version": SCHEMA_VERSION,
        "topology": _topology_echo(config, data.get("topology")),
        "output": output,
        "field": field_spec and {"m": field_spec.m, "polynomial": field_spec.reduction_polynomial},
        **{name: asdict(settings[name]) for name in ("failures", "data", "eta")},
        "neural": asdict(settings["neural"]) if application == "neural" else None,
        "capacity": capacity and asdict(capacity),
    }
    resolved = {key: echo[key] for key in _TOP_LEVEL if echo[key] is not None}
    return LoadedScenario(resolved, graph, scenario, capacity, checker.diagnostics, generator_echo)


def _topology_echo(config: TopologyConfig | None, raw) -> dict:
    if config is None:
        return dict(raw) if isinstance(raw, dict) else {}
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
    """Deterministic CSV text: header row then rows, LF line endings. A row
    that lacks a column raises KeyError, and one with a key beyond them ValueError."""
    known = set(columns)
    extra = next((row for row in rows if len(row) > len(known)), None)
    if extra is not None:  # a row longer than the columns has a key beyond them
        raise ValueError(f"row has keys that are not columns: {[k for k in extra if k not in known]}")
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(columns)
    cells = itemgetter(*columns)
    writer.writerows(map(cells, rows) if len(columns) > 1 else ([cells(row)] for row in rows))
    return buffer.getvalue()


def render_manifest(loaded: LoadedScenario) -> str:
    # Insertion order is kept (sort_keys=False) because node declaration
    # order defines node ids and therefore the rng draw order on replay.
    manifest = dict(loaded.resolved)
    if loaded.generator_echo is not None:  # a generator rebuilds its tree node for node
        manifest["topology"] = loaded.generator_echo
    manifest["tool_version"] = nfcsim.__version__
    return yaml.dump(manifest, Dumper=_DUMPER, sort_keys=False)


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
