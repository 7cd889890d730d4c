"""Deterministic generation-by-generation scenario execution.

One scenario = one graph + one application (forwarding baseline, coded
recovery, consensus averaging, neural training, or a custom function
assignment) + seeded randomness.
Every message is metered per arc as payload symbols plus the
application's header: coded packets carry their N-symbol coding vector
in band, average decomposition carries one count symbol (materialized in
the packet), neural messages carry a generation tag, and raw forwarding
is charged payload only. Identical scenarios (same seed) produce
identical results, byte for byte.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import attrgetter
from typing import Callable, Collection, Iterable, Iterator, Mapping

import numpy as np

from nfcsim.afc import ConfiguredNetwork, FunctionAssignment, block_sizes, install_functions
from nfcsim.errors import DomainMismatch, MismatchedScenarios, ScenarioError
from nfcsim.field import FieldSpec
from nfcsim.graph import NfcGraph, NodeRole, TopologyConfig, build_graph
from nfcsim.learning.consensus import ConsensusState, average_network, consensus_step
from nfcsim.learning.neural import (
    MESSAGE_SYMBOLS,
    MIN_MARGIN_ACCEPTANCE,
    FailureModel,
    NeuralTreeNetwork,
    draw_dropped,
    margin_acceptance,
    nn_train,
    separable_dataset,
)
from nfcsim.rlnc import run_recovery_experiment
from nfcsim.rng import DATA, INIT, substream

TRAJECTORY_COLUMNS = ("generation", "value", "dropped_nodes", "lost_messages")
ARC_COLUMNS = ("src", "dst", "messages", "symbols")


@dataclass(frozen=True)
class DataModel:
    """Synthetic source statistics for real-domain applications.

    Digital applications draw uniform field symbols instead; the domain
    selector is the scenario's field section."""

    mean: float = 0.0
    std: float = 1.0


@dataclass(frozen=True)
class EtaSchedule:
    KINDS = ("constant", "harmonic")  # not a field: the allowed values of kind

    kind: str = "constant"
    value: float = 0.5

    def at(self, t: int) -> float:
        if self.kind == "harmonic":
            return 1.0 / (t + 1)
        return self.value


@dataclass(frozen=True)
class NeuralParams:
    samples: int = 32
    epochs: int = 10
    margin: float = 0.5


@dataclass(frozen=True)
class Scenario:
    """Fully resolved run description; validates per-application needs."""

    topology: TopologyConfig
    application: str
    seed: int = 0
    generations: int = 0
    packet_length: int = 1
    field: FieldSpec | None = None
    n_prime: int | None = None
    trials: int | None = None
    failures: FailureModel = FailureModel()
    data: DataModel = DataModel()
    eta: EtaSchedule = EtaSchedule()
    neural: NeuralParams = NeuralParams()
    assignment: FunctionAssignment | None = None  # custom application only

    def keyed_errors(self) -> list[tuple[str, str]]:
        """(key, problem) pairs; the key is the dotted path of the scenario
        value the problem is about, so a parser can point at its line."""
        name, app = self.application, APPLICATION_TABLE.get(self.application)
        if app is None:
            return [("application", f"unknown application {name!r};"
                     f" must be one of {', '.join(APPLICATION_TABLE)}")]
        # An application on a field draws field symbols, so it reads no data.
        reads = set(app.reads) - {"data"} if self.field is not None and "field" in app.reads else app.reads
        default = Scenario(self.topology, name)
        problems = unread_errors(name, self, default, [key for key in SCENARIO_KEYS if key not in reads])
        roles = list(self.topology.roles.values())
        destinations = roles.count(NodeRole.DESTINATION)
        rlnc, neural = name == "rlnc", name == "neural"
        problems += [(key, f"{key} must be a finite number")
                     for key in FLOAT_KEYS if not math.isfinite(attrgetter(key)(self))]
        problems += [(key, message) for failed, key, message in (
            (self.topology.mode not in app.modes, "topology.mode",
             f"{name} does not run on mode {self.topology.mode!r}"),
            (destinations != 1, "topology", f"the topology must have exactly one destination, not {destinations}"),
            (self.seed < 0, "seed", "seed must be >= 0"),
            # failures.seed defaults to the seed, whose own row then reports it
            (self.failures.seed < 0 and self.failures.seed != self.seed, "failures.seed",
             "failures.seed must be >= 0"),
            # reading no failure probability, it draws no failure stream; 0 is FailureModel's default
            (not any(key.startswith("failures.") for key in reads) and self.failures.seed not in (0, self.seed),
             "failures.seed", f"{name} does not read failures.seed; it must keep its default"),
            (self.packet_length < 1, "packet_length", "packet_length must be >= 1"),
            (self.data.std < 0, "data.std", "data.std must be >= 0"),
            (self.generations < 0, "generations", "generations must be >= 0"),
            (self.eta.kind not in EtaSchedule.KINDS, "eta.kind", f"eta.kind must be one of {EtaSchedule.KINDS}"),
            (self.eta.kind == "harmonic" and self.eta.value != default.eta.value, "eta.value",
             "eta.value is not read under kind harmonic; it must keep its default"),
            (rlnc and self.field is None, "field", "rlnc requires a field section (digital domain)"),
            (rlnc and (self.n_prime is None or self.n_prime < 0), "n_prime", "rlnc requires n_prime >= 0"),
            (rlnc and (self.trials is None or self.trials < 1), "trials", "rlnc requires trials >= 1"),
            (neural and min(self.neural.samples, self.neural.epochs) < 1, "neural",
             "neural requires samples >= 1 and epochs >= 1"),
            (neural and self.packet_length != 1, "packet_length",
             "neural scenarios use scalar activities (packet_length 1)"),
            (name == "custom" and self.assignment is None, "assignment",
             "custom application requires a FunctionAssignment"),
        ) if failed]
        if neural and math.isfinite(self.neural.margin):
            # |sum of n uniform(-1, 1) features| < n: no sample could clear the margin
            n_sources = roles.count(NodeRole.SOURCE)
            margin = self.neural.margin
            if margin >= n_sources:
                problems.append(("neural.margin", f"neural.margin must be below the source count {n_sources}"))
            elif (acceptance := margin_acceptance(n_sources, margin)) < MIN_MARGIN_ACCEPTANCE:
                problems.append(("neural.margin", f"neural.margin {margin} is cleared by a fraction"
                                 f" {acceptance:.2g} of samples over {n_sources} sources,"
                                 f" below {MIN_MARGIN_ACCEPTANCE:g}"))
        return problems

    def validation_errors(self) -> list[str]:
        return [problem for _, problem in self.keyed_errors()]

    def validate(self) -> None:
        problems = self.validation_errors()
        if problems:
            raise ScenarioError("; ".join(problems))

    @property
    def effective_generations(self) -> int:
        return APPLICATION_TABLE[self.application].generations(self)


def unread_errors(reader: str, s: Scenario, default: Scenario, keys: Iterable[str]) -> list[tuple[str, str]]:
    """(key, problem) for each of ``keys``, attribute paths on Scenario that
    the reader ignores, whose value in ``s`` differs from that in ``default``."""
    return [(key, f"{reader} does not read {key}; it must keep its default")
            for key in keys if attrgetter(key)(s) != attrgetter(key)(default)]


class Metrics:
    """Per-arc message and symbol meters; the totals are sums over the arcs.
    A run records its dropped nodes and lost messages in its trajectory rows."""

    def __init__(self) -> None:
        self.arc_messages: dict[tuple[int, int], int] = {}
        self.arc_symbols: dict[tuple[int, int], int] = {}

    def record(self, arc: tuple[int, int], symbols: int, messages: int = 1) -> None:
        self.arc_messages[arc] = self.arc_messages.get(arc, 0) + messages
        self.arc_symbols[arc] = self.arc_symbols.get(arc, 0) + symbols * messages

    @property
    def total_symbols(self) -> int:
        return sum(self.arc_symbols.values())

    @property
    def total_messages(self) -> int:
        return sum(self.arc_messages.values())

    def arc_rows(self, g: NfcGraph) -> list[dict[str, object]]:
        """One row per metered arc, in the order of ``g.arcs_by_name``."""
        return [
            {
                "src": g.names[u],
                "dst": g.names[v],
                "messages": self.arc_messages[(u, v)],
                "symbols": self.arc_symbols[(u, v)],
            }
            for u, v in g.arcs_by_name
            if (u, v) in self.arc_symbols
        ]


@dataclass(frozen=True)
class ScenarioResult:
    """Everything a run produced: meters, tables, and a headline stat."""

    scenario: Scenario
    graph: NfcGraph
    metrics: Metrics
    headline: Mapping[str, object]
    tables: Mapping[str, tuple[tuple[str, ...], list[dict[str, object]]]]

    def summary_line(self) -> str:
        parts = [f"application={self.scenario.application}"]
        parts.append(f"generations={self.scenario.effective_generations}")
        parts.append(f"total_symbols={self.metrics.total_symbols}")
        parts.append(f"total_messages={self.metrics.total_messages}")
        for key, value in self.headline.items():
            parts.append(f"{key}={value}")
        return " ".join(parts)


class GenerationBarrier:
    """Per-node input buffers keyed by (child, generation).

    A node may evaluate generation t only once every non-dropped child's
    generation-t batch is buffered (an alive child with nothing to relay
    still completes the generation with an empty batch). No engine path
    uses it; it stays for the bench probe on ``deliver`` and the
    forwarding oracle of the property tests.
    """

    def __init__(self):
        self.buffers: dict[tuple[int, int], dict[int, list[object]]] = {}

    def deliver(self, child: int, node: int, generation: int, messages: list[object]) -> None:
        slot = self.buffers.setdefault((node, generation), {})
        slot.setdefault(child, []).extend(messages)

    def ready(self, node: int, generation: int, expected: set[int]) -> bool:
        slot = self.buffers.get((node, generation), {})
        return expected.issubset(slot.keys())

    def take(self, node: int, generation: int) -> dict[int, list[object]]:
        return self.buffers.pop((node, generation), {})


def _row(t: int, value: object, dropped: int, lost: int = 0) -> dict[str, object]:
    return {"generation": t, "value": value, "dropped_nodes": dropped, "lost_messages": lost}


# -- application runners ----------------------------------------------------

def _run_forwarding(s: Scenario, g: NfcGraph, metrics: Metrics):
    """Raw delivery: each alive source sends one packet, which every alive
    node relays hop by hop to the root. Only the counts matter, so a
    node's count is summed over the level plan, one block of generations
    at a time: 1 for an alive source, its children's total for an alive
    atomic node."""
    dropout_rng, _ = s.failures.streams()
    dest = g.destinations[0]
    is_source = np.array([role is NodeRole.SOURCE for role in g.roles])
    sent = np.zeros(g.n_nodes, dtype=np.int64)
    rows: list[dict[str, object]] = []
    for size in block_sizes(s.generations, g.n_nodes):
        dropped = draw_dropped(g, s.failures, dropout_rng, size)
        count = (is_source & ~dropped).astype(np.int64)
        for nodes, children, _ in g.level_plan:
            count[:, nodes] = ~dropped[:, nodes] * count[:, children].sum(axis=2)
        sent += count.sum(axis=0)
        delivered = count[:, list(g.in_neighbors[dest])].sum(axis=1).tolist()
        for value, gone in zip(delivered, dropped.sum(axis=1).tolist()):
            rows.append(_row(len(rows), value, gone))
    sent = sent.tolist()
    for v in g.topo_order:
        for w in g.out_neighbors[v] if sent[v] else ():
            metrics.record((v, w), s.packet_length, messages=sent[v])
    headline = {"delivered_packets": sum(row["value"] for row in rows)}
    return headline, {"trajectory": (TRAJECTORY_COLUMNS, rows)}


def _evaluated_generations(
    s: Scenario, g: NfcGraph, network: ConfiguredNetwork, metrics: Metrics
) -> Iterator[tuple[int, object]]:
    """The metered generation loop shared by consensus and custom.

    Each block of generations draws its dropout and source data and runs
    through the installed network in one pass; each generation then
    yields (dropped count, destination output). Every arc that carried a
    message is metered once, after the last block. A node's packet width
    is fixed by the source width and the functions, so every block gives
    it the same width, and the metering reads it from the last block.
    """
    data_rng = substream(s.seed, DATA)
    dropout_rng, _ = s.failures.streams()
    dest = g.destinations[0]
    shape = (g.n_sources, s.packet_length)
    sent = np.zeros(g.n_nodes, dtype=np.int64)
    for size in block_sizes(s.generations, g.n_nodes * s.packet_length):
        dropped = draw_dropped(g, s.failures, dropout_rng, size)
        if s.field is not None:  # one draw per generation: small-dtype integers do not batch
            values = np.stack([s.field.random_elements(data_rng, shape) for _ in range(size)])
        else:
            values = data_rng.normal(s.data.mean, s.data.std, size=(size, *shape))
        block = network.evaluate(values, dropped)
        sent += block.emitted.sum(axis=0)
        yield from zip(dropped.sum(axis=1).tolist(), block.outputs[dest])
    sent = sent.tolist()
    for v in g.topo_order:
        if sent[v]:  # some block ran
            metrics.record((v, g.out_neighbors[v][0]), block.packets[v].shape[-1], messages=sent[v])


def _run_consensus(s: Scenario, g: NfcGraph, metrics: Metrics):
    """Average decomposition feeding the harmonic-step estimator. Only the
    first symbol's estimate is recorded, so only it is folded, as a Python
    float: the same IEEE operations, element for element, as the vector
    fold of the property tests' oracle."""
    state = ConsensusState(estimate=0.0, generation=0)
    rows: list[dict[str, object]] = []
    generations = _evaluated_generations(s, g, average_network(g), metrics)
    for t, (dropped, delivered) in enumerate(generations):
        if not isinstance(delivered, list):
            state = consensus_step(state, float(delivered[0]))
        rows.append(_row(t, state.estimate, dropped))
    headline = {"final_estimate": state.estimate}
    return headline, {"trajectory": (TRAJECTORY_COLUMNS, rows)}


def _run_custom(s: Scenario, g: NfcGraph, metrics: Metrics):
    """Caller-supplied assignment; the last delivered value is the headline."""
    assert s.assignment is not None
    last_value = float("nan")
    rows: list[dict[str, object]] = []
    network = install_functions(g, s.assignment)
    for t, (dropped, delivered) in enumerate(_evaluated_generations(s, g, network, metrics)):
        if isinstance(delivered, list):
            delivered = delivered[0] if delivered else None
        elif delivered is not None and not np.size(delivered):
            decoder = network.decoders[g.destinations[0]]
            raise DomainMismatch(f"the decoder {getattr(decoder, '__name__', decoder)!r} of destination"
                                 f" {g.names[g.destinations[0]]!r} returned an empty row")
        value = float("nan")
        if delivered is not None:
            value = last_value = float(np.asarray(delivered).ravel()[0])
        rows.append(_row(t, value, dropped))
    return {"final_value": last_value}, {"trajectory": (TRAJECTORY_COLUMNS, rows)}


def _run_rlnc(s: Scenario, g: NfcGraph, metrics: Metrics):
    """Coded recovery experiment; each trial is one data generation."""
    assert s.field is not None and s.n_prime is not None and s.trials is not None
    stats = run_recovery_experiment(
        g,
        s.field,
        n_prime=s.n_prime,
        trials=s.trials,
        seed=s.seed,
        payload_length=s.packet_length,
    )
    per_message = s.packet_length + stats.n_sources  # coding vector rides in band
    for arc in g.arcs:
        metrics.record(arc, per_message, messages=s.trials * s.n_prime)
    headline = {"probability": stats.probability}
    return headline, {"stats": (stats.CSV_COLUMNS, [stats.csv_row()])}


def _run_neural(s: Scenario, g: NfcGraph, metrics: Metrics):
    """Distributed training; meters upward activities and downward
    gradient contributions (lost messages are transmitted, then lost)."""
    data_rng = substream(s.seed, DATA)
    dataset = separable_dataset(g.n_sources, s.neural.samples, data_rng, margin=s.neural.margin)
    network = NeuralTreeNetwork(g, init_rng=substream(s.seed, INIT))
    result = nn_train(network, dataset, s.neural.epochs, s.eta.at, failures=s.failures)
    for arc, count in result.arc_messages.items():
        metrics.record(arc, MESSAGE_SYMBOLS, messages=count)
    rows = [
        _row(t, loss, dropped, lost)
        for t, (loss, dropped, lost) in enumerate(
            zip(result.losses, result.dropped_per_step, result.lost_per_step)
        )
    ]
    headline = {"final_loss": float(np.mean(result.losses[-len(dataset):]))}
    return headline, {"trajectory": (TRAJECTORY_COLUMNS, rows)}


@dataclass(frozen=True)
class Application:
    runner: Callable  # (scenario, graph, metrics) -> (headline, tables)
    reads: Collection[str]  # the SCENARIO_KEYS it reads; the others must keep their defaults
    modes: tuple[str, ...] = ("tree",)  # the topology modes it runs on
    generations: Callable = attrgetter("generations")  # (scenario) -> generations a run covers


_DROPOUT = "failures.node_dropout_p"

APPLICATION_TABLE = {
    # Forwarding counts packets without reading them, but it keeps data: the
    # benchmark (bench/workloads.py) copies the scenario's data into its twin.
    "forwarding": Application(_run_forwarding, {"generations", "data", _DROPOUT}, ("tree", "dag")),
    "rlnc": Application(_run_rlnc, {"field", "n_prime", "trials"},
                        generations=lambda s: int(s.trials or 0)),  # one generation per trial
    "consensus": Application(_run_consensus, {"generations", "data", _DROPOUT}),
    "neural": Application(_run_neural, {"eta", "neural", _DROPOUT, "failures.message_loss_p"},
                          generations=lambda s: s.neural.samples * s.neural.epochs),  # one per step
    # A caller-supplied assignment on the real domain or a field; the CLI drives the other four.
    "custom": Application(_run_custom, {"generations", "field", "data", _DROPOUT, "assignment"}),
}
# Every key some application reads, as an attribute path on Scenario.
# failures.seed is none: the parser defaults it to the scenario seed.
SCENARIO_KEYS = sorted(set().union(*(app.reads for app in APPLICATION_TABLE.values())))
# The float values a scenario holds (FailureModel checks its own probabilities);
# YAML reads .nan and .inf as floats, and validation rejects both.
FLOAT_KEYS = ("data.mean", "data.std", "eta.value", "neural.margin")


def run_scenario(s: Scenario) -> ScenarioResult:
    """Execute a validated scenario deterministically. ``metrics`` meters the arcs;
    each generation's ``trajectory`` row (rlnc: no trajectory) counts its drops and losses."""
    s.validate()
    g = build_graph(s.topology)  # the config's one graph, shared by every run on it
    metrics = Metrics()
    headline, tables = APPLICATION_TABLE[s.application].runner(s, g, metrics)
    tables["arcs"] = (ARC_COLUMNS, metrics.arc_rows(g))
    return ScenarioResult(scenario=s, graph=g, metrics=metrics, headline=headline, tables=tables)


# -- cost comparison ---------------------------------------------------------

@dataclass(frozen=True)
class CostReport:
    """Forwarding-vs-NFC symbol accounting on a shared graph."""

    ratio: float  # forwarding_total / nfc_total; nan when both are 0
    nfc_total: int
    forwarding_total: int
    arc_rows: list[dict[str, object]]

    ARC_COLUMNS = ("src", "dst", "nfc_symbols", "forwarding_symbols")


def compare_costs(nfc: ScenarioResult, forwarding: ScenarioResult) -> CostReport:
    """Ratio of forwarded to in-network symbols for the same workload."""
    if forwarding.scenario.application != "forwarding":
        raise MismatchedScenarios("baseline scenario must run the forwarding application")
    if nfc.scenario.topology != forwarding.scenario.topology:
        raise MismatchedScenarios("scenarios run on different graphs")
    if nfc.scenario.packet_length != forwarding.scenario.packet_length:
        raise MismatchedScenarios("scenarios use different packet lengths")
    if nfc.scenario.effective_generations != forwarding.scenario.effective_generations:
        raise MismatchedScenarios("scenarios cover different generation counts")
    nfc_total = nfc.metrics.total_symbols
    fwd_total = forwarding.metrics.total_symbols
    rows = [
        {
            "src": nfc.graph.names[arc[0]],
            "dst": nfc.graph.names[arc[1]],
            "nfc_symbols": nfc.metrics.arc_symbols.get(arc, 0),
            "forwarding_symbols": forwarding.metrics.arc_symbols.get(arc, 0),
        }
        for arc in sorted(set(nfc.metrics.arc_symbols) | set(forwarding.metrics.arc_symbols))
    ]
    ratio = fwd_total / nfc_total if nfc_total else float("inf" if fwd_total else "nan")
    return CostReport(
        ratio=ratio, nfc_total=nfc_total, forwarding_total=fwd_total, arc_rows=rows
    )
