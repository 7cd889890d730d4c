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

import time
from dataclasses import dataclass
from operator import attrgetter
from typing import Callable, Collection, Iterator, Mapping

import numpy as np

from nfcsim.afc import FunctionAssignment, block_sizes, decompose_average, install_functions
from nfcsim.errors import DomainMismatch, MismatchedScenarios, ScenarioError
from nfcsim.field import FieldSpec
from nfcsim.graph import NfcGraph, NodeRole, TopologyConfig, build_graph
from nfcsim.learning.consensus import ConsensusState, consensus_step
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
from nfcsim.rng import substream

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

    def validation_errors(self) -> list[str]:
        name, app = self.application, APPLICATION_TABLE.get(self.application)
        if app is None:
            return [f"unknown application {name!r}"]
        default = Scenario(self.topology, name)
        problems = [
            f"{name} does not read {key}; it must keep its default"
            for key in SCENARIO_KEYS
            if key not in app.reads and attrgetter(key)(self) != attrgetter(key)(default)
        ]
        roles = list(self.topology.roles.values())
        destinations = roles.count(NodeRole.DESTINATION)
        rlnc, neural = name == "rlnc", name == "neural"
        problems += [message for failed, message in (
            (self.topology.mode not in app.modes, f"{name} does not run on mode {self.topology.mode!r}"),
            (destinations != 1, f"the topology must have exactly one destination, not {destinations}"),
            (self.packet_length < 1, "packet_length must be >= 1"),
            (self.data.std < 0, "data.std must be >= 0"),
            (self.generations < 0, "generations must be >= 0"),
            (self.eta.kind not in EtaSchedule.KINDS, f"eta.kind must be one of {EtaSchedule.KINDS}"),
            (self.eta.kind == "harmonic" and self.eta.value != default.eta.value,
             "eta.value is not read under kind harmonic; it must keep its default"),
            (rlnc and self.field is None, "rlnc requires a field section (digital domain)"),
            (rlnc and (self.n_prime is None or self.n_prime < 0), "rlnc requires n_prime >= 0"),
            (rlnc and not self.trials, "rlnc requires trials >= 1"),
            (neural and min(self.neural.samples, self.neural.epochs) < 1,
             "neural requires samples >= 1 and epochs >= 1"),
            (neural and self.packet_length != 1,
             "neural scenarios use scalar activities (packet_length 1)"),
            (name == "custom" and self.assignment is None,
             "custom application requires a FunctionAssignment"),
        ) if failed]
        if neural:
            # |sum of n uniform(-1, 1) features| < n: no sample could clear the margin
            n_sources = roles.count(NodeRole.SOURCE)
            margin = self.neural.margin
            if margin >= n_sources:
                problems.append(f"neural.margin must be below the source count {n_sources}")
            elif (acceptance := margin_acceptance(n_sources, margin)) < MIN_MARGIN_ACCEPTANCE:
                problems.append(
                    f"neural.margin {margin} is cleared by a fraction"
                    f" {acceptance:.2g} of samples over {n_sources} sources,"
                    f" below {MIN_MARGIN_ACCEPTANCE:g}"
                )
        return problems

    def validate(self) -> None:
        problems = self.validation_errors()
        if problems:
            raise ScenarioError("; ".join(problems))

    @property
    def effective_generations(self) -> int:
        if self.application == "rlnc":
            return int(self.trials or 0)
        if self.application == "neural":
            return self.neural.samples * self.neural.epochs
        return self.generations


class Metrics:
    """Per-arc message/symbol meters plus run-level counters.

    Totals always equal the sum of the per-arc counters; wall-clock time
    is informational and never serialized.
    """

    def __init__(self) -> None:
        self.arc_messages: dict[tuple[int, int], int] = {}
        self.arc_symbols: dict[tuple[int, int], int] = {}
        self.dropped_nodes = 0
        self.lost_messages = 0
        self.wall_clock = 0.0

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
        by_name = sorted(self.arc_symbols, key=lambda arc: (g.names[arc[0]], g.names[arc[1]]))
        return [
            {
                "src": g.names[u],
                "dst": g.names[v],
                "messages": self.arc_messages[(u, v)],
                "symbols": self.arc_symbols[(u, v)],
            }
            for u, v in by_name
        ]


@dataclass(frozen=True)
class ScenarioResult:
    """Everything a run produced: meters, tables, and a headline stat."""

    scenario: Scenario
    graph: NfcGraph
    metrics: Metrics
    headline: Mapping[str, object]
    tables: Mapping[str, tuple[tuple[str, ...], list[dict[str, object]]]]
    audit_events: list[tuple] | None = None  # barrier events, when run with audit=True

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
    still completes the generation with an empty batch); ``events``
    records delivery and evaluation order for auditing.
    """

    def __init__(self, audit: bool = False):
        self.buffers: dict[tuple[int, int], dict[int, list[object]]] = {}
        self.events: list[tuple] | None = [] if audit else None

    def deliver(self, child: int, node: int, generation: int, messages: list[object]) -> None:
        slot = self.buffers.setdefault((node, generation), {})
        slot.setdefault(child, []).extend(messages)
        if self.events is not None:
            self.events.append(("deliver", child, node, generation))

    def ready(self, node: int, generation: int, expected: set[int]) -> bool:
        slot = self.buffers.get((node, generation), {})
        return expected.issubset(slot.keys())

    def take(self, node: int, generation: int) -> dict[int, list[object]]:
        if self.events is not None:
            self.events.append(("evaluate", node, generation))
        return self.buffers.pop((node, generation), {})


def _row(t: int, value: object, dropped: int, lost: int = 0) -> dict[str, object]:
    return {"generation": t, "value": value, "dropped_nodes": dropped, "lost_messages": lost}


# -- application runners ----------------------------------------------------

def _run_forwarding(s: Scenario, g: NfcGraph, metrics: Metrics, audit: bool):
    """Raw delivery: each alive source sends one packet, which every alive
    node relays hop by hop to the root. Only the counts matter, so a
    node's count is summed over the level plan, one block of generations
    at a time: 1 for an alive source, its children's total for an alive
    atomic node."""
    dropout_rng, _ = s.failures.streams()
    dest = g.destinations[0]
    events: list[tuple] | None = [] if audit else None
    is_source = np.array([role is NodeRole.SOURCE for role in g.roles])
    sent = np.zeros(g.n_nodes, dtype=np.int64)
    rows: list[dict[str, object]] = []
    for size in block_sizes(s.generations, g.n_nodes):
        dropped = draw_dropped(g, s.failures, dropout_rng, size)
        metrics.dropped_nodes += int(dropped.sum())
        count = (is_source & ~dropped).astype(np.int64)
        for nodes, children, _ in g.level_plan:
            count[:, nodes] = ~dropped[:, nodes] * count[:, children].sum(axis=2)
        sent += count.sum(axis=0)
        delivered = count[:, list(g.in_neighbors[dest])].sum(axis=1).tolist()
        for b, gone in enumerate(dropped.tolist()):
            t = len(rows)
            rows.append(_row(t, delivered[b], sum(gone)))
            if events is not None:
                for v in [v for v in g.topo_order if not gone[v]]:  # the destination takes last
                    if g.roles[v] is NodeRole.ATOMIC:
                        events.append(("evaluate", v, t))
                    events.extend(("deliver", v, w, t) for w in g.out_neighbors[v])
                events.append(("evaluate", dest, t))
    for v in g.topo_order:
        for w in g.out_neighbors[v] if sent[v] else ():
            metrics.record((v, w), s.packet_length, messages=int(sent[v]))
    headline = {"delivered_packets": sum(row["value"] for row in rows)}
    return headline, {"trajectory": (TRAJECTORY_COLUMNS, rows)}, events


def _evaluated_generations(
    s: Scenario,
    g: NfcGraph,
    assignment: FunctionAssignment,
    metrics: Metrics,
    events: list[tuple] | None,
) -> Iterator[tuple[int, object]]:
    """The metered generation loop shared by consensus and custom.

    Each block of generations draws its dropout and source data and runs
    through the installed assignment in one pass; each generation then
    records its audit events when ``events`` is a list and yields
    (dropped count, destination output). Every arc that carried a message
    is metered once, after the last block. A node's packet width is fixed
    for the whole run, so the block split never decides whether it fails.
    """
    network = install_functions(g, assignment)
    data_rng = substream(s.seed, 0)
    dropout_rng, _ = s.failures.streams()
    dest = g.destinations[0]
    shape = (g.n_sources, s.packet_length)
    sent = np.zeros(g.n_nodes, dtype=np.int64)
    width = np.zeros(g.n_nodes, dtype=np.int64)
    t = 0
    for size in block_sizes(s.generations, g.n_nodes * s.packet_length):
        dropped = draw_dropped(g, s.failures, dropout_rng, size)
        metrics.dropped_nodes += int(dropped.sum())
        if s.field is not None:  # one draw per generation: small-dtype integers do not batch
            values = np.stack([s.field.random_elements(data_rng, shape) for _ in range(size)])
        else:
            values = data_rng.normal(s.data.mean, s.data.std, size=(size, *shape))
        block = network.evaluate_block(values, dropped)
        for v in np.flatnonzero(block.emitted.any(axis=0)).tolist():
            if sent[v] and width[v] != block.packets[v].shape[-1]:  # as within one block
                raise DomainMismatch(f"node {g.names[v]!r} emits packets of unequal widths")
            width[v] = block.packets[v].shape[-1]
        sent += block.emitted.sum(axis=0)
        for gone, row, output in zip(dropped.tolist(), block.emitted.tolist(), block.outputs[dest]):
            if events is not None:
                events.extend(("deliver", v, g.out_neighbors[v][0], t) for v in g.topo_order if row[v])
                events.append(("evaluate", dest, t))
            yield sum(gone), output
            t += 1
    for v in g.topo_order:
        if sent[v]:
            metrics.record((v, g.out_neighbors[v][0]), int(width[v]), messages=int(sent[v]))


def _run_consensus(s: Scenario, g: NfcGraph, metrics: Metrics, audit: bool):
    """Average decomposition feeding the harmonic-step estimator."""
    events: list[tuple] | None = [] if audit else None
    state = ConsensusState(estimate=np.zeros(s.packet_length), generation=0)
    rows: list[dict[str, object]] = []
    generations = _evaluated_generations(s, g, decompose_average(g), metrics, events)
    for t, (dropped, delivered) in enumerate(generations):
        if not isinstance(delivered, list):
            state = consensus_step(state, np.asarray(delivered))
        rows.append(_row(t, float(state.estimate[0]), dropped))
    headline = {"final_estimate": float(state.estimate[0])}
    return headline, {"trajectory": (TRAJECTORY_COLUMNS, rows)}, events


def _run_custom(s: Scenario, g: NfcGraph, metrics: Metrics, audit: bool):
    """Caller-supplied assignment; the last delivered value is the headline."""
    assert s.assignment is not None
    events: list[tuple] | None = [] if audit else None
    last_value = float("nan")
    rows: list[dict[str, object]] = []
    generations = _evaluated_generations(s, g, s.assignment, metrics, events)
    for t, (dropped, delivered) in enumerate(generations):
        if isinstance(delivered, list):
            delivered = delivered[0] if delivered else None
        value = float("nan")
        if delivered is not None:
            value = last_value = float(np.asarray(delivered).ravel()[0])
        rows.append(_row(t, value, dropped))
    return {"final_value": last_value}, {"trajectory": (TRAJECTORY_COLUMNS, rows)}, events


def _run_rlnc(s: Scenario, g: NfcGraph, metrics: Metrics, audit: bool):
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
        metrics.record(arc, per_message, messages=stats.messages_per_arc)
    headline = {"probability": stats.probability}
    return headline, {"stats": (stats.CSV_COLUMNS, [stats.csv_row()])}, None


def _run_neural(s: Scenario, g: NfcGraph, metrics: Metrics, audit: bool):
    """Distributed training; meters upward activities and downward
    gradient contributions (lost messages are transmitted, then lost)."""
    data_rng = substream(s.seed, 0)
    dataset = separable_dataset(g.n_sources, s.neural.samples, data_rng, margin=s.neural.margin)
    network = NeuralTreeNetwork(g, init_rng=substream(s.seed, 2))
    result = nn_train(network, dataset, s.neural.epochs, s.eta.at, failures=s.failures)
    for arc, count in result.arc_messages.items():
        metrics.record(arc, MESSAGE_SYMBOLS, messages=count)
    metrics.dropped_nodes += sum(result.dropped_per_step)
    metrics.lost_messages += sum(result.lost_per_step)
    rows = [
        _row(t, loss, dropped, lost)
        for t, (loss, dropped, lost) in enumerate(
            zip(result.losses, result.dropped_per_step, result.lost_per_step)
        )
    ]
    headline = {"final_loss": float(np.mean(result.losses[-len(dataset):]))}
    return headline, {"trajectory": (TRAJECTORY_COLUMNS, rows)}, None


@dataclass(frozen=True)
class Application:
    runner: Callable  # (scenario, graph, metrics, audit) -> (headline, tables, audit events)
    reads: Collection[str]  # the SCENARIO_KEYS it reads; the others must keep their defaults
    modes: tuple[str, ...] = ("tree",)  # the topology modes it runs on


_DROPOUT = "failures.node_dropout_p"

APPLICATION_TABLE = {
    # Forwarding counts packets without reading them, but it keeps data: the
    # benchmark (bench/workloads.py) copies the scenario's data into its twin.
    "forwarding": Application(_run_forwarding, {"generations", "data", _DROPOUT}, ("tree", "dag")),
    "rlnc": Application(_run_rlnc, {"field", "n_prime", "trials"}),
    "consensus": Application(_run_consensus, {"generations", "data", _DROPOUT}),
    "neural": Application(_run_neural, {"eta", "neural", _DROPOUT, "failures.message_loss_p"}),
    # A caller-supplied assignment on the real domain or a field; the CLI drives the other four.
    "custom": Application(_run_custom, {"generations", "field", "data", _DROPOUT, "assignment"}),
}
APPLICATIONS = tuple(APPLICATION_TABLE)
# Every key some application reads, as an attribute path on Scenario.
# failures.seed is none: the parser defaults it to the scenario seed.
SCENARIO_KEYS = sorted(set().union(*(app.reads for app in APPLICATION_TABLE.values())))


def run_scenario(s: Scenario, audit: bool = False) -> ScenarioResult:
    """Execute a validated scenario deterministically.

    ``audit=True`` additionally records barrier events (delivery and
    evaluation order) where the application routes messages generation
    by generation; the audit never changes results.
    """
    s.validate()
    g = build_graph(s.topology)
    metrics = Metrics()
    started = time.perf_counter()
    headline, tables, events = APPLICATION_TABLE[s.application].runner(s, g, metrics, audit)
    metrics.wall_clock = time.perf_counter() - started
    tables["arcs"] = (ARC_COLUMNS, metrics.arc_rows(g))
    return ScenarioResult(
        scenario=s,
        graph=g,
        metrics=metrics,
        headline=headline,
        tables=tables,
        audit_events=events,
    )


# -- cost comparison ---------------------------------------------------------

@dataclass(frozen=True)
class CostReport:
    """Forwarding-vs-NFC symbol accounting on a shared graph."""

    ratio: float  # forwarding_total / nfc_total
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
    ratio = fwd_total / nfc_total if nfc_total else float("inf")
    return CostReport(
        ratio=ratio, nfc_total=nfc_total, forwarding_total=fwd_total, arc_rows=rows
    )
