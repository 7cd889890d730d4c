"""The benchmark's five workloads, each generated from a seed.

A workload parses its generated scenario and builds graph, field and
network in ``setup``, the work a fresh process does before its first
trial, generation or instance; ``run`` does one repetition of a fixed block of
work through the public entry points the CLI uses and writes its
outputs; ``check`` judges that repetition's outputs against an oracle.
Every repetition of one workload object has identical inputs, so its
written files must be byte-identical across repetitions.

Callers look nfcsim names up through their modules (``engine.run_scenario``
rather than an imported ``run_scenario``) so the tracer's wrappers apply.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import math
import random
from fractions import Fraction
from pathlib import Path

import numpy as np

from nfcsim import afc, engine, graph, rlnc, scenario, solvability
from nfcsim.graph import NodeRole, TopologyConfig
from nfcsim.learning import neural


def file_digests(out: Path) -> dict[str, str]:
    """sha256 of every file a repetition wrote, by file name."""
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.iterdir())
    }


def read_csv(path: Path) -> list[dict[str, str]]:
    with path.open(newline="") as handle:
        return list(csv.DictReader(handle))


class Workload:
    """One named workload; ``item`` names its unit of work."""

    name = ""
    item = ""
    oracle_unit = ""  # unit of oracle_err, for workloads that have an oracle

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = seed
        self.tiny = tiny
        self.oracle_err: float | None = None

    def scenario_text(self) -> str:
        raise NotImplementedError

    def parse(self) -> None:
        self.loaded = scenario.parse_scenario_text(self.scenario_text())
        if not self.loaded.ok:
            raise ValueError("; ".join(str(d) for d in self.loaded.diagnostics))

    def setup(self) -> None:
        self.parse()
        self.graph = graph.build_graph(self.loaded.scenario.topology)

    def run(self, out: Path) -> int:
        """One repetition: run, write outputs into ``out``; returns items done."""
        raise NotImplementedError

    def check(self, out: Path, first: bool) -> list[str]:
        """Problems found in the outputs of the repetition just run.

        ``first`` marks the first repetition, which also gets the checks
        too costly to repeat; later repetitions must match its digests.
        """
        raise NotImplementedError


# -- coded recovery -----------------------------------------------------------

# Criterion 02 accepts |p - oracle| <= 0.003 at 10,000 trials, 4.8 binomial
# standard deviations. Runs here use fewer trials, so they accept the
# failure counts whose exact binomial tails are no rarer than that.
CLOSED_FORM = float(np.prod([1.0 - float(Fraction(1, 256**i)) for i in range(1, 21)]))
_Q = 1.0 - CLOSED_FORM
TAIL = math.erfc(0.003 / math.sqrt(CLOSED_FORM * _Q / 10_000) / math.sqrt(2))


def accepted_failures(trials: int) -> range:
    """Failure counts within the criterion-02 confidence at this trial count."""
    def pmf(f: int) -> float:
        return math.exp(math.lgamma(trials + 1) - math.lgamma(f + 1)
                        - math.lgamma(trials - f + 1)
                        + f * math.log(_Q) + (trials - f) * math.log(CLOSED_FORM))

    masses = [pmf(f) for f in range(trials + 1)]
    at_most = list(itertools.accumulate(masses))
    at_least = list(itertools.accumulate(reversed(masses)))[::-1]
    low = next(f for f in range(trials + 1) if at_most[f] > TAIL / 2)
    high = next(f for f in reversed(range(trials + 1)) if at_least[f] > TAIL / 2)
    return range(low, high + 1)


class _Rlnc(Workload):
    item = "trials"
    topology = ""
    m = 8
    n_prime = 1
    packet_length = 1

    def scenario_text(self) -> str:
        return f"""\
schema_version: 1
seed: {self.seed}
application: rlnc
topology: {{{self.topology}}}
field: {{m: {self.m}}}
packet_length: {self.packet_length}
n_prime: {self.n_prime}
trials: {self.trials}
"""

    def setup(self) -> None:
        super().setup()
        s = self.loaded.scenario
        self.network = rlnc.RlncNetwork(self.graph, s.field, s.packet_length)

    def run(self, out: Path) -> int:
        result = engine.run_scenario(self.loaded.scenario)
        scenario.write_outputs(self.loaded, result, out)
        return self.trials

    def stats_row(self, out: Path) -> dict[str, str]:
        (row,) = read_csv(out / "stats.csv")
        return row


class RlncStar(_Rlnc):
    """Star, N=20 over GF(256), N'=20, L=1: the criterion-02 shape."""

    name = "rlnc_gf256_star20"
    oracle_unit = "abs"
    topology = "generator: star, sources: 20"
    n_prime = 20

    def __init__(self, seed: int, tiny: bool = False):
        super().__init__(seed, tiny)
        self.trials = 20 if tiny else 100

    def check(self, out: Path, first: bool) -> list[str]:
        row = self.stats_row(out)
        trials, successes = int(row["trials"]), int(row["successes"])
        self.oracle_err = abs(successes / trials - CLOSED_FORM)
        accepted = accepted_failures(trials)
        if trials - successes not in accepted:
            return [f"{trials - successes} failures in {trials} trials, outside"
                    f" {accepted.start}..{accepted.stop - 1} for p={CLOSED_FORM:.6f}"]
        return []


class RlncTree(_Rlnc):
    """Binary tree with 16 sources over GF(2^16), N'=10, L=32: wide rows, m > 8."""

    name = "rlnc_gf65536_tree16"
    topology = "generator: balanced_tree, sources: 16, branching: 2"
    m = 16
    n_prime = 10
    packet_length = 32

    def __init__(self, seed: int, tiny: bool = False):
        super().__init__(seed, tiny)
        self.trials = 2 if tiny else 5

    def check(self, out: Path, first: bool) -> list[str]:
        problems = []
        row = self.stats_row(out)
        if int(row["trials"]) != self.trials or int(row["successes"]) > self.trials:
            problems.append(f"stats.csv row inconsistent: {row}")
        if first:  # later repetitions must match these outputs byte for byte
            problems += [f"replayed trial {t} did not recover its source payloads"
                         for t in range(self.trials) if not self.replay(t)]
        return problems

    def replay(self, trial: int) -> bool:
        """Run one trial's passes through the packet API and decode it."""
        net = self.network
        rng = rlnc.trial_rng(self.seed, trial)
        payloads = net.random_source_payloads(rng)
        decoder = rlnc.DecoderState(net.field, net.n_sources)
        for _ in range(self.n_prime):
            for packet in net.destination_pairs(net.pass_once(payloads, rng)):
                decoder.add(packet)
        decoded = rlnc.destination_decode(decoder)
        return decoded.success and np.array_equal(decoded.packets, payloads)


# -- consensus against forwarding -----------------------------------------------

class CompareTree(Workload):
    """Consensus on the 100-source, branching-10 tree, its forwarding twin
    and the cost comparison, as ``nfcsim compare --out`` does."""

    name = "compare_tree100"
    item = "generations"
    oracle_unit = "rel"
    length = 1

    def __init__(self, seed: int, tiny: bool = False):
        super().__init__(seed, tiny)
        self.generations = 10 if tiny else 100

    def scenario_text(self) -> str:
        return f"""\
schema_version: 1
seed: {self.seed}
application: consensus
topology: {{generator: balanced_tree, sources: 100, branching: 10}}
generations: {self.generations}
packet_length: {self.length}
data: {{mean: 2.0, std: 3.0}}
"""

    def setup(self) -> None:
        super().setup()
        s = self.loaded.scenario
        g = self.graph
        self.network = afc.install_functions(g, afc.decompose_average(g))
        self.twin = engine.Scenario(
            topology=s.topology,
            application="forwarding",
            seed=s.seed,
            generations=s.effective_generations,
            packet_length=s.packet_length,
            field=s.field,
            data=s.data,
            failures=neural.FailureModel(seed=s.failures.seed),
        )
        # Oracle: the running mean of each generation's source mean.
        data_rng = engine.substream(s.seed, 0)
        means = [
            float(np.mean(data_rng.normal(s.data.mean, s.data.std, size=(g.n_sources, 1))))
            for _ in range(self.generations)
        ]
        self.running_mean = np.cumsum(means) / np.arange(1, self.generations + 1)
        # Closed-form symbol totals: every arc carries one (L+1)-symbol
        # message per generation; forwarding moves each source's packet
        # over every hop of its path to the destination.
        hops = 0
        for src in g.sources:
            v = src
            while g.out_neighbors[v]:
                v = g.out_neighbors[v][0]
                hops += 1
        self.nfc_total = self.generations * len(g.arcs) * (self.length + 1)
        self.fwd_total = self.generations * hops * self.length

    def run(self, out: Path) -> int:
        result = engine.run_scenario(self.loaded.scenario)
        baseline = engine.run_scenario(self.twin)
        self.report = engine.compare_costs(result, baseline)
        scenario.write_outputs(self.loaded, result, out)
        (out / "compare.csv").write_text(
            scenario.render_csv(self.report.ARC_COLUMNS, self.report.arc_rows)
        )
        return self.generations

    def check(self, out: Path, first: bool) -> list[str]:
        problems = []
        report = self.report
        if (report.nfc_total, report.forwarding_total) != (self.nfc_total, self.fwd_total):
            problems.append(f"symbol totals {report.nfc_total}/{report.forwarding_total}"
                            f" != closed form {self.nfc_total}/{self.fwd_total}")
        if report.ratio != self.fwd_total / self.nfc_total:
            problems.append(f"ratio {report.ratio} is not forwarding/nfc")
        arcs = sum(int(r["symbols"]) for r in read_csv(out / "arcs.csv"))
        rows = read_csv(out / "compare.csv")
        nfc = sum(int(r["nfc_symbols"]) for r in rows)
        fwd = sum(int(r["forwarding_symbols"]) for r in rows)
        if (arcs, nfc, fwd) != (self.nfc_total, self.nfc_total, self.fwd_total):
            problems.append(f"arc sums {arcs}/{nfc}/{fwd} differ from the run totals")
        values = np.array([float(r["value"]) for r in read_csv(out / "trajectory.csv")])
        if values.shape != self.running_mean.shape:
            return problems + [f"trajectory has {values.size} rows, not {self.generations}"]
        self.oracle_err = float(np.max(np.abs(values - self.running_mean)
                                       / np.abs(self.running_mean)))
        if self.oracle_err > 1e-12:
            problems.append(f"trajectory off the running mean by {self.oracle_err:.2e} > 1e-12")
        return problems


# -- neural training ---------------------------------------------------------------

class NeuralTree(Workload):
    """Nine logistic units on the 64-source, branching-8 tree, with node
    dropout and lost downward messages."""

    name = "neural_tree64x8"
    item = "steps"
    samples = 64

    def __init__(self, seed: int, tiny: bool = False):
        super().__init__(seed, tiny)
        self.epochs = 5 if tiny else 10

    def scenario_text(self) -> str:
        return f"""\
schema_version: 1
seed: {self.seed}
application: neural
topology: {{generator: balanced_tree, sources: 64, branching: 8}}
failures: {{node_dropout_p: 0.1, message_loss_p: 0.1}}
eta: {{kind: constant, value: 0.5}}
neural: {{samples: {self.samples}, epochs: {self.epochs}, margin: 0.5}}
"""

    def setup(self) -> None:
        super().setup()
        self.network = neural.NeuralTreeNetwork(
            self.graph, init_rng=engine.substream(self.seed, 2)
        )

    def run(self, out: Path) -> int:
        result = engine.run_scenario(self.loaded.scenario)
        scenario.write_outputs(self.loaded, result, out)
        return self.samples * self.epochs

    def check(self, out: Path, first: bool) -> list[str]:
        problems = []
        steps = read_csv(out / "trajectory.csv")
        if len(steps) != self.samples * self.epochs:
            problems.append(f"trajectory has {len(steps)} rows")
        # Gradient messages sent = arc messages minus one upward activity
        # per alive non-destination node per step.
        messages = sum(int(r["messages"]) for r in read_csv(out / "arcs.csv"))
        upward = sum(self.graph.n_nodes - 1 - int(r["dropped_nodes"]) for r in steps)
        lost = sum(int(r["lost_messages"]) for r in steps)
        if not 0 <= lost <= messages - upward:
            problems.append(f"lost {lost} > sent {messages - upward} gradient messages")
        if first:
            problems += self._train_again([float(r["value"]) for r in steps])
        return problems

    def _train_again(self, losses: list[float]) -> list[str]:
        """Retrain the run's network outside the engine: same losses, a
        falling dataset loss, and message-passing gradients that match
        finite differences."""
        s = self.loaded.scenario
        dataset = neural.separable_dataset(
            self.graph.n_sources, self.samples, engine.substream(s.seed, 0), margin=0.5
        )
        net = self.network
        initial = neural.dataset_loss(net, dataset)
        trained = neural.nn_train(net, dataset, epochs=self.epochs, eta_schedule=s.eta.at,
                                  failures=s.failures)
        final = neural.dataset_loss(net, dataset)
        problems = []
        if [float(x) for x in trained.losses] != losses:
            problems.append("trajectory.csv losses differ from a direct nn_train")
        if not final < initial:
            problems.append(f"dataset loss did not fall: {initial:.4f} -> {final:.4f}")
        worst = max(neural.gradient_check(net, sample) for sample in dataset[:2])
        if not worst < 1e-4:
            problems.append(f"gradient check {worst:.2e} >= 1e-4")
        return problems


# -- solvability -----------------------------------------------------------------

def _two_source_dags(n_relays: int) -> list[tuple[dict, list[tuple[str, str]]]]:
    """Every DAG over two sources, n relays and one destination (criterion 07)."""
    relays = [f"a{i}" for i in range(n_relays)]
    candidates = []
    for s in ("s0", "s1"):
        candidates += [(s, r) for r in relays] + [(s, "d0")]
    for i, j in itertools.combinations(range(n_relays), 2):
        candidates.append((relays[i], relays[j]))
    candidates += [(r, "d0") for r in relays]
    roles = {"s0": NodeRole.SOURCE, "s1": NodeRole.SOURCE,
             **{r: NodeRole.ATOMIC for r in relays}, "d0": NodeRole.DESTINATION}
    return [
        (roles, [candidates[i] for i in range(len(candidates)) if (mask >> i) & 1])
        for mask in range(1 << len(candidates))
    ]


class SolvabilitySweep(Workload):
    """Min-cut plus linear identity search on every two-source DAG with one
    or two relays, then one exhaustive linear "no" proof on the star."""

    name = "solvability_sweep"
    item = "instances"
    verdict_columns = ("instance", "relays", "min_cut", "linear")

    def scenario_text(self) -> str:
        return f"""\
schema_version: 1
seed: {self.seed}
topology: {{generator: star, sources: 2}}
capacity:
  target: identity
  alphabet: 2
  k_values: [2]
  l_values: [{1 if self.tiny else 2}]
  function_class: linear
"""

    def setup(self) -> None:
        self.parse()
        echo = self.loaded.resolved["topology"]
        star = graph.build_graph(TopologyConfig(
            roles={name: NodeRole(role) for name, role in echo["nodes"].items()},
            children=echo["children"],
            mode=echo["mode"],
        ))
        request = self.loaded.capacity
        self.target = solvability.TARGET_PRESETS[request.target](star.n_sources,
                                                                 request.alphabet)
        self.deep = solvability.SolvabilityInstance(
            star, self.target, request.alphabet,
            generation_length=request.k_values[0], packet_length=request.l_values[0],
            candidate_cap=request.cap, function_class=request.function_class,
        )
        # The seed fixes the instance order and each node's child order.
        rng = random.Random(self.seed)
        mix = []
        for n_relays in ((1,) if self.tiny else (1, 2)):
            for roles, arcs in _two_source_dags(n_relays):
                children: dict[str, list[str]] = {}
                for child, parent in arcs:
                    children.setdefault(parent, []).append(child)
                for kids in children.values():
                    rng.shuffle(kids)
                mix.append((n_relays, TopologyConfig(roles=roles, children=children,
                                                     mode="dag")))
        rng.shuffle(mix)
        self.mix = mix

    def run(self, out: Path) -> int:
        self.verdicts = []  # (min-cut verdict, linear search verdict) per instance
        rows = []
        for index, (n_relays, config) in enumerate(self.mix):
            g = graph.build_graph(config)
            cut = solvability.linear_identity_check(g)
            verdict = solvability.brute_force_search(solvability.SolvabilityInstance(
                g, self.target, 2, function_class="linear"))
            self.verdicts.append((cut.solvable, verdict.solvable))
            rows.append({"instance": index, "relays": n_relays, "min_cut": cut.cut,
                         "linear": verdict.solvable})
        self.deep_verdict = solvability.brute_force_search(self.deep).solvable
        rows.append({"instance": "star", "relays": 1, "min_cut": "",
                     "linear": self.deep_verdict})
        (out / "verdicts.csv").write_text(scenario.render_csv(self.verdict_columns, rows))
        return len(rows)

    def check(self, out: Path, first: bool) -> list[str]:
        problems = [f"instance {i}: min cut says {cut_ok}, linear search says {linear}"
                    for i, (cut_ok, linear) in enumerate(self.verdicts)
                    if linear not in ("yes", "no") or (linear == "yes") != cut_ok]
        if len(self.verdicts) != len(self.mix):
            problems.append(f"{len(self.verdicts)} verdicts for {len(self.mix)} instances")
        if self.deep_verdict != "no":
            problems.append(f"exhaustive star instance answered {self.deep_verdict}, not no")
        return problems


WORKLOADS = {w.name: w for w in (RlncStar, RlncTree, CompareTree, NeuralTree,
                                 SolvabilitySweep)}
