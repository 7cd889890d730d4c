"""Per-layer tracing by wrapping nfcsim's public names from outside.

Each traced name is replaced where its caller looks it up (a module
global such as ``nfcsim.engine.consensus_step``, or a class attribute
for methods), so nothing under ``src/`` changes. A wrapper records
calls, total time and self time (total minus the time of traced calls
nested inside it), plus a few simulated counters read from arguments
and return values at the same boundary.
"""

from __future__ import annotations

import importlib
import time

# Traced name -> the (module, attribute path) sites where callers look it up.
SITES: dict[str, tuple[tuple[str, str], ...]] = {
    "field.FieldSpec.__init__": (("nfcsim.field", "FieldSpec.__init__"),),
    "field.FieldSpec.combine": (("nfcsim.field", "FieldSpec.combine"),),
    "field.FieldSpec.mul_arrays": (("nfcsim.field", "FieldSpec.mul_arrays"),),
    "field.FieldSpec.random_elements": (("nfcsim.field", "FieldSpec.random_elements"),),
    "rlnc.DecoderState.add_vector": (("nfcsim.rlnc", "DecoderState.add_vector"),),
    "rlnc.RlncNetwork.run_pass": (("nfcsim.rlnc", "RlncNetwork.run_pass"),),
    "rlnc.trial_rng": (("nfcsim.rlnc", "trial_rng"),),
    "rlnc.run_recovery_experiment": (
        ("nfcsim.engine", "run_recovery_experiment"),
        ("nfcsim.rlnc", "run_recovery_experiment"),
    ),
    "afc.install_functions": (
        ("nfcsim.engine", "install_functions"),
        ("nfcsim.learning.consensus", "install_functions"),
        ("nfcsim.afc", "install_functions"),
    ),
    "afc.ConfiguredNetwork.evaluate": (("nfcsim.afc", "ConfiguredNetwork.evaluate"),),
    "afc.eval_dafc": (("nfcsim.afc", "eval_dafc"),),
    "engine.run_scenario": (("nfcsim.engine", "run_scenario"),),
    "engine.Metrics.record": (("nfcsim.engine", "Metrics.record"),),
    "engine.GenerationBarrier.deliver": (("nfcsim.engine", "GenerationBarrier.deliver"),),
    "engine.compare_costs": (("nfcsim.engine", "compare_costs"),),
    "learning.consensus.consensus_step": (
        ("nfcsim.engine", "consensus_step"),
        ("nfcsim.learning.consensus", "consensus_step"),
    ),
    "learning.neural.NeuralTreeNetwork.upward": (
        ("nfcsim.learning.neural", "NeuralTreeNetwork.upward"),
    ),
    "learning.neural.NeuralTreeNetwork.downward": (
        ("nfcsim.learning.neural", "NeuralTreeNetwork.downward"),
    ),
    "learning.neural.draw_dropped": (("nfcsim.learning.neural", "draw_dropped"),),
    "learning.neural.nn_train": (("nfcsim.engine", "nn_train"),),
    "solvability.brute_force_search": (("nfcsim.solvability", "brute_force_search"),),
    "solvability.verify_witness": (("nfcsim.solvability", "verify_witness"),),
    "solvability.linear_identity_check": (("nfcsim.solvability", "linear_identity_check"),),
    "graph.message_min_cut": (
        ("nfcsim.solvability", "message_min_cut"),
        ("nfcsim.graph", "message_min_cut"),
    ),
    "graph.build_graph": (
        ("nfcsim.engine", "build_graph"),
        ("nfcsim.graph", "build_graph"),
        ("nfcsim", "build_graph"),
    ),
    "scenario.parse_scenario_text": (("nfcsim.scenario", "parse_scenario_text"),),
    "scenario.write_outputs": (("nfcsim.scenario", "write_outputs"),),
    "scenario.render_csv": (("nfcsim.scenario", "render_csv"),),
}


# Simulated counters read at a traced boundary: traced name -> (ratio metric,
# before, after). ``before(args)``, if given, runs ahead of the call and
# ``after(its result, args, call result)`` returns the (numerator,
# denominator) increments of the ratio.
def _rank_before(args):
    return args[0].rank


def _rank_after(before, args, result):
    return result - before, 1


def _lost_after(_, args, result):
    return result.lost_messages, len(result.sent)


def _dropped_after(_, args, result):
    return len(result.dropped), args[0].graph.n_nodes - 1  # every node but the destination


COUNTERS = {
    "rlnc.DecoderState.add_vector": ("rlnc.DecoderState.add_vector.innovative_ratio",
                                     _rank_before, _rank_after),
    "learning.neural.NeuralTreeNetwork.downward": ("learning.neural.downward.lost_ratio",
                                                   None, _lost_after),
    "learning.neural.NeuralTreeNetwork.upward": ("learning.neural.upward.dropped_ratio",
                                                 None, _dropped_after),
}

def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """Installs the wrappers while entered; accumulates until discarded.

    ``stats[name] = [calls, total_s, self_s]`` and
    ``ratios[name] = [numerator, denominator]``.
    """

    def __init__(self) -> None:
        self.stats: dict[str, list[float]] = {}
        self.ratios: dict[str, list[int]] = {}
        self._stack: list[list[float]] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        stats, ratios, stack = self.stats, self.ratios, self._stack
        counter = COUNTERS.get(name)
        split = name == "engine.run_scenario"  # reported per application
        clock = time.perf_counter

        def traced(*args, **kwargs):
            key = f"{name}.{args[0].application}" if split else name
            token = counter[1](args) if counter and counter[1] else None
            frame = [0.0]
            stack.append(frame)
            started = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - started
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                entry = stats.setdefault(key, [0, 0.0, 0.0])
                entry[0] += 1
                entry[1] += elapsed
                entry[2] += elapsed - frame[0]
            if counter:
                num, den = counter[2](token, args, result)
                ratio = ratios.setdefault(counter[0], [0, 0])
                ratio[0] += num
                ratio[1] += den
            return result

        return traced

    def __enter__(self) -> "Tracer":
        for name, sites in SITES.items():
            owner, attr = _resolve(*sites[0])
            traced = self._wrap(name, owner.__dict__[attr])
            for site in sites:
                owner, attr = _resolve(*site)
                self._saved.append((owner, attr, owner.__dict__[attr]))
                setattr(owner, attr, traced)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()


# Per-layer metrics, in BENCHMARK.json order. Set-up metrics are the
# median over traced set-up processes of the named site's total time
# (the import is timed directly); the others are summed over traced
# repetitions and divided by the items those completed.
SETUP_METRICS = {
    "nfcsim.import_s": None,
    "scenario.parse_scenario_text.total_s": "scenario.parse_scenario_text",
    "field.FieldSpec.__init__.total_s": "field.FieldSpec.__init__",
}

_PER_ITEM = [
    ("field.FieldSpec.combine", ("calls", "self")),
    ("field.FieldSpec.mul_arrays", ("calls", "self")),
    ("field.FieldSpec.random_elements", ("self",)),
    ("rlnc.DecoderState.add_vector", ("calls", "self")),
    ("rlnc.RlncNetwork.run_pass", ("calls", "self")),
    ("rlnc.trial_rng", ("self",)),
    ("rlnc.run_recovery_experiment", ("self",)),
    ("afc.install_functions", ("total",)),
    ("afc.ConfiguredNetwork.evaluate", ("calls", "self")),
    ("afc.eval_dafc", ("calls", "self")),
    ("engine.run_scenario.rlnc", ("total",)),
    ("engine.run_scenario.consensus", ("total",)),
    ("engine.run_scenario.forwarding", ("total",)),
    ("engine.run_scenario.neural", ("total",)),
    ("engine.Metrics.record", ("calls", "self")),
    ("engine.GenerationBarrier.deliver", ("calls", "self")),
    ("engine.compare_costs", ("total",)),
    ("learning.consensus.consensus_step", ("calls", "self")),
    ("learning.neural.NeuralTreeNetwork.upward", ("calls", "self")),
    ("learning.neural.NeuralTreeNetwork.downward", ("calls", "self")),
    ("learning.neural.draw_dropped", ("self",)),
    ("learning.neural.nn_train", ("self",)),
    ("solvability.brute_force_search", ("calls", "self")),
    ("solvability.verify_witness", ("calls", "self")),
    ("solvability.linear_identity_check", ("total",)),
    ("graph.message_min_cut", ("calls", "self")),
    ("graph.build_graph", ("calls", "total")),
    ("scenario.write_outputs", ("total",)),
    ("scenario.render_csv", ("self",)),
]

# stat -> (index in Tracer.stats entries, metric suffix, unit)
_STATS = {"calls": (0, "calls", "calls/item"), "total": (1, "total_s", "s/item"),
          "self": (2, "self_s", "s/item")}
_UNUSED = (0, 0.0, 0.0)

LAYER_METRICS: list[tuple[str, str, str]] = [(name, "s", "lower") for name in SETUP_METRICS]
LAYER_METRICS += [(f"{site}.{_STATS[stat][1]}", _STATS[stat][2], "lower")
                  for site, stats in _PER_ITEM for stat in stats]
LAYER_METRICS += [
    ("rlnc.DecoderState.add_vector.innovative_ratio", "ratio", "higher"),
    ("learning.neural.downward.lost_ratio", "ratio", "lower"),
    ("learning.neural.upward.dropped_ratio", "ratio", "lower"),
    ("tracing_overhead", "ratio", "lower"),
]


def setup_stats(import_s: float, tracer: Tracer | None) -> dict[str, float]:
    """Set-up layer timings of one set-up process (only the import if untraced)."""
    stats = {"nfcsim.import_s": import_s}
    if tracer is not None:
        for name, site in SETUP_METRICS.items():
            if site is not None:
                stats[name] = tracer.stats.get(site, _UNUSED)[1]
    return stats


def layer_values(tracer: Tracer, items: int, setup: dict[str, float],
                 overhead: float) -> dict[str, float]:
    """Every per-layer metric, from traced repetitions and set-up medians."""
    values = {name: setup[name] for name in SETUP_METRICS}
    for site, stats in _PER_ITEM:
        entry = tracer.stats.get(site, _UNUSED)
        for stat in stats:
            index, suffix, _ = _STATS[stat]
            values[f"{site}.{suffix}"] = entry[index] / items
    for counter_name, _, _ in COUNTERS.values():
        num, den = tracer.ratios.get(counter_name, (0, 0))
        values[counter_name] = num / den if den else 0.0
    values["tracing_overhead"] = overhead
    return values
