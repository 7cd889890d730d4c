"""Acceptance suite: one test per criterion, each printing PASS/FAIL.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete. Tolerances and runtime budgets are fixed here,
not calibrated.
"""

import itertools
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

from nfcsim.afc import (
    eval_aafc,
    nomographic_euclidean_norm,
    nomographic_geometric_mean,
    nomographic_mean,
    nomographic_sum,
)
from nfcsim.engine import DataModel, Scenario, compare_costs, run_scenario
from nfcsim.field import FieldSpec
from nfcsim.graph import (
    NodeRole,
    TopologyConfig,
    balanced_tree_topology,
    build_graph,
    random_tree_topology,
    star_topology,
)
from nfcsim.learning import (
    FailureModel,
    NeuralTreeNetwork,
    TrainingSample,
    consensus_run,
    dataset_loss,
    gradient_check,
    nn_train,
)
from nfcsim.learning.neural import separable_dataset
from nfcsim.rlnc import RlncNetwork, run_recovery_experiment
from nfcsim.scenario import parse_scenario_text, write_outputs
from nfcsim.solvability import (
    SolvabilityInstance,
    brute_force_search,
    identity_target,
    linear_identity_check,
    xor_target,
)
from reference_nn import Reference

GF2 = FieldSpec(1)
GF256 = FieldSpec(8)


def report(number: int, description: str, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"[criterion {number:02d}] {status}  {description}  ({detail})", flush=True)
    assert passed, f"criterion {number}: {description}: {detail}"


def test_criterion_01_rlnc_exact_enumeration_oracle():
    """Star, GF(2), N=2, N'=2: probability within 0.01 of 6/16."""
    invertible = sum(
        1
        for m in itertools.product((0, 1), repeat=4)
        if (m[0] * m[3] + m[1] * m[2]) % 2 == 1
    )
    oracle = invertible / 16
    started = time.perf_counter()
    stats = run_recovery_experiment(
        build_graph(star_topology(2)), GF2, n_prime=2, trials=100_000, seed=2024
    )
    elapsed = time.perf_counter() - started
    error = abs(stats.probability - oracle)
    report(
        1,
        "RLNC exact oracle (GF(2) star, 1e5 trials)",
        error <= 0.01 and elapsed < 10.0,
        f"p={stats.probability:.5f} oracle={oracle} |err|={error:.5f} t={elapsed:.1f}s",
    )


def test_criterion_02_rlnc_closed_form_oracle():
    """Star, GF(256), N=20: closed-form rank probability, then N'=22."""
    oracle = float(
        np.prod([1.0 - float(Fraction(1, 256**i)) for i in range(1, 21)])
    )
    graph = build_graph(star_topology(20))
    started = time.perf_counter()
    at_20 = run_recovery_experiment(graph, GF256, n_prime=20, trials=10_000, seed=7)
    at_22 = run_recovery_experiment(graph, GF256, n_prime=22, trials=10_000, seed=7)
    elapsed = time.perf_counter() - started
    error = abs(at_20.probability - oracle)
    passed = error <= 0.003 and at_22.probability >= 0.9999 and elapsed < 60.0
    report(
        2,
        "RLNC closed-form oracle (GF(256), N=20)",
        passed,
        f"p20={at_20.probability:.4f} oracle={oracle:.4f} p22={at_22.probability:.4f} t={elapsed:.1f}s",
    )


def test_criterion_03_coding_vector_consistency():
    """100 random trees: payload == coding_vector . sources, always."""
    rng = np.random.default_rng(33)
    checked = 0
    worst = True
    for _ in range(100):
        n = int(rng.integers(2, 17))
        g = build_graph(random_tree_topology(rng, n, max_depth=4))
        net = RlncNetwork(g, GF256, payload_length=4)
        for _generation in range(2):
            payloads = net.random_source_payloads(rng)
            for _pass in range(2):
                packets = net.pass_once(payloads, rng)
                for packet in packets.values():
                    expected = GF256.combine(packet.coding_vector, payloads)
                    worst = worst and np.array_equal(packet.payload, expected)
                    checked += 1
    report(3, "coding-vector consistency on 100 random trees", worst, f"{checked} packets checked")


def test_criterion_04_consensus_exactness():
    """N=100, T=1000: estimate is the running mean to 1e-12 relative."""
    g = build_graph(balanced_tree_topology(100, branching=10))
    rng = np.random.default_rng(44)
    samples = [rng.normal(2.0, 3.0, size=100) for _ in range(1000)]
    started = time.perf_counter()
    runs = [
        consensus_run(g, samples, 1000, initial_estimate=w0) for w0 in (0.0, 1e9)
    ]
    elapsed = time.perf_counter() - started
    running = np.cumsum(runs[0].means) / np.arange(1, 1001)
    worst_rel = 0.0
    for trajectory in runs:
        for t in range(1, 1001):
            w = float(np.asarray(trajectory.states[t].estimate).ravel()[0])
            rel = abs(w - running[t - 1]) / max(1e-300, abs(running[t - 1]))
            worst_rel = max(worst_rel, rel)
    report(
        4,
        "consensus exactness (N=100, T=1000, both initializers)",
        worst_rel <= 1e-12 and elapsed < 5.0,
        f"max rel err={worst_rel:.2e} t={elapsed:.1f}s",
    )


def test_criterion_05_backprop_equivalence():
    """7-node tree: gradient check < 1e-4 and 100 steps vs reference."""
    started = time.perf_counter()
    g = build_graph(balanced_tree_topology(4))
    net = NeuralTreeNetwork(g, init_rng=np.random.default_rng(55))
    rng = np.random.default_rng(56)
    worst_check = 0.0
    for label in (-1, 1):
        sample = TrainingSample(features=rng.uniform(-0.5, 0.5, 4), label=label)
        worst_check = max(worst_check, gradient_check(net, sample))

    shadow = {v: w.copy() for v, w in net.weights.items()}
    ref = Reference(net)
    eta = 0.4
    worst_step = 0.0
    for t in range(100):
        x = rng.uniform(-1, 1, size=4)
        target = float(t % 2)
        saved = {v: w.copy() for v, w in net.weights.items()}
        net.weights = {v: w.copy() for v, w in shadow.items()}
        grads = ref.gradients(x, target)
        shadow = {v: shadow[v] - eta * grads[v] for v in shadow}
        net.weights = saved
        up = net.upward(x)
        net.downward(up, target, eta=eta)
        for v in shadow:
            worst_step = max(worst_step, float(np.max(np.abs(net.weights[v] - shadow[v]))))
    elapsed = time.perf_counter() - started
    passed = worst_check < 1e-4 and worst_step <= 1e-10 and elapsed < 5.0
    report(
        5,
        "backprop equivalence (finite differences + centralized trainer)",
        passed,
        f"grad_check={worst_check:.2e} step_dev={worst_step:.2e} t={elapsed:.1f}s",
    )


def test_criterion_06_dropout_robustness():
    """Dropout 0.2, 10 seeds: median final loss below median initial."""
    g = build_graph(balanced_tree_topology(4))
    data = separable_dataset(4, 32, np.random.default_rng(66))
    initial, final = [], []
    for seed in range(10):
        net = NeuralTreeNetwork(g, init_rng=np.random.default_rng(100 + seed))
        initial.append(dataset_loss(net, data))
        nn_train(
            net,
            data,
            epochs=50,
            eta_schedule=0.5,
            failures=FailureModel(node_dropout_p=0.2, seed=seed),
        )
        final.append(dataset_loss(net, data))
    med_initial, med_final = float(np.median(initial)), float(np.median(final))
    report(
        6,
        "dropout robustness (p=0.2, 10 seeds)",
        med_final < med_initial,
        f"median initial={med_initial:.4f} final={med_final:.4f}",
    )


def test_criterion_07_solvability_cross_check():
    """Linear search agrees with the min-cut criterion on all N=2
    one- and two-relay topologies; XOR yes / identity no on the star."""
    started = time.perf_counter()

    def topologies(n_relays: int):
        relays = [f"a{i}" for i in range(n_relays)]
        candidates = []
        for s in ("s0", "s1"):
            candidates += [(s, r) for r in relays] + [(s, "d0")]
        for i in range(n_relays):
            for j in range(i + 1, n_relays):
                candidates.append((relays[i], relays[j]))
        candidates += [(r, "d0") for r in relays]
        roles = {
            "s0": NodeRole.SOURCE,
            "s1": NodeRole.SOURCE,
            **{r: NodeRole.ATOMIC for r in relays},
            "d0": NodeRole.DESTINATION,
        }
        for mask in range(1 << len(candidates)):
            arcs = [candidates[i] for i in range(len(candidates)) if (mask >> i) & 1]
            children: dict[str, list[str]] = {}
            for child, parent in arcs:
                children.setdefault(parent, []).append(child)
            yield build_graph(TopologyConfig(roles=roles, children=children, mode="dag"))

    instances = 0
    agreements = True
    for n_relays in (1, 2):
        for g in topologies(n_relays):
            km = linear_identity_check(g)
            verdict = brute_force_search(
                SolvabilityInstance(g, identity_target(2, 2), 2, function_class="linear")
            )
            instances += 1
            agreements = agreements and (verdict.solvable == "yes") == km.solvable

    star = build_graph(star_topology(2))
    xor_ok = brute_force_search(SolvabilityInstance(star, xor_target(2, 2), 2)).solvable == "yes"
    identity_no = (
        brute_force_search(SolvabilityInstance(star, identity_target(2, 2), 2)).solvable == "no"
    )
    elapsed = time.perf_counter() - started
    passed = agreements and xor_ok and identity_no and elapsed < 120.0
    report(
        7,
        "solvability cross-check (min-cut vs linear search)",
        passed,
        f"{instances} topologies, xor={xor_ok}, identity_unsolvable={identity_no}, t={elapsed:.1f}s",
    )


def test_criterion_08_communication_accounting():
    """64-source binary tree: exact symbol totals and exact ratio."""
    length, generations = 64, 3
    topo = balanced_tree_topology(64)
    nfc = run_scenario(
        Scenario(
            topology=topo,
            application="consensus",
            generations=generations,
            packet_length=length,
            seed=8,
            data=DataModel(mean=1.0, std=1.0),
        )
    )
    fwd = run_scenario(
        Scenario(
            topology=topo,
            application="forwarding",
            generations=generations,
            packet_length=length,
            seed=8,
        )
    )
    rep = compare_costs(nfc, fwd)
    nfc_ok = nfc.metrics.total_symbols == generations * 126 * (length + 1)
    fwd_ok = fwd.metrics.total_symbols == generations * 64 * 6 * length
    ratio_ok = rep.ratio == (64 * 6 * length) / (126 * (length + 1))
    report(
        8,
        "communication accounting (126*(L+1) vs 64*6*L, exact ratio)",
        nfc_ok and fwd_ok and ratio_ok,
        f"nfc={nfc.metrics.total_symbols} fwd={fwd.metrics.total_symbols} ratio={rep.ratio}",
    )


def test_criterion_09_determinism_byte_identical(tmp_path: Path):
    """Same manifest run twice: byte-identical CSV outputs."""
    text = """\
schema_version: 1
seed: 99
application: rlnc
topology:
  generator: star
  sources: 4
field:
  m: 8
packet_length: 8
n_prime: 5
trials: 2000
"""
    identical = True
    loaded = parse_scenario_text(text)
    assert loaded.ok, [str(d) for d in loaded.diagnostics]
    dirs = []
    for run_index in (1, 2):
        result = run_scenario(loaded.scenario)
        out = tmp_path / f"run{run_index}"
        write_outputs(loaded, result, out)
        dirs.append(out)
    for name in ("stats.csv", "arcs.csv", "manifest.yaml"):
        identical = identical and (
            (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()
        )
    # and replaying the emitted manifest reproduces the same bytes
    replay = parse_scenario_text((dirs[0] / "manifest.yaml").read_text())
    assert replay.ok
    replay_result = run_scenario(replay.scenario)
    out = tmp_path / "replay"
    write_outputs(replay, replay_result, out)
    for name in ("stats.csv", "arcs.csv", "manifest.yaml"):
        identical = identical and (
            (dirs[0] / name).read_bytes() == (out / name).read_bytes()
        )
    report(9, "determinism: byte-identical CSVs across runs and replay", identical, "3 files x 3 runs")


def test_criterion_10_nomographic_presets():
    """Presets exact at zero noise; noise std within 10% at sigma=0.1."""
    rng = np.random.default_rng(1010)
    xs = [rng.uniform(0.5, 3.0, size=64) for _ in range(4)]
    mean_err = np.max(
        np.abs(eval_aafc(nomographic_mean(4), xs) - np.mean(xs, axis=0))
        / np.abs(np.mean(xs, axis=0))
    )
    norm_direct = np.sqrt(np.sum(np.square(xs), axis=0))
    norm_err = np.max(
        np.abs(eval_aafc(nomographic_euclidean_norm(4), xs) - norm_direct) / norm_direct
    )
    geo_direct = np.prod(xs, axis=0) ** 0.25
    geo_err = np.max(
        np.abs(eval_aafc(nomographic_geometric_mean(4), xs) - geo_direct) / geo_direct
    )
    exact_ok = max(mean_err, norm_err, geo_err) <= 1e-12

    sigma = 0.1
    spec = nomographic_sum(2)  # identity post-processing
    noise_rng = np.random.default_rng(2020)
    errors = []
    clean = eval_aafc(spec, [np.array([1.0]), np.array([2.0])])
    for _ in range(10_000):
        noisy = eval_aafc(
            spec, [np.array([1.0]), np.array([2.0])], noise_sigma=sigma, rng=noise_rng
        )
        errors.append(noisy[0] - clean[0])
    std = float(np.std(errors))
    noise_ok = abs(std - sigma) <= 0.1 * sigma
    report(
        10,
        "nomographic presets (exact at sigma=0, noise std within 10%)",
        exact_ok and noise_ok,
        f"max rel err={max(mean_err, norm_err, geo_err):.2e} noise std={std:.4f}",
    )
