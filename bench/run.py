"""nfcsim benchmark: seeded workloads, host-time throughput, traced layers.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S

One run builds its workload's scenario from --seed, times set-up in
fresh processes, then repeats a fixed block of work for --seconds in
this single process, checking every repetition's outputs. The host is
shared and its speed drifts, so each timed sample is paired with a
calibration of the host's current speed and reported at a fixed
reference speed (``calibrate``); unscaled figures are printed too. With
--trace 0 it reports the end-to-end metrics; with --trace 1 it
alternates untraced and traced repetitions and reports the per-layer
metrics plus the tracing overhead. The last line of standard output is
the result JSON. ``--workload all`` runs every workload in turn and
prints one summary table.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("rlnc_gf256_star20", "rlnc_gf65536_tree16", "compare_tree100",
                  "neural_tree64x8", "solvability_sweep")


def import_nfcsim() -> float:
    """Import nfcsim from this checkout's src/ only; returns the seconds taken."""
    if not (SRC / "nfcsim" / "__init__.py").is_file():
        raise SystemExit(f"bench: no nfcsim sources at {SRC}")
    sys.path.insert(0, str(SRC))
    started = time.perf_counter()
    import nfcsim.scenario  # pulls in every layer the workloads use

    elapsed = time.perf_counter() - started
    if Path(nfcsim.__file__).resolve().parent != SRC / "nfcsim":
        raise SystemExit(f"bench: imported nfcsim from {nfcsim.__file__}, not {SRC}")
    return elapsed


def probe_command(args: argparse.Namespace) -> list[str]:
    command = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
               "--workload", args.workload, "--seed", str(args.seed),
               "--trace", str(args.trace)]
    return command + (["--tiny"] if args.tiny else [])


def run_setup_probe(args: argparse.Namespace, import_s: float) -> None:
    """Child side: set the workload up, then report on one line and exit."""
    import tracing
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, args.tiny)
    tracer = None
    if args.trace:
        with tracing.Tracer() as tracer:
            workload.setup()
    else:
        workload.setup()
    print(json.dumps(tracing.setup_stats(import_s, tracer)), flush=True)


# Host speed reference: a host on which ``calibrate`` takes this long.
REFERENCE_CALIBRATION_S = 0.02


def calibrate() -> float:
    """Seconds a fixed block of interpreter and small-array work takes now.

    The host is shared and its speed drifts by tens of percent within
    seconds, so every timed sample is paired with calibrations taken
    around it and reported at the reference speed (``at_reference_speed``).
    """
    import numpy

    started = time.perf_counter()
    table: dict[int, int] = {}
    row = numpy.arange(64)
    total = 0
    for i in range(60_000):
        table[i & 1023] = table.get(i & 1023, 0) + i
        if i % 50 == 0:
            total += int((row * i).sum())
    return time.perf_counter() - started


def at_reference_speed(samples: list[tuple[float, float]]) -> float:
    """Median of (seconds, calibration seconds) samples, each rescaled to
    the reference host speed."""
    return statistics.median(seconds * REFERENCE_CALIBRATION_S / cal for seconds, cal in samples)


def measure_setups(args: argparse.Namespace, count: int) -> tuple[list[tuple[float, float]],
                                                                  list[dict]]:
    """Seconds from starting a fresh process to its finished set-up, each
    with the calibration that followed it.

    Returns the samples and reports of the probes that succeeded.
    """
    times, reports = [], []
    for _ in range(count):
        started = time.perf_counter()
        with subprocess.Popen(probe_command(args), stdout=subprocess.PIPE, text=True,
                              cwd=ROOT) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - started
            proc.stdout.read()
        if proc.returncode == 0 and line:
            times.append((elapsed, calibrate()))
            reports.append(json.loads(line))
    return times, reports


def run_context() -> dict[str, object]:
    import numpy

    src_lines = sum(len(p.read_bytes().splitlines()) for p in SRC.rglob("*.py"))
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": numpy.__version__, "src_lines": src_lines}


def measure(args: argparse.Namespace, import_s: float) -> int:
    import tracing
    from workloads import WORKLOADS, file_digests

    workload = WORKLOADS[args.workload](args.seed, args.tiny)
    probes = 2 if args.tiny else 7
    setup_times, setup_reports = measure_setups(args, probes)
    failed = probes - len(setup_times)
    workload.setup()

    out = ROOT / ".bench_out" / f"{args.workload}-{os.getpid()}"
    out.mkdir(parents=True)
    tracer = tracing.Tracer()
    plain, traced = [], []  # (seconds per item, calibration) of each passing repetition
    first_digests: dict[str, str] | None = None
    attempted = 0
    min_repetitions = 4 if args.trace else 2
    durations = []  # wall seconds of each repetition, checks included
    cal_before = calibrate()
    started = time.perf_counter()
    try:
        # Start no repetition that would likely end past --seconds.
        while attempted < min_repetitions or (time.perf_counter() - started
                                              + statistics.median(durations) <= args.seconds):
            use_tracer = args.trace and attempted % 2 == 1
            attempted += 1
            try:
                began = time.perf_counter()
                if use_tracer:
                    with tracer:
                        items = workload.run(out)
                else:
                    items = workload.run(out)
                elapsed = time.perf_counter() - began
                cal_after = calibrate()
                cal, cal_before = (cal_before + cal_after) / 2, cal_after
                problems = workload.check(out, first=first_digests is None)
                digests = file_digests(out)
                if first_digests is None:
                    first_digests = digests
                elif digests != first_digests:
                    problems.append(f"outputs differ from the first repetition: {digests}")
            except Exception:  # a repetition that raises counts as failed; keep measuring
                traceback.print_exc()
                problems = ["raised"]
            durations.append(time.perf_counter() - began)
            if problems:
                failed += 1
                print(f"repetition {attempted} failed: {'; '.join(problems)}",
                      file=sys.stderr)
                continue
            (traced if use_tracer else plain).append((elapsed / items, cal))
    finally:
        for path in out.iterdir():
            path.unlink()
        out.rmdir()
        with contextlib.suppress(OSError):  # another run may still use it
            out.parent.rmdir()

    if not plain or (args.trace and not traced) or not setup_times:
        raise SystemExit(f"bench: {args.workload}: no passing repetition or set-up to report")
    attempted += probes
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    context = run_context()
    throughput = 1.0 / at_reference_speed(plain)
    setup_s = at_reference_speed(setup_times)
    raw_throughput = 1.0 / statistics.median(t for t, _ in plain)
    error_rate = failed / attempted
    named = {  # the workload's own names for its results, with units
        f"{workload.item}_per_s": (throughput, "1/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "error_rate": (error_rate, "ratio"),
    }
    if workload.oracle_err is not None:
        named["oracle_err"] = (workload.oracle_err, workload.oracle_unit)
    notes = {
        f"{workload.item}_per_s": f"median of {len(plain)} repetitions x {items}"
        f" {workload.item} at reference host speed; unscaled {raw_throughput:.2f}",
        "setup_s": f"median of {len(setup_times)} fresh processes, import"
        f" {statistics.median(r['nfcsim.import_s'] for r in setup_reports):.4f} s",
        "error_rate": f"{failed} of {attempted} operations failed: {probes} set-ups,"
        f" {attempted - probes} repetitions",
        "oracle_err": "deterministic for the seed",
    }
    lines = [f"workload {args.workload} seed={args.seed} seconds={args.seconds}"
             f" trace={args.trace}",
             "context " + " ".join(f"{k}={v}" for k, v in context.items())]
    lines += [f"{name} {value:.6g} {unit}" + (f" ({notes[name]})" if name in notes else "")
              for name, (value, unit) in named.items()]
    lines.append("sha256 " + " ".join(f"{k}={v[:16]}" for k, v in first_digests.items())
                 + f" (identical across {len(plain) + len(traced)} repetitions)")

    if args.trace:
        overhead = at_reference_speed(traced) / at_reference_speed(plain) - 1.0
        setup = {key: statistics.median(r[key] for r in setup_reports)
                 for key in setup_reports[0]}
        values = tracing.layer_values(tracer, len(traced) * items, setup, overhead)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit, _ in tracing.LAYER_METRICS}
        lines.append(f"tracing_overhead {overhead:.3f} (traced over untraced time per item,"
                     f" {len(traced)} traced repetitions)")
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "items_per_s": {"value": throughput, "unit": "1/s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    report = {
        "workload": args.workload, "seed": args.seed, "context": context,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in named.items()},
        "samples": {"setups": len(setup_times), "repetitions": len(plain),
                    "traced_repetitions": len(traced), "items_per_repetition": items},
        "sha256": first_digests,
    }
    print("\n".join(lines))
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def summarize(args: argparse.Namespace) -> int:
    """Run every workload in its own process and print one table."""
    header = ("workload", "throughput", "value", "setup_s", "peak_rss_mb", "error_rate",
              "oracle_err", "samples")
    rows = []
    for name in WORKLOAD_NAMES:
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", "0"] + (["--tiny"] if args.tiny else [])
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        lines = done.stdout.splitlines()
        if done.returncode != 0 or len(lines) < 2:
            rows.append((name, "failed") + ("",) * 6)
            continue
        report = json.loads(lines[-2])["report"]
        metrics = report["metrics"]
        rate = next(name for name in metrics if name.endswith("_per_s"))
        samples = report["samples"]
        rows.append((name, rate) + tuple(
            f"{metrics[key]['value']:.4g} {metrics[key]['unit']}" if key in metrics else ""
            for key in (rate, "setup_s", "peak_rss_mb", "error_rate", "oracle_err")
        ) + (f"{samples['setups']} set-ups, {samples['repetitions']} repetitions"
             f" x {samples['items_per_repetition']} items",))
    widths = [max(len(str(r[i])) for r in rows + [header]) for i in range(len(header))]
    for row in [header] + rows:
        print("  ".join(str(cell).ljust(w) for cell, w in zip(row, widths)).rstrip())
    return 0 if all(r[1] != "failed" and r[5] == "0 ratio" for r in rows) else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every repetition (for the self-test)")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    for variable in THREAD_VARIABLES:  # one single-threaded process, before numpy loads
        os.environ[variable] = "1"
    if args.workload == "all":
        return summarize(args)
    import_s = import_nfcsim()
    if args.setup_probe:
        run_setup_probe(args, import_s)
        return 0
    return measure(args, import_s)


if __name__ == "__main__":
    sys.exit(main())
