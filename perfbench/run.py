#!/usr/bin/env python3
"""SDNFV simulator benchmark.

Runs one workload (or ``all``, each in its own process) for a fixed
wall-clock budget, checks the simulated results, and prints every metric
by name, unit and workload; the last line is one JSON object::

    python3 perfbench/run.py --workload chain_trickle --seed 0 \\
        --seconds 10 --trace 0

``--trace 0`` reports the end-to-end metrics (host µs per simulated
packet, set-up time, peak RSS, and the simulated observables).
``--trace 1`` reports the per-layer metrics from a separate run with
span wrappers installed (see ``layers.py``).  ``--smoke`` shrinks every
trial for a quick self-test.  The exit code is non-zero when a
correctness check fails or the program under test is missing.
"""

from __future__ import annotations

import argparse
import gc
import json
import multiprocessing
import pathlib
import resource
import statistics
import subprocess
import sys
import time
import traceback

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
EXPECTED_PATH = HERE / "expected.json"
#: Repository files the benchmark imports besides ``src/``.
REQUIRED = ("src/repro/__init__.py", "benchmarks/test_micro_kernel.py",
            "benchmarks/test_micro_multihost.py", "tests/conftest.py")

END_TO_END_UNITS = {
    "host_us_per_pkt": "us",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "sim_delivered_gbps": "Gbps",
    "sim_delivered_ratio": "ratio",
    "sim_latency_p50_us": "sim_us",
    "sim_latency_p99_us": "sim_us",
    "sim_flows_per_s": "flows/s",
}
#: Kernel odometers: the gate allows fewer than recorded, never more.
ODOMETERS = ("events_scheduled", "timers_scheduled")

MIN_REPS = 3
#: Set-up-only builds timed after each repetition (set-up is cheap).
EXTRA_SETUPS = 2
#: Calibration-spin time the reported host times are scaled to: a host
#: whose spin takes this long reports its raw wall-clock figures.
REFERENCE_SPIN_S = 0.4

clock = time.perf_counter


def _import_program():
    missing = [name for name in REQUIRED if not (ROOT / name).is_file()]
    if missing:
        sys.exit(f"perfbench: program sources not found under {ROOT}: "
                 + ", ".join(missing))
    sys.path[0:1] = [str(ROOT / "src"), str(ROOT)]
    from benchmarks.test_micro_kernel import calibration_spin
    from perfbench import layers, workloads
    return calibration_spin, layers, workloads


# ----------------------------------------------------------------------
# Correctness
# ----------------------------------------------------------------------
def expected_key(workload_name: str, smoke: bool) -> str:
    return f"{workload_name}.smoke" if smoke else workload_name


def expected_for(workload_name: str, seed: int, smoke: bool) -> dict | None:
    """Committed digest values this seed must reproduce (None when the
    benchmark has no record for the workload)."""
    if not EXPECTED_PATH.is_file():
        return None
    entry = json.loads(EXPECTED_PATH.read_text()).get(
        expected_key(workload_name, smoke))
    if entry is None:
        return None
    return {**entry.get("any_seed", {}),
            **entry.get("by_seed", {}).get(str(seed), {})}


def digest_problems(digest: dict, expected: dict | None) -> list[str]:
    if expected is None:
        return ["no expected values recorded for this workload"]
    problems = []
    for key, want in sorted(expected.items()):
        got = digest.get(key)
        if key in ODOMETERS:
            ok = got is not None and got <= want
        else:
            ok = got == want
        if not ok:
            problems.append(f"{key} = {got!r}, expected {want!r}")
    return problems


class Repetition:
    """One built, run and checked trial."""

    def __init__(self, workload, seed: int, smoke: bool, traced: bool,
                 expected: dict | None, reference: dict | None,
                 before_run=None) -> None:
        gc.collect()
        start = clock()
        trial = workload.build(seed, smoke, traced)
        built = clock()
        if before_run is not None:
            before_run()
        ran = clock()
        trial.run()
        done = clock()
        self.setup_s = built - start
        self.run_s = done - ran
        self.observation = trial.observe()
        self.problems = (self.observation.problems
                         + digest_problems(self.observation.digest,
                                           expected))
        if reference is not None and self.observation.digest != reference:
            changed = sorted(key for key in reference
                             if self.observation.digest.get(key)
                             != reference[key])
            self.problems.append("simulated observables differ from the "
                                 f"reference run: {changed}")

    @property
    def us_per_pkt(self) -> float:
        return self.run_s * 1e6 / self.observation.sent


# ----------------------------------------------------------------------
# Measurement
# ----------------------------------------------------------------------
class Result:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.metrics: dict[str, tuple[float, str]] = {}
        self.notes: list[str] = []
        self.log: list[str] = []

    def run(self, *args, **kwargs) -> Repetition | None:
        """Run one repetition; count and log it, and return None when it
        fails (raises or breaks a check)."""
        self.attempted += 1
        try:
            rep = Repetition(*args, **kwargs)
        except Exception:  # a failed operation: counted, run continues
            self.log.append(traceback.format_exc())
            rep = None
        else:
            self.log.extend(rep.problems)
            if rep.problems:
                rep = None
        if rep is None:
            self.failed += 1
        return rep


def measure_untraced(workload, seed: int, seconds: float, smoke: bool,
                     spin, min_reps: int) -> Result:
    """End-to-end metrics.  A calibration spin runs before the first
    repetition and after every one; each repetition's host times are
    scaled by ``REFERENCE_SPIN_S`` over the mean of its two neighbouring
    spins, which cancels the host's speed drift (see NOTES.md).  The raw
    wall-clock medians are printed as context."""
    result = Result()
    expected = expected_for(workload.name, seed, smoke)
    reps: list[Repetition] = []
    raw: list[float] = []
    scaled: list[float] = []
    setups: list[float] = []
    scaled_setups: list[float] = []
    spins = [spin()]
    reference = None
    deadline = clock() + seconds
    while result.attempted < min_reps or clock() < deadline:
        rep = result.run(workload, seed, smoke, False, expected, reference)
        builds = [rep.setup_s] if rep is not None else []
        for _ in range(EXTRA_SETUPS):
            gc.collect()
            start = clock()
            workload.build(seed, smoke, False)
            builds.append(clock() - start)
        spins.append(spin())
        if rep is None:
            continue
        scale = REFERENCE_SPIN_S / statistics.fmean(spins[-2:])
        reference = reference or rep.observation.digest
        reps.append(rep)
        raw.append(rep.us_per_pkt)
        scaled.append(rep.us_per_pkt * scale)
        setups += builds
        scaled_setups += [build * scale for build in builds]
    if not reps:
        return result
    rusage = resource.getrusage
    peak_kib = (rusage(resource.RUSAGE_SELF).ru_maxrss
                + rusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    values = {
        "host_us_per_pkt": statistics.median(scaled),
        "setup_s": statistics.median(scaled_setups),
        "peak_rss_mib": peak_kib / 1024.0,
        **{name: reps[0].observation.digest[name]
           for name in END_TO_END_UNITS if name.startswith("sim_")},
    }
    result.metrics = {name: (values[name], unit)
                      for name, unit in END_TO_END_UNITS.items()}
    result.notes += [
        f"repetitions {len(reps)}, {reps[0].observation.sent} packets "
        f"each; set-up samples {len(setups)}",
        f"raw wall-clock medians, not gated: host us/pkt "
        f"{statistics.median(raw):.3f} (min {min(raw):.3f}, max "
        f"{max(raw):.3f}), set-up {statistics.median(setups):.6f} s",
        f"harness.calib_spin_s median {statistics.median(spins):.4f} s "
        f"over {len(spins)} spins (reference {REFERENCE_SPIN_S} s)",
    ]
    return result


def measure_traced(workload, seed: int, seconds: float, smoke: bool,
                   spin, layers) -> Result:
    """Per-layer metrics: one untraced reference repetition, then traced
    repetitions until the budget is spent.  Both use the in-process
    variant of the workload and must produce identical observables."""
    result = Result()
    expected = expected_for(workload.name, seed, smoke)
    spin_s = spin()
    reference = result.run(workload, seed, smoke, True, expected, None)
    if reference is None:
        return result
    tracer = layers.Tracer()
    spans: dict[str, list] = {}
    rounds: list = []
    counters: dict[str, float] = {}
    allocations = packets = reps = 0
    run_s = 0.0
    per_pkt: list[float] = []
    deadline = clock() + seconds
    tracer.install()
    try:
        while result.attempted < 2 or clock() < deadline:
            rep = result.run(workload, seed, smoke, True, expected,
                             reference.observation.digest,
                             before_run=tracer.reset)
            if rep is None:
                continue
            reps += 1
            for name, (calls, self_s) in tracer.snapshot().items():
                totals = spans.setdefault(name, [0, 0.0])
                totals[0] += calls
                totals[1] += self_s
            rounds += tracer.rounds
            allocations += tracer.allocations
            observation = rep.observation
            for key, value in observation.counters.items():
                counters[key] = counters.get(key, 0) + value
            for key in ODOMETERS:
                counters[key] = (counters.get(key, 0)
                                 + observation.digest[key])
            packets += observation.sent
            run_s += rep.run_s
            per_pkt.append(rep.us_per_pkt)
    finally:
        tracer.uninstall()
    if not reps:
        return result
    values = layers.layer_metrics(
        {name: tuple(totals) for name, totals in spans.items()}, rounds,
        allocations, counters, packets, reps, run_s, spin_s,
        statistics.median(per_pkt) / reference.us_per_pkt)
    result.metrics = {name: (values[name], unit)
                      for name, unit in layers.PER_LAYER_UNITS.items()}
    result.notes.append(f"traced repetitions {reps}, {packets} packets; "
                        f"untraced reference "
                        f"{reference.us_per_pkt:.3f} us/pkt")
    if tracer.missing:
        result.notes.append("not wrapped (absent): "
                            + ", ".join(tracer.missing))
    return result


# ----------------------------------------------------------------------
def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        help="workload name (see workloads.py), or 'all'")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measurement budget per workload "
                             "(default 25, smoke 0)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny trials, for the benchmark's own tests")
    return parser.parse_args(argv)


def run_all(names, args: argparse.Namespace) -> int:
    """``--workload all``: every workload in a child process of its own,
    so each one's peak RSS and host state are its own.  The children's
    metrics are merged under ``<workload>.<metric>``."""
    attempted = failed = 0
    metrics: dict[str, dict] = {}
    options = ["--seed", str(args.seed), "--trace", str(args.trace)]
    if args.seconds is not None:
        options += ["--seconds", str(args.seconds)]
    if args.smoke:
        options.append("--smoke")
    for name in names:
        done = subprocess.run([sys.executable, __file__, "--workload", name,
                               *options], stdout=subprocess.PIPE, text=True)
        *lines, last = done.stdout.splitlines() or [""]
        print("\n".join(lines), flush=True)
        try:
            child = json.loads(last)
        except json.JSONDecodeError:  # crashed before its result line
            child = {"attempted": 1, "failed": 1, "metrics": {}}
        attempted += child["attempted"]
        failed += child["failed"]
        metrics.update({f"{name}.{metric}": value
                        for metric, value in child["metrics"].items()})
    correct = failed == 0 and len(metrics) > 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    calibration_spin, layers, workloads = _import_program()
    if args.workload == "all":
        return run_all(list(workloads.WORKLOADS), args)
    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; choose "
                 f"from {sorted(workloads.WORKLOADS)} or 'all'")
    seconds = args.seconds
    if seconds is None:
        seconds = 0.0 if args.smoke else 25.0
    min_reps = 2 if args.smoke else MIN_REPS

    if args.trace:
        result = measure_traced(workload, args.seed, seconds, args.smoke,
                                calibration_spin, layers)
    else:
        result = measure_untraced(workload, args.seed, seconds, args.smoke,
                                  calibration_spin, min_reps)
    for line in result.log:
        print(f"FAILED {workload.name}: {line}", file=sys.stderr)
    for note in result.notes:
        print(f"# {workload.name}: {note}")
    for name, (value, unit) in result.metrics.items():
        print(f"{workload.name:<17} {name:<32} {value:>16.6f} {unit}")
    for child in multiprocessing.active_children():  # reaps the finished
        child.terminate()
        child.join()
    correct = result.failed == 0 and len(result.metrics) > 0
    print(json.dumps({
        "correct": correct, "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result.metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
