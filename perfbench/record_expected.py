#!/usr/bin/env python3
"""Record the simulated observables the benchmark's correctness gate
expects, into ``perfbench/expected.json``::

    python3 perfbench/record_expected.py [--workload NAME]

Every workload runs in-process (the sharded workload at workers=0, so
the committed totals are the ones multi-process runs must reproduce),
for every seed in ``RECORDED_SEEDS`` when the seed changes its inputs
and once otherwise, in both full and smoke sizes.  Values equal for every
recorded seed go under ``any_seed`` and are checked for any seed; the
rest go under ``by_seed``.  Re-record only in a change that deliberately
changes the simulated model, and say so in that change.
"""

from __future__ import annotations

import argparse
import json
import sys

from run import EXPECTED_PATH, _import_program, expected_key

#: Seeds whose full digest is recorded (NOTES.md, "Correctness gate").
RECORDED_SEEDS = range(64)


def record(workload, smoke: bool) -> dict:
    seeds = (RECORDED_SEEDS if workload.seed_invariant is not None
             else range(1))
    digests = {}
    for seed in seeds:
        trial = workload.build(seed, smoke, True)
        trial.run()
        observation = trial.observe()
        if observation.problems:
            sys.exit(f"{workload.name} seed {seed}: {observation.problems}")
        digests[seed] = observation.digest
        print(f"{expected_key(workload.name, smoke)} seed {seed}",
              file=sys.stderr)
    first = digests[seeds[0]]
    shared = {key: value for key, value in first.items()
              if workload.invariant(key)}
    for seed, digest in digests.items():
        moved = [key for key in shared if digest[key] != shared[key]]
        if moved:
            sys.exit(f"{workload.name}: seed {seed} changes {moved}, "
                     "declared seed-invariant")
    entry: dict = {"any_seed": shared}
    if workload.seed_invariant is not None:
        entry["by_seed"] = {
            str(seed): {key: value for key, value in digest.items()
                        if key not in shared}
            for seed, digest in digests.items()}
    return entry


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append",
                        help="re-record only this workload (repeatable)")
    args = parser.parse_args()
    _spin, _layers, workloads = _import_program()
    expected = (json.loads(EXPECTED_PATH.read_text())
                if args.workload and EXPECTED_PATH.is_file() else {})
    for workload in workloads.WORKLOADS.values():
        if args.workload and workload.name not in args.workload:
            continue
        for smoke in (False, True):
            expected[expected_key(workload.name, smoke)] = record(
                workload, smoke)
    EXPECTED_PATH.write_text(json.dumps(expected, indent=1, sort_keys=True)
                             + "\n")


if __name__ == "__main__":
    main()
