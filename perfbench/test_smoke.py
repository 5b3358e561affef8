"""The benchmark's own tests (not part of the repository's tier-1 suite)::

    python3 -m pytest perfbench/test_smoke.py

Each runs the benchmark at smoke size, where every trial is a few
simulated milliseconds.
"""

import json
import pathlib
import shutil
import subprocess
import sys

import pytest

from perfbench.run import digest_problems

HERE = pathlib.Path(__file__).resolve().parent
RUN = HERE / "run.py"


def run_benchmark(*args: str, cwd: pathlib.Path | None = None):
    return subprocess.run([sys.executable, str(RUN), *args],
                          capture_output=True, text=True, timeout=300,
                          cwd=cwd)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_every_workload_passes_its_gate(trace):
    done = run_benchmark("--smoke", "--workload", "all", "--trace", trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 4
    assert all(metric["unit"] for metric in result["metrics"].values())
    assert {name.split(".")[0] for name in result["metrics"]} == {
        "chain_trickle", "chain_saturation", "flow_churn", "wan_sharded"}


def test_smoke_seed_outside_the_record_still_checks_invariants():
    done = run_benchmark("--smoke", "--workload", "flow_churn",
                         "--seed", "100003")
    assert done.returncode == 0, done.stderr


def test_digest_mismatch_is_a_failure():
    expected = {"delivered": 10, "events_scheduled": 100}
    assert digest_problems({"delivered": 10, "events_scheduled": 99},
                           expected) == []
    assert digest_problems({"delivered": 11, "events_scheduled": 100},
                           expected)
    assert digest_problems({"delivered": 10, "events_scheduled": 101},
                           expected)
    assert digest_problems({"delivered": 10}, None)


def test_without_the_program_it_exits_nonzero(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "chain_trickle",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
