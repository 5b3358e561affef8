"""The benchmark-trend collator: every committed baseline and run
artifact lands in the trajectory table with its headline numbers, and
the CLI fails loudly when pointed at nothing (a misconfigured CI job).
"""

from __future__ import annotations

import ast
import importlib.util
import json
import pathlib
import subprocess
import sys

import pytest

REPO = pathlib.Path(__file__).resolve().parent.parent
SCRIPT = REPO / "tools" / "bench_trend.py"
BASELINES = REPO / "benchmarks" / "baselines"

spec = importlib.util.spec_from_file_location("bench_trend", SCRIPT)
bench_trend = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_trend)


#: Files committed under ``benchmarks/baselines/``; ``benchmarks/results/``
#: holds run outputs only and is ignored by git.
COMMITTED_BASELINES = sorted(path.name for path in BASELINES.glob("*.json"))


def _joined_json_paths(path: pathlib.Path) -> set[tuple[str, str]]:
    """``(directory, name)`` for each ``*.json`` name a module joins onto
    a ``"results"`` or ``"baselines"`` path with ``/`` — how benchmarks
    and tests open committed files."""
    found: set[tuple[str, str]] = set()
    for node in ast.walk(ast.parse(path.read_text())):
        parts: list[str] = []
        while isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
            if (isinstance(node.right, ast.Constant)
                    and isinstance(node.right.value, str)):
                parts.append(node.right.value)
            node = node.left
        if not parts or not parts[0].endswith(".json"):
            continue
        for directory in ("results", "baselines"):
            if directory in parts:
                found.add((directory, parts[0]))
    return found


def _tracked(directory: str) -> set[str]:
    listed = subprocess.run(["git", "ls-files", f"benchmarks/{directory}"],
                            cwd=REPO, capture_output=True, text=True)
    if listed.returncode != 0:
        pytest.skip("not a git checkout")
    return {pathlib.Path(line).name for line in listed.stdout.splitlines()}


class TestCollect:
    def test_repo_results_all_collated(self, tmp_path):
        """Collates the committed baselines plus a run artifact the test
        writes itself — never whatever earlier runs left behind."""
        results = tmp_path / "results"
        results.mkdir()
        (results / "micro_multihost.json").write_text(json.dumps(
            {"name": "micro_multihost",
             "metrics": {"wall_s": 1.5, "speedup": 1.2}}))
        rows = bench_trend.collect(BASELINES, results)
        by_name = {row["name"]: row for row in rows}
        # Every file shows up; baselines are tagged.
        assert set(by_name) == {pathlib.Path(name).stem for name in
                                [*COMMITTED_BASELINES,
                                 "micro_multihost.json"]}
        assert by_name["micro_multihost_baseline"]["baseline"]
        assert not by_name["micro_multihost"]["baseline"]
        assert not by_name["micro_adaptive"]["baseline"]
        # The adaptive benchmark's headline ratios survive flattening.
        ratios = by_name["micro_adaptive"]["ratios"]
        assert ratios["window_reduction"] >= 5.0
        assert ratios["message_reduction"] >= 10.0

    def test_every_results_file_read_is_tracked(self):
        """Each ``benchmarks/results/*.json`` or
        ``benchmarks/baselines/*.json`` a benchmark or test opens must be
        committed, or a fresh clone cannot run it."""
        tracked = {"results": _tracked("results"),
                   "baselines": _tracked("baselines")}
        read: set[tuple[str, str]] = set()
        for path in sorted([*REPO.glob("benchmarks/*.py"),
                            *REPO.glob("tests/*.py")]):
            read |= _joined_json_paths(path)
        # The scan must see the known baseline reads, or it is broken.
        assert {("baselines", "ablation_auto_parallel_baseline.json"),
                ("baselines", "ablation_columnar_baseline.json"),
                ("baselines", "micro_kernel_baseline.json"),
                ("baselines", "micro_multihost_baseline.json")} <= read
        untracked = sorted(f"{directory}/{name}" for directory, name in read
                           if name not in tracked[directory])
        assert untracked == []
        # Run outputs are never committed; every baseline is.
        assert tracked["results"] == set()
        assert set(COMMITTED_BASELINES) == tracked["baselines"]

    def test_shallowest_wall_clock_wins(self):
        flat = bench_trend.flatten({
            "wall_s": 2.0,
            "metrics": {"object": {"wall_s": 9.0}},
        })
        assert bench_trend._pick(flat, ("wall_s",)) == 2.0

    def test_ratio_detection_is_whole_word(self):
        flat = {"config.duration_ns": 1e6,      # no "ratio" ride-along
                "config.min_speedup": 1.3,      # threshold, not result
                "metrics.speedup": 1.7,
                "metrics.baseline_ratio": 1.2}
        assert bench_trend._ratios(flat) == {"speedup": 1.7,
                                             "baseline_ratio": 1.2}


class TestCli:
    def write_results(self, directory: pathlib.Path) -> None:
        (directory / "fast.json").write_text(json.dumps(
            {"name": "fast", "metrics": {"wall_s": 0.5, "speedup": 2.0,
                                         "events_per_pkt": 3.25}}))
        (directory / "slow_baseline.json").write_text(json.dumps(
            {"name": "slow_baseline", "wall_s": 4.0}))
        (directory / "broken.json").write_text("{not json")

    def test_table_and_raw_rows_written(self, tmp_path):
        results = tmp_path / "results"
        results.mkdir()
        self.write_results(results)
        out = tmp_path / "trend.txt"
        assert bench_trend.main([str(results), "--out", str(out)]) == 0

        table = out.read_text()
        assert "fast" in table and "speedup=2.00" in table
        assert "baseline" in table          # kind column tags baselines
        assert "unreadable" in table        # broken file is reported

        rows = json.loads(out.with_suffix(".txt.json").read_text())
        by_name = {row["name"]: row for row in rows}
        assert by_name["fast"]["wall_s"] == 0.5
        assert by_name["slow_baseline"]["baseline"]

    def test_own_output_never_self_aggregates(self, tmp_path):
        self.write_results(tmp_path)
        (tmp_path / "bench_trend.txt.json").write_text("[]")
        names = [row["name"] for row in bench_trend.collect(tmp_path)]
        assert "bench_trend.txt" not in names
        assert len(names) == 3

    def test_cli_exit_codes(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        bad = subprocess.run([sys.executable, str(SCRIPT), str(empty)],
                             capture_output=True, text=True)
        assert bad.returncode == 1
        assert "no benchmark results" in bad.stderr
        ok = subprocess.run([sys.executable, str(SCRIPT)],
                            capture_output=True, text=True)
        assert ok.returncode == 0
        assert "micro_adaptive" in ok.stdout
