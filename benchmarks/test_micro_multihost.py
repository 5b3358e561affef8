"""Micro-benchmark: the sharded kernel on the 22-node Rocketfuel WAN.

The paper's placement evaluation runs on Rocketfuel AS-16631 (22 nodes,
64 edges); this benchmark runs the sharded kernel on that same topology
(`repro.topology.rocketfuel.rocketfuel_like`) with a 6-service chain
spread across the node order — so at every shard count the chain, and
its transit hops, cross simulation-shard boundaries.  Two gates:

- **Correctness (always):** every shard count moves *exactly* the same
  packets — identical network-wide rx/tx/drop/conservation totals.
- **Speed (multi-core machines only):** with one worker process per
  shard, ``shards=4`` must beat the single-shard wall clock by ≥1.5×.
  On boxes with fewer than 4 CPUs the parallel run cannot win (the
  workers time-slice one core and pay the pipe tax on top), so the
  speedup assertion is skipped and the numbers are recorded instead.

The JSON artifact (``results/micro_multihost.json``) records wall-clock
and events/packet per shard count for regression tooling, and a
committed baseline (``baselines/micro_multihost_baseline.json``) pins the
deterministic totals across machines — the wall-clock ratio against the
baseline is reported but never gates (absolute time is
machine-dependent).
"""

import json
import os
import pathlib
import time

from repro.core import EXIT, ServiceGraph
from repro.net import FiveTuple
from repro.sim import MS, US
from repro.sim.sharded import Scenario, ShardedSimulator, TrafficSpec
from repro.topology.rocketfuel import (
    AS16631_EDGES,
    AS16631_NODES,
    rocketfuel_like,
)

DURATION = 20 * MS
LINK_DELAY = 500 * US
MIN_SPEEDUP = 1.5
SHARD_COUNTS = (1, 2, 4)

BASELINE_PATH = (pathlib.Path(__file__).parent / "baselines"
                 / "micro_multihost_baseline.json")

#: Six services spread across the node order: contiguous shard plans
#: put every group of ~5 hosts in play at shards=4.
SERVICES = ("a", "b", "c", "d", "e", "f")
PLACEMENT = {"a": "n0", "b": "n4", "c": "n8",
             "d": "n12", "e": "n16", "f": "n20"}


def make_scenario() -> Scenario:
    topology = rocketfuel_like(nodes=AS16631_NODES, edges=AS16631_EDGES,
                               cores_per_node=4,
                               link_delay_ns=LINK_DELAY)
    graph = ServiceGraph("wan-chain")
    for service in SERVICES:
        graph.add_service(service, read_only=True)
    for src, dst in zip(SERVICES, SERVICES[1:]):
        graph.add_edge(src, dst, default=True)
    graph.add_edge(SERVICES[-1], EXIT, default=True)
    graph.set_entry(SERVICES[0])
    return Scenario(
        topology=topology, graph=graph,
        placement=dict(PLACEMENT),
        duration_ns=DURATION,
        traffic=[
            TrafficSpec(host="n0",
                        flow=FiveTuple("10.0.0.1", "10.0.0.2", 6, 1, 80),
                        rate_mbps=2000.0, stop_ns=12 * MS),
            TrafficSpec(host="n0",
                        flow=FiveTuple("10.0.0.3", "10.0.0.4", 17, 2, 53),
                        rate_mbps=1200.0, start_ns=2 * MS,
                        stop_ns=10 * MS),
        ],
    )


def run_once(shards: int) -> dict:
    workers = 0 if shards == 1 else shards
    started = time.perf_counter()
    result = ShardedSimulator(make_scenario(), shards=shards,
                              workers=workers).run()
    wall_s = time.perf_counter() - started
    events = sum(r["events_scheduled"] for r in result.shard_results)
    packets = result.totals()["rx_packets"]
    return {
        "shards": shards,
        "workers": workers,
        "wall_s": wall_s,
        "events_scheduled": events,
        "events_per_packet": events / packets if packets else 0.0,
        "totals": result.totals(),
    }


def test_sharded_multihost_scaling(report):
    runs = {shards: run_once(shards) for shards in SHARD_COUNTS}

    # Correctness gate: shard count never changes what the network did.
    reference = runs[1]["totals"]
    for shards in SHARD_COUNTS[1:]:
        assert runs[shards]["totals"] == reference, shards
    assert reference["rx_packets"] > 10_000  # the workload is real

    # Cross-machine anchor: the committed baseline must see the exact
    # same deterministic workload (totals and event count); its
    # wall-clock ratio is reported but never gates.
    baseline = json.loads(BASELINE_PATH.read_text())
    assert reference == baseline["totals"]
    assert runs[1]["events_scheduled"] == baseline["events_scheduled"]
    baseline_ratio = baseline["wall_s"] / runs[1]["wall_s"]

    speedup = runs[1]["wall_s"] / runs[4]["wall_s"]
    parallel_capable = (os.cpu_count() or 1) >= 4

    lines = [
        "sharded Rocketfuel WAN chain "
        f"({AS16631_NODES} nodes, {AS16631_EDGES} edges, "
        f"{DURATION // MS} ms, 64 B)",
        f"{'shards':>6} {'workers':>7} {'wall_s':>8} {'events/pkt':>10}",
    ]
    for shards in SHARD_COUNTS:
        run = runs[shards]
        lines.append(f"{shards:>6} {run['workers']:>7} "
                     f"{run['wall_s']:>8.3f} "
                     f"{run['events_per_packet']:>10.2f}")
    lines.append(f"speedup shards=4 vs shards=1: {speedup:.2f}x "
                 f"(cpus={os.cpu_count()}, "
                 f"gate {'on' if parallel_capable else 'off'})")
    lines.append(f"shards=1 vs committed baseline: "
                 f"{baseline_ratio:.2f}x (non-gating)")
    metrics = {str(shards): {key: run[key] for key in
                             ("workers", "wall_s",
                              "events_scheduled",
                              "events_per_packet", "totals")}
               for shards, run in runs.items()}
    metrics["baseline_ratio"] = baseline_ratio
    report("micro_multihost", "\n".join(lines),
           metrics=metrics,
           config={"nodes": AS16631_NODES, "edges": AS16631_EDGES,
                   "duration_ns": DURATION,
                   "link_delay_ns": LINK_DELAY,
                   "placement": dict(PLACEMENT),
                   "shard_counts": list(SHARD_COUNTS),
                   "cpu_count": os.cpu_count(),
                   "min_speedup": MIN_SPEEDUP,
                   "speedup_gate_active": parallel_capable})

    if parallel_capable:
        assert speedup >= MIN_SPEEDUP, (
            f"shards=4 only {speedup:.2f}x faster than shards=1 "
            f"(need {MIN_SPEEDUP}x)")
