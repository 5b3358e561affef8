"""Micro-benchmark: adaptive per-pair lookahead + columnar transport.

The worst case for a global-minimum lookahead is one fast link in an
otherwise slow topology: a 12-host WAN chain whose crossing links are
all 5 ms except a single 50 us intra-DC hop in the middle.  At
``shards=12`` a plan that gives every crossing pair the global minimum
(the uniform schedule) barriers *every* shard every 50 us; the computed
per-pair plan (the adaptive schedule) confines the microsecond cadence
to the two shards actually coupled by the fast link and advances the
other ten in 5 ms WAN strides.  Four gates:

- **Correctness (always):** the uniform and adaptive runs report
  identical network totals, equal to the monolithic ``shards=1`` run.
- **Window reduction (always, deterministic):** the adaptive schedule
  advances >= 5x fewer shard-windows than the uniform one.
- **Transport (always, deterministic):** the columnar codec ships
  >= 10x fewer pipe messages than pickling one tuple per boundary
  event (the run's ``boundary_tx``) would.
- **Wall clock (multi-core machines only):** adaptive beats uniform by
  >= 1.3x with worker processes; on boxes with fewer than 4 CPUs the
  ratio is recorded but not gated (same pattern as the other
  benchmarks).

The JSON artifact (``results/micro_adaptive.json``) records window
counts, transport counters, and wall-clock per variant.
"""

import os
import time

from repro.core import EXIT, ServiceGraph
from repro.net import FiveTuple
from repro.sim import MS, US
from repro.sim.sharded import (
    Scenario,
    ShardedSimulator,
    ShardPlan,
    TrafficSpec,
)
from repro.topology import Link, NodeSpec, Topology

HOSTS = 12
FAST_DELAY = 50 * US    # the lone intra-DC hop (h5 - h6)
SLOW_DELAY = 5 * MS     # every WAN hop
DURATION = 20 * MS
RATE_MBPS = 1000.0
STOP_NS = 16 * MS
WORKERS = 4

MIN_WINDOW_REDUCTION = 5.0
MIN_MESSAGE_REDUCTION = 10.0
MIN_SPEEDUP = 1.3


def make_scenario() -> Scenario:
    topology = Topology()
    for i in range(HOSTS):
        topology.add_node(NodeSpec(name=f"h{i}", cores=4))
    for i in range(HOSTS - 1):
        delay = FAST_DELAY if i == 5 else SLOW_DELAY
        topology.add_link(Link(a=f"h{i}", b=f"h{i + 1}", delay_ns=delay))
    graph = ServiceGraph("dc-edge")
    for service in ("a", "b", "c"):
        graph.add_service(service, read_only=True)
    graph.add_edge("a", "b", default=True)
    graph.add_edge("b", "c", default=True)
    graph.add_edge("c", EXIT, default=True)
    graph.set_entry("a")
    # The chain straddles the fast hop: a->b rides a WAN link, b->c the
    # 50 us link, so boundary traffic crosses both delay classes.
    return Scenario(
        topology=topology, graph=graph,
        placement={"a": "h4", "b": "h5", "c": "h6"},
        duration_ns=DURATION,
        traffic=[TrafficSpec(
            host="h4",
            flow=FiveTuple("10.0.0.1", "10.0.0.2", 6, 1, 80),
            rate_mbps=RATE_MBPS, packet_size=64, stop_ns=STOP_NS)],
    )


def uniform_minimum_plan(scenario: Scenario, shards: int) -> ShardPlan:
    """The computed partition with every crossing pair's lookahead
    lowered to the global minimum: the classic global barrier."""
    plan = ShardPlan.compute(scenario.topology, shards)
    floor = min(delay for _, _, delay in plan.lookahead_matrix)
    return ShardPlan(groups=plan.groups,
                     lookahead_matrix=tuple(
                         (src, dst, floor)
                         for src, dst, _ in plan.lookahead_matrix))


def run_once(shards: int, workers: int, uniform: bool = False) -> dict:
    scenario = make_scenario()
    plan = (uniform_minimum_plan(scenario, shards) if uniform
            else ShardPlan.compute(scenario.topology, shards))
    started = time.perf_counter()
    result = ShardedSimulator(scenario, workers=workers, plan=plan).run()
    wall_s = time.perf_counter() - started
    summary = result.transport_summary()
    return {
        "shards": shards,
        "workers": workers,
        "plan": "uniform-minimum" if uniform else "computed",
        "wall_s": wall_s,
        "windows": summary["windows"],
        "batches": summary["batches"],
        "messages": summary["messages"],
        "bytes": summary["bytes"],
        # What per-event pickling would ship: one tuple per crossing.
        "per_event_messages": sum(shard["boundary_tx"]
                                  for shard in result.shard_results),
        "totals": result.totals(),
    }


def test_adaptive_schedule_and_columnar_transport(report):
    mono = run_once(1, 0)
    uniform = run_once(HOSTS, WORKERS, uniform=True)
    adaptive = run_once(HOSTS, WORKERS)

    # Correctness: the lookahead plan is a performance choice, not a
    # model change.
    for run in (uniform, adaptive):
        assert run["totals"] == mono["totals"], run["plan"]
    assert mono["totals"]["received"] > 10_000  # the workload is real

    # Deterministic gate 1: the adaptive schedule confines the 50 us
    # cadence to the two fast-coupled shards.
    window_reduction = uniform["windows"] / adaptive["windows"]
    assert window_reduction >= MIN_WINDOW_REDUCTION, (
        f"adaptive advanced {adaptive['windows']} windows vs uniform "
        f"{uniform['windows']} — only {window_reduction:.2f}x fewer "
        f"(need {MIN_WINDOW_REDUCTION}x)")

    # Deterministic gate 2: the columnar codec collapses what would be
    # one pickled tuple per boundary event into a few buffers per batch.
    per_event = adaptive["per_event_messages"]
    message_reduction = per_event / adaptive["messages"]
    assert message_reduction >= MIN_MESSAGE_REDUCTION, (
        f"columnar ships {adaptive['messages']} messages vs per-event "
        f"{per_event} — only {message_reduction:.2f}x fewer "
        f"(need {MIN_MESSAGE_REDUCTION}x)")

    speedup = uniform["wall_s"] / adaptive["wall_s"]
    parallel_capable = (os.cpu_count() or 1) >= 4

    lines = [
        f"adaptive lookahead on a {HOSTS}-host WAN chain "
        f"(one {FAST_DELAY // US} us hop among {SLOW_DELAY // MS} ms "
        f"links, shards={HOSTS}, workers={WORKERS})",
        f"{'plan':>16} {'wall_s':>8} {'windows':>8} {'batches':>8} "
        f"{'messages':>9} {'per-event':>9}",
    ]
    for run in (uniform, adaptive):
        lines.append(f"{run['plan']:>16} {run['wall_s']:>8.3f} "
                     f"{run['windows']:>8} {run['batches']:>8} "
                     f"{run['messages']:>9} "
                     f"{run['per_event_messages']:>9}")
    lines.append(f"window reduction {window_reduction:.2f}x, "
                 f"message reduction {message_reduction:.2f}x, "
                 f"wall speedup {speedup:.2f}x "
                 f"(cpus={os.cpu_count()}, "
                 f"gate {'on' if parallel_capable else 'off'})")
    report("micro_adaptive", "\n".join(lines),
           metrics={"mono": mono, "uniform": uniform,
                    "adaptive": adaptive,
                    "window_reduction": window_reduction,
                    "message_reduction": message_reduction,
                    "speedup": speedup},
           config={"hosts": HOSTS, "fast_delay_ns": FAST_DELAY,
                   "slow_delay_ns": SLOW_DELAY,
                   "duration_ns": DURATION, "rate_mbps": RATE_MBPS,
                   "stop_ns": STOP_NS, "workers": WORKERS,
                   "cpu_count": os.cpu_count(),
                   "min_window_reduction": MIN_WINDOW_REDUCTION,
                   "min_message_reduction": MIN_MESSAGE_REDUCTION,
                   "min_speedup": MIN_SPEEDUP,
                   "speedup_gate_active": parallel_capable})

    if parallel_capable:
        assert speedup >= MIN_SPEEDUP, (
            f"adaptive only {speedup:.2f}x faster than uniform "
            f"(need {MIN_SPEEDUP}x)")
