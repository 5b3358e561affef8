"""Ablation: profile-driven auto-parallel deployment vs sequential.

The read-only fusion ablation (``test_ablation_parallel_chains``) only
covers chains the declared bit can fuse.  This one measures what the
action-profile analyzer adds: chains alternating compute NFs with
*writers* (DscpMarker), which legacy fusion cannot group at all.
``deploy(auto_parallel=True)`` synthesizes a hybrid layout — each
marker fuses with its compute neighbours, while consecutive markers
stay separated by their dscp write/write conflict — so latency grows
per *group*, not per NF.

The latency table is pure simulated time, so it is deterministic across
machines; the committed baseline
(``baselines/ablation_auto_parallel_baseline.json``) pins it exactly.
"""

from __future__ import annotations

import json
import pathlib

from repro.core import SdnfvApp, ServiceGraph
from repro.core.service_graph import EXIT
from repro.dataplane import NfvHost
from repro.metrics import series_table
from repro.net import FiveTuple
from repro.nfs import ComputeNf, DscpMarker
from repro.sim import MS, Simulator
from repro.workloads import FlowSpec, PktGen

LENGTHS = [2, 3, 4, 5, 6, 7, 8]
COMPUTE_NS = 20_000

BASELINE_PATH = (pathlib.Path(__file__).parent / "baselines"
                 / "ablation_auto_parallel_baseline.json")


def build(sim: Simulator, length: int, name: str):
    """Host + linear graph alternating ComputeNf and DscpMarker."""
    app = SdnfvApp(sim)
    host = NfvHost(sim, name=name)
    app.register_host(host)
    services: list[str] = []
    for i in range(length):
        if i % 2 == 0:
            host.add_nf(ComputeNf(f"c{i}", cost_ns=COMPUTE_NS))
            services.append(f"c{i}")
        else:
            marker = DscpMarker(f"m{i}", default_dscp=16 + i)
            # Per-instance cost: the class (and so its inferred
            # profile) is untouched; only this deployment is heavy.
            marker.per_packet_cost_ns = COMPUTE_NS
            host.add_nf(marker)
            services.append(f"m{i}")
    graph = ServiceGraph(f"chain{length}")
    for service in services:
        graph.add_service(service)
    for service, nxt in zip(services, services[1:]):
        graph.add_edge(service, nxt, default=True)
    graph.add_edge(services[-1], EXIT, default=True)
    graph.set_entry(services[0])
    return app, host, graph


def measure(length: int, auto: bool) -> float:
    sim = Simulator()
    app, host, graph = build(sim, length, f"len{length}-{auto}")
    app.deploy(graph, auto_parallel=auto)
    flow = FiveTuple("10.0.0.1", "10.0.0.2", 6, 1, 80)
    gen = PktGen(sim, host)
    gen.add_flow(FlowSpec(flow=flow, rate_mbps=100.0, packet_size=1000,
                          stop_ns=40 * MS))
    sim.run(until=80 * MS)
    assert gen.received > 100
    return gen.latency.mean_us()


def test_ablation_auto_parallel(report, benchmark):
    def run():
        sequential = [measure(length, auto=False) for length in LENGTHS]
        auto = [measure(length, auto=True) for length in LENGTHS]
        return sequential, auto

    sequential, auto = benchmark.pedantic(run, iterations=1, rounds=1)
    speedups = [seq / par for seq, par in zip(sequential, auto)]

    # The analyzer's win: writers fuse too, so every chain length gets a
    # measurable latency cut that legacy fusion cannot deliver at all.
    for length, speedup in zip(LENGTHS, speedups):
        assert speedup > 1.4, (length, speedup)
    # Sequential pays one compute per NF; auto pays one per group.
    assert sequential[-1] > auto[-1] + 3 * COMPUTE_NS / 1000

    # Cross-machine anchor: simulated time is deterministic, so the
    # whole table must match the committed baseline exactly.
    baseline = json.loads(BASELINE_PATH.read_text())
    measured = {"chain_length": LENGTHS,
                "sequential_us": [round(v, 3) for v in sequential],
                "auto_parallel_us": [round(v, 3) for v in auto]}
    assert measured == {key: baseline["metrics"][key] for key in measured}

    columns = {**measured,
               "speedup": [round(s, 3) for s in speedups]}
    report("ablation_auto_parallel", series_table(
        "Ablation — mean RTT (us): sequential vs auto-parallel deploy, "
        "alternating 20 us compute / DSCP-marker chains", columns),
        # Scalar headline ratios so tools/bench_trend.py picks them up
        # (its flattener only reads scalar leaves, not series columns).
        metrics={**columns,
                 "speedup_min": round(min(speedups), 3),
                 "speedup_len8": round(speedups[-1], 3)},
        config={"compute_ns": COMPUTE_NS, "rate_mbps": 100.0,
                "packet_size": 1000, "lengths": LENGTHS})
