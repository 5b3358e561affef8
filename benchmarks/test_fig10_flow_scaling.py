"""Figure 10: SDNFV scales by distributing control decisions.

Paper: new video flows arrive at a configurable rate; each is established
after two packets.  "The Controller quickly becomes the bottleneck when
the input rate exceeds 1000 new flows/sec.  On the other hand, the output
rate of SDNFV can linearly increase, and achieves a maximum output rate 9
times greater."

SDN baseline: the first two packets of every flow go to the controller
(500 µs service each → 1000 flows/s ceiling).  SDNFV: the detector and
policy engine run as local NFs with proactive rules; no controller on the
per-flow path.
"""

import pytest

from repro.baselines import SdnVideoSystem
from repro.control import ControlPlane
from repro.core import SdnfvApp, ServiceGraph
from repro.core.service_graph import EXIT
from repro.dataplane import NfvHost
from repro.metrics import series_table
from repro.nfs import PolicyEngine, VideoFlowDetector
from repro.sim import S, Simulator
from repro.workloads import FlowChurnWorkload

RATES = [500, 1000, 2000, 4000, 9000]
MEASURE_NS = 2 * S


def measure_sdn(rate: float) -> float:
    sim = Simulator()
    controller = ControlPlane(sim, service_time_ns=500_000,
                              propagation_ns=500_000)
    system = SdnVideoSystem(sim, controller)
    workload = FlowChurnWorkload(sim, system, new_flows_per_second=rate)
    sim.run(until=MEASURE_NS)
    return system.completed_flows / (MEASURE_NS / S)


def measure_sdnfv(rate: float) -> float:
    sim = Simulator()
    app = SdnfvApp(sim)
    host = NfvHost(sim, name="sdnfv0")
    app.register_host(host)
    host.add_nf(VideoFlowDetector("vd"), ring_slots=4096)
    host.add_nf(PolicyEngine("pe", detector_service="vd",
                             transcoder_service="tc",
                             exit_port="eth1"), ring_slots=4096)
    graph = ServiceGraph("video")
    graph.add_service("vd", read_only=True)
    graph.add_service("pe")
    graph.add_edge("vd", "pe", default=True)
    graph.add_edge("vd", EXIT)
    graph.add_edge("pe", EXIT, default=True)
    graph.set_entry("vd")
    app.deploy(graph, proactive=True)
    workload = FlowChurnWorkload(sim, host, new_flows_per_second=rate)
    sim.run(until=MEASURE_NS)
    return workload.completed_flows / (MEASURE_NS / S)


def test_fig10_output_flows_vs_new_flows(report, benchmark):
    def run():
        return ([measure_sdn(rate) for rate in RATES],
                [measure_sdnfv(rate) for rate in RATES])

    sdn, sdnfv = benchmark.pedantic(run, iterations=1, rounds=1)

    # SDN saturates near 1000 flows/s (2 × 500 µs controller work/flow).
    assert sdn[RATES.index(1000)] <= 1100
    assert sdn[-1] <= 1100
    # SDNFV keeps up with the offered rate across the sweep (linear).
    for rate, completed in zip(RATES, sdnfv):
        assert completed == pytest.approx(rate, rel=0.15)
    # Paper headline: ~9x higher max output rate.
    ratio = max(sdnfv) / max(sdn)
    assert ratio > 6.0

    columns = {"new_flows_per_s": RATES, "SDN": sdn, "SDNFV": sdnfv}
    report("fig10_flow_scaling", series_table(
        f"Fig. 10 — completed flows/s vs offered new flows/s "
        f"(SDNFV:SDN max ratio {ratio:.1f}x; paper: 9x)", columns),
        metrics=columns)
