"""Figure 9: DDoS detection and mitigation with dynamic VM instantiation.

Paper timeline (200 s): normal traffic at a constant 500 Mbps; a DDoS ramp
starts at 30 s; when incoming traffic from the attack prefix crosses the
3.2 Gbps threshold, the detector raises an alarm through the NF Manager to
the SDNFV Application, which boots a Scrubber VM (7.75 s); the scrubber
issues RequestMe and drops the attack — outgoing traffic returns to the
normal level while incoming keeps rising.

Scaling: rates are 1:25 (normal 20 Mbps, threshold 128 Mbps) so packet
counts stay tractable; the timeline (including the real 7.75 s VM boot)
is unscaled.
"""

import pytest

from repro.control import ControlPlane, NfvOrchestrator
from repro.core import SdnfvApp, ServiceGraph
from repro.core.service_graph import EXIT
from repro.dataplane import NfvHost
from repro.metrics import series_table
from repro.nfs import DdosDetector, DdosScrubber
from repro.nfs.ddos import DDOS_ALARM_KEY
from repro.sim import MS, S, Simulator
from repro.workloads import DdosRampWorkload

RATE_SCALE = 25.0  # paper rate / simulated rate
NORMAL_MBPS = 500.0 / RATE_SCALE
THRESHOLD_GBPS = 3.2 / RATE_SCALE
ATTACK_START_S = 30
RUN_S = 120


def run_fig9():
    sim = Simulator()
    controller = ControlPlane(sim)
    orchestrator = NfvOrchestrator(sim)
    app = SdnfvApp(sim, controller=controller, orchestrator=orchestrator)
    host = NfvHost(sim, name="ddos0", controller=controller)
    app.register_host(host)
    detector = DdosDetector("detector", threshold_gbps=THRESHOLD_GBPS,
                            prefix_bits=16, window_ns=500 * MS)
    host.add_nf(detector, ring_slots=4096)

    graph = ServiceGraph("ddos-mitigation")
    graph.add_service("detector", read_only=True)
    graph.add_service("scrubber")
    graph.add_edge("detector", EXIT, default=True)
    graph.add_edge("detector", "scrubber")
    graph.add_edge("scrubber", EXIT, default=True)
    graph.set_entry("detector")
    app.deploy(graph, proactive=True)

    scrubbers = []
    boot_times = []

    def boot_scrubber(host_name, message):
        boot_times.append(sim.now)

        def factory():
            scrubber = DdosScrubber(
                "scrubber", attack_matches=[message.value["match"]])
            scrubbers.append(scrubber)
            return scrubber

        app.launch_nf(host_name, factory)

    app.on_message(DDOS_ALARM_KEY, boot_scrubber)

    workload = DdosRampWorkload(
        sim, host, normal_mbps=NORMAL_MBPS,
        attack_start_ns=ATTACK_START_S * S,
        attack_ramp_mbps_per_s=2.5,
        attack_max_mbps=250.0 / RATE_SCALE * 25,  # keep ramping past it
        packet_size=1024, window_ns=2 * S)
    sim.run(until=RUN_S * S)
    return sim, workload, detector, scrubbers, boot_times, orchestrator


def test_fig9_ddos_detection_and_scrubbing(report, benchmark):
    (sim, workload, detector, scrubbers, boot_times,
     orchestrator) = benchmark.pedantic(run_fig9, iterations=1, rounds=1)

    assert detector.alarms_sent == 1
    assert len(scrubbers) == 1
    # VM boot took the paper's 7.75 s.
    launch = orchestrator.launches[0]
    assert launch.ready_at - launch.requested_at == 7_750_000_000

    alarm_s = boot_times[0] / S
    ready_s = launch.ready_at / S
    # The alarm fired after the ramp crossed the threshold.
    expected_cross = ATTACK_START_S + (THRESHOLD_GBPS * 1000
                                       - NORMAL_MBPS * 0) / 2.5
    assert alarm_s == pytest.approx(expected_cross, abs=8.0)

    # Before mitigation: outgoing tracked incoming (everything passed).
    in_before = workload.in_meter.mean_gbps(
        int((ready_s - 6) * S), int((ready_s - 1) * S))
    out_before = workload.out_meter.mean_gbps(
        int((ready_s - 6) * S), int((ready_s - 1) * S))
    assert out_before == pytest.approx(in_before, rel=0.15)

    # After mitigation: outgoing back to ~normal while incoming rises.
    in_after = workload.in_meter.mean_gbps(int((RUN_S - 20) * S),
                                           int(RUN_S * S))
    out_after = workload.out_meter.mean_gbps(int((RUN_S - 20) * S),
                                             int(RUN_S * S))
    normal_gbps = NORMAL_MBPS / 1000.0
    assert out_after == pytest.approx(normal_gbps, rel=0.3)
    assert in_after > 3 * out_after
    assert scrubbers[0].scrubbed > 0
    assert scrubbers[0].passed > 0  # normal traffic not scrubbed

    # Timeline table (the Fig. 9 curves, 10 s buckets).
    times, in_series, out_series = [], [], []
    for start in range(0, RUN_S, 10):
        times.append(start)
        in_series.append(workload.in_meter.mean_gbps(start * S,
                                                     (start + 10) * S))
        out_series.append(workload.out_meter.mean_gbps(start * S,
                                                       (start + 10) * S))
    columns = {"t_s": times, "incoming": in_series,
               "outgoing": out_series}
    report("fig9_ddos", series_table(
        f"Fig. 9 — in/out rate (Gbps, rates scaled 1:{RATE_SCALE:.0f}); "
        f"alarm at {alarm_s:.1f}s, scrubber ready at {ready_s:.1f}s",
        columns),
        metrics={**columns, "alarm_s": alarm_s, "scrubber_ready_s": ready_s})
