"""DDoS detection with dynamic scrubber instantiation (paper §5.2/Fig. 9).

Run:  python examples/ddos_mitigation.py

A detector NF aggregates traffic volume *across flows* by source prefix —
data-plane state an SDN controller could not hold cheaply.  When a prefix
crosses the threshold the detector raises an alarm UserMessage; the SDNFV
Application boots a Scrubber VM through the NFV orchestrator (7.75 s),
the scrubber issues RequestMe to capture the traffic, and the attack dies
while legitimate traffic keeps flowing.
"""

from repro.control import ControlPlane, NfvOrchestrator
from repro.core import EXIT, SdnfvApp, ServiceGraph
from repro.dataplane import NfvHost
from repro.nfs import DdosDetector, DdosScrubber
from repro.nfs.ddos import DDOS_ALARM_KEY
from repro.sim import MS, S, Simulator
from repro.workloads import DdosRampWorkload


def main() -> None:
    sim = Simulator()
    controller = ControlPlane(sim)
    orchestrator = NfvOrchestrator(sim)
    app = SdnfvApp(sim, controller=controller, orchestrator=orchestrator)
    host = NfvHost(sim, name="scrub0", controller=controller)
    app.register_host(host)

    detector = DdosDetector("detector", threshold_gbps=0.1,
                            prefix_bits=16, window_ns=500 * MS)
    host.add_nf(detector, ring_slots=4096)

    graph = ServiceGraph("ddos-mitigation")
    graph.add_service("detector", read_only=True)
    graph.add_service("scrubber")
    graph.add_edge("detector", EXIT, default=True)
    graph.add_edge("detector", "scrubber")
    graph.add_edge("scrubber", EXIT, default=True)
    graph.set_entry("detector")
    app.deploy(graph)

    scrubbers = []

    def on_alarm(host_name, message):
        rate = message.value["rate_gbps"]
        print(f"[{sim.now / S:6.1f}s] ALARM from {host_name}: "
              f"prefix rate {rate * 1000:.0f} Mbps — booting scrubber")

        def factory():
            scrubber = DdosScrubber(
                "scrubber", attack_matches=[message.value["match"]])
            scrubbers.append(scrubber)
            return scrubber

        app.launch_nf(host_name, factory)

    app.on_message(DDOS_ALARM_KEY, on_alarm)

    workload = DdosRampWorkload(
        sim, host, normal_mbps=20.0, attack_start_ns=5 * S,
        attack_ramp_mbps_per_s=10.0, attack_max_mbps=400.0,
        packet_size=1024, window_ns=2 * S)
    sim.run(until=40 * S)

    print(f"\nscrubber booted in "
          f"{(orchestrator.launches[0].ready_at - orchestrator.launches[0].requested_at) / S:.2f} s"
          f" (paper: 7.75 s)")
    print("time   incoming   outgoing   (Mbps)")
    for start in range(0, 40, 5):
        incoming = workload.in_meter.mean_gbps(start * S,
                                               (start + 5) * S) * 1000
        outgoing = workload.out_meter.mean_gbps(start * S,
                                                (start + 5) * S) * 1000
        print(f"{start:3d}s   {incoming:8.1f}   {outgoing:8.1f}")
    print(f"\nattack packets scrubbed : {scrubbers[0].scrubbed}")
    print(f"legit packets preserved : {scrubbers[0].passed}")
    assert scrubbers and scrubbers[0].scrubbed > 0


if __name__ == "__main__":
    main()
