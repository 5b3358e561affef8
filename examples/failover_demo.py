"""Failover demo: kill the DPI NF mid-run and watch the system recover.

Run:  python examples/failover_demo.py

A fw -> dpi chain carries steady traffic when a :class:`NfCrash` fault
kills the DPI VM at t = 2 s.  The NF Manager's watchdog detects the dead
thread on its next heartbeat sweep, salvages the VM's ring, and — since
no replica is left — quarantines the service: every rule whose default
led to dpi is rewritten to dpi's own default edge, so traffic degrades
to fw -> eth1 instead of blackholing.  Meanwhile the SDNFV Application
promotes a standby process (250 ms); once it registers, the displaced
rules are reinstated and the recovery (MTTR, packets lost) is logged.

Everything lands in the EventLog, so the whole story is one timeline.
"""

from repro.control import ControlPlane, NfvOrchestrator
from repro.core import EXIT, SdnfvApp, ServiceGraph
from repro.dataplane import NfvHost, ToService
from repro.faults import FaultInjector, FaultPlan, NfCrash
from repro.metrics import EventLog, series_table
from repro.net import FiveTuple
from repro.nfs import NoOpNf
from repro.sim import MS, S, Simulator
from repro.workloads import FlowSpec, PktGen

CRASH_NS = 2 * S


def main() -> None:
    sim = Simulator()
    controller = ControlPlane(sim)
    orchestrator = NfvOrchestrator(sim)
    app = SdnfvApp(sim, controller=controller, orchestrator=orchestrator)
    log = EventLog(sim)
    app.attach_event_log(log)

    host = NfvHost(sim, name="edge", controller=controller)
    app.register_host(host)
    host.add_nf(NoOpNf("fw"))
    host.add_nf(NoOpNf("dpi"))

    # Sequential on purpose: read_only=True would fuse fw+dpi into a
    # parallel group, and a fan-out loses the dead member, not the flow.
    graph = ServiceGraph("protected-chain")
    graph.add_service("fw")
    graph.add_service("dpi")
    graph.add_edge("fw", "dpi", default=True)
    graph.add_edge("dpi", EXIT, default=True)
    graph.set_entry("fw")
    app.deploy(graph)

    # Watchdog + standby promotion for dpi (fw is left unprotected).
    watchdog = app.enable_failover(
        host, {"dpi": lambda: NoOpNf("dpi")},
        interval_ns=10 * MS, mode="standby_process")

    # The scripted failure: dpi's only replica dies at t = 2 s.
    plan = FaultPlan(seed=7)
    plan.add(NfCrash(at_ns=CRASH_NS, service="dpi"))
    FaultInjector(sim, plan, hosts=[host]).arm()

    # Steady 20 Mbps so the outage window actually carries packets.
    gen = PktGen(sim, host, seed=7)
    flow = FiveTuple("10.0.0.1", "10.0.0.2", 17, 4000, 4001)
    gen.add_flow(FlowSpec(flow=flow, rate_mbps=20.0, packet_size=800,
                          pacing="poisson", start_ns=100 * MS,
                          stop_ns=4 * S))

    # Sample how traffic is being served around the crash.
    degraded_defaults = []

    def sample():
        table = host.flow_table
        entry = table.lookup("fw", flow, now_ns=sim.now)
        degraded_defaults.append(
            (sim.now, str(entry.default_action),
             len(host.manager.vms_by_service.get("dpi", ()))))

    for at_ns in (CRASH_NS - 100 * MS, CRASH_NS + 100 * MS,
                  CRASH_NS + 400 * MS):
        sim.schedule(at_ns, sample)

    sim.run(until=4 * S)

    print("=== failover timeline (control events) ===")
    print(log.format(category="fault_injected"))
    print(log.format(category="nf_failure"))
    print(log.format(category="service_quarantined"))
    print(log.format(category="vm_launch"))
    print(log.format(category="service_restored"))
    print(log.format(category="nf_recovered"))

    print("\n=== fw's default route around the crash ===")
    print(series_table(
        "where fw sends traffic (ToService(dpi) = NF path)",
        {"t_s": [round(t / S, 2) for t, _d, _r in degraded_defaults],
         "fw_default": [d for _t, d, _r in degraded_defaults],
         "dpi_replicas": [r for _t, _d, r in degraded_defaults]}))

    recovery = watchdog.recoveries[0]
    print(f"\nMTTR: {recovery.mttr_ns / MS:.1f} ms "
          f"(detected {recovery.detected_at_ns / S:.3f} s, "
          f"replacement serving {recovery.recovered_at_ns / S:.3f} s)")
    print(f"packets: sent={gen.sent} received={gen.received} "
          f"lost_in_nf={host.stats.lost_in_nf} "
          f"degraded={host.stats.degraded_packets}")

    # The demo's claims, checked: degradation during the outage, the NF
    # path before and after, and a bounded recovery.
    assert degraded_defaults[0][1] == str(ToService("dpi"))
    assert degraded_defaults[1][1] != str(ToService("dpi"))
    assert degraded_defaults[2][1] == str(ToService("dpi"))
    assert recovery.mttr_ns <= 300 * MS
    assert gen.received > 0.95 * gen.sent


if __name__ == "__main__":
    main()
