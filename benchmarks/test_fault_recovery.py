"""Fault recovery: MTTR and packet loss under an injected NF crash.

The ISSUE's acceptance scenario: a fw -> dpi chain under 100 Mbps of
Poisson traffic, the DPI NF crashes at t = 2 s, and the system recovers
automatically — the watchdog detects the dead VM, salvages its ring,
quarantines the service onto its default edge, and a standby-process
replacement (250 ms) takes over; quarantined rules are then reinstated.

Asserted: recovery completes inside a bounded window, no flow rule
outside the dead service's own scope keeps routing to it while it has no
replicas, every offered packet is either delivered (NF path or default
edge) or counted as dropped, and the whole timeline is deterministic for
a given seed.  Reported: the recovery-time distribution across seeds.
"""

from repro.control import ControlPlane, NfvOrchestrator
from repro.core import SdnfvApp
from repro.dataplane import NfvHost, ToService
from repro.faults import FaultInjector, FaultPlan, NfCrash
from repro.metrics import series_table
from repro.metrics.eventlog import EventLog
from repro.net import FiveTuple
from repro.sim import MS, S, US, Simulator
from repro.nfs import NoOpNf
from repro.workloads import FlowSpec, PktGen

from tests.conftest import install_chain

RATE_MBPS = 100.0
PACKET_SIZE = 1000          # ~12.2 kpps offered
CRASH_NS = 2 * S
LOAD_START_NS = int(1.5 * S)
LOAD_STOP_NS = int(2.5 * S)
RUN_NS = int(2.8 * S)       # lets the pipeline drain after load stops
WATCHDOG_INTERVAL_NS = 10 * MS


def run_scenario(seed: int, jitter_ns: int = 0):
    sim = Simulator()
    controller = ControlPlane(sim, service_time_ns=100 * US,
                              propagation_ns=100 * US)
    orchestrator = NfvOrchestrator(sim)
    app = SdnfvApp(sim, controller=controller, orchestrator=orchestrator)
    host = NfvHost(sim, name="h0", controller=controller, seed=seed)
    app.register_host(host)
    log = EventLog(sim)
    app.attach_event_log(log)
    host.add_nf(NoOpNf("fw"))
    host.add_nf(NoOpNf("dpi"))
    install_chain(host, ["fw", "dpi"])

    watchdog = app.enable_failover(
        host, {"dpi": lambda: NoOpNf("dpi")},
        interval_ns=WATCHDOG_INTERVAL_NS, mode="standby_process")

    plan = FaultPlan(seed=seed)
    plan.add(NfCrash(at_ns=CRASH_NS, jitter_ns=jitter_ns, service="dpi"))
    FaultInjector(sim, plan, hosts=[host]).arm()

    gen = PktGen(sim, host, seed=seed)
    flow = FiveTuple("10.0.0.1", "10.0.0.2", 17, 5000, 5001)
    gen.add_flow(FlowSpec(flow=flow, rate_mbps=RATE_MBPS,
                          packet_size=PACKET_SIZE, pacing="poisson",
                          start_ns=LOAD_START_NS, stop_ns=LOAD_STOP_NS))

    # Mid-outage probe: after detection but before the replacement is
    # ready, nothing outside dpi's own scope may still route to it.
    quarantine_seen = {}

    def probe():
        table = host.flow_table
        quarantine_seen["stale_defaults"] = sum(
            1 for scope in table.scopes() if scope != "dpi"
            for entry in table.entries(scope)
            if entry.default_action == ToService("dpi"))
        quarantine_seen["replicas"] = len(
            host.manager.vms_by_service.get("dpi", ()))

    probe_at = plan.fire_time_ns(0) + WATCHDOG_INTERVAL_NS + 50 * MS
    sim.schedule(probe_at, probe)

    sim.run(until=RUN_NS)

    stats = host.stats
    lost = (stats.lost_in_nf + stats.dropped_no_vm + stats.dropped_no_rule
            + stats.dropped_ring_full
            + sum(port.rx_dropped + port.link_dropped
                  for port in host.manager.ports.values()))
    return {
        "sent": gen.sent,
        "received": gen.received,
        "lost": lost,
        "quarantine": quarantine_seen,
        "recoveries": [(r.detected_at_ns, r.recovered_at_ns,
                        r.lost_packets) for r in watchdog.recoveries],
        # vm_id is a process-global counter, so report liveness only.
        "replicas": [vm.failed
                     for vm in host.manager.vms_by_service["dpi"]],
        "timeline": [(event.timestamp_ns, event.category)
                     for event in log.events],
    }


def test_fault_recovery(report):
    result = run_scenario(seed=0)

    # Recovered automatically, exactly once, within the bounded window:
    # one watchdog period to detect + the 250 ms standby launch + slack.
    assert len(result["recoveries"]) == 1
    detected_ns, recovered_ns, _lost = result["recoveries"][0]
    assert CRASH_NS <= detected_ns <= CRASH_NS + 2 * WATCHDOG_INTERVAL_NS
    mttr_ns = recovered_ns - detected_ns
    assert mttr_ns <= 250 * MS + 2 * WATCHDOG_INTERVAL_NS

    # While dpi had no replicas, zero rules elsewhere still routed to it.
    assert result["quarantine"] == {"stale_defaults": 0, "replicas": 0}
    # Afterwards exactly one live replica serves the restored rules.
    assert result["replicas"] == [False]

    # Packet conservation: delivered via the NF path or the default edge,
    # or counted as dropped — nothing vanished.
    assert result["received"] == result["sent"] - result["lost"]
    assert result["received"] > 0.95 * result["sent"]

    # Same seed, same timeline — bit-for-bit.
    assert run_scenario(seed=0) == result

    # Recovery-time distribution across seeds (crash time jittered).
    rows = []
    for seed in (1, 2, 3):
        run = run_scenario(seed=seed, jitter_ns=50 * MS)
        detected, recovered, lost = run["recoveries"][0]
        rows.append((seed, detected / MS, (recovered - detected) / MS,
                     lost, run["lost"]))
    columns = {
        "seed": [row[0] for row in rows],
        "detected_ms": [round(row[1], 2) for row in rows],
        "mttr_ms": [round(row[2], 2) for row in rows],
        "lost_outage": [row[3] for row in rows],
        "lost_total": [row[4] for row in rows]}
    report("fault_recovery", series_table(
        "Fault recovery — dpi crash under 100 Mbps Poisson load "
        "(standby_process failover)", columns), metrics=columns)
