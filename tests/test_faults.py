"""Fault injection, detection, and recovery (repro.faults + hardening).

Covers the resilience subsystem end to end: deterministic fault plans,
the injector, VM crash/hang semantics, the NF Manager watchdog (drain /
requeue / quarantine / restore), control-plane timeout+retry+degrade,
and the app-tier ``enable_failover`` wiring.
"""

from __future__ import annotations

import pytest

from repro.control import ControlPlane, NfvOrchestrator
from repro.core import SdnfvApp, ServiceGraph
from repro.core.service_graph import EXIT
from repro.dataplane import (
    ControlPlanePolicy,
    NfvHost,
    ToPort,
    ToService,
)
from repro.faults import (
    ControllerOutage,
    FaultInjector,
    FaultPlan,
    HostOverload,
    LinkFlap,
    NfCrash,
    NfHang,
    NfWatchdog,
)
from repro.metrics.eventlog import EventLog
from repro.net import Packet
from repro.nfs import ComputeNf, NoOpNf
from repro.sim import MS, US, Simulator

from tests.conftest import install_chain


def _packet(flow, now=0, size=128):
    return Packet(flow=flow, size=size, created_at=now)


def _count_egress(host, port="eth1"):
    out = []
    host.port(port).on_egress = out.append
    return out


# ----------------------------------------------------------------------
# FaultPlan: determinism and validation
# ----------------------------------------------------------------------
class TestFaultPlan:
    def test_fire_time_without_jitter_is_nominal(self):
        plan = FaultPlan(seed=7)
        plan.add(NfCrash(at_ns=5 * MS, service="dpi"))
        assert plan.fire_time_ns(0) == 5 * MS

    def test_fire_time_is_pure_and_seed_deterministic(self):
        def build(seed):
            plan = FaultPlan(seed=seed)
            plan.extend([
                NfCrash(at_ns=10 * MS, jitter_ns=2 * MS, service="a"),
                LinkFlap(at_ns=20 * MS, jitter_ns=5 * MS,
                         port="eth0", down_ns=MS),
            ])
            return plan

        plan = build(42)
        first = [plan.fire_time_ns(i) for i in range(len(plan))]
        # Re-querying never perturbs the draw (pure in (seed, index)).
        assert [plan.fire_time_ns(i) for i in range(len(plan))] == first
        assert [build(42).fire_time_ns(i) for i in range(2)] == first
        assert [build(43).fire_time_ns(i) for i in range(2)] != first

    def test_jitter_stays_within_half_width(self):
        plan = FaultPlan(seed=3)
        plan.add(ControllerOutage(at_ns=4 * MS, jitter_ns=1 * MS,
                                  down_ns=10 * MS))
        fire = plan.fire_time_ns(0)
        assert 3 * MS <= fire <= 5 * MS

    def test_validation(self):
        with pytest.raises(ValueError):
            NfCrash(at_ns=-1, service="x")
        with pytest.raises(ValueError):
            NfHang(at_ns=0, jitter_ns=-1, service="x")
        with pytest.raises(ValueError):
            LinkFlap(at_ns=0, port="eth0", down_ns=0)
        with pytest.raises(ValueError):
            ControllerOutage(at_ns=0, down_ns=0)
        with pytest.raises(ValueError):
            HostOverload(at_ns=0, duration_ns=MS, factor=1.0)
        with pytest.raises(TypeError):
            FaultPlan().add("not a fault")


# ----------------------------------------------------------------------
# VM failure semantics
# ----------------------------------------------------------------------
class TestVmFailure:
    def test_crash_releases_inflight_and_counts_loss(self, sim, host, flow):
        vm = host.add_nf(ComputeNf("svc", cost_ns=10 * MS))
        install_chain(host, ["svc"])
        host.inject("eth0", _packet(flow))
        sim.run(until=2 * MS)          # NF is mid-packet now
        assert vm.inflight is not None
        vm.crash()
        sim.run(until=3 * MS)          # interrupt delivered
        assert vm.failed and vm.crashed
        assert vm.inflight is None
        assert vm.packets_lost == 1
        assert host.stats.lost_in_nf == 1

    def test_crash_is_idempotent(self, sim, host):
        vm = host.add_nf(NoOpNf("svc"))
        vm.crash("first")
        sim.run(until=1 * MS)
        vm.crash("second")
        assert vm.failure_cause == "first"

    def test_idle_vm_is_never_stalled(self, sim, host):
        vm = host.add_nf(NoOpNf("svc"))
        sim.run(until=100 * MS)
        assert not vm.stalled(sim.now, 1 * MS)

    def test_hang_wedges_midpacket_and_stalls(self, sim, host, flow):
        vm = host.add_nf(NoOpNf("svc"))
        install_chain(host, ["svc"])
        vm.hang()
        host.inject("eth0", _packet(flow))
        sim.run(until=20 * MS)
        assert vm.inflight is not None          # holding the descriptor
        assert not vm.failed                    # alive, just wedged
        assert vm.stalled(sim.now, 10 * MS)
        assert not vm.stalled(sim.now, 100 * MS)

    def test_kill_while_blocked_on_empty_ring_keeps_ring_consistent(
            self, sim, host, flow):
        """The interrupt-during-ring-wait case: a VM killed while blocked
        on ``Store.get`` must not strand descriptors or corrupt ring
        accounting — packets that land in its ring afterwards are salvaged
        intact to the surviving replica."""
        vm1 = host.add_nf(NoOpNf("svc"))
        vm2 = host.add_nf(NoOpNf("svc"))
        install_chain(host, ["svc"])
        out = _count_egress(host)
        sim.run(until=1 * MS)                  # both blocked on get()
        vm1.crash()
        sim.run(until=2 * MS)                  # interrupt delivered mid-wait
        assert vm1.crashed
        # Traffic keeps arriving; least-queue balancing still sees vm1.
        for i in range(8):
            host.inject("eth0", _packet(flow, now=sim.now))
        sim.run(until=4 * MS)
        # Descriptors routed to the dead VM sit in its ring, unconsumed
        # (the dead getter must not have eaten one on its way down).
        stranded = vm1.rx_ring.occupancy
        assert stranded + vm2.packets_processed + vm2.rx_ring.occupancy == 8
        assert vm1.rx_ring.dropped == 0
        salvage = host.manager.fail_vm(vm1)
        assert salvage["requeued"] == stranded
        assert vm1.rx_ring.occupancy == 0      # nothing stranded
        sim.run(until=50 * MS)
        assert len(out) == 8                   # every packet delivered
        assert host.stats.requeued_packets == stranded
        assert host.stats.lost_in_nf == 0


# ----------------------------------------------------------------------
# Watchdog: detection, salvage, quarantine, restore
# ----------------------------------------------------------------------
class TestWatchdog:
    def test_sweep_detects_crash_and_requeues_to_survivor(self, sim, host,
                                                          flow):
        vm1 = host.add_nf(ComputeNf("svc", cost_ns=5 * MS))
        host.add_nf(ComputeNf("svc", cost_ns=5 * MS))
        install_chain(host, ["svc"])
        out = _count_egress(host)
        watchdog = NfWatchdog(host.manager)
        for _ in range(6):
            host.inject("eth0", _packet(flow))
        sim.run(until=2 * MS)                  # rings loaded, both busy
        vm1.crash()
        sim.run(until=3 * MS)
        records = watchdog.sweep()
        assert [r.cause for r in records] == ["crash"]
        assert records[0].requeued >= 1
        assert vm1 not in host.manager.vms_by_service["svc"]
        sim.run(until=100 * MS)
        # One in-flight packet died with the VM; the rest were salvaged.
        assert len(out) == 6 - host.stats.lost_in_nf

    def test_sweep_detects_hang_and_kills_the_thread(self, sim, host, flow):
        vm = host.add_nf(NoOpNf("svc"))
        host.add_nf(NoOpNf("svc"))
        install_chain(host, ["svc"])
        watchdog = NfWatchdog(host.manager, heartbeat_timeout_ns=10 * MS)
        vm.hang()
        host.inject("eth0", _packet(flow))
        sim.run(until=20 * MS)
        records = watchdog.sweep()
        assert [r.cause for r in records] == ["hang"]
        sim.run(until=21 * MS)                 # kill interrupt delivered
        assert vm.failed and vm.failure_cause == "hang"
        assert host.stats.lost_in_nf == 1      # the wedged descriptor

    def test_quarantine_rewrites_defaults_and_restore_reinstates(
            self, sim, host, flow):
        vm = host.add_nf(NoOpNf("svc"))
        install_chain(host, ["svc"])
        out = _count_egress(host)
        watchdog = NfWatchdog(host.manager)
        vm.crash()
        sim.run(until=1 * MS)
        watchdog.sweep()
        # The ingress rule's default no longer leads to the dead service;
        # no rule outside the service's own scope does (nothing leaked).
        table = host.flow_table
        assert all(entry.default_action != ToService("svc")
                   for scope in table.scopes() if scope != "svc"
                   for entry in table.entries(scope))
        assert watchdog.degraded_services == {"svc"}
        host.inject("eth0", _packet(flow, now=sim.now))
        sim.run(until=10 * MS)
        assert len(out) == 1                   # degraded straight to eth1
        # Replacement arrives: displaced rules come back.
        host.add_nf(NoOpNf("svc"))
        recovery = watchdog.notify_replacement("svc")
        assert recovery is not None and recovery.mttr_ns >= 0
        assert watchdog.degraded_services == set()
        entry = table.lookup("eth0", flow, now_ns=sim.now)
        assert entry.default_action == ToService("svc")

    def test_fail_vm_degrades_queue_along_default_edge(self, sim, host,
                                                       flow):
        vm = host.add_nf(ComputeNf("svc", cost_ns=50 * MS))
        install_chain(host, ["svc"])
        out = _count_egress(host)
        for _ in range(5):
            host.inject("eth0", _packet(flow))
        sim.run(until=2 * MS)                  # 1 in flight, 4 queued
        salvage = host.manager.fail_vm(vm)
        assert salvage == {"requeued": 0, "degraded": 4, "lost": 0}
        assert host.stats.degraded_packets == 4
        sim.run(until=100 * MS)
        assert len(out) == 4                   # via svc's default edge
        assert host.stats.lost_in_nf == 1      # the in-flight one

    def test_periodic_loop_detects_without_manual_sweep(self, sim, host):
        vm = host.add_nf(NoOpNf("svc"))
        watchdog = NfWatchdog(host.manager, interval_ns=2 * MS).start()
        with pytest.raises(RuntimeError):
            watchdog.start()
        vm.crash()
        sim.run(until=10 * MS)
        assert [r.service for r in watchdog.failures] == ["svc"]

    def test_watchdog_validation(self, host):
        with pytest.raises(ValueError):
            NfWatchdog(host.manager, interval_ns=0)
        with pytest.raises(ValueError):
            NfWatchdog(host.manager, heartbeat_timeout_ns=0)


# ----------------------------------------------------------------------
# Control-plane hardening: timeout, backoff, retry budget, degrade
# ----------------------------------------------------------------------
class TestControlPlanePolicy:
    def test_backoff_is_capped_exponential(self):
        policy = ControlPlanePolicy(backoff_base_ns=10 * MS,
                                    backoff_cap_ns=35 * MS)
        assert [policy.backoff_ns(a) for a in range(4)] == [
            10 * MS, 20 * MS, 35 * MS, 35 * MS]

    def test_validation(self):
        with pytest.raises(ValueError):
            ControlPlanePolicy(timeout_ns=0)
        with pytest.raises(ValueError):
            ControlPlanePolicy(max_attempts=0)
        with pytest.raises(ValueError):
            ControlPlanePolicy(backoff_base_ns=-1)

    def _outage_env(self, sim, miss_fallback):
        controller = ControlPlane(sim, service_time_ns=100 * US,
                                  propagation_ns=100 * US)
        app = SdnfvApp(sim, controller=controller)
        host = NfvHost(
            sim, name="h0", controller=controller,
            control_policy=ControlPlanePolicy(
                timeout_ns=2 * MS, max_attempts=3,
                backoff_base_ns=1 * MS, backoff_cap_ns=2 * MS),
            miss_fallback=miss_fallback)
        app.register_host(host)
        return controller, host

    def test_unreachable_controller_degrades_to_fallback(self, sim, flow):
        controller, host = self._outage_env(sim, ToPort("eth1"))
        out = _count_egress(host)
        controller.outage(200 * MS)
        host.inject("eth0", _packet(flow))
        # Budget: 3 bounded attempts + backoffs ~ 9 ms, not 200 ms.
        sim.run(until=50 * MS)
        assert host.stats.sdn_timeouts == 3
        assert host.stats.sdn_retries == 2
        assert host.stats.degraded_packets == 1
        assert host.stats.dropped_no_rule == 0
        assert len(out) == 1                   # forwarded, not blackholed

    def test_unreachable_controller_drops_without_fallback(self, sim, flow):
        controller, host = self._outage_env(sim, None)
        controller.outage(200 * MS)
        host.inject("eth0", _packet(flow))
        sim.run(until=50 * MS)
        assert host.stats.dropped_no_rule == 1
        assert host.stats.degraded_packets == 0

    def test_retry_succeeds_once_controller_returns(self, sim, flow):
        controller = ControlPlane(sim, service_time_ns=100 * US,
                                  propagation_ns=100 * US)
        app = SdnfvApp(sim, controller=controller)
        host = NfvHost(
            sim, name="h0", controller=controller,
            control_policy=ControlPlanePolicy(
                timeout_ns=5 * MS, max_attempts=4,
                backoff_base_ns=1 * MS, backoff_cap_ns=1 * MS))
        app.register_host(host)
        host.add_nf(NoOpNf("svc"))
        graph = ServiceGraph("g")
        graph.add_service("svc")
        graph.add_edge("svc", EXIT, default=True)
        graph.set_entry("svc")
        app.deploy(graph, proactive=False)
        out = _count_egress(host)
        controller.outage(8 * MS)              # shorter than the budget
        host.inject("eth0", _packet(flow))
        sim.run(until=100 * MS)
        assert host.stats.sdn_timeouts >= 1    # first attempt timed out
        assert len(host.flow_table) >= 2       # rules landed on retry
        assert len(out) == 1                   # served through the NF
        assert host.stats.dropped_no_rule == 0

    def test_outage_counted_and_recovers(self, sim):
        controller = ControlPlane(sim)
        controller.outage(5 * MS)
        assert controller.down and controller.stats.outages == 1
        sim.run(until=10 * MS)
        assert not controller.down
        with pytest.raises(ValueError):
            controller.outage(0)


# ----------------------------------------------------------------------
# Injector: arming plans against a running system
# ----------------------------------------------------------------------
class TestInjector:
    def test_crash_fires_on_schedule(self, sim, host):
        vm = host.add_nf(NoOpNf("dpi"))
        plan = FaultPlan(seed=1)
        plan.add(NfCrash(at_ns=5 * MS, service="dpi"))
        injector = FaultInjector(sim, plan, hosts=[host])
        timetable = injector.arm()
        assert timetable == [(5 * MS, plan.faults[0])]
        with pytest.raises(RuntimeError):
            injector.arm()
        sim.run(until=4 * MS)
        assert not vm.failed
        sim.run(until=6 * MS)
        assert vm.failed and vm.failure_cause == "injected_crash"
        assert len(injector.fired) == 1

    def test_unresolvable_faults_are_skipped_not_fatal(self, sim, host):
        plan = FaultPlan()
        plan.extend([
            NfCrash(at_ns=1 * MS, service="ghost"),
            LinkFlap(at_ns=1 * MS, port="eth9", down_ns=MS),
            ControllerOutage(at_ns=1 * MS, down_ns=MS),
            NfCrash(at_ns=1 * MS, service="dpi", host="elsewhere"),
        ])
        injector = FaultInjector(sim, plan, hosts=[host])
        injector.arm()
        sim.run(until=2 * MS)
        reasons = sorted(reason for _, _, reason in injector.skipped)
        assert reasons == ["no controller", "no live replica",
                           "no such host", "no such port"]
        assert injector.fired == []

    def test_link_flap_drops_then_recovers(self, sim, host, flow):
        host.add_nf(NoOpNf("svc"))
        install_chain(host, ["svc"])
        out = _count_egress(host)
        plan = FaultPlan()
        plan.add(LinkFlap(at_ns=2 * MS, port="eth0", down_ns=5 * MS))
        FaultInjector(sim, plan, hosts=[host]).arm()

        def offered():
            while sim.now < 12 * MS:
                host.inject("eth0", _packet(flow, now=sim.now))
                yield sim.timeout(1 * MS)

        sim.process(offered())
        sim.run(until=50 * MS)
        port = host.port("eth0")
        assert port.link_dropped == 5          # t = 2..6 ms inclusive
        assert port.link_up
        assert len(out) == 12 - port.link_dropped

    def test_host_overload_scales_costs_and_restores(self, sim, host):
        baseline = host.costs.vm_service_ns
        plan = FaultPlan()
        plan.add(HostOverload(at_ns=1 * MS, duration_ns=4 * MS, factor=3.0))
        FaultInjector(sim, plan, hosts=[host]).arm()
        sim.run(until=2 * MS)
        assert host.costs.vm_service_ns == 3 * baseline
        sim.run(until=10 * MS)
        assert host.costs.vm_service_ns == baseline

    def test_outage_via_plan_reaches_controller(self, sim, host):
        controller = ControlPlane(sim)
        plan = FaultPlan()
        plan.add(ControllerOutage(at_ns=1 * MS, down_ns=3 * MS))
        FaultInjector(sim, plan, hosts=[host],
                      controller=controller).arm()
        sim.run(until=2 * MS)
        assert controller.down
        sim.run(until=10 * MS)
        assert not controller.down and controller.stats.outages == 1

    def test_app_supplies_hosts_and_controller(self, sim, host):
        controller = ControlPlane(sim)
        app = SdnfvApp(sim, controller=controller)
        app.register_host(host)
        injector = FaultInjector(sim, FaultPlan(), app=app)
        assert injector.hosts == {host.name: host}
        assert injector.controller is controller


# ----------------------------------------------------------------------
# App tier: enable_failover, kwarg unification, the api facade
# ----------------------------------------------------------------------
class TestAppFailover:
    def test_crash_is_detected_replaced_and_rules_restored(self, sim, flow):
        controller = ControlPlane(sim, service_time_ns=100 * US,
                                  propagation_ns=100 * US)
        orchestrator = NfvOrchestrator(sim)
        app = SdnfvApp(sim, controller=controller,
                       orchestrator=orchestrator)
        host = NfvHost(sim, name="h0", controller=controller)
        app.register_host(host)
        log = EventLog(sim)
        app.attach_event_log(log)
        host.add_nf(NoOpNf("dpi"))
        install_chain(host, ["dpi"])
        out = _count_egress(host)
        watchdog = app.enable_failover(
            host, {"dpi": lambda: NoOpNf("dpi")},
            interval_ns=1 * MS, heartbeat_timeout_ns=5 * MS,
            mode="standby_process")
        plan = FaultPlan(seed=9)
        plan.add(NfCrash(at_ns=50 * MS, service="dpi"))
        FaultInjector(sim, plan, hosts=[host]).arm()

        sent = 0

        def offered():
            nonlocal sent
            while sim.now < 550 * MS:
                host.inject("eth0", _packet(flow, now=sim.now))
                sent += 1
                yield sim.timeout(500_000)

        sim.process(offered())
        sim.run(until=600 * MS)

        assert [r.cause for r in watchdog.failures] == ["crash"]
        assert len(watchdog.recoveries) == 1
        recovery = watchdog.recoveries[0]
        # Bounded: standby launch (250 ms) + a couple of sweep periods.
        launch_ns = orchestrator.launch_time_ns("standby_process")
        assert recovery.mttr_ns <= launch_ns + 2 * MS
        # Exactly one live replica serving again, defaults restored.
        replicas = host.manager.vms_by_service["dpi"]
        assert len(replicas) == 1 and not replicas[0].failed
        entry = host.flow_table.lookup("eth0", flow, now_ns=sim.now)
        assert entry.default_action == ToService("dpi")
        assert watchdog.degraded_services == set()
        # Packet conservation: everything offered was either delivered
        # (through the NF or the degraded default edge) or counted lost.
        lost = (host.stats.lost_in_nf + host.stats.dropped_no_vm
                + host.stats.dropped_no_rule)
        assert len(out) == sent - lost
        assert recovery.lost_packets == lost
        categories = [event.category for event in log.events]
        for expected in ("fault_injected", "nf_failure",
                         "service_quarantined", "vm_launch",
                         "service_restored", "nf_recovered"):
            assert expected in categories

    def test_failover_scenario_is_deterministic(self, flow):
        def run():
            sim = Simulator()
            controller = ControlPlane(sim, service_time_ns=100 * US,
                                      propagation_ns=100 * US)
            orchestrator = NfvOrchestrator(sim)
            app = SdnfvApp(sim, controller=controller,
                           orchestrator=orchestrator)
            host = NfvHost(sim, name="h0", controller=controller)
            app.register_host(host)
            log = EventLog(sim)
            app.attach_event_log(log)
            host.add_nf(NoOpNf("dpi"))
            install_chain(host, ["dpi"])
            out = _count_egress(host)
            watchdog = app.enable_failover(
                host, {"dpi": lambda: NoOpNf("dpi")},
                interval_ns=1 * MS, heartbeat_timeout_ns=5 * MS)
            plan = FaultPlan(seed=11)
            plan.add(NfCrash(at_ns=20 * MS, jitter_ns=2 * MS,
                             service="dpi"))
            FaultInjector(sim, plan, hosts=[host]).arm()

            def offered():
                while sim.now < 300 * MS:
                    host.inject("eth0", _packet(flow, now=sim.now))
                    yield sim.timeout(1 * MS)

            sim.process(offered())
            sim.run(until=350 * MS)
            return (len(out), host.stats.summary(),
                    [r.mttr_ns for r in watchdog.recoveries],
                    [(e.timestamp_ns, e.category) for e in log.events])

        assert run() == run()

    def test_api_facade_exports_resolve(self):
        import repro.api as api

        missing = [name for name in api.__all__
                   if not hasattr(api, name)]
        assert missing == []
        assert api.NfvHost is NfvHost
        assert api.FaultPlan is FaultPlan
        assert api.ControlPlanePolicy is ControlPlanePolicy
