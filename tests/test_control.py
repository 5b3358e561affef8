"""SDN controller and NFV orchestrator tests."""

import pytest

from repro.control import ControlPlane, NfvOrchestrator
from repro.control.openflow import FlowModMessage, PacketInMessage
from repro.control.orchestrator import VM_BOOT_NS
from repro.dataplane import FlowTableEntry, NfvHost, ToPort
from repro.net import FlowMatch, Packet
from repro.nfs import NoOpNf
from repro.sim import MS, S, US

from tests.conftest import install_chain


class StaticApp:
    """Northbound app returning a fixed forwarding rule."""

    def __init__(self, out_port="eth1"):
        self.out_port = out_port
        self.queries = []

    def rules_for(self, host, scope, flow):
        self.queries.append((host, scope, flow))
        return [FlowTableEntry(scope=scope, match=FlowMatch.exact(flow),
                               actions=(ToPort(self.out_port),))]


class TestControllerQueue:
    def test_idle_lookup_is_31ms(self, sim):
        controller = ControlPlane(sim)
        assert controller.idle_lookup_ns == 31 * MS

    def test_flow_request_round_trip_time(self, sim, flow):
        controller = ControlPlane(sim, northbound=StaticApp())
        reply = controller.flow_request("h0", "eth0", flow)
        sim.run(reply)
        assert sim.now == controller.idle_lookup_ns
        assert len(reply.value) == 1

    def test_requests_queue_behind_each_other(self, sim, flow):
        controller = ControlPlane(sim, service_time_ns=1 * MS,
                                  propagation_ns=0,
                                  northbound=StaticApp())
        replies = [controller.flow_request("h0", "eth0", flow)
                   for _ in range(5)]
        done_times = []
        for reply in replies:
            reply.callbacks.append(lambda e: done_times.append(sim.now))
        sim.run()
        assert done_times == [1 * MS, 2 * MS, 3 * MS, 4 * MS, 5 * MS]
        assert controller.requests == 5
        assert controller.shards[0].stats.max_queue >= 1

    def test_capacity_per_second(self, sim):
        controller = ControlPlane(sim, service_time_ns=500 * US)
        assert controller.capacity_per_second == 2000

    def test_no_northbound_returns_empty(self, sim, flow):
        controller = ControlPlane(sim)
        reply = controller.flow_request("h0", "eth0", flow)
        assert sim.run(reply) == []

    def test_push_rules_installs_on_host(self, sim, flow):
        controller = ControlPlane(sim, propagation_ns=100 * US)
        host = NfvHost(sim, name="h0")
        done = controller.push_rules(host.manager, [FlowTableEntry(
            scope="eth0", match=FlowMatch.any(),
            actions=(ToPort("eth1"),))])
        sim.run(done)
        assert len(host.flow_table) == 1

    def test_submit_work_runs_in_controller(self, sim):
        controller = ControlPlane(sim, service_time_ns=2 * MS,
                                  propagation_ns=1 * MS)
        result = controller.submit_work(lambda: "computed")
        assert sim.run(result) == "computed"
        assert sim.now == 4 * MS

    def test_service_time_positive(self, sim):
        with pytest.raises(ValueError):
            ControlPlane(sim, service_time_ns=0)

    def test_utilization(self, sim, flow):
        controller = ControlPlane(sim, service_time_ns=1 * MS,
                                  propagation_ns=0)
        for _ in range(3):
            controller.flow_request("h0", "eth0", flow)
        sim.run()
        assert controller.utilizations(sim.now)[0] > 0.9


class TestMissPathIntegration:
    def test_miss_consults_controller_then_forwards(self, sim, flow):
        app = StaticApp()
        controller = ControlPlane(sim, northbound=app)
        host = NfvHost(sim, name="h0", controller=controller)
        out = []
        host.port("eth1").on_egress = out.append
        for _ in range(4):
            host.inject("eth0", Packet(flow=flow, size=128))
        sim.run(until=100 * MS)
        assert len(out) == 4
        # One controller consultation for the whole flow (packets 2-4
        # were buffered behind the pending request).
        assert len(app.queries) == 1
        assert host.stats.sdn_requests == 1

    def test_installed_rule_serves_later_packets_locally(self, sim, flow):
        app = StaticApp()
        controller = ControlPlane(sim, northbound=app)
        host = NfvHost(sim, name="h0", controller=controller)
        out = []
        host.port("eth1").on_egress = out.append
        host.inject("eth0", Packet(flow=flow, size=128))
        sim.run(until=100 * MS)
        t_first = sim.now
        host.inject("eth0", Packet(flow=flow, size=128, created_at=sim.now))
        sim.run(until=t_first + 10 * MS)
        assert len(out) == 2
        assert len(app.queries) == 1  # no second consultation

    def test_distinct_flows_consult_separately(self, sim, flow, udp_flow):
        app = StaticApp()
        controller = ControlPlane(sim, northbound=app)
        host = NfvHost(sim, name="h0", controller=controller)
        host.inject("eth0", Packet(flow=flow, size=128))
        host.inject("eth0", Packet(flow=udp_flow, size=128))
        sim.run(until=100 * MS)
        assert len(app.queries) == 2


class TestOpenflowMessages:
    def test_flow_mod_requires_entries(self):
        with pytest.raises(ValueError):
            FlowModMessage(host="h0", entries=())

    def test_packet_in_carries_header_only(self, flow):
        message = PacketInMessage(host="h0", scope="eth0", flow=flow)
        assert message.flow == flow
        assert not hasattr(message, "payload")


class TestOrchestrator:
    def test_boot_delay_is_7_75_seconds(self, sim):
        orchestrator = NfvOrchestrator(sim)
        host = NfvHost(sim, name="h0")
        orchestrator.register_host(host)
        ready = orchestrator.launch_nf("h0", lambda: NoOpNf("svc"))
        vm = sim.run(ready)
        assert sim.now == VM_BOOT_NS == 7_750_000_000
        assert vm.service_id == "svc"
        assert host.manager.vms_by_service["svc"] == [vm]

    def test_faster_launch_modes(self, sim):
        orchestrator = NfvOrchestrator(sim)
        host = NfvHost(sim, name="h0")
        orchestrator.register_host(host)
        ready = orchestrator.launch_nf(host, lambda: NoOpNf("svc"),
                                       mode="standby_process")
        sim.run(ready)
        assert sim.now < S  # §5.2: "starting a new process in a stand-by VM"

    def test_launch_records_audit_trail(self, sim):
        orchestrator = NfvOrchestrator(sim)
        host = NfvHost(sim, name="h0")
        orchestrator.register_host(host)
        sim.run(orchestrator.launch_nf(host, lambda: NoOpNf("svc")))
        record = orchestrator.launches[0]
        assert record.host == "h0"
        assert record.ready_at - record.requested_at == VM_BOOT_NS

    def test_unknown_mode_rejected(self, sim):
        orchestrator = NfvOrchestrator(sim)
        host = NfvHost(sim, name="h0")
        with pytest.raises(ValueError):
            orchestrator.launch_nf(host, lambda: NoOpNf("svc"),
                                   mode="teleport")
        with pytest.raises(ValueError):
            NfvOrchestrator(sim, default_mode="teleport")

    def test_duplicate_host_rejected(self, sim):
        orchestrator = NfvOrchestrator(sim)
        host = NfvHost(sim, name="h0")
        orchestrator.register_host(host)
        with pytest.raises(ValueError):
            orchestrator.register_host(host)

    def test_late_vm_serves_traffic_after_boot(self, sim, flow):
        """Packets to a not-yet-booted service drop, then flow after."""
        orchestrator = NfvOrchestrator(sim)
        host = NfvHost(sim, name="h0")
        orchestrator.register_host(host)
        install_chain(host, ["svc"])
        out = []
        host.port("eth1").on_egress = out.append
        orchestrator.launch_nf(host, lambda: NoOpNf("svc"))
        host.inject("eth0", Packet(flow=flow, size=128))  # before boot
        sim.run(until=VM_BOOT_NS + 1 * MS)
        assert host.stats.dropped_no_vm == 1
        host.inject("eth0", Packet(flow=flow, size=128))  # after boot
        sim.run(until=sim.now + 10 * MS)
        assert len(out) == 1
