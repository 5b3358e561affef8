"""Fault isolation: a buggy northbound app must not take down the
controller or the data plane; miss resolution preserves packet order;
the plan cache stays bounded."""


from repro.control import ControlPlane
from repro.dataplane import FlowTableEntry, NfvHost, ToPort
from repro.dataplane import manager as manager_module
from repro.net import FiveTuple, FlowMatch, Packet
from repro.net.headers import PROTO_TCP
from repro.sim import MS


class FlakyApp:
    """Raises on flows to port 666; answers everything else."""

    def rules_for(self, host, scope, flow):
        if flow.dst_port == 666:
            raise RuntimeError("app bug")
        return [FlowTableEntry(scope=scope, match=FlowMatch.exact(flow),
                               actions=(ToPort("eth1"),))]


class TestControllerFaultIsolation:
    def test_app_exception_fails_only_that_request(self, sim):
        controller = ControlPlane(sim, northbound=FlakyApp(),
                                  service_time_ns=100_000,
                                  propagation_ns=100_000)
        good_flow = FiveTuple("10.0.0.1", "10.0.0.2", PROTO_TCP, 1, 80)
        bad_flow = FiveTuple("10.0.0.1", "10.0.0.2", PROTO_TCP, 2, 666)
        bad_reply = controller.flow_request("h0", "eth0", bad_flow)
        good_reply = controller.flow_request("h0", "eth0", good_flow)
        bad_reply.defuse()
        sim.run()
        assert not bad_reply.ok
        assert good_reply.ok and len(good_reply.value) == 1
        assert controller.shards[0].stats.failures == 1
        # The controller survived and can serve further requests.
        another = controller.flow_request("h0", "eth0", good_flow)
        sim.run(another)
        assert another.value

    def test_dataplane_survives_controller_failure(self, sim):
        controller = ControlPlane(sim, northbound=FlakyApp())
        host = NfvHost(sim, name="h0", controller=controller)
        out = []
        host.port("eth1").on_egress = out.append
        bad_flow = FiveTuple("10.0.0.1", "10.0.0.2", PROTO_TCP, 2, 666)
        good_flow = FiveTuple("10.0.0.1", "10.0.0.2", PROTO_TCP, 1, 80)
        host.inject("eth0", Packet(flow=bad_flow, size=128))
        host.inject("eth0", Packet(flow=good_flow, size=128))
        sim.run(until=100 * MS)
        # The failing flow is dropped with a count; the good one flows.
        assert len(out) == 1 and out[0].flow == good_flow
        assert host.stats.dropped_no_rule == 1


class TestMissResolutionOrdering:
    def test_buffered_packets_released_in_arrival_order(self, sim, flow):
        class SlowApp:
            def rules_for(self, host, scope, missed_flow):
                return [FlowTableEntry(
                    scope=scope, match=FlowMatch.exact(missed_flow),
                    actions=(ToPort("eth1"),))]

        controller = ControlPlane(sim, northbound=SlowApp())
        host = NfvHost(sim, name="h0", controller=controller)
        out = []
        host.port("eth1").on_egress = out.append
        packets = [Packet(flow=flow, size=128, payload=f"n{i}")
                   for i in range(10)]
        for packet in packets:
            host.inject("eth0", packet)
        sim.run(until=100 * MS)
        assert [p.payload for p in out] == [f"n{i}" for i in range(10)]


class TestPlanCacheBound:
    def test_plan_cache_evicts_at_limit(self, sim, monkeypatch):
        monkeypatch.setattr(manager_module, "_PLAN_CACHE_LIMIT", 8)
        host = NfvHost(sim, name="h0", lookup_cache=True)
        host.install_rule(FlowTableEntry(
            scope="eth0", match=FlowMatch.any(),
            actions=(ToPort("eth1"),)))
        for i in range(50):
            flow = FiveTuple("10.0.0.1", "10.0.0.2", PROTO_TCP,
                             1000 + i, 80)
            host.inject("eth0", Packet(flow=flow, size=128))
        sim.run(until=50 * MS)
        assert len(host.manager._plans) <= 8
        assert host.stats.tx_packets == 50
