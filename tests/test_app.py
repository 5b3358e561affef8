"""SDNFV Application tests: deployment, northbound, validation, messages."""

import pytest

from repro.control import ControlPlane, NfvOrchestrator
from repro.core import HierarchySnapshot, SdnfvApp, ServiceGraph
from repro.core.service_graph import EXIT
from repro.core.state import StateKind, StateTier, classify_state
from repro.dataplane import (
    ChangeDefault,
    NfvHost,
    SkipMe,
    ToService,
    UserMessage,
)
from repro.net import FlowMatch, Packet
from repro.nfs import CounterNf, NoOpNf
from repro.sim import MS, S

from tests.test_service_graph import anomaly_graph, video_graph


@pytest.fixture
def app_env(sim):
    controller = ControlPlane(sim)
    orchestrator = NfvOrchestrator(sim)
    app = SdnfvApp(sim, controller=controller, orchestrator=orchestrator)
    host = NfvHost(sim, name="h0", controller=controller)
    app.register_host(host)
    return app, controller, orchestrator, host


class TestDeployment:
    def test_proactive_deploy_installs_rules_via_controller(self, sim,
                                                            app_env):
        app, controller, _orch, host = app_env
        host.add_nf(NoOpNf("vd"))
        host.add_nf(NoOpNf("pe"))
        host.add_nf(NoOpNf("tc"))
        host.add_nf(NoOpNf("cache"))
        app.deploy(video_graph())
        assert len(host.flow_table) == 0  # still in flight
        sim.run(until=controller.idle_lookup_ns + 1 * MS)
        assert len(host.flow_table) == 5  # eth0 + 4 services
        assert controller.requests == 1

    def test_deploy_registers_parallel_chains(self, sim, app_env):
        app, _controller, _orch, host = app_env
        for name in ("firewall", "sampler", "ddos", "ids"):
            host.add_nf(CounterNf(name))
        host.add_nf(CounterNf("scrubber"))
        app.deploy(anomaly_graph())
        assert host.manager._parallel_chains.get("ddos") == ["ddos", "ids"]

    def test_end_to_end_traffic_through_deployed_graph(self, sim, app_env,
                                                       flow):
        app, controller, _orch, host = app_env
        for name in ("vd", "pe", "tc", "cache"):
            host.add_nf(NoOpNf(name))
        app.deploy(video_graph())
        out = []
        host.port("eth1").on_egress = out.append
        sim.run(until=50 * MS)
        host.inject("eth0", Packet(flow=flow, size=256))
        sim.run(until=100 * MS)
        assert len(out) == 1
        # Default path: vd -> pe -> tc -> cache -> out.
        for name in ("vd", "pe", "tc", "cache"):
            assert host.stats.per_service_packets[name] == 1

    def test_without_controller_rules_install_directly(self, sim):
        app = SdnfvApp(sim)
        host = NfvHost(sim, name="h0")
        app.register_host(host)
        for name in ("vd", "pe", "tc", "cache"):
            host.add_nf(NoOpNf(name))
        app.deploy(video_graph())
        assert len(host.flow_table) == 5

    def test_duplicate_host_rejected(self, sim, app_env):
        app, _c, _o, host = app_env
        with pytest.raises(ValueError):
            app.register_host(host)


class TestOnDemandRules:
    def test_miss_pulls_rules_from_deployment(self, sim, flow):
        controller = ControlPlane(sim)
        app = SdnfvApp(sim, controller=controller)
        host = NfvHost(sim, name="h0", controller=controller)
        app.register_host(host)
        for name in ("vd", "pe", "tc", "cache"):
            host.add_nf(NoOpNf(name))
        app.deploy(video_graph(), proactive=False)
        assert len(host.flow_table) == 0
        out = []
        host.port("eth1").on_egress = out.append
        host.inject("eth0", Packet(flow=flow, size=256))
        sim.run(until=100 * MS)
        assert len(out) == 1
        assert len(host.flow_table) == 5

    def test_uncovered_flow_gets_no_rules(self, sim, flow, udp_flow):
        controller = ControlPlane(sim)
        app = SdnfvApp(sim, controller=controller)
        host = NfvHost(sim, name="h0", controller=controller)
        app.register_host(host)
        host.add_nf(NoOpNf("vd"))
        graph = ServiceGraph("web-only")
        graph.add_service("vd")
        graph.add_edge("vd", EXIT, default=True)
        graph.set_entry("vd")
        app.deploy(graph, match=FlowMatch(protocol=6), proactive=False)
        host.inject("eth0", Packet(flow=udp_flow, size=128))
        sim.run(until=100 * MS)
        assert host.stats.dropped_no_rule == 1


class TestValidation:
    def _untrusted_env(self, sim):
        app = SdnfvApp(sim, trust_nfs=False)
        host = NfvHost(sim, name="h0")
        app.register_host(host)
        for name in ("vd", "pe", "tc", "cache"):
            host.add_nf(NoOpNf(name))
        app.deploy(video_graph())
        return app, host

    def test_change_default_along_graph_edge_allowed(self, sim, flow):
        app, host = self._untrusted_env(sim)
        host.manager.submit_nf_message(ChangeDefault(
            sender_service="pe", flows=FlowMatch.exact(flow),
            service="pe", target="cache"))
        sim.run(until=10 * MS)
        assert not app.rejected_messages
        assert host.flow_table.lookup(
            "pe", flow).default_action == ToService("cache")

    def test_change_default_off_graph_rejected(self, sim, flow):
        app, host = self._untrusted_env(sim)
        host.manager.submit_nf_message(ChangeDefault(
            sender_service="cache", flows=FlowMatch.exact(flow),
            service="cache", target="vd"))  # no cache->vd edge
        sim.run(until=10 * MS)
        assert len(app.rejected_messages) == 1
        assert host.manager.rejected_messages == 1

    def test_port_target_requires_exit_edge(self, sim, flow):
        app, host = self._untrusted_env(sim)
        # vd has an EXIT edge: allowed.
        host.manager.submit_nf_message(ChangeDefault(
            sender_service="vd", flows=FlowMatch.exact(flow),
            service="vd", target="port:eth1"))
        # tc has no EXIT edge: rejected.
        host.manager.submit_nf_message(ChangeDefault(
            sender_service="tc", flows=FlowMatch.exact(flow),
            service="tc", target="port:eth1"))
        sim.run(until=10 * MS)
        assert len(app.rejected_messages) == 1

    def test_skipme_for_unknown_service_rejected(self, sim):
        app, host = self._untrusted_env(sim)
        host.manager.submit_nf_message(SkipMe(
            sender_service="vd", service="never-deployed"))
        sim.run(until=10 * MS)
        assert len(app.rejected_messages) == 1

    def test_user_messages_always_pass_validation(self, sim):
        app, host = self._untrusted_env(sim)
        host.manager.submit_nf_message(UserMessage(
            sender_service="vd", key="stats", value=1))
        sim.run(until=10 * MS)
        assert not app.rejected_messages

    def test_validation_latency_defers_application(self, sim, flow):
        app = SdnfvApp(sim, trust_nfs=False, validation_latency_ns=5 * MS)
        host = NfvHost(sim, name="h0")
        app.register_host(host)
        for name in ("vd", "pe", "tc", "cache"):
            host.add_nf(NoOpNf(name))
        app.deploy(video_graph())
        host.manager.submit_nf_message(ChangeDefault(
            sender_service="pe", flows=FlowMatch.exact(flow),
            service="pe", target="cache"))
        sim.run(until=1 * MS)
        assert host.flow_table.lookup(
            "pe", flow).default_action == ToService("tc")
        sim.run(until=20 * MS)
        assert host.flow_table.lookup(
            "pe", flow).default_action == ToService("cache")


class TestMessagesUpward:
    def test_user_message_reaches_app_and_callbacks(self, sim, app_env):
        app, _controller, _orch, host = app_env
        seen = []
        app.on_message("ddos_alarm", lambda h, m: seen.append((h, m)))
        host.manager.submit_nf_message(UserMessage(
            sender_service="det", key="ddos_alarm", value={"rate": 5.0}))
        sim.run(until=10 * MS)
        assert seen and seen[0][0] == "h0"
        assert app.messages_received

    def test_alarm_can_trigger_vm_launch(self, sim, app_env, flow):
        """The §5.2 pattern: alarm → orchestrator boots a scrubber."""
        app, _controller, orchestrator, host = app_env

        def boot_scrubber(host_name, message):
            app.launch_nf(host_name, lambda: NoOpNf("scrubber"))

        app.on_message("ddos_alarm", boot_scrubber)
        host.manager.submit_nf_message(UserMessage(
            sender_service="det", key="ddos_alarm", value={}))
        sim.run(until=8 * S)
        assert "scrubber" in host.manager.vms_by_service
        assert orchestrator.launches[0].service_id == "scrubber"

    def test_broadcast_message_applies_on_all_hosts(self, sim, app_env,
                                                    flow):
        app, controller, _orch, host = app_env
        host2 = NfvHost(sim, name="h1", controller=controller)
        app.register_host(host2)
        for target in (host, host2):
            target.add_nf(NoOpNf("vd"))
            target.add_nf(NoOpNf("pe"))
            target.add_nf(NoOpNf("tc"))
            target.add_nf(NoOpNf("cache"))
        app.deploy(video_graph(), proactive=True)
        sim.run(until=200 * MS)
        app.broadcast_message(ChangeDefault(
            sender_service="pe", flows=FlowMatch.any(),
            service="pe", target="cache"))
        for target in (host, host2):
            assert target.flow_table.lookup(
                "pe", flow).default_action == ToService("cache")


class TestStateHierarchy:
    def test_classification_table(self):
        kind, tier = classify_state(internal=True)
        assert kind is StateKind.NF_INTERNAL and tier is StateTier.NF
        kind, tier = classify_state(internal=True, host_scoped=True)
        assert tier is StateTier.NF_MANAGER
        kind, tier = classify_state(internal=False)
        assert kind is StateKind.EXTERNAL_PARTITIONED
        kind, tier = classify_state(internal=False, coherent=True)
        assert tier is StateTier.SDNFV_APP

    def test_snapshot_gathers_all_tiers(self, sim, app_env, flow):
        app, _controller, _orch, host = app_env
        host.add_nf(NoOpNf("vd"))
        snapshot = HierarchySnapshot.gather(app)
        assert "h0" in snapshot.hosts
        assert snapshot.hosts["h0"].services == ["vd"]
        assert snapshot.controller is not None
        rx, tx = snapshot.total_packets()
        assert rx == tx == 0

    def test_snapshot_freezes_controller_load(self, sim, app_env):
        # The snapshot holds primitives copied at gather time: later
        # controller work must not rewrite an earlier snapshot.
        app, controller, _orch, _host = app_env
        before = HierarchySnapshot.gather(app)
        sim.run(controller.submit_work(lambda: None))
        after = HierarchySnapshot.gather(app)
        assert before.controller["shards"][0]["requests"] == 0
        assert after.controller["shards"][0]["requests"] == 1
        assert "controller: requests=0 max_queue=0" in before.format()
        assert "controller: requests=1 max_queue=1" in after.format()

    def test_snapshot_formats_every_shard(self, sim):
        plane = ControlPlane(sim, shards=2, propagation_ns=0)
        app = SdnfvApp(sim, controller=plane)
        for shard in (0, 1, 1):
            plane.submit_work(lambda: None, shard=shard)
        sim.run()
        text = HierarchySnapshot.gather(app).format()
        assert "controller: requests=3 max_queue=2" in text
