"""Distributed control plane: sharding, failover, two-phase installs,
and the hybrid proactive/reactive pipeline.

CI re-runs this suite with ``SDNFV_CONTROL_SHARDS=2`` (mirroring the
``SDNFV_SHARD_WORKERS`` convention), which adds that shard count to
every parametrized routing/scaling test below.
"""

import os

import pytest

from repro.control import ControlPlane
from repro.control.plane import _host_bucket
from repro.dataplane import (
    ControlPlanePolicy,
    FlowTableEntry,
    NfvHost,
    ToPort,
)
from repro.faults import ControllerOutage, FaultInjector, FaultPlan
from repro.metrics import (
    ControlPlaneMonitor,
    EventLog,
    control_plane_counters,
    counters_table,
    mean_time_to_repair_ns,
    recovery_spans,
)
from repro.net import FiveTuple, FlowMatch, Packet
from repro.sim import MS, US
from repro.sim.sharded import (
    Scenario,
    ScenarioError,
    ShardedSimulator,
    TrafficSpec,
)
from repro.topology import Link, NodeSpec, Topology

#: CI's control-parity job sets this to 2: the parametrized tests below
#: then also run at that shard count.
DEFAULT_CONTROL_SHARDS = int(os.environ.get("SDNFV_CONTROL_SHARDS", "0"))
SHARD_COUNTS = sorted({2, 4} | ({DEFAULT_CONTROL_SHARDS}
                                - {0, 1}))


class StaticApp:
    """Northbound returning one exact-match forwarding rule per query."""

    def __init__(self, out_port="eth1", match=None):
        self.out_port = out_port
        self.match = match
        self.queries = []

    def rules_for(self, host, scope, flow):
        self.queries.append((host, scope, flow))
        match = self.match or FlowMatch.exact(flow)
        return [FlowTableEntry(scope=scope, match=match,
                               actions=(ToPort(self.out_port),))]


def flow_owned_by(plane: ControlPlane, shard: int,
                  dst_port: int = 80) -> FiveTuple:
    """A flow whose ``hash_bucket`` lands on the given shard."""
    for src_port in range(1, 65535):
        flow = FiveTuple("10.0.0.1", "10.0.0.2", 6, src_port, dst_port)
        if plane.owner_of(flow) == shard:
            return flow
    raise AssertionError(f"no flow found for shard {shard}")


def entry_for(flow: FiveTuple, scope: str = "eth0",
              out_port: str = "eth1") -> FlowTableEntry:
    return FlowTableEntry(scope=scope, match=FlowMatch.exact(flow),
                          actions=(ToPort(out_port),))


class TestCompatSurface:
    """One shard is the POX controller; more shards keep its interface."""

    def test_single_shard_idle_round_trip_is_31ms(self, sim, flow):
        plane = ControlPlane(sim, shards=1, northbound=StaticApp())
        reply = plane.flow_request("h0", "eth0", flow)
        sim.run(reply)
        assert sim.now == plane.idle_lookup_ns
        assert plane.idle_lookup_ns == 31 * MS
        assert len(reply.value) == 1

    def test_needs_at_least_one_shard(self, sim):
        with pytest.raises(ValueError):
            ControlPlane(sim, shards=0)

    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_capacity_aggregates_over_shards(self, sim, shards):
        plane = ControlPlane(sim, shards=shards,
                             service_time_ns=500 * US)
        assert plane.capacity_per_second == 2000 * shards

    def test_northbound_setter_fans_out(self, sim):
        # A northbound attached after construction answers requests on
        # every shard.
        plane = ControlPlane(sim, shards=3, propagation_ns=0)
        app = StaticApp()
        plane.northbound = app
        for index in range(3):
            reply = plane.flow_request("h0", "eth0",
                                       flow_owned_by(plane, index))
            assert len(sim.run(reply)) == 1
        assert len(app.queries) == 3
        assert [shard.stats.requests for shard in plane.shards] == [1, 1, 1]

    def test_down_means_every_shard_down(self, sim):
        plane = ControlPlane(sim, shards=2)
        plane.set_down(True, shard=0)
        assert not plane.down
        plane.set_down(True, shard=1)
        assert plane.down

    def test_submit_work_pins_to_shard(self, sim):
        plane = ControlPlane(sim, shards=2, propagation_ns=0)
        result = plane.submit_work(lambda: "done", shard=1)
        assert sim.run(result) == "done"
        assert plane.shards[1].stats.requests == 1
        assert plane.shards[0].stats.requests == 0


class TestFlowSpacePartition:
    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_owner_is_stable_hash_bucket(self, sim, flow, shards):
        plane = ControlPlane(sim, shards=shards)
        assert plane.owner_of(flow) == flow.hash_bucket(shards)
        assert plane.owner_of(flow) == plane.owner_of(flow)

    def test_host_routing_uses_stable_fnv(self, sim):
        plane = ControlPlane(sim, shards=4)
        assert plane.shard_for_host("h0") == _host_bucket("h0", 4)

    def test_explicit_host_shard_overrides_hash(self, sim):
        plane = ControlPlane(sim, shards=2, host_shards={"h0": 1})
        assert plane.shard_for_host("h0") == 1

    def test_distinct_shards_serve_concurrently(self, sim):
        """Two flows owned by different shards don't queue behind each
        other — the Fig. 1 ceiling lifts with the shard count."""
        plane = ControlPlane(sim, shards=2, service_time_ns=1 * MS,
                             propagation_ns=0, northbound=StaticApp())
        done = []
        for shard in (0, 1):
            reply = plane.flow_request("h0", "eth0",
                                       flow_owned_by(plane, shard))
            reply.callbacks.append(lambda _e: done.append(sim.now))
        sim.run()
        assert done == [1 * MS, 1 * MS]

    def test_single_controller_serializes_the_same_pair(self, sim):
        plane = ControlPlane(sim, shards=1, service_time_ns=1 * MS,
                             propagation_ns=0, northbound=StaticApp())
        probe = ControlPlane(sim, shards=2)  # just to pick the flows
        done = []
        for shard in (0, 1):
            reply = plane.flow_request("h0", "eth0",
                                       flow_owned_by(probe, shard))
            reply.callbacks.append(lambda _e: done.append(sim.now))
        sim.run()
        assert done == [1 * MS, 2 * MS]

    def test_push_rules_routes_by_host(self, sim, flow):
        plane = ControlPlane(sim, shards=2, propagation_ns=100 * US,
                             host_shards={"h0": 1})
        host = NfvHost(sim, name="h0")
        done = plane.push_rules(host.manager, [entry_for(flow)])
        sim.run(done)
        assert len(host.flow_table) == 1
        assert plane.shards[1].stats.requests == 1
        assert plane.shards[0].stats.requests == 0


class TestFailover:
    def test_downed_owner_is_absorbed_by_next_live_shard(self, sim):
        log = EventLog(sim)
        plane = ControlPlane(sim, shards=2, propagation_ns=0,
                             northbound=StaticApp(), event_log=log)
        plane.set_down(True, shard=0)
        flow = flow_owned_by(plane, 0)
        reply = plane.flow_request("h0", "eth0", flow)
        sim.run(reply)
        assert reply.ok
        assert plane.stats.failovers == 1
        assert plane.shards[1].stats.requests == 1
        assert plane.shards[0].stats.requests == 0
        events = log.filter(category="shard_failover")
        assert len(events) == 1
        assert events[0].get("shard") == 0
        assert events[0].get("absorbed_by") == 1

    def test_failover_disabled_queues_at_owner(self, sim):
        plane = ControlPlane(sim, shards=2, propagation_ns=0,
                             northbound=StaticApp(), failover=False)
        plane.set_down(True, shard=0)
        reply = plane.flow_request("h0", "eth0", flow_owned_by(plane, 0))
        sim.run(until=50 * MS)
        assert not reply.processed
        plane.set_down(False, shard=0)
        sim.run(reply)
        assert reply.ok
        assert plane.stats.failovers == 0

    def test_total_outage_queues_at_owner(self, sim):
        plane = ControlPlane(sim, shards=2, propagation_ns=0,
                             northbound=StaticApp())
        plane.set_down(True)
        reply = plane.flow_request("h0", "eth0", flow_owned_by(plane, 0))
        sim.run(until=50 * MS)
        assert not reply.processed
        assert plane.stats.failovers == 0


class TestInstallBatch:
    def _hosts(self, sim, verify=False):
        h0 = NfvHost(sim, name="h0", verify=verify)
        h1 = NfvHost(sim, name="h1", verify=verify)
        return h0, h1

    def test_single_shard_batch_takes_fast_path(self, sim, flow, udp_flow):
        plane = ControlPlane(sim, shards=2, propagation_ns=100 * US,
                             host_shards={"h0": 1, "h1": 1})
        h0, h1 = self._hosts(sim)
        done = plane.install_batch([(h0.manager, [entry_for(flow)]),
                                    (h1.manager, [entry_for(udp_flow)])])
        txn_id = sim.run(done)
        assert txn_id == 0
        assert len(h0.flow_table) == 1
        assert len(h1.flow_table) == 1
        assert plane.stats.transactions == 0  # no two-phase needed
        assert plane.shards[1].stats.requests == 2

    def test_cross_shard_batch_commits_in_ascending_order(
            self, sim, flow, udp_flow):
        log = EventLog(sim)
        plane = ControlPlane(sim, shards=2, propagation_ns=100 * US,
                             host_shards={"h0": 1, "h1": 0},
                             event_log=log)
        h0, h1 = self._hosts(sim, verify=True)
        done = plane.install_batch([(h0.manager, [entry_for(flow)]),
                                    (h1.manager, [entry_for(udp_flow)])])
        sim.run(done)
        assert len(h0.flow_table) == 1
        assert len(h1.flow_table) == 1
        assert plane.stats.transactions == 1
        prepares = log.filter(category="txn_prepare")
        commits = log.filter(category="txn_commit")
        assert sorted(event.get("shard") for event in prepares) == [0, 1]
        assert [event.get("shard") for event in commits] == [0, 1]
        # Every prepare is acknowledged before the first commit starts.
        assert max(event.timestamp_ns for event in prepares) \
            <= min(event.timestamp_ns for event in commits)
        # Commits land through manager.install_rule: the ownership
        # verifier audited both writes and found nothing.
        for host in (h0, h1):
            host.verifier.assert_clean(expect_drained=False)

    def test_concurrent_transactions_serialize_deterministically(
            self, sim, flow, udp_flow):
        log = EventLog(sim)
        plane = ControlPlane(sim, shards=2, propagation_ns=0,
                             host_shards={"h0": 0, "h1": 1},
                             event_log=log)
        h0, h1 = self._hosts(sim)
        batches = [
            plane.install_batch([(h0.manager, [entry_for(flow)]),
                                 (h1.manager, [entry_for(udp_flow)])]),
            plane.install_batch([
                (h0.manager, [entry_for(udp_flow, scope="eth1")]),
                (h1.manager, [entry_for(flow, scope="eth1")])]),
        ]
        ids = sorted(sim.run(batch) for batch in batches)
        assert ids == [0, 1]
        # Each transaction commits shard 0 before shard 1.
        for txn in ids:
            shards = [event.get("shard")
                      for event in log.filter(category="txn_commit")
                      if event.get("txn") == txn]
            assert shards == [0, 1]


class TestShardOutages:
    def test_outage_logs_mttr_spans(self, sim):
        log = EventLog(sim)
        plane = ControlPlane(sim, shards=2, event_log=log)
        plane.outage(5 * MS, shard=0)
        assert plane.shards[0].down
        assert not plane.shards[1].down
        sim.run(until=10 * MS)
        assert not plane.shards[0].down
        spans = recovery_spans(log.events, "controller_shard_down",
                               "controller_shard_restored", key="shard")
        assert spans == [(0, 0, 5 * MS)]
        assert mean_time_to_repair_ns(
            log.events, "controller_shard_down",
            "controller_shard_restored", key="shard") == 5 * MS
        assert plane.stats.outages == 1

    def test_fault_injector_retargets_one_shard(self, sim):
        plane = ControlPlane(sim, shards=2, northbound=StaticApp(),
                             failover=False)
        plan = FaultPlan()
        plan.add(ControllerOutage(at_ns=1 * MS, down_ns=4 * MS, shard=0))
        injector = FaultInjector(sim, plan, controller=plane)
        injector.arm()
        sim.run(until=2 * MS)
        assert plane.shards[0].down
        assert not plane.shards[1].down
        # A flow owned by the live shard completes at the idle RTT even
        # while shard 0 is down.
        start = sim.now
        reply = plane.flow_request("h0", "eth0", flow_owned_by(plane, 1))
        sim.run(reply)
        assert sim.now - start == plane.idle_lookup_ns
        sim.run(until=40 * MS)
        assert not plane.shards[0].down

    def test_shard_outage_downs_the_single_controller(self, sim):
        plane = ControlPlane(sim)
        plan = FaultPlan()
        plan.add(ControllerOutage(at_ns=1 * MS, down_ns=1 * MS, shard=0))
        plan.add(ControllerOutage(at_ns=1 * MS, down_ns=1 * MS, shard=1))
        injector = FaultInjector(sim, plan, controller=plane)
        injector.arm()
        sim.run(until=1500 * US)
        assert plane.down
        assert [reason for _, _, reason in injector.skipped] == [
            "no such controller shard"]
        sim.run(until=5 * MS)
        assert not plane.down

    def test_plane_wide_outage_downs_every_shard(self, sim):
        plane = ControlPlane(sim, shards=3)
        plane.outage(2 * MS)
        assert plane.down
        assert plane.stats.outages == 3
        sim.run(until=5 * MS)
        assert not plane.down


class TestMissClassifier:
    """Every flow's first table contact is classified exactly once."""

    def test_proactive_rule_counts_proactive_hit(self, sim, flow):
        host = NfvHost(sim, name="h0")
        entry = entry_for(flow)
        entry.proactive = True
        host.install_rule(entry)
        host.inject("eth0", Packet(flow=flow, size=128))
        host.inject("eth0", Packet(flow=flow, size=128))
        sim.run(until=5 * MS)
        assert host.stats.proactive_hits == 1  # first contact only
        assert host.stats.flow_setups() == 1
        assert host.stats.reactive_miss_rate() == 0.0

    def test_controller_miss_counts_reactive_miss(self, sim, flow):
        plane = ControlPlane(sim, shards=1, northbound=StaticApp())
        host = NfvHost(sim, name="h0", controller=plane)
        host.inject("eth0", Packet(flow=flow, size=128))
        sim.run(until=100 * MS)
        assert host.stats.reactive_misses == 1
        assert host.stats.sdn_requests == 1
        assert host.stats.reactive_miss_rate() == 1.0

    def test_reactively_pulled_rule_counts_reactive_hit(self, sim, flow,
                                                        udp_flow):
        # The northbound answers with a wildcard rule: the first flow's
        # miss installs it, the second flow hits it at first contact.
        app = StaticApp(match=FlowMatch.any())
        plane = ControlPlane(sim, shards=1, northbound=app)
        host = NfvHost(sim, name="h0", controller=plane)
        host.inject("eth0", Packet(flow=flow, size=128))
        sim.run(until=100 * MS)
        host.inject("eth0", Packet(flow=udp_flow, size=128))
        sim.run(until=200 * MS)
        assert host.stats.reactive_misses == 1
        assert host.stats.reactive_hits == 1
        assert host.stats.flow_setups() == 2
        assert host.stats.reactive_miss_rate() == 0.5

    def test_unreachable_plane_counts_miss_fallback(self, sim, flow):
        plane = ControlPlane(sim, shards=2, northbound=StaticApp())
        plane.set_down(True)
        policy = ControlPlanePolicy(timeout_ns=5 * MS, max_attempts=1)
        host = NfvHost(sim, name="h0", controller=plane,
                       control_policy=policy)
        host.inject("eth0", Packet(flow=flow, size=128))
        sim.run(until=100 * MS)
        assert host.stats.miss_fallbacks == 1
        assert host.stats.reactive_misses == 1


class TestMonitorAndReporting:
    def test_monitor_samples_per_shard_series(self, sim, flow):
        plane = ControlPlane(sim, shards=2, northbound=StaticApp())
        host = NfvHost(sim, name="h0", controller=plane)
        monitor = ControlPlaneMonitor(sim, plane, hosts=[host])
        monitor.start(interval_ns=10 * MS)
        host.inject("eth0", Packet(flow=flow, size=128))
        sim.run(until=60 * MS)
        assert len(monitor.utilization) == 2
        assert len(monitor.queue_depth) == 2
        assert len(monitor.miss_rate) > 0
        assert monitor.miss_rate.last() == 1.0
        summary = monitor.summary()
        assert summary["reactive_misses"] == 1
        owner = plane.owner_of(flow)
        assert summary[f"shard{owner}_requests"] == 1

    def test_counters_flatten_into_table(self, sim, flow):
        plane = ControlPlane(sim, shards=2, northbound=StaticApp())
        host = NfvHost(sim, name="h0", controller=plane)
        host.inject("eth0", Packet(flow=flow, size=128))
        sim.run(until=100 * MS)
        counters = control_plane_counters(plane, hosts=[host],
                                          elapsed_ns=sim.now)
        assert counters["control_shards"] == 2
        assert counters["reactive_misses"] == 1
        assert counters["reactive_miss_rate"] == 1.0
        assert counters["failovers"] == 0
        assert "shard0_utilization" in counters
        table = counters_table("control plane", counters)
        assert "reactive_miss_rate" in table
        # HostStats.summary() carries the same counters per host.
        summary = host.stats.summary()
        for key in ("proactive_hits", "reactive_hits",
                    "reactive_misses", "miss_fallbacks"):
            assert key in summary


def control_scenario(control_shards: int = 0,
                     fault_plan=None) -> Scenario:
    """A 2-host chain scenario, optionally with a sharded control
    plane replica per simulation shard."""
    from repro.core import EXIT, ServiceGraph

    topology = Topology()
    topology.add_node(NodeSpec(name="h0", cores=4))
    topology.add_node(NodeSpec(name="h1", cores=4))
    topology.add_link(Link(a="h0", b="h1", delay_ns=500 * US))
    graph = ServiceGraph("chain")
    graph.add_service("a", read_only=True)
    graph.add_service("b", read_only=True)
    graph.add_edge("a", "b", default=True)
    graph.add_edge("b", EXIT, default=True)
    graph.set_entry("a")
    return Scenario(
        topology=topology, graph=graph,
        placement={"a": "h0", "b": "h1"},
        duration_ns=8 * MS,
        traffic=[
            TrafficSpec(host="h0",
                        flow=FiveTuple("10.0.0.1", "10.0.0.2", 6, 1, 80),
                        rate_mbps=900.0, stop_ns=5 * MS),
            TrafficSpec(host="h0",
                        flow=FiveTuple("10.0.0.3", "10.0.0.4", 17, 2, 53),
                        rate_mbps=600.0, start_ns=MS, stop_ns=5 * MS),
        ],
        control_shards=control_shards,
        fault_plan=fault_plan)


class TestScenarioControlPlane:
    """Scenario(control_shards=N): shard-local control-plane replicas."""

    def test_proactive_plane_is_traffic_invariant(self):
        baseline = ShardedSimulator(control_scenario(0), shards=1).run()
        planed = ShardedSimulator(control_scenario(2), shards=1).run()
        assert planed.totals() == baseline.totals()
        assert baseline.controls == [None]
        (snapshot,) = planed.controls
        assert len(snapshot["shards"]) == 2
        # Full proactive cover: the plane never served a miss.
        assert all(shard["requests"] == 0
                   for shard in snapshot["shards"])

    def test_control_plane_survives_simulation_sharding(self):
        one = ShardedSimulator(control_scenario(2), shards=1).run()
        two = ShardedSimulator(control_scenario(2), shards=2).run()
        assert one.totals() == two.totals()
        assert len(two.controls) == 2

    def test_shard_outage_fault_flows_through_scenario(self):
        plan = FaultPlan()
        plan.add(ControllerOutage(at_ns=MS, down_ns=2 * MS, shard=1))
        scenario = control_scenario(2, fault_plan=plan)
        result = ShardedSimulator(scenario, shards=1).run()
        (snapshot,) = result.controls
        assert snapshot["outages"] == 1
        spans = recovery_spans(result.events, "controller_shard_down",
                               "controller_shard_restored", key="shard")
        assert spans == [(1, MS, 3 * MS)]
        # Proactive cover means traffic never depended on the dead
        # shard: deliveries match the fault-free run.
        baseline = ShardedSimulator(control_scenario(2), shards=1).run()
        assert result.totals() == baseline.totals()

    def test_outage_requires_a_control_plane(self):
        plan = FaultPlan()
        plan.add(ControllerOutage(at_ns=MS, down_ns=MS, shard=0))
        scenario = control_scenario(0, fault_plan=plan)
        with pytest.raises(ScenarioError, match="ControllerOutage"):
            scenario.validate()

    def test_outage_shard_must_exist(self):
        plan = FaultPlan()
        plan.add(ControllerOutage(at_ns=MS, down_ns=MS, shard=5))
        scenario = control_scenario(2, fault_plan=plan)
        with pytest.raises(ScenarioError, match="shard"):
            scenario.validate()
