"""Sharded-kernel parity: shard count is an implementation detail.

The contract of :mod:`repro.sim.sharded`:

- ``shards=1`` is *byte-identical* to a hand-built single-kernel run of
  the same scenario — same deliveries, same latency samples, same stats
  (including pool telemetry), same event-heap odometers, same log.
- Any shard count yields identical per-host observables; only pool
  telemetry may differ (boundary frames are reclaimed at the source and
  re-allocated at the destination).
- ``workers=N`` is bit-equal to the in-process ``workers=0`` conductor.

CI's shard-parity job re-runs this whole suite with
``SDNFV_SHARD_WORKERS=2``, which routes every multi-shard run through
the multiprocessing conductor — same assertions, over worker pipes.
"""

import os

import pytest

from repro.core import EXIT, SdnfvApp, ServiceGraph
from repro.metrics import EventLog
from repro.net import FiveTuple
from repro.nfs import NoOpNf
from repro.sim import MS, US, Simulator
from repro.sim.sharded import (
    Scenario,
    ScenarioError,
    ShardPlan,
    ShardedSimulator,
    TrafficSpec,
)
from repro.faults.plan import ControllerOutage, FaultPlan, NfCrash
from repro.topology import Link, NodeSpec, Topology, build_network
from repro.workloads import FlowSpec, PktGen

#: Counters that describe the pool itself: crossing a shard boundary
#: reclaims the source buffer and allocates a fresh one at the
#: destination, so these legitimately vary with the partition.
POOL_KEYS = ("pool_hits", "pool_misses", "pool_exhausted")

DURATION = 10 * MS
LINK_DELAY = 500 * US  # the conservative lookahead window


def line_topology(hosts: int = 4) -> Topology:
    topology = Topology()
    for index in range(hosts):
        topology.add_node(NodeSpec(name=f"h{index}", cores=4))
    for index in range(hosts - 1):
        topology.add_link(Link(a=f"h{index}", b=f"h{index + 1}",
                               delay_ns=LINK_DELAY))
    return topology


def chain_graph() -> ServiceGraph:
    graph = ServiceGraph("chain")
    for service in ("a", "b", "c", "d"):
        graph.add_service(service, read_only=True)
    graph.add_edge("a", "b", default=True)
    graph.add_edge("b", "c", default=True)
    graph.add_edge("c", "d", default=True)
    graph.add_edge("d", EXIT, default=True)
    graph.set_entry("a")
    return graph


def make_scenario() -> Scenario:
    """The reference workload: a 4-service chain, one service per host,
    two flows entering at the head of the line."""
    return Scenario(
        topology=line_topology(),
        graph=chain_graph(),
        placement={"a": "h0", "b": "h1", "c": "h2", "d": "h3"},
        duration_ns=DURATION,
        traffic=[
            TrafficSpec(host="h0",
                        flow=FiveTuple("10.0.0.1", "10.0.0.2", 6, 1, 80),
                        rate_mbps=1200.0, stop_ns=6 * MS),
            TrafficSpec(host="h0",
                        flow=FiveTuple("10.0.0.3", "10.0.0.4", 17, 2, 53),
                        rate_mbps=800.0, start_ns=1 * MS, stop_ns=5 * MS),
        ],
    )


def run_monolithic(scenario: Scenario) -> dict:
    """The same scenario, hand-built on ONE kernel with no sharding
    machinery at all — the golden reference ``shards=1`` must match."""
    sim = Simulator()
    network = build_network(
        sim, scenario.topology, costs=scenario.costs,
        ingress_port=scenario.ingress_port,
        exit_port=scenario.exit_port,
        line_rate_gbps=scenario.line_rate_gbps,
        burst_size=scenario.burst_size, pool_size=scenario.pool_size,
        seed=scenario.seed)
    event_log = EventLog(sim)
    app = SdnfvApp(sim)
    for host in network.hosts.values():
        app.register_host(host)
        host.manager.event_log = event_log
    for service in scenario.graph.services:
        host = network.hosts[scenario.placement[service]]
        host.add_nf(NoOpNf(service), ring_slots=scenario.ring_slots)
    app.deploy(scenario.graph,
               ingress_port=scenario.ingress_port,
               exit_port=scenario.exit_port,
               placement=scenario.placement, network=network)

    gens: dict[str, PktGen] = {}
    deliveries: dict[str, list] = {}
    for name, host in network.hosts.items():
        gen = PktGen(sim, host, ingress_port=scenario.ingress_port,
                     measure_ports=(scenario.exit_port,),
                     seed=scenario.pktgen_seed)
        gens[name] = gen
        deliveries[name] = []
        port = host.port(scenario.exit_port)
        measured = port.on_egress

        def recording_hook(packet, sink=deliveries[name],
                           measured=measured):
            flow = packet.flow
            sink.append((sim.now, packet.created_at,
                         (flow.src_ip, flow.dst_ip, flow.protocol,
                          flow.src_port, flow.dst_port)))
            measured(packet)

        port.on_egress = recording_hook
    for spec in scenario.traffic:
        gens[spec.host].add_flow(FlowSpec(
            flow=spec.flow, rate_mbps=spec.rate_mbps,
            packet_size=spec.packet_size, start_ns=spec.start_ns,
            stop_ns=spec.stop_ns, payload=spec.payload,
            pacing=spec.pacing))
    sim.run(until=scenario.duration_ns)
    return {
        "hosts": {name: {
            "summary": host.stats.summary(),
            "deliveries": deliveries[name],
            "latency_samples": list(gens[name].latency.samples_ns),
            "sent": gens[name].sent,
            "received": gens[name].received,
            "rx_gbps": gens[name].rx_meter.mean_gbps(),
        } for name, host in network.hosts.items()},
        "events": list(event_log.events),
        "events_scheduled": sim.events_scheduled,
        "timers_scheduled": sim.timers_scheduled,
        "events_cancelled": sim.events_cancelled,
        "frames_carried": network.fabric.frames_carried,
    }


#: CI's shard-parity job sets this to 2: every multi-shard run below
#: then goes over multiprocessing pipes instead of staying in-process.
DEFAULT_WORKERS = int(os.environ.get("SDNFV_SHARD_WORKERS", "0"))

_RUNS: dict[tuple, object] = {}


def uniform_minimum_plan(topology: Topology, shards: int) -> ShardPlan:
    """The computed partition with every crossing pair's lookahead
    lowered to the global minimum crossing delay: the classic global
    barrier (every shard advances in lockstep windows of that width),
    expressed as plan data."""
    plan = ShardPlan.compute(topology, shards)
    matrix = plan.lookahead_matrix
    floor = min((delay for _, _, delay in matrix), default=0)
    return ShardPlan(groups=plan.groups,
                     lookahead_matrix=tuple((src, dst, floor)
                                            for src, dst, _ in matrix))


def sharded_run(shards: int, workers: int | None = None,
                uniform: bool = False):
    """Run (and memoize) the reference scenario at a shard count, on
    the computed plan or (``uniform=True``) the uniform-minimum one."""
    if workers is None:
        workers = DEFAULT_WORKERS if shards > 1 else 0
    key = (shards, workers, uniform)
    if key not in _RUNS:
        scenario = make_scenario()
        plan = (uniform_minimum_plan(scenario.topology, shards) if uniform
                else ShardPlan.compute(scenario.topology, shards))
        _RUNS[key] = ShardedSimulator(scenario, workers=workers,
                                      plan=plan).run()
    return _RUNS[key]


def strip_pool(summary: dict) -> dict:
    return {key: value for key, value in summary.items()
            if key not in POOL_KEYS}


def strip_transport(shard_result: dict) -> dict:
    """Drop the schedule/transport odometers: they legitimately vary
    with the plan's lookaheads (window count, and so batches, messages
    and bytes) while every model observable stays identical."""
    return {key: value for key, value in shard_result.items()
            if key != "transport"}


class TestGoldenParity:
    """``shards=1`` is byte-identical to the monolithic kernel."""

    def test_single_shard_matches_monolithic_exactly(self):
        mono = run_monolithic(make_scenario())
        result = sharded_run(shards=1)
        shard = result.shard_results[0]
        # No boundary ever crossed: even pool telemetry must agree.
        assert shard["hosts"] == mono["hosts"]
        assert shard["events"] == mono["events"]
        # Same kernel work, event for event, timer for timer.
        assert shard["events_scheduled"] == mono["events_scheduled"]
        assert shard["timers_scheduled"] == mono["timers_scheduled"]
        assert shard["events_cancelled"] == mono["events_cancelled"]
        assert shard["frames_carried"] == mono["frames_carried"]
        assert shard["boundary_tx"] == 0
        # Sanity: the workload moved real traffic end to end.
        assert result.received > 1000
        assert result.sent == result.received

    def test_result_accessors_cover_every_host(self):
        result = sharded_run(shards=1)
        for name in ("h0", "h1", "h2", "h3"):
            assert result.host_summary(name)["rx_packets"] >= 0
        assert result.deliveries("h3")  # the chain exits at h3
        assert result.deliveries("h1") == []


class TestShardCountInvariance:
    """Per-host observables are identical at every shard count."""

    @pytest.mark.parametrize("shards", [2, 4])
    def test_summaries_deliveries_latency_match_single_shard(self,
                                                             shards):
        base = sharded_run(shards=1)
        split = sharded_run(shards=shards)
        for name in ("h0", "h1", "h2", "h3"):
            assert (strip_pool(split.host_summary(name))
                    == strip_pool(base.host_summary(name))), name
            assert split.deliveries(name) == base.deliveries(name), name
            assert (split.hosts[name]["latency_samples"]
                    == base.hosts[name]["latency_samples"]), name
            assert split.hosts[name]["rx_gbps"] \
                == base.hosts[name]["rx_gbps"], name
        assert split.sent == base.sent
        assert split.received == base.received

    @pytest.mark.parametrize("shards", [2, 4])
    def test_conservation_totals_are_invariant(self, shards):
        base = sharded_run(shards=1).totals()
        split = sharded_run(shards=shards).totals()
        assert split == base

    def test_split_run_really_crossed_boundaries(self):
        split = sharded_run(shards=2)
        assert sum(r["boundary_tx"] for r in split.shard_results) > 0

    def test_merged_event_timeline_is_time_ordered(self):
        split = sharded_run(shards=4)
        stamps = [event.timestamp_ns for event in split.events]
        assert stamps == sorted(stamps)
        assert len(split.events) == len(sharded_run(shards=1).events)


class TestWorkerParity:
    """The multiprocessing conductor is bit-equal to in-process mode."""

    def test_two_workers_bit_equal_to_inline(self):
        inline = sharded_run(shards=2, workers=0)
        piped = sharded_run(shards=2, workers=2)
        assert piped.shard_results == inline.shard_results

    def test_workers_clamped_to_shard_count(self):
        simulator = ShardedSimulator(make_scenario(), shards=2,
                                     workers=8)
        assert simulator.workers == 2


class TestShardPlan:
    def test_compute_partitions_contiguously_and_balanced(self):
        plan = ShardPlan.compute(line_topology(4), 2)
        assert plan.groups == (("h0", "h1"), ("h2", "h3"))
        assert plan.lookahead_matrix == ((0, 1, LINK_DELAY),
                                         (1, 0, LINK_DELAY))
        assert plan.owners() == {"h0": 0, "h1": 0, "h2": 1, "h3": 1}

    def test_uneven_split_front_loads_the_remainder(self):
        plan = ShardPlan.compute(line_topology(5), 2)
        assert plan.groups == (("h0", "h1", "h2"), ("h3", "h4"))

    def test_single_shard_has_no_lookahead(self):
        plan = ShardPlan.compute(line_topology(4), 1)
        assert plan.groups == (("h0", "h1", "h2", "h3"),)
        assert plan.lookahead_matrix == ()

    def test_more_shards_than_hosts_rejected(self):
        with pytest.raises(ValueError, match="at most"):
            ShardPlan.compute(line_topology(2), 3)
        with pytest.raises(ValueError, match="at least one"):
            ShardPlan.compute(line_topology(2), 0)

    def test_zero_delay_crossing_link_rejected(self):
        topology = Topology()
        topology.add_node(NodeSpec(name="h0"))
        topology.add_node(NodeSpec(name="h1"))
        topology.add_link(Link(a="h0", b="h1", delay_ns=0))
        with pytest.raises(ValueError, match="zero-delay"):
            ShardPlan.compute(topology, 2)

    def test_validate_for_rejects_bad_manual_plans(self):
        topology = line_topology(4)
        with pytest.raises(ValueError, match="more than one shard"):
            ShardPlan(groups=(("h0", "h1"), ("h1", "h2", "h3"))
                      ).validate_for(topology)
        with pytest.raises(ValueError, match="every NFV host"):
            ShardPlan(groups=(("h0",), ("h1",))).validate_for(topology)
        with pytest.raises(ValueError, match="minimum crossing delay"):
            ShardPlan(groups=(("h0", "h1"), ("h2", "h3")),
                      lookahead_matrix=((0, 1, LINK_DELAY + 1),
                                        (1, 0, LINK_DELAY))
                      ).validate_for(topology)

    def test_manual_plan_accepted_and_used(self):
        plan = ShardPlan(groups=(("h0", "h2"), ("h1", "h3")))
        plan.validate_for(line_topology(4))
        simulator = ShardedSimulator(make_scenario(), plan=plan)
        assert simulator.plan is plan

    def test_explicit_shards_must_agree_with_plan(self):
        plan = ShardPlan(groups=(("h0", "h2"), ("h1", "h3")))
        assert ShardedSimulator(make_scenario(), shards=2,
                                plan=plan).plan is plan
        for shards in (1, 4):
            with pytest.raises(ValueError, match="disagrees"):
                ShardedSimulator(make_scenario(), shards=shards, plan=plan)


class TestScheduleTransportParity:
    """The round schedule and the boundary codec change only how often
    shards barrier and how frames travel, never what the network did."""

    @pytest.mark.parametrize("shards", [2, 4])
    def test_uniform_link_delays_degenerate_to_global_barrier(self,
                                                              shards):
        """On a uniform-delay topology the computed plan *is* the
        uniform-minimum plan, and every shard advances through exactly
        the global-barrier window count."""
        assert (ShardPlan.compute(line_topology(), shards)
                == uniform_minimum_plan(line_topology(), shards))
        expected = DURATION // LINK_DELAY  # 10 ms / 500 us windows
        for result in sharded_run(shards=shards).shard_results:
            assert result["transport"]["windows"] == expected

    def test_columnar_transport_ships_fewer_messages(self):
        run = sharded_run(shards=4)
        summary = run.transport_summary()
        # Pickling the captured rows would ship one tuple per event...
        per_event = sum(result["boundary_tx"]
                        for result in run.shard_results)
        # ...the codec ships ten flat buffers per batch (eleven when a
        # row carries annotations).
        assert summary["batches"] > 0
        assert (10 * summary["batches"] <= summary["messages"]
                <= 11 * summary["batches"])
        assert per_event > summary["messages"]

    def test_transport_counters_account_real_bytes(self):
        run = sharded_run(shards=2)
        summary = run.transport_summary()
        assert summary["bytes"] > 0
        assert summary["windows"] > 0
        assert summary["messages_per_batch"] > 0


HET_FAST = 50 * US
HET_SLOW = 5 * MS
HET_DURATION = 30 * MS


def het_topology() -> Topology:
    """Four hosts: a 50 us intra-DC hop between h1 and h2, 5 ms WAN
    links at both ends — the shape where one global lookahead forces
    microsecond barriers on shards coupled only through the WAN."""
    topology = Topology()
    for index in range(4):
        topology.add_node(NodeSpec(name=f"h{index}", cores=4))
    topology.add_link(Link(a="h0", b="h1", delay_ns=HET_SLOW))
    topology.add_link(Link(a="h1", b="h2", delay_ns=HET_FAST))
    topology.add_link(Link(a="h2", b="h3", delay_ns=HET_SLOW))
    return topology


def het_scenario() -> Scenario:
    return Scenario(
        topology=het_topology(),
        graph=chain_graph(),
        placement={"a": "h0", "b": "h1", "c": "h2", "d": "h3"},
        duration_ns=HET_DURATION,
        traffic=[
            TrafficSpec(host="h0",
                        flow=FiveTuple("10.0.0.1", "10.0.0.2", 6, 1, 80),
                        rate_mbps=400.0, stop_ns=6 * MS),
            TrafficSpec(host="h0",
                        flow=FiveTuple("10.0.0.3", "10.0.0.4", 17, 2, 53),
                        rate_mbps=200.0, start_ns=1 * MS, stop_ns=5 * MS),
        ],
    )


_HET_RUNS: dict[tuple, object] = {}


def het_run(shards: int, workers: int | None = None,
            uniform: bool = False):
    if workers is None:
        workers = DEFAULT_WORKERS if shards > 1 else 0
    key = (shards, workers, uniform)
    if key not in _HET_RUNS:
        scenario = het_scenario()
        plan = (uniform_minimum_plan(scenario.topology, shards) if uniform
                else ShardPlan.compute(scenario.topology, shards))
        _HET_RUNS[key] = ShardedSimulator(scenario, workers=workers,
                                          plan=plan).run()
    return _HET_RUNS[key]


class TestHeterogeneousDelays:
    """Mixed 50 us / 5 ms crossing links: the computed per-pair plan
    (adaptive rounds) and the uniform-minimum plan (global barrier) must
    change only how often shards barrier, never what the network did."""

    @pytest.mark.parametrize("adaptive", [True, False])
    @pytest.mark.parametrize("shards", [2, 4])
    def test_parity_with_single_shard(self, shards, adaptive):
        base = het_run(shards=1)
        run = het_run(shards=shards, uniform=not adaptive)
        for name in ("h0", "h1", "h2", "h3"):
            assert (strip_pool(run.host_summary(name))
                    == strip_pool(base.host_summary(name))), name
            assert run.deliveries(name) == base.deliveries(name), name
            assert (run.hosts[name]["latency_samples"]
                    == base.hosts[name]["latency_samples"]), name
        assert run.totals() == base.totals()
        assert len(run.events) == len(base.events)
        assert run.received > 500  # traffic really crossed the WAN

    @pytest.mark.parametrize("shards", [2, 4])
    def test_adaptive_identical_to_uniform_schedule(self, shards):
        adaptive = het_run(shards=shards)
        uniform = het_run(shards=shards, uniform=True)
        assert ([strip_transport(result)
                 for result in adaptive.shard_results]
                == [strip_transport(result)
                    for result in uniform.shard_results])

    @pytest.mark.parametrize("shards", [2, 4])
    def test_workers_bit_equal_to_inline_on_adaptive_schedule(self,
                                                              shards):
        inline = het_run(shards=shards, workers=0)
        piped = het_run(shards=shards, workers=2)
        assert piped.shard_results == inline.shard_results

    def test_adaptive_barriers_far_less_on_wan_pairs(self):
        """At shards=4 only the h1/h2 pair needs 50 us windows; the
        WAN-coupled end shards advance at 5 ms cadence instead of
        being dragged through every micro-window."""
        adaptive = het_run(shards=4)
        uniform = het_run(shards=4, uniform=True)
        windows = [result["transport"]["windows"]
                   for result in adaptive.shard_results]
        per_shard_uniform = HET_DURATION // HET_FAST  # 600 micro-windows
        for result in uniform.shard_results:
            assert result["transport"]["windows"] == per_shard_uniform
        # The fast pair still barriers at ~50 us cadence...
        assert windows[1] >= per_shard_uniform
        assert windows[2] >= per_shard_uniform
        # ...but the WAN-coupled end shards advance in 5 ms strides:
        # two orders of magnitude fewer barriers each.
        assert windows[0] * 50 < per_shard_uniform
        assert windows[3] * 50 < per_shard_uniform
        assert sum(windows) < 4 * per_shard_uniform

    def test_compute_builds_per_pair_matrix(self):
        plan = ShardPlan.compute(het_topology(), 4)
        assert plan.lookahead_matrix == (
            (0, 1, HET_SLOW), (1, 0, HET_SLOW),
            (1, 2, HET_FAST), (2, 1, HET_FAST),
            (2, 3, HET_SLOW), (3, 2, HET_SLOW))
        assert plan.pair_lookaheads()[(1, 2)] == HET_FAST

    def test_matrix_validation_rejects_unsafe_manual_plans(self):
        topology = het_topology()
        groups = (("h0",), ("h1",), ("h2",), ("h3",))
        with pytest.raises(ValueError, match="missing the crossing"):
            ShardPlan(groups=groups,
                      lookahead_matrix=((0, 1, HET_SLOW),)
                      ).validate_for(topology)
        too_fast = (
            (0, 1, HET_SLOW), (1, 0, HET_SLOW),
            (1, 2, HET_FAST), (2, 1, HET_FAST),
            (2, 3, HET_SLOW + 1), (3, 2, HET_SLOW))
        with pytest.raises(ValueError, match="minimum crossing delay"):
            ShardPlan(groups=groups,
                      lookahead_matrix=too_fast).validate_for(topology)
        # Entries must name two distinct shards of the plan: an
        # out-of-range shard would otherwise pass here and die inside
        # the round schedule.
        safe = ShardPlan.compute(topology, 4).lookahead_matrix
        for stray in ((7, 0, HET_FAST), (0, 4, HET_FAST),
                      (-1, 0, HET_FAST), (2, 2, HET_FAST)):
            with pytest.raises(ValueError, match="two distinct shards"):
                ShardPlan(groups=groups,
                          lookahead_matrix=safe + (stray,)
                          ).validate_for(topology)
        # An extra (non-crossing) pair may slow the schedule down, but a
        # zero lookahead can stall it (two shards pinned to each other's
        # clocks never move).
        ShardPlan(groups=groups, lookahead_matrix=safe + (
            (0, 3, HET_FAST),)).validate_for(topology)
        with pytest.raises(ValueError, match=">= 1 ns"):
            ShardPlan(groups=groups, lookahead_matrix=safe + (
                (0, 3, 0),)).validate_for(topology)

    def test_manual_plan_without_matrix_derives_from_topology(self):
        plan = ShardPlan(groups=(("h0",), ("h1",), ("h2",), ("h3",)))
        simulator = ShardedSimulator(het_scenario(), plan=plan)
        assert simulator.plan is plan
        assert simulator._pair_lookaheads[(1, 2)] == HET_FAST
        assert simulator._pair_lookaheads[(0, 1)] == HET_SLOW


class TestWindowSchedule:
    """The round stream is lazy: long runs with small lookaheads must
    not materialize millions of rounds up front."""

    def test_rounds_are_lazy_too(self):
        scenario = make_scenario()
        scenario.duration_ns = 10**15  # ~11.6 days of simulated time
        rounds = ShardedSimulator(scenario, shards=2)._rounds()
        assert iter(rounds) is rounds  # a true lazy iterator
        from itertools import islice
        assert list(islice(rounds, 3)) == [
            {0: LINK_DELAY, 1: LINK_DELAY},
            {0: 2 * LINK_DELAY, 1: 2 * LINK_DELAY},
            {0: 3 * LINK_DELAY, 1: 3 * LINK_DELAY}]

    def test_final_partial_window_lands_on_duration(self):
        scenario = make_scenario()
        scenario.duration_ns = LINK_DELAY * 3 + 7
        simulator = ShardedSimulator(scenario, shards=2)
        edges = [LINK_DELAY, 2 * LINK_DELAY, 3 * LINK_DELAY,
                 scenario.duration_ns]
        assert list(simulator._rounds()) == [{0: edge, 1: edge}
                                             for edge in edges]

    def test_no_inbound_pairs_finish_in_one_round(self):
        simulator = ShardedSimulator(make_scenario(), shards=1)
        assert list(simulator._rounds()) == [{0: DURATION}]


class TestVerifiedShardedRun:
    """Scenario(verify=True): every host runs under the ownership
    verifier's shadow ledger — including the boundary capture/delivery
    hand-off — and the per-host audits come back clean."""

    def test_verified_run_is_clean_and_unchanged(self):
        scenario = het_scenario()
        scenario.verify = True
        verified = ShardedSimulator(scenario, shards=2).run()
        plain = het_run(shards=2, workers=0)
        assert verified.totals() == plain.totals()
        assert verified.verify_reports is not None
        assert set(verified.verify_reports) == {"h0", "h1", "h2", "h3"}
        for name, found in verified.verify_reports.items():
            assert found["issues"] == [], name
            assert found["audit"]["balanced"], name
        # Boundary-crossing packets really went through the shadow
        # ledger: the destination side injected what the source shipped.
        audits = verified.verify_reports
        assert audits["h2"]["audit"]["injected"] > 0

    def test_unverified_run_reports_none(self):
        assert het_run(shards=2, workers=0).verify_reports is None
    def test_unplaced_service_rejected(self):
        scenario = make_scenario()
        del scenario.placement["c"]
        with pytest.raises(ScenarioError, match="no placement"):
            scenario.validate()

    def test_placement_on_unknown_host_rejected(self):
        scenario = make_scenario()
        scenario.placement["c"] = "ghost"
        with pytest.raises(ScenarioError, match="unknown host"):
            scenario.validate()

    def test_traffic_on_unknown_host_rejected(self):
        scenario = make_scenario()
        scenario.traffic[0].host = "ghost"
        with pytest.raises(ScenarioError, match="traffic targets"):
            scenario.validate()

    def test_nonpositive_duration_rejected(self):
        scenario = make_scenario()
        scenario.duration_ns = 0
        with pytest.raises(ScenarioError, match="duration"):
            scenario.validate()

    def test_controller_outage_rejected(self):
        scenario = make_scenario()
        scenario.fault_plan = FaultPlan()
        scenario.fault_plan.add(ControllerOutage(at_ns=MS, down_ns=MS))
        with pytest.raises(ScenarioError, match="ControllerOutage"):
            scenario.validate()

    def test_hostless_fault_rejected(self):
        scenario = make_scenario()
        scenario.fault_plan = FaultPlan()
        scenario.fault_plan.add(NfCrash(at_ns=MS, service="a"))
        with pytest.raises(ScenarioError, match="explicit host"):
            scenario.validate()
