"""Cross-shard fault injection: a fault lands on its owning shard and
produces the same observables as the monolithic (``shards=1``) run.

The reference scenario splits 4 hosts over 2 shards as (h0, h1) and
(h2, h3); both faults target hosts owned by the *second* shard, so the
injection must be routed across the partition boundary and still fire
at the exact same nanosecond with the exact same effect.
"""

import pytest

from repro.faults.plan import FaultPlan, LinkFlap, NfCrash
from repro.sim import MS
from repro.sim.sharded import ShardedSimulator

from tests.test_sharded_parity import (
    het_scenario,
    make_scenario,
    strip_pool,
)

HOSTS = ("h0", "h1", "h2", "h3")


def faulted_scenario():
    scenario = make_scenario()
    plan = FaultPlan()
    # Both targets live on shard 1 of the 2-shard split.  The flap
    # fires first, on the port where h2's frames *arrive* at h3 (drops
    # happen at the receiving NIC); the crash then starves the rest of
    # the run at h2.
    plan.add(LinkFlap(at_ns=2 * MS, port="to-h2", host="h3",
                      down_ns=MS))
    plan.add(NfCrash(at_ns=4 * MS, service="c", host="h2"))
    scenario.fault_plan = plan
    return scenario


@pytest.fixture(scope="module")
def runs():
    from tests.test_sharded_parity import DEFAULT_WORKERS
    base = ShardedSimulator(faulted_scenario(), shards=1).run()
    split = ShardedSimulator(faulted_scenario(), shards=2,
                             workers=DEFAULT_WORKERS).run()
    return base, split


class TestCrossShardFaults:
    def test_faults_fire_on_the_owning_shard(self, runs):
        _base, split = runs
        assert split.plan.groups == (("h0", "h1"), ("h2", "h3"))
        assert split.shard_results[0]["fired_faults"] == []
        fired = split.shard_results[1]["fired_faults"]
        assert [(kind, host) for _, kind, host, _ in fired] \
            == [("LinkFlap", "h3"), ("NfCrash", "h2")]

    def test_fired_timetable_matches_single_shard(self, runs):
        base, split = runs
        assert split.fired_faults == base.fired_faults
        assert len(split.fired_faults) == 2

    def test_fault_observables_match_single_shard(self, runs):
        base, split = runs
        for name in HOSTS:
            assert (strip_pool(split.host_summary(name))
                    == strip_pool(base.host_summary(name))), name
            assert split.deliveries(name) == base.deliveries(name), name
        assert split.totals() == base.totals()

    def test_faults_actually_damaged_the_chain(self, runs):
        base, _split = runs
        # The flap eats frames arriving at h3 while the link is down...
        assert base.host_summary("h3")["nic_link_dropped"] > 0
        # ...and the crash leaves "c" a dead ring that fills and drops,
        # so the run delivers less than the fault-free reference.
        assert base.host_summary("h2")["dropped_ring_full"] > 0
        from tests.test_sharded_parity import sharded_run
        assert base.received < sharded_run(shards=1).received

    def test_eventlog_records_injections_identically(self, runs):
        base, split = runs
        for name in HOSTS:
            base_events = [event for event in base.events
                           if event.host == name]
            split_events = [event for event in split.events
                            if event.host == name]
            assert split_events == base_events, name
        injected = [event for event in split.events
                    if event.category == "fault_injected"]
        assert [(event.get("kind"), event.host)
                for event in injected] \
            == [("LinkFlap", "h3"), ("NfCrash", "h2")]


def flapped_het_scenario():
    """The mixed 50 us / 5 ms chain with the *slow* crossing link
    (h2-h3, 5 ms WAN) flapped while end-to-end traffic is in flight —
    the adaptive schedule advances h3's shard in long WAN strides, and
    the flap must still land at the exact same nanosecond."""
    scenario = het_scenario()
    plan = FaultPlan()
    # End-to-end path delay is ~10 ms, so frames reach h3's "to-h2"
    # port from ~10 ms on; a 5 ms outage starting at 11 ms eats a slice
    # of the delivery stream mid-run.
    plan.add(LinkFlap(at_ns=11 * MS, port="to-h2", host="h3",
                      down_ns=5 * MS))
    scenario.fault_plan = plan
    return scenario


class TestFaultOnSlowLinkUnderAdaptiveSchedule:
    @pytest.fixture(scope="class")
    def het_runs(self):
        from tests.test_sharded_parity import DEFAULT_WORKERS
        base = ShardedSimulator(flapped_het_scenario(), shards=1).run()
        adaptive = ShardedSimulator(flapped_het_scenario(), shards=4,
                                    workers=DEFAULT_WORKERS).run()
        return base, adaptive

    def test_flap_fires_on_owning_shard_at_exact_time(self, het_runs):
        _base, adaptive = het_runs
        fired = [fault for result in adaptive.shard_results
                 for fault in result["fired_faults"]]
        assert [(when, kind, host) for when, kind, host, _ in fired] \
            == [(11 * MS, "LinkFlap", "h3")]
        assert adaptive.shard_results[3]["fired_faults"] != []

    def test_observables_match_single_shard(self, het_runs):
        base, adaptive = het_runs
        for name in HOSTS:
            assert (strip_pool(adaptive.host_summary(name))
                    == strip_pool(base.host_summary(name))), name
            assert adaptive.deliveries(name) \
                == base.deliveries(name), name
        assert adaptive.totals() == base.totals()
        assert adaptive.fired_faults == base.fired_faults

    def test_flap_really_dropped_wan_frames(self, het_runs):
        base, _adaptive = het_runs
        assert base.host_summary("h3")["nic_link_dropped"] > 0
        # The outage cost deliveries relative to the fault-free run.
        from tests.test_sharded_parity import het_run
        assert base.received < het_run(shards=1).received
