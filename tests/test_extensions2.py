"""Tests for the second extension wave: multi-worker controller, IMIX,
mid-chain miss handling, and remaining coverage gaps."""

import pytest

from repro.control import ControlPlane
from repro.dataplane import FlowTableEntry, NfvHost, ToPort, ToService
from repro.net import FlowMatch, Packet
from repro.nfs import NoOpNf
from repro.sim import MS, US
from repro.sim.randomness import RandomStreams, exponential_ns
from repro.workloads import FlowSpec, ImixProfile, ImixSource, PktGen



class TestMultiWorkerController:
    def test_workers_validation(self, sim):
        with pytest.raises(ValueError):
            ControlPlane(sim, workers_per_shard=0)

    def test_capacity_scales_with_workers(self, sim):
        single = ControlPlane(sim, service_time_ns=500 * US)
        quad = ControlPlane(sim, service_time_ns=500 * US, workers_per_shard=4)
        assert quad.capacity_per_second == 4 * single.capacity_per_second

    def test_parallel_service_under_load(self, sim, flow):
        controller = ControlPlane(sim, service_time_ns=1 * MS,
                                  propagation_ns=0, workers_per_shard=4)
        done_times = []
        for _ in range(8):
            reply = controller.flow_request("h0", "eth0", flow)
            reply.callbacks.append(lambda e: done_times.append(sim.now))
        sim.run()
        # 8 requests / 4 workers / 1 ms each: finishes in 2 ms, not 8.
        assert max(done_times) == 2 * MS

    def test_faster_controller_same_trend(self, sim):
        """§2.1: 'we expect a similar trend even with higher performance
        SDN Controllers' — a 4x controller shifts Fig. 1's knee 4x but
        the collapse shape is identical."""
        from repro.baselines import OvsControllerModel
        slow = OvsControllerModel(controller_rps=10_000)
        fast = OvsControllerModel(controller_rps=40_000)
        # Where the controller binds, a 4x controller means 4x throughput
        # — the knee moves, the collapse remains.
        for pct in (5.0, 25.0):
            ratio = (fast.max_throughput_gbps(pct / 100, 256)
                     / slow.max_throughput_gbps(pct / 100, 256))
            assert ratio == pytest.approx(4.0, rel=0.01)
        # And the fast controller still collapses at higher punt rates.
        assert (fast.max_throughput_gbps(0.25, 256)
                < fast.max_throughput_gbps(0.0, 256) / 5)


class TestMidChainMiss:
    def test_tx_miss_consults_controller(self, sim, flow):
        """A rule present at ingress but missing for the NF's scope is
        resolved through the flow controller from the TX side."""
        class ChainApp:
            def rules_for(self, host, scope, flow):
                if scope == "svc":
                    return [FlowTableEntry(
                        scope="svc", match=FlowMatch.exact(flow),
                        actions=(ToPort("eth1"),))]
                return []

        controller = ControlPlane(sim, northbound=ChainApp())
        host = NfvHost(sim, name="mid0", controller=controller)
        host.add_nf(NoOpNf("svc"))
        # Only the ingress rule is pre-installed.
        host.install_rule(FlowTableEntry(
            scope="eth0", match=FlowMatch.any(),
            actions=(ToService("svc"),)))
        out = []
        host.port("eth1").on_egress = out.append
        host.inject("eth0", Packet(flow=flow, size=128))
        sim.run(until=100 * MS)
        assert len(out) == 1
        assert host.stats.sdn_requests == 1


class TestImix:
    def test_profile_validation(self):
        with pytest.raises(ValueError):
            ImixProfile(buckets=())
        with pytest.raises(ValueError):
            ImixProfile(buckets=((32, 1),))
        with pytest.raises(ValueError):
            ImixProfile(buckets=((64, 0),))

    def test_simple_imix_mean(self):
        profile = ImixProfile()
        # (64*7 + 576*4 + 1500*1) / 12 = 354.33 B
        assert profile.mean_size() == pytest.approx(354.33, abs=0.5)

    def test_sample_distribution(self):
        profile = ImixProfile()
        rng = RandomStreams(seed=1).stream("t")
        samples = [profile.sample(rng) for _ in range(6000)]
        small = samples.count(64) / len(samples)
        large = samples.count(1500) / len(samples)
        assert small == pytest.approx(7 / 12, abs=0.04)
        assert large == pytest.approx(1 / 12, abs=0.03)

    def test_source_hits_target_rate(self, sim, flow):
        from repro.baselines import make_dpdk_forwarder
        from repro.metrics import ThroughputMeter
        host = make_dpdk_forwarder(sim)
        meter = ThroughputMeter(window_ns=MS)
        host.port("eth1").on_egress = (
            lambda p: meter.record(sim.now, p.size))
        ImixSource(sim, host, flow=flow, rate_mbps=500.0,
                   stop_ns=20 * MS)
        sim.run(until=30 * MS)
        assert meter.mean_gbps(2 * MS, 20 * MS) == pytest.approx(
            0.5, rel=0.1)

    def test_rate_validation(self, sim, host, flow):
        with pytest.raises(ValueError):
            ImixSource(sim, host, flow=flow, rate_mbps=0)


class TestRandomness:
    def test_streams_deterministic_per_seed(self):
        a = RandomStreams(seed=7).stream("x").random()
        b = RandomStreams(seed=7).stream("x").random()
        assert a == b

    def test_streams_independent_by_name(self):
        streams = RandomStreams(seed=7)
        assert streams.stream("x").random() != streams.stream(
            "y").random()

    def test_stream_cached(self):
        streams = RandomStreams(seed=7)
        assert streams.stream("x") is streams.stream("x")

    def test_exponential_ns_minimum(self):
        rng = RandomStreams(seed=0).stream("e")
        draws = [exponential_ns(rng, mean=0.001) for _ in range(50)]
        assert all(draw >= 1 for draw in draws)


class TestPktGenPoisson:
    def test_poisson_pacing_varies_gaps(self, sim, flow):
        from repro.baselines import make_dpdk_forwarder
        host = make_dpdk_forwarder(sim)
        gen = PktGen(sim, host)
        arrivals = []
        measure = host.port("eth1").on_egress  # PktGen's own hook

        def observe(packet):
            arrivals.append(sim.now)
            measure(packet)

        host.port("eth1").on_egress = observe
        gen.add_flow(FlowSpec(flow=flow, rate_mbps=200.0,
                              packet_size=512, pacing="poisson",
                              stop_ns=20 * MS))
        sim.run(until=30 * MS)
        gaps = {b - a for a, b in zip(arrivals, arrivals[1:])}
        assert len(gaps) > 10  # genuinely random spacing

    def test_poisson_mean_rate_preserved(self, sim, flow):
        from repro.baselines import make_dpdk_forwarder
        host = make_dpdk_forwarder(sim)
        gen = PktGen(sim, host)
        gen.add_flow(FlowSpec(flow=flow, rate_mbps=400.0,
                              packet_size=512, pacing="poisson",
                              stop_ns=40 * MS))
        sim.run(until=60 * MS)
        assert gen.offered_gbps() == pytest.approx(0.4, rel=0.15)
