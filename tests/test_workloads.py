"""Workload generator tests, driven against a DPDK forwarder host."""

import pytest

from repro.baselines import make_dpdk_forwarder
from repro.dataplane import NfvHost
from repro.nfs import MemcachedProxy, NoOpNf, VideoFlowDetector
from repro.sim import MS, S, Simulator
from repro.workloads import (
    DdosRampWorkload,
    FlowChurnWorkload,
    FlowSpec,
    MemcachedWorkload,
    PktGen,
    VideoSessionWorkload,
)

from tests.conftest import install_chain


class TestFlowSpec:
    def test_validation(self, flow):
        with pytest.raises(ValueError):
            FlowSpec(flow=flow, rate_mbps=0)
        with pytest.raises(ValueError):
            FlowSpec(flow=flow, rate_mbps=1, packet_size=10)
        with pytest.raises(ValueError):
            FlowSpec(flow=flow, rate_mbps=1, pacing="bursty")

    def test_interval_matches_rate(self, flow):
        spec = FlowSpec(flow=flow, rate_mbps=100.0, packet_size=1000)
        # 1024 B wire frame = 8192 bits; at 100 Mb/s -> 81.92 µs.
        assert spec.mean_gap() == pytest.approx(81_920)

    def test_payload_callable(self, flow):
        spec = FlowSpec(flow=flow, rate_mbps=1,
                        payload=lambda seq: f"pkt{seq}")
        assert spec.payload_for(3) == "pkt3"


class TestPktGen:
    def test_rtt_measurement_against_dpdk(self, sim, flow):
        host = make_dpdk_forwarder(sim)
        gen = PktGen(sim, host)
        gen.add_flow(FlowSpec(flow=flow, rate_mbps=100.0,
                              packet_size=1000, stop_ns=10 * MS))
        sim.run(until=20 * MS)
        assert gen.received == gen.sent > 0
        # Table 2: 0VM ≈ 26.66 µs ± jitter.
        assert 23.0 <= gen.latency.mean_us() <= 30.0

    def test_offered_vs_achieved_rates(self, sim, flow):
        host = make_dpdk_forwarder(sim)
        gen = PktGen(sim, host)
        gen.add_flow(FlowSpec(flow=flow, rate_mbps=500.0,
                              packet_size=1000, stop_ns=20 * MS))
        sim.run(until=40 * MS)
        assert gen.achieved_gbps() == pytest.approx(0.5, rel=0.15)

    def test_rate_change_mid_run(self, sim, flow):
        host = make_dpdk_forwarder(sim)
        gen = PktGen(sim, host)
        spec = gen.add_flow(FlowSpec(flow=flow, rate_mbps=10.0,
                                     packet_size=1000))
        sim.run(until=10 * MS)
        low_count = gen.sent
        spec.rate_mbps = 1000.0
        sim.run(until=20 * MS)
        assert gen.sent - low_count > low_count * 5

    def test_per_flow_latency_tracking(self, sim, flow, udp_flow):
        host = make_dpdk_forwarder(sim)
        gen = PktGen(sim, host)
        tracked = gen.track_flow(flow)
        gen.add_flow(FlowSpec(flow=flow, rate_mbps=50.0, stop_ns=5 * MS))
        gen.add_flow(FlowSpec(flow=udp_flow, rate_mbps=50.0,
                              stop_ns=5 * MS))
        sim.run(until=10 * MS)
        assert 0 < len(tracked) < gen.received

    def test_stop_halts_generation(self, sim, flow):
        host = make_dpdk_forwarder(sim)
        gen = PktGen(sim, host)
        gen.add_flow(FlowSpec(flow=flow, rate_mbps=100.0))
        sim.run(until=5 * MS)
        gen.stop()
        count = gen.sent
        sim.run(until=10 * MS)
        assert gen.sent <= count + 1


class TestFlowChurn:
    def test_two_packets_per_flow_and_completion_count(self, sim):
        host = NfvHost(sim, name="churn-host")
        host.add_nf(NoOpNf("vd"))
        install_chain(host, ["vd"])
        workload = FlowChurnWorkload(sim, host, new_flows_per_second=2000)
        sim.run(until=100 * MS)
        assert workload.flows_started > 100
        # Everything completes: no bottleneck at this rate.
        assert workload.completed_flows >= workload.flows_started * 0.8
        assert host.stats.rx_packets >= workload.flows_started * 1.5

    def test_rate_validation(self, sim, host):
        with pytest.raises(ValueError):
            FlowChurnWorkload(sim, host, new_flows_per_second=0)

    @pytest.mark.parametrize("workload_cls", [FlowChurnWorkload,
                                              VideoSessionWorkload])
    def test_workloads_in_one_process_see_identical_flows(self,
                                                          workload_cls):
        """Flow numbering is per workload: building a second workload in
        the same interpreter replays the first one's five-tuples."""
        kwargs = ({"new_flows_per_second": 2000}
                  if workload_cls is FlowChurnWorkload
                  else {"concurrent_flows": 5, "mean_lifetime_ns": 5 * MS,
                        "per_flow_mbps": 2.0})

        def flows_seen() -> list:
            sim = Simulator()
            host = NfvHost(sim, name="flows")
            seen: list = []
            inject = host.inject

            def recording_inject(port, packet):
                seen.append(packet.flow)
                return inject(port, packet)

            host.inject = recording_inject
            workload_cls(sim, host, **kwargs)
            sim.run(until=20 * MS)
            return seen

        first, second = flows_seen(), flows_seen()
        assert len(set(first)) > 5
        assert first == second


class TestVideoSessions:
    def test_sessions_stream_and_replace(self, sim):
        host = NfvHost(sim, name="video-host")
        host.add_nf(VideoFlowDetector("vd"))
        install_chain(host, ["vd"])
        workload = VideoSessionWorkload(
            sim, host, concurrent_flows=20, mean_lifetime_ns=50 * MS,
            per_flow_mbps=2.0, packet_size=512)
        sim.run(until=300 * MS)
        assert workload.sessions_started > 20  # replacements happened
        assert workload.out_meter.total_packets > 0

    def test_first_packet_carries_video_header(self, sim):
        host = NfvHost(sim, name="video-host2")
        detector = VideoFlowDetector("vd")
        host.add_nf(detector)
        install_chain(host, ["vd"])
        VideoSessionWorkload(sim, host, concurrent_flows=5,
                             mean_lifetime_ns=S, per_flow_mbps=1.0)
        sim.run(until=100 * MS)
        assert detector.video_flows >= 5


class TestDdosRamp:
    def test_ramp_profile(self, sim, host):
        workload = DdosRampWorkload(
            sim, host, normal_mbps=10.0, attack_start_ns=1 * S,
            attack_ramp_mbps_per_s=5.0, attack_max_mbps=20.0)
        assert workload.attack_rate_mbps(0) == 0.0
        assert workload.attack_rate_mbps(2 * S) == pytest.approx(5.0)
        assert workload.attack_rate_mbps(100 * S) == 20.0

    def test_attack_uses_many_sources_in_prefix(self, sim):
        host = make_dpdk_forwarder(sim)
        workload = DdosRampWorkload(
            sim, host, normal_mbps=5.0, attack_start_ns=10 * MS,
            attack_ramp_mbps_per_s=2000.0, attack_max_mbps=50.0,
            packet_size=256)
        sim.run(until=200 * MS)
        assert workload.in_meter.total_packets > 0
        sources = {flow.src_ip for flow in workload._attack_flows}
        assert len(sources) == len(workload._attack_flows)
        assert all(ip.startswith("66.66.") for ip in sources)


class TestMemcachedWorkload:
    def test_requests_proxied_and_rtt_recorded(self, sim):
        host = NfvHost(sim, name="mc-host")
        host.add_nf(MemcachedProxy(
            "mc", servers=[("10.8.0.10", 11211), ("10.8.0.11", 11211)]))
        install_chain(host, ["mc"])
        workload = MemcachedWorkload(sim, host,
                                     requests_per_second=50_000)
        sim.run(until=50 * MS)
        assert workload.forwarded > 0
        # RTT = proxy traversal (µs-scale) + server RTT (90 µs).
        assert workload.latency.mean_us() > 90.0
        assert workload.latency.mean_us() < 150.0

    def test_zipf_keys_skewed(self, sim):
        host = NfvHost(sim, name="mc-host2")
        proxy = MemcachedProxy("mc", servers=[("10.8.0.10", 11211)])
        host.add_nf(proxy)
        install_chain(host, ["mc"])
        MemcachedWorkload(sim, host, requests_per_second=100_000,
                          key_space=100)
        sim.run(until=50 * MS)
        assert proxy.requests_forwarded > 100
