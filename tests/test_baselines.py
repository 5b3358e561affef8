"""Baseline system tests: DPDK forwarder, OVS model, SDN video, TwemProxy."""

import pytest

from repro.baselines import (
    OvsControllerModel,
    OvsSwitchSim,
    SdnVideoSystem,
    TwemproxyModel,
    make_dpdk_forwarder,
)
from repro.baselines.twemproxy import TwemproxyCosts, TwemproxySim
from repro.control import ControlPlane
from repro.net import FiveTuple, Packet
from repro.sim import MS, S, US
from repro.workloads.sessions import video_reply_payload


class TestDpdkForwarder:
    def test_forwards_everything(self, sim, flow):
        host = make_dpdk_forwarder(sim)
        out = []
        host.port("eth1").on_egress = out.append
        for _ in range(10):
            host.inject("eth0", Packet(flow=flow, size=256))
        sim.run(until=10 * MS)
        assert len(out) == 10
        assert host.stats.dropped_no_rule == 0


class TestOvsModel:
    def test_zero_punt_reaches_line_or_fast_path(self):
        model = OvsControllerModel()
        at_1000 = model.max_throughput_gbps(0.0, 1000)
        assert at_1000 == pytest.approx(10.0)  # line rate

    def test_throughput_collapses_with_punt_fraction(self):
        """The Fig. 1 shape: steep drop as % to controller rises."""
        model = OvsControllerModel()
        series = model.sweep([0, 1, 5, 10, 25], packet_size=1000)
        values = [gbps for _pct, gbps in series]
        assert values == sorted(values, reverse=True)
        assert values[2] < values[0] / 5   # collapsed by 5%
        assert values[-1] < 0.5

    def test_small_packets_lower_curve(self):
        model = OvsControllerModel()
        at_5pct_small = model.max_throughput_gbps(0.05, 256)
        at_5pct_large = model.max_throughput_gbps(0.05, 1000)
        assert at_5pct_small < at_5pct_large

    def test_invalid_fraction(self):
        with pytest.raises(ValueError):
            OvsControllerModel().max_throughput_gbps(1.5, 256)

    def test_sim_matches_analytic_shape(self, sim, flow):
        controller = ControlPlane(sim, service_time_ns=500 * US,
                                  propagation_ns=50 * US)
        switch = OvsSwitchSim(sim, controller, punt_fraction=0.05,
                              fast_path_pps=1e6, punt_buffer=64)

        def offer():
            while sim.now < 100 * MS:
                switch.offer(Packet(flow=flow, size=256))
                yield sim.timeout(5_000)  # 200 kpps offered

        sim.process(offer())
        sim.run(until=150 * MS)
        # Controller capacity 10k/s, punts 10k/s offered: punt path
        # saturates and drops, fast path still flows.
        assert switch.forwarded > 0
        assert switch.dropped_punts > 0

    def test_sim_no_punt_forwards_all(self, sim, flow):
        controller = ControlPlane(sim)
        switch = OvsSwitchSim(sim, controller, punt_fraction=0.0)
        for _ in range(100):
            switch.offer(Packet(flow=flow, size=256))
        sim.run(until=10 * MS)
        assert switch.forwarded == 100


class TestSdnVideoSystem:
    def _drive_flows(self, sim, system, count, packets_each=4,
                     size=512, port_base=10000):
        for i in range(count):
            flow = FiveTuple("10.1.0.1", f"10.2.0.{i % 250 + 1}", 6,
                             80, port_base + i)
            system.inject("eth0", Packet(flow=flow, size=64))
            reply = Packet(flow=flow, size=size,
                           payload=video_reply_payload())
            system.inject("eth0", reply)
            for _ in range(packets_each - 2):
                system.inject("eth0", Packet(flow=flow, size=size))

    def test_two_controller_trips_per_flow(self, sim):
        controller = ControlPlane(sim, service_time_ns=500 * US,
                                  propagation_ns=100 * US)
        system = SdnVideoSystem(sim, controller)
        self._drive_flows(sim, system, count=5)
        sim.run(until=1 * S)
        assert system.completed_flows == 5
        assert controller.requests == 10  # 2 per flow
        assert system.forwarded == 5 * 4

    def test_policy_change_only_affects_new_flows(self, sim):
        controller = ControlPlane(sim, service_time_ns=200 * US,
                                  propagation_ns=50 * US)
        system = SdnVideoSystem(sim, controller)
        self._drive_flows(sim, system, count=3, packets_each=2)
        sim.run(until=200 * MS)
        system.set_throttle(True)
        # Existing flows keep their "out" rules.
        old_flow = FiveTuple("10.1.0.1", "10.2.0.1", 6, 80, 10000)
        before = system.forwarded
        for _ in range(10):
            system.inject("eth0", Packet(flow=old_flow, size=512))
        sim.run(until=400 * MS)
        assert system.forwarded == before + 10  # untranscoded
        # A new flow after the change is transcoded (half dropped).
        self._drive_flows(sim, system, count=1, packets_each=12,
                          port_base=20000)
        sim.run(until=800 * MS)
        assert system.transcode_dropped > 0

    def test_controller_saturation_limits_flow_setup(self, sim):
        controller = ControlPlane(sim, service_time_ns=1 * MS,
                                  propagation_ns=0)
        system = SdnVideoSystem(sim, controller, flow_setup_buffer=100000)
        self._drive_flows(sim, system, count=2000, packets_each=2)
        sim.run(until=1 * S)
        # 1 ms service, 2 trips per flow: at most ~500 flows/second.
        assert system.completed_flows <= 510


class TestTwemproxy:
    def test_service_time_near_11us(self):
        model = TwemproxyModel()
        assert 9_000 <= model.service_ns <= 13_000
        assert 80_000 <= model.capacity_rps <= 110_000  # ≈90 k req/s

    def test_latency_curve_saturates(self):
        model = TwemproxyModel()
        low = model.mean_rtt_us(1_000)
        mid = model.mean_rtt_us(60_000)
        high = model.mean_rtt_us(89_000)
        beyond = model.mean_rtt_us(500_000)
        assert low < mid < high
        assert high > 3 * low
        assert beyond >= high  # clamped overload

    def test_sim_latency_matches_model_at_low_load(self, sim):
        model = TwemproxyModel()
        proxy = TwemproxySim(sim, model=model)
        sim.process(proxy.drive(rate_rps=5_000, duration_ns=100 * MS))
        sim.run(until=200 * MS)
        assert proxy.served > 100
        assert proxy.latency.mean_us() == pytest.approx(
            model.mean_rtt_us(5_000), rel=0.25)

    def test_sim_overload_drops(self, sim):
        proxy = TwemproxySim(sim, queue_depth=64)
        sim.process(proxy.drive(rate_rps=300_000, duration_ns=50 * MS))
        sim.run(until=100 * MS)
        assert proxy.dropped > 0

    def test_costs_compose(self):
        costs = TwemproxyCosts()
        small = costs.service_ns(64)
        large = costs.service_ns(1024)
        assert large > small
