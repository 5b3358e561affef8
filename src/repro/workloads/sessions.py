"""Session-structured workloads: flow churn (Fig. 10) and video sessions
(Fig. 11).

Fig. 10's workload "varies the number of new incoming flows per second;
after a flow has been established (i.e., it has sent two packets), it is
replaced with a new flow".  Fig. 11's "mimics the behavior of 400 video
flows, which each last for an average of 40 seconds before being replaced
by a new flow".
"""

from __future__ import annotations

import dataclasses
import itertools
import typing

from repro.dataplane.host import NfvHost
from repro.metrics.throughput import ThroughputMeter
from repro.net.flow import FiveTuple
from repro.net.headers import PROTO_TCP
from repro.net.http import HttpResponse
from repro.net.packet import Packet, wire_bits
from repro.sim.randomness import RandomStreams
from repro.sim.simulator import Simulator
from repro.sim.units import MS, S

def _fresh_flow(index: int, server_ip: str = "10.1.0.1") -> FiveTuple:
    """The ``index``-th server→client flow of a workload (the video
    server side of §5.3).  Each workload numbers its own flows from 0,
    so two workloads built in one process see the same five-tuples."""
    client = f"10.2.{(index >> 8) % 250 + 1}.{index % 250 + 1}"
    return FiveTuple(src_ip=server_ip, dst_ip=client, protocol=PROTO_TCP,
                     src_port=80, dst_port=10000 + index % 50000)


def _attach_egress_hook(host, measure_ports, hook) -> None:
    """Attach an egress observer to an NfvHost's ports, or to a baseline
    system exposing a single ``on_egress`` hook (e.g. SdnVideoSystem)."""
    if hasattr(host, "port"):
        for port_name in measure_ports:
            host.port(port_name).on_egress = hook
    else:
        host.on_egress = hook


def video_reply_payload(bitrate_kbps: int = 2000) -> str:
    """An HTTP response header announcing video content."""
    return HttpResponse(
        status=200, reason="OK",
        headers={"Content-Type": "video/mp4",
                 "X-Bitrate-Kbps": str(bitrate_kbps)},
        body="").serialize()


class FlowChurnWorkload:
    """New flows at a configurable rate, two packets each (Fig. 10).

    Packet 1 models the TCP connection ACK, packet 2 the HTTP reply whose
    payload the Video Detector parses.  ``completed_flows`` counts flows
    whose second packet made it out of the system — the 'output flows per
    second' metric of Fig. 10.
    """

    def __init__(self, sim: Simulator, host: NfvHost,
                 new_flows_per_second: float,
                 ingress_port: str = "eth0",
                 measure_ports: typing.Sequence[str] = ("eth1",),
                 packet_size: int = 256,
                 window_ns: int = 500 * MS,
                 seed: int = 7) -> None:
        if new_flows_per_second <= 0:
            raise ValueError("flow rate must be positive")
        self.sim = sim
        self.host = host
        self.ingress_port = ingress_port
        self.packet_size = packet_size
        # Mean gap between new flows: a real-valued rate parameter, not
        # an integer-ns quantity (each drawn gap is quantized below).
        self.mean_gap = S / new_flows_per_second
        self.out_meter = ThroughputMeter(window_ns=window_ns)
        self.flows_started = 0
        self.completed_flows = 0
        self._second_packet_ids: set[int] = set()
        self._rng = RandomStreams(seed=seed).stream("churn")
        self._flow_ids = itertools.count()
        _attach_egress_hook(host, measure_ports, self._on_out)
        sim.process(self._run())

    def _on_out(self, packet: Packet) -> None:
        self.out_meter.record(self.sim.now, packet.size)
        if packet.packet_id in self._second_packet_ids:
            self._second_packet_ids.discard(packet.packet_id)
            self.completed_flows += 1
        # Measurement sink = terminal owner: zero-ref pooled buffers go
        # back to the slab (fresh packet_ids on reuse keep the
        # second-packet tracking sound).
        pool = packet.pool
        if pool is not None and packet.ref_count == 0:
            pool.reclaim(packet)

    def _alloc(self, flow: FiveTuple, size: int, payload: str) -> Packet:
        pool = getattr(self.host, "packet_pool", None)
        if pool is not None:
            return pool.alloc(flow=flow, size=size, payload=payload,
                              created_at=self.sim.now)
        return Packet(flow=flow, size=size, payload=payload,
                      created_at=self.sim.now)

    def _run(self):
        while True:
            flow = _fresh_flow(next(self._flow_ids))
            self.flows_started += 1
            ack = self._alloc(flow, 64, "")
            self.host.inject(self.ingress_port, ack)
            reply = self._alloc(flow, self.packet_size,
                                video_reply_payload())
            self._second_packet_ids.add(reply.packet_id)
            # Second packet follows shortly after the first.
            self.sim.schedule(50_000, lambda p=reply: self.host.inject(
                self.ingress_port, p))
            gap = max(1, round(self._rng.exponential(self.mean_gap)))
            yield self.sim.timeout(gap)

    def completed_per_second(self, elapsed_ns: int) -> float:
        return self.completed_flows * S / max(1, elapsed_ns)


@dataclasses.dataclass
class _VideoSession:
    flow: FiveTuple
    ends_at: int
    packets_sent: int = 0


class VideoSessionWorkload:
    """A fixed population of concurrent video flows (Fig. 11).

    Each session streams packets at ``per_flow_mbps``; when a session's
    exponentially-distributed lifetime expires it is replaced by a fresh
    flow.  The first packet of each session carries the HTTP video header
    so the Video Detector can classify it.
    """

    def __init__(self, sim: Simulator, host: NfvHost,
                 concurrent_flows: int = 400,
                 mean_lifetime_ns: int = 40 * S,
                 per_flow_mbps: float = 0.2,
                 packet_size: int = 512,
                 ingress_port: str = "eth0",
                 measure_ports: typing.Sequence[str] = ("eth1",),
                 window_ns: int = 1 * S,
                 seed: int = 11) -> None:
        self.sim = sim
        self.host = host
        self.ingress_port = ingress_port
        self.packet_size = packet_size
        self.mean_lifetime_ns = mean_lifetime_ns
        self.per_flow_mbps = per_flow_mbps
        self.out_meter = ThroughputMeter(window_ns=window_ns)
        self.sessions_started = 0
        self._rng = RandomStreams(seed=seed).stream("video")
        self._flow_ids = itertools.count()
        _attach_egress_hook(host, measure_ports, self._on_out)
        for _ in range(concurrent_flows):
            self.sim.process(self._session_loop())

    def _on_out(self, packet: Packet) -> None:
        self.out_meter.record(self.sim.now, packet.size)
        pool = packet.pool
        if pool is not None and packet.ref_count == 0:
            pool.reclaim(packet)

    def _interval_ns(self) -> int:
        return max(1, round(wire_bits(self.packet_size) * 1000.0
                            / self.per_flow_mbps))

    def _session_loop(self):
        # Stagger session starts so replacements don't synchronize.
        yield self.sim.timeout(
            int(self._rng.integers(0, self._interval_ns() + 1)))
        while True:
            session = _VideoSession(
                flow=_fresh_flow(next(self._flow_ids)),
                ends_at=self.sim.now + max(1, round(self._rng.exponential(
                    self.mean_lifetime_ns))))
            self.sessions_started += 1
            while self.sim.now < session.ends_at:
                # Paper setup: packet 1 is the TCP connection ACK, packet
                # 2 the HTTP reply whose payload classifies the flow.
                if session.packets_sent == 0:
                    payload, size = "", 64
                elif session.packets_sent == 1:
                    payload, size = video_reply_payload(), self.packet_size
                else:
                    payload, size = "", self.packet_size
                pool = getattr(self.host, "packet_pool", None)
                if pool is not None:
                    packet = pool.alloc(flow=session.flow, size=size,
                                        payload=payload,
                                        created_at=self.sim.now)
                else:
                    packet = Packet(flow=session.flow, size=size,
                                    payload=payload,
                                    created_at=self.sim.now)
                self.host.inject(self.ingress_port, packet)
                session.packets_sent += 1
                yield self.sim.timeout(self._interval_ns())

    def out_pps_series(self) -> list[tuple[float, float]]:
        return self.out_meter.pps_series()
