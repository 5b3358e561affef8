"""Open vSwitch punting to a POX controller: the Fig. 1 motivation study.

"OVS includes a software switch with a flow table; if there is a flow
table miss, then a request is sent to the SDN controller. ... the maximum
throughput that can be achieved quickly drops when the proportion of
packets that must contact the controller increases."

Two forms:

- :class:`OvsControllerModel` — the closed-form capacity model: achieved
  throughput = min(line rate, switch fast path, controller capacity / p);
- :class:`OvsSwitchSim` — a discrete-event OVS: a fast-path worker plus a
  bounded punt queue into a :class:`~repro.control.plane.ControlPlane`.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.control.plane import ControlPlane
from repro.metrics.throughput import ThroughputMeter
from repro.net.mempool import DEFAULT_POOL_SIZE, PacketPool
from repro.net.packet import Packet, wire_bits
from repro.sim.randomness import RandomStreams
from repro.sim.simulator import Simulator
from repro.sim.store import Store
from repro.sim.units import MS


@dataclasses.dataclass
class OvsControllerModel:
    """Analytic max-throughput model for the controller-punt path.

    ``fast_path_pps`` is the software switch's packet rate ceiling;
    ``controller_rps`` the single-threaded controller's request capacity.
    With fraction ``p`` of packets punted, sustainable packet rate is
    ``min(line, fast_path, controller_rps / p)``.
    """

    line_rate_gbps: float = 10.0
    fast_path_pps: float = 3.3e6
    controller_rps: float = 10_000.0

    def max_throughput_gbps(self, punt_fraction: float,
                            packet_size: int) -> float:
        if not 0.0 <= punt_fraction <= 1.0:
            raise ValueError("punt fraction must be in [0, 1]")
        bits = wire_bits(packet_size)
        line_pps = self.line_rate_gbps * 1e9 / bits
        rates = [line_pps, self.fast_path_pps]
        if punt_fraction > 0:
            rates.append(self.controller_rps / punt_fraction)
        return min(rates) * bits / 1e9

    def sweep(self, punt_percents: typing.Sequence[float],
              packet_size: int) -> list[tuple[float, float]]:
        """(percent, Gbps) series — one Fig. 1 curve."""
        return [(pct, self.max_throughput_gbps(pct / 100.0, packet_size))
                for pct in punt_percents]


class OvsSwitchSim:
    """Discrete-event OVS: fast path worker + controller punt path.

    Packets enter via :meth:`offer`; a fraction are punted to the
    controller (miss) and forwarded only once the reply returns; the punt
    buffer is bounded, so an overloaded controller causes drops — the
    throughput collapse of Fig. 1.
    """

    def __init__(self, sim: Simulator, controller: ControlPlane,
                 punt_fraction: float,
                 fast_path_pps: float = 3.3e6,
                 punt_buffer: int = 1024,
                 window_ns: int = 10 * MS,
                 pool_size: int = DEFAULT_POOL_SIZE,
                 seed: int = 3) -> None:
        if not 0.0 <= punt_fraction <= 1.0:
            raise ValueError("punt fraction must be in [0, 1]")
        self.sim = sim
        self.controller = controller
        self.punt_fraction = punt_fraction
        self.fast_service_ns = max(1, round(1e9 / fast_path_pps))
        self.out_meter = ThroughputMeter(window_ns=window_ns)
        self.dropped_punts = 0
        self.punts_completed = 0
        self.forwarded = 0
        # Baselines share the mempool discipline of the SDNFV data plane:
        # drivers allocate via ``packet_pool`` and every terminal path
        # (forwarded or dropped) returns the buffer to the slab.
        self.packet_pool: PacketPool | None = (
            PacketPool(pool_size) if pool_size else None)
        self._ingress = Store(sim, capacity=4096, recycle=True)
        self._punt_queue = Store(sim, capacity=punt_buffer)
        self._rng = RandomStreams(seed=seed).stream("ovs")
        sim.process(self._fast_path())

    def offer(self, packet: Packet) -> bool:
        """Offer a packet to the switch (False = ingress queue overflow).

        Overflowed pooled buffers are reclaimed here, like a NIC dropping
        a frame whose descriptor never left the mempool.
        """
        if self._ingress.try_put(packet):
            return True
        if packet.pool is not None:
            packet.free()
        return False

    def _fast_path(self):
        while True:
            packet: Packet = yield self._ingress.get()
            yield self.sim.timeout(self.fast_service_ns)
            if self._rng.random() < self.punt_fraction:
                if self._punt_queue.try_put(packet):
                    self.sim.process(self._punt(packet))
                else:
                    self.dropped_punts += 1
                    if packet.pool is not None:
                        packet.free()
                continue
            self._emit(packet)

    def _punt(self, packet: Packet):
        yield self.controller.flow_request("ovs", "miss", packet.flow)
        # Remove our reservation from the bounded punt buffer.
        self._punt_queue.try_get()
        self.punts_completed += 1
        self._emit(packet)

    def _emit(self, packet: Packet) -> None:
        self.forwarded += 1
        self.out_meter.record(self.sim.now, packet.size)
        if packet.pool is not None:
            packet.free()

    def achieved_gbps(self) -> float:
        return self.out_meter.mean_gbps()
