"""Per-layer tracing, installed from outside the program.

Traced runs wrap the public entry points of each layer at class level,
the way :class:`repro.analysis.ownership.HostVerifier` shadows methods
per instance, and undo it afterwards.  Each wrapper is a span: it counts
calls and accumulates *self* time (its duration minus the wrapped calls
it made), so nested layers are never counted twice.  Nothing under
``src/`` is changed; an untraced run executes the unmodified classes.

A wrapped attribute that no longer exists (a later change renamed a
private hook) is skipped and listed in :attr:`Tracer.missing`, so the
benchmark keeps running and the affected metric reads 0.
"""

from __future__ import annotations

import functools
import time
import typing

from repro.dataplane.flow_table import FlowTable
from repro.dataplane.manager import NfManager, NicPort
from repro.dataplane.rings import RingBuffer
from repro.metrics.latency import LatencyRecorder
from repro.metrics.throughput import ThroughputMeter
from repro.net.mempool import PacketPool
from repro.nfs.base import NetworkFunction
from repro.sim.sharded import ShardedSimulator, ShardRuntime
from repro.workloads.pktgen import PktGen
from repro.workloads.sessions import FlowChurnWorkload

from benchmarks.test_micro_kernel import _COUNTED as ALLOCATED_CLASSES

#: (span, class, attribute) for every timed entry point.  The span name
#: is ``<layer>.<part>``; per-layer metrics sum spans by prefix.
TIMED: tuple[tuple[str, type, str], ...] = (
    ("manager.rx.receive", NicPort, "receive"),
    ("manager.rx.burst", NicPort, "rx_burst"),
    ("manager.rx.burst", NicPort, "rx_burst_into"),
    ("manager.tx", NfManager, "tx_submit_burst"),
    ("manager.tx", NicPort, "transmit"),
    ("manager.msg", NfManager, "apply_message"),
    ("flow_table.lookup", FlowTable, "lookup"),
    ("flow_table.lookup", FlowTable, "lookup_batch"),
    ("flow_table.install", FlowTable, "install"),
    *(("rings", RingBuffer, name) for name in (
        "try_enqueue", "enqueue_burst", "enqueue_batch", "get", "try_get",
        "dequeue_burst", "dequeue_packets", "drain")),
    ("nf", NetworkFunction, "handle_packet"),
    ("nf", NetworkFunction, "handle_batch"),
    ("pool", PacketPool, "alloc"),
    ("pool", PacketPool, "reclaim"),
    ("sharded.codec", ShardRuntime, "take_outbox"),
    ("sharded.codec", ShardRuntime, "deliver"),
    ("harness", PktGen, "_drive_tick"),
    ("harness", PktGen, "_on_return"),
    ("harness", ThroughputMeter, "record"),
    ("harness", LatencyRecorder, "record"),
    ("harness", FlowChurnWorkload, "_on_out"),
)

#: Generator functions whose every resumption is a span (the churn
#: arrival loop runs its per-flow work inside the generator body).
TIMED_GENERATORS = (("harness", FlowChurnWorkload, "_run"),)


class Span:
    __slots__ = ("calls", "self_s")

    def __init__(self) -> None:
        self.calls = 0
        self.self_s = 0.0


class Tracer:
    """Class-level span wrappers plus constructor counting."""

    def __init__(self) -> None:
        self.spans: dict[str, Span] = {}
        #: Child-time accumulators of the open spans; the bottom entry
        #: collects the top-level spans' time.
        self._stack: list[float] = [0.0]
        #: Conductor rounds: the (shard id, advance seconds) of each
        #: round, closed when the conductor routes the round's outboxes.
        self.rounds: list[list[tuple[int, float]]] = []
        self._round: list[tuple[int, float]] = []
        self.allocations = 0
        self.missing: list[str] = []
        self._saved: list[tuple[type, str, typing.Any]] = []

    # ------------------------------------------------------------------
    def install(self) -> None:
        for span, cls, name in TIMED:
            self._patch(cls, name, lambda fn, span=span:
                        self._timed(self._span(span), fn))
        for span, cls, name in TIMED_GENERATORS:
            self._patch(cls, name, lambda fn, span=span:
                        self._timed_generator(self._span(span), fn))
        self._patch(ShardRuntime, "advance", self._recorded_advance)
        self._patch(ShardedSimulator, "_route", self._round_marker)
        for cls in ALLOCATED_CLASSES:
            self._patch(cls, "__init__", self._counted)

    def uninstall(self) -> None:
        for cls, name, original in reversed(self._saved):
            if original is None:
                delattr(cls, name)
            else:
                setattr(cls, name, original)
        self._saved.clear()

    def reset(self) -> None:
        """Zero every count (the wrappers keep their span objects)."""
        for span in self.spans.values():
            span.calls = 0
            span.self_s = 0.0
        self._stack[:] = [0.0]
        self.rounds.clear()
        self._round.clear()
        self.allocations = 0

    def snapshot(self) -> dict[str, tuple[int, float]]:
        return {name: (span.calls, span.self_s)
                for name, span in self.spans.items()}

    # ------------------------------------------------------------------
    def _span(self, name: str) -> Span:
        return self.spans.setdefault(name, Span())

    def _patch(self, cls: type, name: str,
               make: typing.Callable[[typing.Any], typing.Any]) -> None:
        current = getattr(cls, name, None)
        if current is None:
            self.missing.append(f"{cls.__name__}.{name}")
            return
        self._saved.append((cls, name, cls.__dict__.get(name)))
        setattr(cls, name, make(current))

    def _timed(self, span: Span, fn):
        clock, stack = time.perf_counter, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = stack.pop()
                stack[-1] += elapsed
                span.calls += 1
                span.self_s += elapsed - child
        return wrapper

    def _timed_generator(self, span: Span, fn):
        clock, stack = time.perf_counter, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            resume, value = inner.send, None
            while True:
                stack.append(0.0)
                start = clock()
                try:
                    item = resume(value)
                except StopIteration as stop:
                    return stop.value
                finally:
                    elapsed = clock() - start
                    child = stack.pop()
                    stack[-1] += elapsed
                    span.calls += 1
                    span.self_s += elapsed - child
                try:
                    value = yield item
                    resume = inner.send
                except GeneratorExit:
                    inner.close()
                    raise
                except Exception as error:  # the kernel's throw(): forward
                    resume, value = inner.throw, error
        return wrapper

    def _recorded_advance(self, inner):
        clock, current = time.perf_counter, self._round

        @functools.wraps(inner)
        def advance(runtime, until_ns):
            start = clock()
            try:
                return inner(runtime, until_ns)
            finally:
                current.append((runtime.shard_id, clock() - start))
        return advance

    def _round_marker(self, route):
        @functools.wraps(route)
        def marked(*args, **kwargs):
            if self._round:
                self.rounds.append(list(self._round))
                self._round.clear()
            return route(*args, **kwargs)
        return marked

    def _counted(self, init):
        tracer = self

        @functools.wraps(init)
        def counting_init(*args, **kwargs):
            tracer.allocations += 1
            init(*args, **kwargs)
        return counting_init


# ----------------------------------------------------------------------
# Per-layer metrics
# ----------------------------------------------------------------------
#: name -> unit, in report order.
PER_LAYER_UNITS = {
    "sim.events_per_pkt": "1/pkt",
    "sim.timers_per_pkt": "1/pkt",
    "sim.residual_us_per_pkt": "us/pkt",
    "manager.rx_bursts_per_pkt": "1/pkt",
    "manager.rx_us_per_pkt": "us/pkt",
    "manager.tx_us_per_pkt": "us/pkt",
    "manager.columnar_batches": "count",
    "manager.object_fallbacks": "count",
    "manager.msgs": "count",
    "manager.msg_us_per_op": "us/op",
    "flow_table.lookups_per_pkt": "1/pkt",
    "flow_table.lookup_us_per_pkt": "us/pkt",
    "flow_table.installs": "count",
    "flow_table.install_us_per_op": "us/op",
    "flow_table.entries_final": "count",
    "rings.ops_per_pkt": "1/pkt",
    "rings.us_per_pkt": "us/pkt",
    "rings.full_drops_ratio": "ratio",
    "nf.calls_per_pkt": "1/pkt",
    "nf.handler_us_per_pkt": "us/pkt",
    "pool.hit_ratio": "ratio",
    "pool.exhausted": "count",
    "pool.us_per_pkt": "us/pkt",
    "net.allocs_per_pkt": "1/pkt",
    "sharded.rounds": "count",
    "sharded.boundary_msgs_per_pkt": "1/pkt",
    "sharded.boundary_bytes_per_pkt": "B/pkt",
    "sharded.codec_us_per_pkt": "us/pkt",
    "sharded.advance_s_max": "s/rep",
    "sharded.barrier_wait_share": "ratio",
    "harness.us_per_pkt": "us/pkt",
    "harness.calib_spin_s": "s",
    "trace.overhead_ratio": "ratio",
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(spans: dict[str, tuple[int, float]],
                  rounds: list[list[tuple[int, float]]],
                  allocations: int, counters: dict[str, float],
                  packets: int, reps: int, run_s: float,
                  calib_spin_s: float, overhead_ratio: float
                  ) -> dict[str, float]:
    """Per-layer metrics from the traced repetitions' totals.

    ``spans`` maps span name to (calls, self seconds) summed over the
    timed runs; ``counters`` are the trials' summed odometers; counts
    named without ``_per_`` are per repetition.
    """
    def matching(prefix: str) -> list[tuple[int, float]]:
        return [totals for name, totals in spans.items()
                if not prefix or name == prefix
                or name.startswith(prefix + ".")]

    def calls(prefix: str) -> int:
        return sum(count for count, _s in matching(prefix))

    def seconds(prefix: str) -> float:
        return sum(took for _c, took in matching(prefix))

    def per_pkt_us(prefix: str) -> float:
        return _ratio(seconds(prefix) * 1e6, packets)

    covered = seconds("")
    advances = [[took for _shard, took in batch] for batch in rounds]
    advance_total = sum(sum(batch) for batch in advances)
    barrier_wait = sum(max(batch) * len(batch) - sum(batch)
                       for batch in advances)
    pool_total = (counters["pool_hits"] + counters["pool_misses"]
                  + counters["pool_exhausted"])
    return {
        "sim.events_per_pkt": _ratio(counters["events_scheduled"], packets),
        "sim.timers_per_pkt": _ratio(counters["timers_scheduled"], packets),
        "sim.residual_us_per_pkt": _ratio((run_s - covered) * 1e6, packets),
        "manager.rx_bursts_per_pkt": _ratio(calls("manager.rx.burst"),
                                            packets),
        "manager.rx_us_per_pkt": per_pkt_us("manager.rx"),
        "manager.tx_us_per_pkt": per_pkt_us("manager.tx"),
        "manager.columnar_batches": counters["columnar_batches"] / reps,
        "manager.object_fallbacks": counters["object_fallbacks"] / reps,
        "manager.msgs": calls("manager.msg") / reps,
        "manager.msg_us_per_op": _ratio(seconds("manager.msg") * 1e6,
                                        calls("manager.msg")),
        "flow_table.lookups_per_pkt": _ratio(calls("flow_table.lookup"),
                                             packets),
        "flow_table.lookup_us_per_pkt": per_pkt_us("flow_table.lookup"),
        "flow_table.installs": calls("flow_table.install") / reps,
        "flow_table.install_us_per_op": _ratio(
            seconds("flow_table.install") * 1e6, calls("flow_table.install")),
        "flow_table.entries_final": counters["flow_table_entries"] / reps,
        "rings.ops_per_pkt": _ratio(calls("rings"), packets),
        "rings.us_per_pkt": per_pkt_us("rings"),
        "rings.full_drops_ratio": _ratio(counters["dropped_ring_full"],
                                         packets),
        "nf.calls_per_pkt": _ratio(calls("nf"), packets),
        "nf.handler_us_per_pkt": per_pkt_us("nf"),
        "pool.hit_ratio": _ratio(counters["pool_hits"], pool_total),
        "pool.exhausted": counters["pool_exhausted"] / reps,
        "pool.us_per_pkt": per_pkt_us("pool"),
        "net.allocs_per_pkt": _ratio(allocations, packets),
        "sharded.rounds": len(rounds) / reps,
        "sharded.boundary_msgs_per_pkt": _ratio(
            counters.get("boundary_messages", 0), packets),
        "sharded.boundary_bytes_per_pkt": _ratio(
            counters.get("boundary_bytes", 0), packets),
        "sharded.codec_us_per_pkt": per_pkt_us("sharded.codec"),
        "sharded.advance_s_max": sum(max(batch) for batch in advances)
        / reps,
        "sharded.barrier_wait_share": _ratio(barrier_wait, advance_total),
        "harness.us_per_pkt": per_pkt_us("harness"),
        "harness.calib_spin_s": calib_spin_s,
        "trace.overhead_ratio": overhead_ratio,
    }
