"""The SDN controller: one or more POX-like shards over flow space.

The paper uses POX, "a single threaded python application", deliberately —
its saturation is the phenomenon behind Fig. 1 and Fig. 10.  Each shard
is a FIFO queue served by ``workers_per_shard`` threads (one = POX) with
a configurable per-request service time, plus symmetric channel
propagation delay.  At idle the total flow-setup round trip matches
§5.1's measured 31 ms; under load, queueing delay grows without bound —
exactly the behaviour the experiments show.  ``shards=1`` (the default)
is that single controller; rule content comes from a pluggable
*northbound application* (usually the :class:`~repro.core.app.SdnfvApp`)
implementing ``rules_for(host, scope, flow)``.

Dragonflow-style distribution is the escape hatch: split the controller
into *shards*, each with its own queue, capacity, and outage state, and
partition the work:

- **Reactive requests** (table-miss ``PacketInMessage``) route by flow:
  ``FiveTuple.hash_bucket(n_shards)`` names the owning shard, so one
  flow's setup always serializes through one queue while distinct flows
  spread over all shards — aggregate setup capacity scales with the
  shard count.
- **Proactive pushes** route by the *host* the rules land on (a stable
  FNV hash of the host name, overridable per host), so one host's table
  updates stay ordered.
- **Cross-shard installs** — a service graph whose hosts are owned by
  different shards — run a two-phase transaction: every involved shard
  accepts a :class:`~repro.control.openflow.PrepareInstall` through its
  own queue, then commits run strictly in ascending shard order
  (:class:`~repro.control.openflow.CommitInstall`), one at a time.  The
  deterministic commit order makes concurrent transactions serialize
  identically on every run, and every commit lands through
  ``manager.install_rule`` so the ownership verifier audits it like any
  other table write.

With ``failover=True`` (default), requests owned by a downed shard are
absorbed by the next live shard in ring order — the surviving shards
cover the dead shard's flow-space, so a :class:`ControllerOutage` on one
shard no longer stalls flows owned by the others.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import typing

from repro.control.openflow import (
    CommitInstall,
    PacketInMessage,
    PrepareInstall,
)
from repro.dataplane.flow_table import FlowTableEntry
from repro.net.flow import FiveTuple
from repro.sim.events import Event
from repro.sim.simulator import Simulator
from repro.sim.store import Store
from repro.sim.units import US

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = 0xFFFFFFFFFFFFFFFF


def _host_bucket(name: str, buckets: int) -> int:
    """Stable FNV-1a bucket for a host name (hash() is salted per
    process; shard ownership must agree across workers and runs)."""
    digest = _FNV_OFFSET
    for byte in name.encode():
        digest = ((digest ^ byte) * _FNV_PRIME) & _MASK64
    return digest % buckets


def _install(host_manager: typing.Any,
             entries: typing.Sequence[FlowTableEntry]) -> bool:
    for entry in entries:
        host_manager.install_rule(entry)
    return True


@dataclasses.dataclass
class _ShardStats:
    """Load counters for one controller shard."""

    requests: int = 0
    busy_ns: int = 0
    max_queue: int = 0
    failures: int = 0
    outages: int = 0

    def utilization(self, elapsed_ns: int) -> float:
        return self.busy_ns / elapsed_ns if elapsed_ns else 0.0


class _Shard:
    """One controller shard: a FIFO request queue served by ``workers``
    threads, each request costing one service time."""

    def __init__(self, sim: Simulator, service_time_ns: int,
                 propagation_ns: int, workers: int) -> None:
        if service_time_ns <= 0:
            raise ValueError("service time must be positive")
        if workers < 1:
            raise ValueError("need at least one worker")
        self.sim = sim
        self.service_time_ns = service_time_ns
        self.propagation_ns = propagation_ns
        self.workers = workers
        self.stats = _ShardStats()
        self.down = False
        self._restored: Event | None = None
        self._queue = Store(sim)
        for _ in range(workers):
            sim.process(self._serve())

    def set_down(self, down: bool) -> None:
        """While down, requests still propagate and queue, but no worker
        serves them — hosts see unbounded response times (what their
        retry policies must absorb)."""
        self.down = down
        if down:
            self._restored = self.sim.event()
        else:
            restored, self._restored = self._restored, None
            if restored is not None:
                restored.succeed()

    @property
    def queue_depth(self) -> int:
        return len(self._queue)

    def snapshot(self) -> dict[str, int | float | bool]:
        """Scalar load counters as primitives — one row of
        :meth:`ControlPlane.snapshot`."""
        return {
            "requests": self.stats.requests,
            "busy_ns": self.stats.busy_ns,
            "utilization": self.stats.utilization(self.sim.now),
            "queue_depth": self.queue_depth,
            "max_queue": self.stats.max_queue,
            "failures": self.stats.failures,
            "outages": self.stats.outages,
            "down": self.down,
        }

    def submit(self, compute: typing.Callable[[], typing.Any]) -> Event:
        """Queue one unit of work; the event fires with its result after
        propagation + queueing + service + propagation."""
        reply = self.sim.event()
        job = (compute, reply)
        # Request propagation to the controller.
        self.sim.schedule(self.propagation_ns,
                          lambda: self._queue.try_put(job))
        return reply

    def _serve(self):
        while True:
            compute, reply = yield self._queue.get()
            while self.down:
                yield self._restored
            self.stats.max_queue = max(self.stats.max_queue,
                                       len(self._queue) + 1)
            yield self.sim.timeout(self.service_time_ns)
            self.stats.requests += 1
            self.stats.busy_ns += self.service_time_ns
            try:
                result = compute()
            except Exception as error:  # noqa: BLE001 - app fault isolation
                # A buggy northbound app must not kill the controller:
                # fail that one request and keep serving.
                self.stats.failures += 1
                self.sim.schedule(self.propagation_ns,
                                  lambda event=reply, exc=error:
                                  event.fail(exc))
                continue
            # Reply propagation back to the host.
            self.sim.schedule(self.propagation_ns,
                              lambda event=reply, value=result:
                              event.succeed(value))


@dataclasses.dataclass
class ControlPlaneStats:
    """Plane-level counters (per-shard load lives in each shard's
    ``stats``)."""

    transactions: int = 0
    failovers: int = 0
    outages: int = 0


class ControlPlane:
    """The SDN controller: N shards (default one) over flow space.

    Hosts (``NfManager.controller``), the application
    (``SdnfvApp(controller=...)``) and fault plans
    (``FaultInjector(controller=...)``) all talk to it:
    ``flow_request`` / ``push_rules`` / ``submit_work`` route to a shard
    and return that shard's reply event.
    """

    def __init__(self, sim: Simulator, shards: int = 1,
                 service_time_ns: int = 500 * US,
                 propagation_ns: int = 15_250 * US,
                 northbound: typing.Any | None = None,
                 workers_per_shard: int = 1,
                 failover: bool = True,
                 host_shards: typing.Mapping[str, int] | None = None,
                 event_log: typing.Any | None = None) -> None:
        """``workers_per_shard=1`` models POX.  The paper expects "a
        similar trend even with higher performance SDN Controllers" —
        raise it to model a multi-threaded controller and check that the
        saturation point shifts but the shape stays."""
        if shards < 1:
            raise ValueError("need at least one controller shard")
        self.sim = sim
        self.service_time_ns = service_time_ns
        self.propagation_ns = propagation_ns
        self.northbound = northbound
        self.failover = failover
        self.event_log = event_log
        self.stats = ControlPlaneStats()
        self._host_shards = dict(host_shards or {})
        self._txn_ids = itertools.count()
        self.shards: tuple[_Shard, ...] = tuple(
            _Shard(sim, service_time_ns, propagation_ns, workers_per_shard)
            for _ in range(shards))

    @property
    def down(self) -> bool:
        """The plane is down only when *every* shard is down."""
        return all(shard.down for shard in self.shards)

    @property
    def idle_lookup_ns(self) -> int:
        """Flow-setup round trip with empty queues (§5.1: 31 ms)."""
        return 2 * self.propagation_ns + self.service_time_ns

    @property
    def capacity_per_second(self) -> float:
        """Aggregate saturation request rate across all worker threads
        of all shards."""
        return sum(shard.workers * 1e9 / self.service_time_ns
                   for shard in self.shards)

    # ------------------------------------------------------------------
    # Flow-space partition
    # ------------------------------------------------------------------
    def owner_of(self, flow: FiveTuple) -> int:
        """The shard owning this flow's slice of flow space."""
        return flow.hash_bucket(len(self.shards))

    def shard_for_host(self, host_name: str) -> int:
        """The shard owning a host's proactive rule channel."""
        explicit = self._host_shards.get(host_name)
        if explicit is not None:
            return explicit % len(self.shards)
        return _host_bucket(host_name, len(self.shards))

    def _route(self, index: int) -> _Shard:
        """Resolve an owner index to a live shard (ring failover)."""
        shard = self.shards[index]
        if not shard.down or not self.failover:
            return shard
        count = len(self.shards)
        for offset in range(1, count):
            candidate = (index + offset) % count
            if not self.shards[candidate].down:
                self.stats.failovers += 1
                self._log("shard_failover", shard=index, absorbed_by=candidate)
                return self.shards[candidate]
        return shard  # total outage: queue at the owner

    # ------------------------------------------------------------------
    # Southbound / northbound request routing
    # ------------------------------------------------------------------
    def flow_request(self, host: str, scope: str, flow: FiveTuple) -> Event:
        """Packet-in, routed to the flow's owning shard (or, during that
        shard's outage, absorbed by the next live shard).  The event
        fires with the northbound app's rule list after the full round
        trip."""
        message = PacketInMessage(host=host, scope=scope, flow=flow)
        return self._route(self.owner_of(flow)).submit(
            lambda: self._rules_for(message))

    def _rules_for(self, message: PacketInMessage) -> list[FlowTableEntry]:
        if self.northbound is None:
            return []
        return list(self.northbound.rules_for(message.host, message.scope,
                                              message.flow))

    def push_rules(self, host_manager: typing.Any,
                   entries: typing.Sequence[FlowTableEntry]) -> Event:
        """Install rules on a host through its owning shard (Fig. 2 steps
        2–3).  Occupies one service slot plus propagation each way; the
        returned event fires once the rules are installed on the host."""
        return self._route(self.shard_for_host(host_manager.name)).submit(
            functools.partial(_install, host_manager, entries))

    def submit_work(self, compute: typing.Callable[[], typing.Any],
                    shard: int = 0) -> Event:
        """Run arbitrary controller-resident work through one shard's
        queue (used by SDN-baseline applications whose logic lives in the
        controller)."""
        return self.shards[shard].submit(compute)

    # ------------------------------------------------------------------
    # Cross-shard installs: two-phase, deterministic commit order
    # ------------------------------------------------------------------
    def install_batch(self, installs: typing.Sequence[
            tuple[typing.Any, typing.Sequence[FlowTableEntry]]]) -> Event:
        """Install per-host rule batches as one atomic-order transaction.

        Batches whose hosts are all owned by one shard take the fast
        path: plain per-host pushes through that shard's queue.  Batches
        spanning shards run two-phase — a prepare through every involved
        shard's queue (so a saturated or downed shard delays the whole
        transaction, never reorders it), then commits strictly in
        ascending shard order.  The returned event fires with the
        transaction id once every rule is installed.
        """
        groups: dict[int, list[tuple[typing.Any,
                                     typing.Sequence[FlowTableEntry]]]] = {}
        for manager, entries in installs:
            groups.setdefault(self.shard_for_host(manager.name),
                              []).append((manager, entries))
        order = sorted(groups)
        txn_id = next(self._txn_ids)
        done = self.sim.event()
        if len(order) <= 1:
            replies = [self.shards[index].submit(functools.partial(
                           _install, manager, list(entries)))
                       for index in order
                       for manager, entries in groups[index]]
            gate = self.sim.all_of(replies)
            gate.callbacks.append(lambda _event: done.succeed(txn_id))
            return done
        self.stats.transactions += 1
        self.sim.process(self._two_phase(txn_id, groups, order, done))
        return done

    def _two_phase(self, txn_id: int,
                   groups: dict[int, list[tuple[typing.Any,
                                                typing.Sequence[
                                                    FlowTableEntry]]]],
                   order: list[int], done: Event):
        prepares = []
        for index in order:
            message = PrepareInstall(
                txn_id=txn_id, shard=index,
                hosts=tuple(manager.name for manager, _ in groups[index]))
            self._log("txn_prepare", shard=index, txn=txn_id,
                      hosts=len(message.hosts))
            prepares.append(self.shards[index].submit(
                lambda prepared=message: prepared))
        yield self.sim.all_of(prepares)
        for index in order:
            batch = groups[index]
            message = CommitInstall(
                txn_id=txn_id, shard=index,
                entries=tuple(entry for _manager, entries in batch
                              for entry in entries))

            def commit(batch=batch, message=message) -> int:
                for manager, entries in batch:
                    for entry in entries:
                        manager.install_rule(entry)
                return len(message.entries)

            installed = yield self.shards[index].submit(commit)
            self._log("txn_commit", shard=index, txn=txn_id,
                      rules=installed)
        done.succeed(txn_id)

    # ------------------------------------------------------------------
    # Outages (repro.faults.ControllerOutage, per shard or plane-wide)
    # ------------------------------------------------------------------
    def set_down(self, down: bool, shard: int | None = None) -> None:
        """Take one shard (or, with ``shard=None``, every shard) down or
        bring it back; transitions land in the event log for MTTR."""
        if shard is None:
            for index in range(len(self.shards)):
                self.set_down(down, shard=index)
            return
        if self.shards[shard].down == down:
            return
        self.shards[shard].set_down(down)
        self._log("controller_shard_down" if down
                  else "controller_shard_restored", shard=shard)

    def outage(self, duration_ns: int, shard: int | None = None) -> None:
        """A bounded outage of one shard (or the whole plane): down now,
        back after ``duration_ns``."""
        if duration_ns <= 0:
            raise ValueError("outage duration must be positive")
        if shard is None:
            for index in range(len(self.shards)):
                self.outage(duration_ns, shard=index)
            return
        self.stats.outages += 1
        self.shards[shard].stats.outages += 1
        self.set_down(True, shard=shard)
        self.sim.schedule(duration_ns,
                          lambda: self.set_down(False, shard=shard))

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------
    def queue_depths(self) -> list[int]:
        return [shard.queue_depth for shard in self.shards]

    def utilizations(self, elapsed_ns: int) -> list[float]:
        return [shard.stats.utilization(elapsed_ns)
                for shard in self.shards]

    @property
    def requests(self) -> int:
        return sum(shard.stats.requests for shard in self.shards)

    def snapshot(self) -> dict[str, typing.Any]:
        """Per-shard load rows plus plane counters, as primitives."""
        return {
            "shards": [shard.snapshot() for shard in self.shards],
            "transactions": self.stats.transactions,
            "failovers": self.stats.failovers,
            "outages": self.stats.outages,
        }

    def _log(self, category: str, **detail: typing.Any) -> None:
        if self.event_log is not None:
            self.event_log.record(category, **detail)
