"""The NF programming model (the paper's SDNFV-User library, §4.3).

A network function is "a standard user space application" that receives
packets from its ring buffer, may keep arbitrary internal state, and
returns one of three actions per packet (§3.4).  It can also send
cross-layer messages (SkipMe / RequestMe / ChangeDefault / Message) through
the NF Manager to update flow rules.

Subclass :class:`NetworkFunction` and override :meth:`process`; return a
:class:`~repro.dataplane.actions.Verdict`.  Heavy per-packet computation is
declared via :meth:`processing_cost_ns` so the VM thread charges simulated
time for it.
"""

from __future__ import annotations

import typing

from repro.dataplane.actions import Verdict
from repro.dataplane.messages import NfMessage
from repro.net.packet import Packet

if typing.TYPE_CHECKING:  # pragma: no cover
    import numpy as np

    from repro.net.batch import PacketBatch
    from repro.sim.simulator import Simulator


def action_profile(*, reads: typing.Sequence[str] = (),
                   writes: typing.Sequence[str] = (),
                   annotations_read: typing.Sequence[str] = (),
                   annotations_written: typing.Sequence[str] = (),
                   drops: bool = False, sends: bool = False,
                   messages: bool = False) -> typing.Callable[[type], type]:
    """Declare an NF class's action profile explicitly.

    The declaration takes precedence over AST inference everywhere a
    profile is consulted (``auto_parallel_layout``, the merge stage),
    and lint rule NF002 checks it *covers* the inferred effects — an NF
    may declare more than it does (conservative) but never less.

    Field names come from :data:`repro.analysis.profiles.PACKET_FIELDS`
    (``src_ip``, ``dst_ip``, ``protocol``, ``src_port``, ``dst_port``,
    ``dscp``, ``ttl``, ``payload``, ``size``).  The raw declaration is
    stored on the class; :func:`repro.analysis.profiles.declared_profile`
    turns it into an ``ActionProfile`` — this module deliberately never
    imports the analysis package.
    """
    declaration = {
        "reads": tuple(reads),
        "writes": tuple(writes),
        "annotations_read": tuple(annotations_read),
        "annotations_written": tuple(annotations_written),
        "drops": drops,
        "sends": sends,
        "messages": messages,
    }

    def decorate(cls: type) -> type:
        cls.__sdnfv_declared_profile__ = declaration
        return cls

    return decorate


class NfContext:
    """What an NF can see and do, scoped to its VM.

    Provides the simulation clock, a per-VM random stream, and the
    message channel to the NF Manager.  The manager reference is kept
    private; NFs interact with it only through :meth:`send_message`,
    matching the paper's design where NFs never touch the flow table
    directly.
    """

    def __init__(self, sim: Simulator, service_id: str, vm_id: str,
                 submit_message: typing.Callable[[NfMessage], None],
                 rng: np.random.Generator) -> None:
        self.sim = sim
        self.service_id = service_id
        self.vm_id = vm_id
        self.rng = rng
        self._submit_message = submit_message

    @property
    def now(self) -> int:
        """Current simulation time in nanoseconds."""
        return self.sim.now

    def send_message(self, message: NfMessage) -> None:
        """Send a cross-layer message to the NF Manager (asynchronous)."""
        if message.sender_service != self.service_id:
            raise ValueError(
                f"message claims sender {message.sender_service!r} but this "
                f"NF is {self.service_id!r}")
        self._submit_message(message)


class NetworkFunction:
    """Base class for all network functions.

    Attributes:
        service_id: the abstract service this NF implements (§3.2's layer
            of indirection between services and VM addresses).
        read_only: declared at registration; the NF Manager only permits
            read-only NFs to share a packet in parallel (§3.3).
        per_packet_cost_ns: default extra compute charged per packet on top
            of the VM's base handling cost.
    """

    read_only: bool = False
    per_packet_cost_ns: int = 0

    def __init__(self, service_id: str) -> None:
        if not service_id:
            raise ValueError("an NF needs a service_id")
        self.service_id = service_id
        self.packets_seen = 0

    def on_register(self, ctx: NfContext) -> None:
        """Called once when the VM advertises itself to the NF Manager."""

    def processing_cost_ns(self, packet: Packet, ctx: NfContext) -> int:
        """Simulated compute charged for this packet (override for
        data-dependent costs, e.g. payload scanning)."""
        return self.per_packet_cost_ns

    def process(self, packet: Packet, ctx: NfContext) -> Verdict:
        """Handle one packet and return the requested action."""
        raise NotImplementedError

    def handle_packet(self, packet: Packet, ctx: NfContext) -> Verdict:
        """Wrapper the VM calls: bookkeeping + the NF's own logic."""
        self.packets_seen += 1
        verdict = self.process(packet, ctx)
        if not isinstance(verdict, Verdict):
            raise TypeError(
                f"{type(self).__name__}.process returned "
                f"{type(verdict).__name__}, expected Verdict")
        return verdict

    def process_batch(self, batch: PacketBatch, ctx: NfContext) -> Verdict:
        """Handle a whole columnar batch with one verdict.

        Opt-in: NFs that can decide from the batch columns (or one pass
        over uniform-flow metadata) override this, and the VM loop then
        serves a batch without per-packet materialization.  NFs that
        leave it unimplemented get rematerialized ``Packet`` objects via
        :meth:`process` — correct, just slower (counted in
        ``HostStats.object_fallbacks``).  Only called when
        :meth:`processing_cost_ns` is not overridden either, so flat
        per-packet costs stay a single multiply.
        """
        raise NotImplementedError

    def handle_batch(self, batch: PacketBatch, ctx: NfContext) -> Verdict:
        """Wrapper the VM loop calls for a batch — bookkeeping identical
        to ``batch.count`` :meth:`handle_packet` calls."""
        self.packets_seen += batch.count
        verdict = self.process_batch(batch, ctx)
        if not isinstance(verdict, Verdict):
            raise TypeError(
                f"{type(self).__name__}.process_batch returned "
                f"{type(verdict).__name__}, expected Verdict")
        return verdict

    def __repr__(self) -> str:
        return f"<{type(self).__name__} service={self.service_id!r}>"
