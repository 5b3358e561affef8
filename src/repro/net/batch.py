"""Struct-of-arrays packet batches for the columnar burst kernel.

A small burst moves through the rings as one ``PacketDescriptor`` per
packet; every hot-loop touch is a Python attribute access.  A burst of
at least ``repro.dataplane.manager._BATCH_MIN`` packets travels as a
:class:`PacketBatch` instead: one burst-sized run of packets
that share a scope and (after an NF pass) a verdict, keeping the
per-packet facts as parallel *columns*:

- packed five-tuple keys (the PR 3 cached ``FiveTuple._packed_key``),
- FNV hash buckets,
- wire lengths,
- arrival timestamps (one scalar broadcast — a batch is born from a
  single RX burst and never merges across bursts),
- per-packet flags (bit 0: pool-backed).

Columns are built lazily from the row store (``batch.packets``) on
first access — numpy arrays when available, stdlib ``array`` otherwise,
with identical element values either way.  Rich ``Packet`` objects are
only rematerialized (``materialize()``) when an NF or a slow path
declares it needs them; the SIM006 lint rule polices that boundary for
functions marked with :func:`columnar_kernel`.

Batch discipline that keeps golden parity exact:

- a batch holds at most one RX burst (``burst_size`` packets);
- batches split FIFO-prefix-wise (ring capacity, dequeue budgets) and
  never merge or reorder;
- scalar fields (``scope``, ``verdict``, ``vm_priority``,
  ``ingress_at``) apply to every row.
"""

from __future__ import annotations

import typing
from array import array

from repro._compat import HAVE_NUMPY, numpy as np
from repro.net.flow import FiveTuple

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.net.packet import Packet

FLAG_POOLED = 0x01

_T = typing.TypeVar("_T", bound=typing.Callable)


def columnar_kernel(func: _T) -> _T:
    """Mark ``func`` as a columnar kernel.

    Kernels promise to work on batch columns and scalars only — no
    per-packet Python-object allocation and no per-row iteration of the
    packet store.  The marker is what the SIM006 lint rule keys on.
    """
    func.__columnar_kernel__ = True  # type: ignore[attr-defined]
    return func


class PacketBatch:
    """One contiguous run of packets moving through the columnar path."""

    __slots__ = ("packets", "scope", "ingress_at", "verdict", "vm_priority",
                 "total_bytes", "_first_flow", "_uniform",
                 "_sizes", "_keys", "_buckets", "_flags")

    def __init__(self, scope: str, ingress_at: int = 0) -> None:
        self.packets: list[Packet] = []
        self.scope = scope
        self.ingress_at = ingress_at
        self.verdict = None
        self.vm_priority = 0
        self.total_bytes = 0
        self._first_flow: FiveTuple | None = None
        self._uniform = True
        self._sizes = None
        self._keys = None
        self._buckets = None
        self._flags = None

    # ------------------------------------------------------------------
    # row store
    # ------------------------------------------------------------------

    def append(self, packet: Packet) -> None:
        """Add one packet (RX build loop — inherently per-row)."""
        self.packets.append(packet)
        self.total_bytes += packet.size
        flow = packet.flow
        if self._first_flow is None:
            self._first_flow = flow
        elif self._uniform and flow is not self._first_flow \
                and flow != self._first_flow:
            self._uniform = False
        self._sizes = self._keys = self._buckets = self._flags = None

    @property
    def count(self) -> int:
        return len(self.packets)

    def __len__(self) -> int:
        return len(self.packets)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"PacketBatch(scope={self.scope!r} n={len(self.packets)} "
                f"bytes={self.total_bytes} uniform={self._uniform})")

    @property
    def is_uniform(self) -> bool:
        """True when every row belongs to one flow."""
        return self._uniform

    @property
    def uniform_flow(self) -> FiveTuple | None:
        """The single flow of a uniform batch (``None`` when mixed)."""
        return self._first_flow if self._uniform else None

    def distinct_flows(self) -> list[FiveTuple]:
        """Distinct flows in first-seen arrival order.

        This is the burst-level dedup behind "one plan resolution per
        distinct flow per burst": classification walks this list, not
        the row store.
        """
        if self._uniform:
            return [] if self._first_flow is None else [self._first_flow]
        seen: dict[FiveTuple, None] = {}
        for packet in self.packets:
            seen.setdefault(packet.flow, None)
        return list(seen)

    def flow_runs(self) -> list[tuple[FiveTuple, int]]:
        """``(flow, run_length)`` for consecutive same-flow runs."""
        runs: list[tuple[FiveTuple, int]] = []
        if self._uniform:
            if self._first_flow is not None:
                runs.append((self._first_flow, len(self.packets)))
            return runs
        current: FiveTuple | None = None
        length = 0
        for packet in self.packets:
            flow = packet.flow
            if current is not None and (flow is current or flow == current):
                length += 1
                continue
            if current is not None:
                runs.append((current, length))
            current, length = flow, 1
        if current is not None:
            runs.append((current, length))
        return runs

    def materialize(self) -> list[Packet]:
        """Hand back the rich per-packet objects (the slow-path escape
        hatch — calling this inside a columnar kernel is a SIM006
        violation)."""
        return self.packets

    # ------------------------------------------------------------------
    # columns (lazy; numpy when available, stdlib ``array`` otherwise)
    # ------------------------------------------------------------------

    def _build_columns(self) -> None:
        sizes = array("q")
        keys: list[tuple[int, int, int, int, int]] = []
        flags = array("B")
        for packet in self.packets:
            sizes.append(packet.size)
            keys.append(packet.flow._packed_key())
            flags.append(FLAG_POOLED if packet.pool is not None else 0)
        if HAVE_NUMPY:
            self._sizes = np.asarray(sizes, dtype=np.int64)
            self._keys = np.asarray(keys, dtype=np.int64).reshape(-1, 5)
            self._flags = np.asarray(flags, dtype=np.uint8)
        else:
            self._sizes = sizes
            self._keys = keys
            self._flags = flags

    def sizes(self):
        """Wire lengths column (int64)."""
        if self._sizes is None:
            self._build_columns()
        return self._sizes

    def packed_keys(self):
        """Packed five-tuple column: rows of
        ``(src_ip, dst_ip, protocol, src_port, dst_port)`` as ints."""
        if self._keys is None:
            self._build_columns()
        return self._keys

    def flags(self):
        """Per-packet flag bits column (uint8)."""
        if self._flags is None:
            self._build_columns()
        return self._flags

    def arrivals(self):
        """Arrival-timestamp column — the scalar ``ingress_at``
        broadcast (a batch is born from one RX burst)."""
        n = len(self.packets)
        if HAVE_NUMPY:
            return np.full(n, self.ingress_at, dtype=np.int64)
        return array("q", [self.ingress_at]) * n

    @columnar_kernel
    def hash_buckets(self, buckets: int):
        """FNV-1a hash-bucket column over the packed keys, identical to
        per-packet ``FiveTuple.hash_bucket`` either way."""
        if self._buckets is None or self._buckets[1] != buckets:
            column = self._hash_column(buckets)
            self._buckets = (column, buckets)
        return self._buckets[0]

    def _hash_column(self, buckets: int):
        keys = self.packed_keys()
        if HAVE_NUMPY:
            mask = (1 << 63) - 1
            value = np.full(len(self.packets), 1469598103934665603,
                            dtype=np.uint64)
            prime = np.uint64(1099511628211)
            rows = keys.astype(np.uint64)
            for column in range(rows.shape[1]):
                value = ((value ^ rows[:, column]) * prime) & np.uint64(mask)
            return (value % np.uint64(buckets)).astype(np.int64)
        column = array("q")
        for key in keys:
            value = 1469598103934665603
            for part in key:
                value = ((value ^ part) * 1099511628211) % (1 << 63)
            column.append(value % buckets)
        return column

    # ------------------------------------------------------------------
    # structural ops
    # ------------------------------------------------------------------

    @columnar_kernel
    def split(self, k: int) -> PacketBatch:
        """FIFO split: return a new batch holding the first ``k`` rows;
        this batch keeps the tail.  Columns are dropped and rebuilt
        lazily on the halves."""
        head = PacketBatch(self.scope, self.ingress_at)
        head.verdict = self.verdict
        head.vm_priority = self.vm_priority
        moved = self.packets[:k]
        head.packets = moved
        self.packets = self.packets[k:]
        if self._sizes is not None:
            moved_bytes = int(sum(self._sizes[:k]))
        else:
            moved_bytes = sum(packet.size for packet in moved)
        head.total_bytes = moved_bytes
        self.total_bytes -= moved_bytes
        head._first_flow = moved[0].flow if moved else None
        if self._uniform:
            head._uniform = True
            self._first_flow = (self.packets[0].flow
                                if self.packets else None)
        else:
            head._uniform = head._scan_uniform()
            self._first_flow = (self.packets[0].flow
                                if self.packets else None)
            self._uniform = self._scan_uniform()
        self._sizes = self._keys = self._buckets = self._flags = None
        return head

    def split_tail(self, k: int) -> PacketBatch:
        """FIFO split the other way round: this batch keeps the first
        ``k`` rows and a new batch holding the tail is returned."""
        tail = self.split(k)
        # ``split`` moved the head rows out; swap the two halves back.
        for slot in PacketBatch.__slots__:
            mine = getattr(self, slot)
            setattr(self, slot, getattr(tail, slot))
            setattr(tail, slot, mine)
        return tail

    def _scan_uniform(self) -> bool:
        first = self._first_flow
        if first is None:
            return True
        for packet in self.packets:
            flow = packet.flow
            if flow is not first and flow != first:
                return False
        return True


# ----------------------------------------------------------------------
# Columnar boundary transport (the sharded kernel's wire format)
# ----------------------------------------------------------------------

#: Field layout of one boundary event as captured by
#: ``repro.sim.sharded.ShardRuntime._capture`` — the row format that
#: :func:`encode_boundary_events` packs into columns and
#: :meth:`BoundaryBatch.decode` reproduces exactly.
BOUNDARY_FIELDS = (
    "arrival_ns", "seq", "dst_host", "dst_port",
    "src_ip", "dst_ip", "protocol", "src_port", "dst_port_num",
    "size", "payload", "created_at", "annotations",
)


def _int_column(values: "array"):
    """int64 column: numpy view when available, stdlib ``array``
    otherwise — identical element values either way."""
    if HAVE_NUMPY:
        return np.frombuffer(values, dtype=np.int64).copy() if values \
            else np.empty(0, dtype=np.int64)
    return values


class BoundaryBatch:
    """One window's boundary events toward one shard, as packed columns.

    Rather than one 13-field tuple per crossing packet, a
    :class:`BoundaryBatch` dictionary-encodes the repetitive fields and
    ships a handful of flat buffers per window:

    - seven int64 columns (arrival, capture seq, wire index, flow index,
      size, created_at, payload index),
    - three small side tables (``wires``: distinct ``(dst_host,
      dst_port)`` pairs, ``flows``: distinct five-tuples with their
      original string IPs, ``payloads``: distinct payload strings),
    - one sparse ``{row: annotations}`` mapping for the non-columnar
      remainder (``None`` when no row carries annotations).

    :meth:`decode` rebuilds the exact event tuples — same types, same
    values (``tests/test_boundary_codec.py`` holds it to that).
    """

    __slots__ = ("count", "arrivals", "seqs", "wire_idx", "flow_idx",
                 "sizes", "created", "payload_idx",
                 "wires", "flows", "payloads", "annotations")

    def __getstate__(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setstate__(self, state) -> None:
        for name, value in zip(self.__slots__, state, strict=True):
            setattr(self, name, value)

    def buffer_count(self) -> int:
        """Pipe messages this batch amounts to: one per flat buffer
        (columns + side tables + the sparse annotation map), versus one
        tuple per event if the rows were pickled as they are."""
        return 7 + 3 + (1 if self.annotations else 0)

    def decode(self) -> list[tuple]:
        """Rebuild the original boundary-event tuples, bit for bit."""
        arrivals = self.arrivals.tolist()
        seqs = self.seqs.tolist()
        wire_idx = self.wire_idx.tolist()
        flow_idx = self.flow_idx.tolist()
        sizes = self.sizes.tolist()
        created = self.created.tolist()
        payload_idx = self.payload_idx.tolist()
        wires = self.wires
        flows = self.flows
        payloads = self.payloads
        annotations = self.annotations or {}
        events = []
        for row in range(self.count):
            dst_host, dst_port = wires[wire_idx[row]]
            events.append((
                arrivals[row], seqs[row], dst_host, dst_port,
                *flows[flow_idx[row]],
                sizes[row], payloads[payload_idx[row]], created[row],
                annotations.get(row)))
        return events


def encode_boundary_events(events: typing.Sequence[tuple]) -> BoundaryBatch:
    """Pack boundary-event rows (``BOUNDARY_FIELDS`` layout) into a
    :class:`BoundaryBatch` of columns and dictionary tables."""
    arrivals = array("q")
    seqs = array("q")
    wire_idx = array("q")
    flow_idx = array("q")
    sizes = array("q")
    created = array("q")
    payload_idx = array("q")
    wires: list[tuple[str, str]] = []
    wire_table: dict[tuple[str, str], int] = {}
    flows: list[tuple[str, str, int, int, int]] = []
    flow_table: dict[tuple[str, str, int, int, int], int] = {}
    payloads: list[str] = []
    payload_table: dict[str, int] = {}
    annotations: dict[int, tuple] = {}
    for row, event in enumerate(events):
        (arrival, seq, dst_host, dst_port, src_ip, dst_ip, protocol,
         src_port, dst_port_num, size, payload, created_at,
         encoded_annotations) = event
        wire = (dst_host, dst_port)
        index = wire_table.get(wire)
        if index is None:
            index = wire_table[wire] = len(wires)
            wires.append(wire)
        wire_idx.append(index)
        flow = (src_ip, dst_ip, protocol, src_port, dst_port_num)
        index = flow_table.get(flow)
        if index is None:
            index = flow_table[flow] = len(flows)
            flows.append(flow)
        flow_idx.append(index)
        index = payload_table.get(payload)
        if index is None:
            index = payload_table[payload] = len(payloads)
            payloads.append(payload)
        payload_idx.append(index)
        arrivals.append(arrival)
        seqs.append(seq)
        sizes.append(size)
        created.append(created_at)
        if encoded_annotations is not None:
            annotations[row] = encoded_annotations
    batch = BoundaryBatch()
    batch.count = len(events)
    batch.arrivals = _int_column(arrivals)
    batch.seqs = _int_column(seqs)
    batch.wire_idx = _int_column(wire_idx)
    batch.flow_idx = _int_column(flow_idx)
    batch.sizes = _int_column(sizes)
    batch.created = _int_column(created)
    batch.payload_idx = _int_column(payload_idx)
    batch.wires = wires
    batch.flows = flows
    batch.payloads = payloads
    batch.annotations = annotations or None
    return batch
