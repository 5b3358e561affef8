"""Deterministic, schedulable fault plans.

A :class:`FaultPlan` is a list of fault descriptions — *what* breaks and
*when* — decoupled from the machinery that breaks it (the
:class:`~repro.faults.injector.FaultInjector`).  Faults may carry a
``jitter_ns`` half-width; the jitter draw comes from a named
:class:`~repro.sim.randomness.RandomStreams` stream keyed by the fault's
position in the plan, so a plan replays exactly for a given seed no
matter what else in the simulation is reconfigured.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.sim.randomness import RandomStreams


@dataclasses.dataclass(frozen=True, kw_only=True)
class Fault:
    """Base: one scheduled failure event.

    ``at_ns`` is the nominal injection time; ``jitter_ns`` (optional) is a
    uniform ±half-width applied from the plan's seeded stream.
    """

    at_ns: int
    jitter_ns: int = 0

    def __post_init__(self) -> None:
        if self.at_ns < 0:
            raise ValueError("fault time must be non-negative")
        if self.jitter_ns < 0:
            raise ValueError("jitter must be non-negative")


@dataclasses.dataclass(frozen=True, kw_only=True)
class NfCrash(Fault):
    """Kill one replica of ``service`` (its VM thread dies)."""

    service: str
    host: str | None = None   # None: the injector's only/default host
    replica: int = 0          # index into the service's replica list


@dataclasses.dataclass(frozen=True, kw_only=True)
class NfHang(Fault):
    """Wedge one replica of ``service``: it stalls on its next packet and
    stops heartbeating — only a watchdog kill recovers it."""

    service: str
    host: str | None = None
    replica: int = 0


@dataclasses.dataclass(frozen=True, kw_only=True)
class LinkFlap(Fault):
    """Take a NIC port's link down for ``down_ns``."""

    port: str
    down_ns: int
    host: str | None = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.down_ns <= 0:
            raise ValueError("link must stay down a positive duration")


@dataclasses.dataclass(frozen=True, kw_only=True)
class ControllerOutage(Fault):
    """The SDN controller stops serving for ``down_ns`` (requests queue).

    ``shard=`` retargets the outage at one shard of the
    :class:`~repro.control.plane.ControlPlane` — the other shards keep
    serving their slices of flow space (and, with failover, absorb the
    dead shard's).  ``shard=None`` takes every shard down.
    """

    down_ns: int
    shard: int | None = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.down_ns <= 0:
            raise ValueError("outage needs a positive duration")
        if self.shard is not None and self.shard < 0:
            raise ValueError("shard index must be non-negative")


@dataclasses.dataclass(frozen=True, kw_only=True)
class HostOverload(Fault):
    """Multiply a host's per-packet service costs by ``factor`` for
    ``duration_ns`` (a noisy neighbour stealing cycles)."""

    duration_ns: int
    factor: float = 4.0
    host: str | None = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.duration_ns <= 0:
            raise ValueError("overload needs a positive duration")
        if self.factor <= 1.0:
            raise ValueError("overload factor must exceed 1.0")


class FaultPlan:
    """An ordered, seeded collection of faults."""

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self.faults: list[Fault] = []

    def add(self, fault: Fault) -> Fault:
        if not isinstance(fault, Fault):
            raise TypeError(f"{fault!r} is not a Fault")
        self.faults.append(fault)
        return fault

    def extend(self, faults: typing.Iterable[Fault]) -> FaultPlan:
        for fault in faults:
            self.add(fault)
        return self

    def fire_time_ns(self, index: int) -> int:
        """The (jittered) injection time of fault ``index`` — a pure
        function of (seed, index), so plans replay exactly."""
        fault = self.faults[index]
        if not fault.jitter_ns:
            return fault.at_ns
        # A fresh stream per call keeps this a pure function of
        # (seed, index) — re-querying never perturbs the draw.
        rng = RandomStreams(seed=self.seed).stream(f"fault/{index}")
        offset = int(rng.integers(-fault.jitter_ns, fault.jitter_ns + 1))
        return max(0, fault.at_ns + offset)

    def __len__(self) -> int:
        return len(self.faults)

    def __iter__(self) -> typing.Iterator[Fault]:
        return iter(self.faults)
