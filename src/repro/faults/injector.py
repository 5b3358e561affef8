"""The fault injector: arms a :class:`~repro.faults.plan.FaultPlan`
against a running system.

The injector resolves each fault's target (host / service replica / NIC
port / controller) at fire time, so plans can be armed before the VMs
they will kill even exist.  Every injection is recorded both in
``injector.fired`` and, when an event log is attached to the target
manager, as a ``fault_injected`` control event.
"""

from __future__ import annotations

import typing

from repro.dataplane.host import NfvHost
from repro.dataplane.vm import NfVm
from repro.faults.plan import (
    ControllerOutage,
    Fault,
    FaultPlan,
    HostOverload,
    LinkFlap,
    NfCrash,
    NfHang,
)
from repro.sim.simulator import Simulator

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.control.plane import ControlPlane
    from repro.core.app import SdnfvApp

# HostCosts fields scaled by a HostOverload fault.
_OVERLOAD_FIELDS = ("rx_service_ns", "tx_service_ns", "vm_service_ns")


class FaultInjector:
    """Schedules a plan's faults against hosts and a controller."""

    def __init__(self, sim: Simulator, plan: FaultPlan,
                 hosts: typing.Iterable[NfvHost] = (),
                 controller: ControlPlane | None = None,
                 app: SdnfvApp | None = None,
                 only_hosts: typing.Iterable[str] | None = None) -> None:
        self.sim = sim
        self.plan = plan
        self.hosts: dict[str, NfvHost] = {host.name: host for host in hosts}
        if app is not None:
            for name, host in app.hosts.items():
                self.hosts.setdefault(name, host)
            if controller is None:
                controller = app.controller
        self.controller = controller
        # Shard routing: arm only the faults targeting these hosts.
        # Fire times stay a pure function of (plan seed, plan index), so
        # subsetting by owner never shifts when a fault fires.
        self.only_hosts = None if only_hosts is None else set(only_hosts)
        self.fired: list[tuple[int, Fault]] = []
        self.skipped: list[tuple[int, Fault, str]] = []
        self._armed = False

    def arm(self) -> list[tuple[int, Fault]]:
        """Schedule every fault; returns the (fire_ns, fault) timetable."""
        if self._armed:
            raise RuntimeError("plan already armed")
        self._armed = True
        timetable = []
        for index, fault in enumerate(self.plan):
            fire_ns = self.plan.fire_time_ns(index)
            if fire_ns < self.sim.now:
                raise ValueError(
                    f"fault {index} fires at {fire_ns} ns, in the past")
            if self.only_hosts is not None:
                if isinstance(fault, ControllerOutage):
                    # Controller faults have no host; they arm wherever a
                    # controller (or control-plane replica) is attached.
                    if self.controller is None:
                        continue
                else:
                    target = getattr(fault, "host", None)
                    if target is None or target not in self.only_hosts:
                        continue
            timetable.append((fire_ns, fault))
            self.sim.schedule(fire_ns - self.sim.now,
                              lambda fault=fault: self._fire(fault))
        return timetable

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def _fire(self, fault: Fault) -> None:
        if isinstance(fault, NfCrash):
            self._fire_nf(fault, "crash")
        elif isinstance(fault, NfHang):
            self._fire_nf(fault, "hang")
        elif isinstance(fault, LinkFlap):
            self._fire_link(fault)
        elif isinstance(fault, ControllerOutage):
            self._fire_outage(fault)
        elif isinstance(fault, HostOverload):
            self._fire_overload(fault)
        else:
            raise TypeError(f"unknown fault type {type(fault).__name__}")

    def _skip(self, fault: Fault, reason: str) -> None:
        self.skipped.append((self.sim.now, fault, reason))

    def _record(self, fault: Fault, host: NfvHost | None = None,
                **detail: typing.Any) -> None:
        self.fired.append((self.sim.now, fault))
        log = host.manager.event_log if host is not None else None
        if log is not None:
            log.record("fault_injected",
                       host=host.name if host else "",
                       kind=type(fault).__name__, **detail)

    def _resolve_host(self, fault: Fault) -> NfvHost | None:
        name = getattr(fault, "host", None)
        if name is not None:
            return self.hosts.get(name)
        if len(self.hosts) == 1:
            return next(iter(self.hosts.values()))
        return None

    def _fire_nf(self, fault: NfCrash | NfHang, kind: str) -> None:
        host = self._resolve_host(fault)
        if host is None:
            self._skip(fault, "no such host")
            return
        replicas = [vm for vm
                    in host.manager.vms_by_service.get(fault.service, ())
                    if not vm.failed]
        if not replicas:
            self._skip(fault, "no live replica")
            return
        vm: NfVm = replicas[min(fault.replica, len(replicas) - 1)]
        if kind == "crash":
            vm.crash("injected_crash")
        else:
            vm.hang()
        self._record(fault, host, service=fault.service, vm=vm.vm_id)

    def _fire_link(self, fault: LinkFlap) -> None:
        host = self._resolve_host(fault)
        if host is None or fault.port not in host.manager.ports:
            self._skip(fault, "no such port")
            return
        port = host.manager.ports[fault.port]
        port.set_link(False)
        self.sim.schedule(fault.down_ns, lambda: port.set_link(True))
        self._record(fault, host, port=fault.port, down_ns=fault.down_ns)

    def _fire_outage(self, fault: ControllerOutage) -> None:
        if self.controller is None:
            self._skip(fault, "no controller")
            return
        if fault.shard is not None and fault.shard >= len(
                self.controller.shards):
            self._skip(fault, "no such controller shard")
            return
        self.controller.outage(fault.down_ns, shard=fault.shard)
        self._record(fault, None, down_ns=fault.down_ns,
                     shard=fault.shard)

    def _fire_overload(self, fault: HostOverload) -> None:
        host = self._resolve_host(fault)
        if host is None:
            self._skip(fault, "no such host")
            return
        costs = host.manager.costs
        saved = {field: getattr(costs, field) for field in _OVERLOAD_FIELDS}
        for field, value in saved.items():
            setattr(costs, field, int(value * fault.factor))

        def restore() -> None:
            for field, value in saved.items():
                setattr(costs, field, value)

        self.sim.schedule(fault.duration_ns, restore)
        self._record(fault, host, factor=fault.factor,
                     duration_ns=fault.duration_ns)
