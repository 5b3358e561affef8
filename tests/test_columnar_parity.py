"""Batch-path parity: moving a burst as a PacketBatch is behaviorally
invisible.

The data path picks the burst form per RX burst: a burst of at least
``repro.dataplane.manager._BATCH_MIN`` packets travels as one
struct-of-arrays :class:`~repro.net.batch.PacketBatch`, a smaller one as
per-packet descriptors.  Every case below runs a fixed-seed Fig. 7
workload three ways through that one seam — always batch
(``_BATCH_MIN = 1``), never batch (above the burst size), and the
default threshold — and each run must reproduce the committed goldens
in ``tests/data/columnar_parity_golden.json`` exactly: packet-for-packet
delivery order, every latency sample, every ``summary()`` counter except
the batch path's own self-counters, and the kernel's event, timer and
cancel odometers.  The goldens were recorded from the descriptor-only
pipeline before the per-burst choice existed, so all three forms are
checked against recorded truth rather than against each other.

The same holds for the numpy-optional column backend: with
``SDNFV_NO_NUMPY`` set the stdlib ``array`` fallback must reproduce the
numpy run byte-identically on workloads that draw nothing from the RNG
(uniform pacing, zero wire jitter) — checked via a subprocess.  Without
numpy the wire jitter comes from another generator, so there the
jittered cases hold the batch runs to the never-batch run instead.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import subprocess
import sys
from unittest import mock

import pytest

from repro._compat import HAVE_NUMPY
from repro.dataplane import NfvHost
from repro.dataplane import manager as manager_module
from repro.dataplane.costs import HostCosts
from repro.dataplane.manager import DEFAULT_BURST_SIZE
from repro.net import FiveTuple
from repro.nfs import CounterNf, NoOpNf
from repro.sim import MS, Simulator
from repro.workloads import FlowSpec, PktGen

from tests.conftest import install_chain

WINDOW_NS = 1 * MS

#: The saturation point: burst-32 RX batches fill completely (Fig. 7's
#: max-throughput regime, where the batch path actually engages).
SATURATED_MBPS = 16_000.0

#: Counters allowed to differ: they *describe the batch path itself*.
COLUMNAR_KEYS = ("columnar_batches", "object_fallbacks", "lookup_batches",
                 "lookup_batch_hits", "batch_splits", "batch_merges")

GOLDEN = json.loads(
    (pathlib.Path(__file__).parent / "data"
     / "columnar_parity_golden.json").read_text())["cases"]

#: ``_BATCH_MIN`` per mode; None keeps the module's own threshold.
MODES = {"always": 1, "never": DEFAULT_BURST_SIZE + 1, "default": None}


class SlowNf(NoOpNf):
    """A NoOp with a data-dependent cost override: disqualifies the VM
    batch fast path, forcing the pre-work explode to descriptors."""

    def processing_cost_ns(self, packet, ctx):
        return 400


def run_fig7(mode: str, *, rate_mbps: float = SATURATED_MBPS,
             flow_count: int = 1, nf_factory=NoOpNf, replicas: int = 1,
             ring_slots: int = 256, verify: bool = False,
             jitter: bool = True, surge_mbps: float = 0.0):
    """One deterministic Fig. 7-style run; returns everything observable.

    ``mode`` picks the batching threshold (see :data:`MODES`).  A
    nonzero ``surge_mbps`` adds a second flow at that rate for the
    first 40% of the window, so one run sees both full and tiny bursts.
    """
    threshold = MODES[mode]
    if threshold is None:
        threshold = manager_module._BATCH_MIN
    with mock.patch.object(manager_module, "_BATCH_MIN", threshold):
        sim = Simulator()
        costs = None if jitter else HostCosts(wire_jitter_ns=0)
        host = NfvHost(sim, name="parity", costs=costs, verify=verify)
        nfs = []
        for service in ("nf0", "nf1"):
            for _ in range(replicas):
                nfs.append(nf_factory(service))
                host.add_nf(nfs[-1], ring_slots=ring_slots)
        install_chain(host, ["nf0", "nf1"])
        flow = FiveTuple("10.0.0.1", "10.0.0.2", 6, 1234, 80)
        gen = PktGen(sim, host, window_ns=MS)
        gen.add_flow(FlowSpec(flow=flow, rate_mbps=rate_mbps,
                              packet_size=64, stop_ns=WINDOW_NS,
                              flow_count=flow_count))
        if surge_mbps:
            gen.add_flow(FlowSpec(
                flow=FiveTuple("10.0.0.3", "10.0.0.2", 6, 4321, 80),
                rate_mbps=surge_mbps, packet_size=64,
                stop_ns=WINDOW_NS * 2 // 5))

        deliveries: list[tuple[int, int, FiveTuple]] = []
        measured_hook = host.port("eth1").on_egress

        def recording_hook(packet):
            deliveries.append((sim.now, packet.created_at, packet.flow))
            measured_hook(packet)

        host.port("eth1").on_egress = recording_hook
        sim.run(until=WINDOW_NS + MS)
    return {
        "deliveries": deliveries,
        "latency_samples": gen.latency.samples_ns,
        "summary": host.stats.summary(),
        "events_scheduled": sim.events_scheduled,
        "timers_scheduled": sim.timers_scheduled,
        "events_cancelled": sim.events_cancelled,
        "sent": gen.sent,
        "received": gen.received,
        "gbps": gen.rx_meter.mean_gbps(),
        "host": host,
        "nfs": nfs,
    }


def _digest(rows: list) -> dict:
    blob = json.dumps(rows, separators=(",", ":")).encode()
    return {"count": len(rows), "sha256": hashlib.sha256(blob).hexdigest()}


def golden_view(result: dict) -> dict:
    """The observables the golden file pins, in its own format."""
    return {
        "deliveries": _digest([[now, created, str(flow)] for now, created,
                               flow in result["deliveries"]]),
        "latency_samples": _digest(list(result["latency_samples"])),
        "summary": {key: value for key, value in result["summary"].items()
                    if key not in COLUMNAR_KEYS},
        "odometers": {key: result[key] for key in (
            "events_scheduled", "timers_scheduled", "events_cancelled")},
        "sent": result["sent"],
        "received": result["received"],
        "gbps": result["gbps"],
    }


def expected_view(case: str, **kwargs) -> dict:
    """What a case must reproduce.  The goldens were recorded with numpy
    drawing the wire jitter; the stdlib RNG fallback draws other values,
    so without numpy a jittered case is held to the never-batch run on
    the same backend instead."""
    if HAVE_NUMPY or not kwargs.get("jitter", True):
        return GOLDEN[case]
    return golden_view(run_fig7("never", **kwargs))


def run_case(case: str, mode: str, **kwargs) -> dict:
    """Run one golden case in one mode and check it against the file."""
    result = run_fig7(mode, **kwargs)
    view, golden = golden_view(result), expected_view(case, **kwargs)
    for key, value in view.items():
        assert value == golden[key], f"{case}/{mode}: {key}"
    if mode == "never":
        # The never-batch run must not touch the batch machinery at all.
        for key in COLUMNAR_KEYS:
            assert result["summary"][key] == 0, key
    return result


all_modes = pytest.mark.parametrize("mode", list(MODES))


@all_modes
def test_saturated_run_matches_golden(mode):
    """Burst-32 batches, 8 interleaved flows: splits, merges, and the
    vectorized lookup all engage — and nothing observable moves."""
    result = run_case("saturated_8_flows", mode, flow_count=8)
    summary = result["summary"]
    assert result["received"] > 1000
    if mode != "never":
        assert summary["columnar_batches"] > 0
        assert summary["lookup_batch_hits"] > 0
        # A pure NoOp chain never needs rich packet objects.
        assert summary["object_fallbacks"] == 0
    if mode == "always":
        # The first bursts miss the plan cache and take the bulk lookup
        # (at the default threshold the small warm-up bursts fill it).
        assert summary["lookup_batches"] > 0


@all_modes
def test_tight_rings_split_and_merge_batches_identically(mode):
    """Small rings at an over-saturated rate force enqueue splits and
    TX-burst merges — the structural batch ops stay invisible too."""
    result = run_case("tight_rings", mode, rate_mbps=24_000.0,
                      ring_slots=48)
    summary = result["summary"]
    assert summary["dropped_ring_full"] > 0
    if mode != "never":
        assert summary["batch_splits"] > 0
        assert summary["batch_merges"] > 0


@all_modes
def test_rings_under_half_a_burst_stay_identical(mode):
    """16-slot rings: a consumer often takes a batch whole (at its
    parked get, or by a get of a queued batch) while the next burst is
    dispatched in the same instant.  The batch's rows past its head must
    keep their slots until the consumer sweeps, as descriptors would,
    or the batch form accepts packets the descriptor form drops."""
    result = run_case("tight_rings_16", mode, ring_slots=16)
    summary = result["summary"]
    assert summary["dropped_ring_full"] > 0
    if mode != "never":
        assert summary["columnar_batches"] > 0


@all_modes
def test_trickle_rate_single_packet_bursts_stay_identical(mode):
    """Below saturation every RX burst is tiny: the default threshold
    keeps them descriptors, and forcing them into degenerate one-packet
    batches is still exact."""
    result = run_case("trickle", mode, rate_mbps=8_000.0)
    batches = result["summary"]["columnar_batches"]
    if mode == "always":
        assert batches > 0
    else:
        assert batches == 0


@all_modes
def test_multi_replica_service_falls_back_to_descriptors(mode):
    """Load-balanced services take the per-packet explode path (bulk
    dispatch is single-replica only) and still match exactly."""
    result = run_case("multi_replica", mode, replicas=2)
    if mode != "never":
        assert result["summary"]["object_fallbacks"] > 0


def counter_state(result: dict) -> list:
    """Every CounterNf's per-flow packet and byte counts."""
    return [{"service": nf.service_id,
             "packets": sorted([str(flow), n]
                               for flow, n in nf.packets.items()),
             "bytes": sorted([str(flow), n]
                             for flow, n in nf.bytes.items())}
            for nf in result["nfs"]]


@all_modes
def test_counter_nf_batch_handler_sees_identical_traffic(mode):
    """An NF with a real process_batch keeps byte-identical per-flow
    state whichever form its bursts arrive in."""
    kwargs = {"flow_count": 4, "nf_factory": CounterNf}
    state = counter_state(run_case("counter_nf", mode, **kwargs))
    for nf in state:
        assert sum(n for _flow, n in nf["packets"]) > 0, nf["service"]
    # Like expected_view: without numpy the jitter differs from the
    # recording, so the never-batch run on this backend is the truth.
    expected = (GOLDEN["counter_nf"]["nf_state"] if HAVE_NUMPY
                else counter_state(run_fig7("never", **kwargs)))
    assert state == expected


@all_modes
def test_custom_cost_nf_explodes_batches_before_the_work_sleep(mode):
    """A processing_cost_ns override disqualifies the VM fast path; the
    per-descriptor explode must charge the same costs at the same
    instants as the descriptor pipeline."""
    result = run_case("custom_cost_nf", mode, nf_factory=SlowNf)
    if mode != "never":
        assert result["summary"]["object_fallbacks"] > 0


@all_modes
def test_batch_run_passes_the_ownership_verifier(mode):
    """Batch moves keep every buffer handed off exactly once."""
    result = run_case("verified", mode, flow_count=8, verify=True)
    result["host"].verifier.assert_clean()
    if mode != "never":
        assert result["summary"]["columnar_batches"] > 0


@all_modes
def test_mixed_burst_sizes_in_one_run_stay_identical(mode):
    """A 16 Gbps surge over a 4 Gbps 8-flow base through 48-slot rings:
    at the default threshold one run moves full bursts as batches and
    tiny ones as descriptors, and the two forms meet in the same rings
    (splits at ring capacity, merges in TX drains)."""
    result = run_case("mixed_bursts", mode, rate_mbps=4_000.0,
                      flow_count=8, ring_slots=48, surge_mbps=16_000.0)
    summary = result["summary"]
    rx_sizes = result["host"].stats.rx_batch_occupancy
    threshold = manager_module._BATCH_MIN
    assert any(size < threshold for size in rx_sizes)
    assert any(size >= threshold for size in rx_sizes)
    if mode == "default":
        small_bursts = sum(count for size, count in rx_sizes.items()
                           if size < threshold)
        assert 0 < summary["columnar_batches"] < summary["rx_batches"]
        assert summary["columnar_batches"] == (summary["rx_batches"]
                                               - small_bursts)
        assert summary["batch_splits"] > 0
        assert summary["batch_merges"] > 0


def _crash_mid_burst(mode: str, crash_first: bool) -> dict:
    """40 frames land at once on a slow batch-capable single-replica
    NF; its VM dies while holding the first 32-packet burst."""
    threshold = MODES[mode] or manager_module._BATCH_MIN
    with mock.patch.object(manager_module, "_BATCH_MIN", threshold):
        sim = Simulator()
        host = NfvHost(sim, name="crash")
        slow = NoOpNf("svc")
        slow.per_packet_cost_ns = MS
        vm = host.add_nf(slow)
        install_chain(host, ["svc"])
        out: list[int] = []
        host.port("eth1").on_egress = lambda packet: out.append(sim.now)
        flow = FiveTuple("10.0.0.1", "10.0.0.2", 6, 1234, 80)
        for _ in range(40):
            host.inject("eth0", host.packet_pool.alloc(flow=flow, size=128,
                                                       created_at=0))
        sim.run(until=2 * MS)
        held = sum(getattr(item, "count", 1)
                   for item in [vm.inflight, *vm._pending])
        if crash_first:
            vm.crash()
            sim.run(until=3 * MS)
        salvage = host.manager.fail_vm(vm)
        sim.run(until=200 * MS)
    summary = {key: value for key, value in host.stats.summary().items()
               if key not in COLUMNAR_KEYS}
    return {"held": held, "salvage": salvage, "summary": summary,
            "out": out, "lost": vm.packets_lost,
            "batches": host.stats.columnar_batches}


@pytest.mark.parametrize("crash_first", [False, True])
def test_crash_mid_batch_loses_only_the_head_packet(crash_first):
    """A VM killed while holding a batch loses the head packet only; the
    rest of the held burst is salvaged exactly like a held descriptor
    burst — whether the crash or the salvage comes first."""
    batched = _crash_mid_burst("always", crash_first)
    descriptors = _crash_mid_burst("never", crash_first)
    assert batched["batches"] > 0 and descriptors["batches"] == 0
    assert batched["held"] == 32
    assert batched["lost"] == 1
    assert batched["summary"]["lost_in_nf"] == 1
    for key in ("held", "salvage", "summary", "out", "lost"):
        assert batched[key] == descriptors[key], key


def test_default_threshold_is_inside_the_burst():
    """The threshold must leave both forms reachable at the default
    burst size."""
    assert 1 < manager_module._BATCH_MIN <= DEFAULT_BURST_SIZE


# ----------------------------------------------------------------------
# numpy-absent parity (stdlib ``array`` column backend)
# ----------------------------------------------------------------------

#: A self-contained jitter-free always-batch run printed as JSON: uniform
#: pacing + wire_jitter_ns=0 draw nothing from the RNG, so the numpy
#: and fallback backends must agree bit-for-bit.
_RUNNER = """
import json
from repro._compat import HAVE_NUMPY
from repro.dataplane import FlowTableEntry, NfvHost, ToPort, ToService
from repro.dataplane import manager
from repro.dataplane.costs import HostCosts
from repro.net import FiveTuple, FlowMatch
from repro.nfs import NoOpNf
from repro.sim import MS, Simulator
from repro.workloads import FlowSpec, PktGen

manager._BATCH_MIN = 1
sim = Simulator()
host = NfvHost(sim, name="parity", costs=HostCosts(wire_jitter_ns=0))
for service in ("nf0", "nf1"):
    host.add_nf(NoOpNf(service), ring_slots=256)
match = FlowMatch.any()
host.install_rule(FlowTableEntry(scope="eth0", match=match,
                                 actions=(ToService("nf0"),)))
host.install_rule(FlowTableEntry(scope="nf0", match=match,
                                 actions=(ToService("nf1"),)))
host.install_rule(FlowTableEntry(scope="nf1", match=match,
                                 actions=(ToPort("eth1"),)))
flow = FiveTuple("10.0.0.1", "10.0.0.2", 6, 1234, 80)
gen = PktGen(sim, host, window_ns=MS)
gen.add_flow(FlowSpec(flow=flow, rate_mbps=16_000.0, packet_size=64,
                      stop_ns=MS, flow_count=8))
deliveries = []
measured = host.port("eth1").on_egress
def hook(packet):
    deliveries.append((sim.now, packet.created_at, str(packet.flow)))
    measured(packet)
host.port("eth1").on_egress = hook
sim.run(until=2 * MS)
print(json.dumps({
    "have_numpy": HAVE_NUMPY,
    "deliveries": deliveries,
    "latency_samples": gen.latency.samples_ns,
    "summary": host.stats.summary(),
    "odometer": [sim.events_scheduled, sim.timers_scheduled,
                 sim.events_cancelled],
    "sent": gen.sent,
    "received": gen.received,
}))
"""


def _run_subprocess(no_numpy: bool) -> dict:
    env = dict(os.environ)
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    src = os.path.join(repo, "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    if no_numpy:
        env["SDNFV_NO_NUMPY"] = "1"
    else:
        env.pop("SDNFV_NO_NUMPY", None)
    done = subprocess.run([sys.executable, "-c", _RUNNER], env=env,
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_stdlib_array_backend_matches_numpy_backend_exactly():
    with_numpy = _run_subprocess(no_numpy=False)
    without_numpy = _run_subprocess(no_numpy=True)
    assert without_numpy["have_numpy"] is False
    assert without_numpy["deliveries"] == with_numpy["deliveries"]
    assert without_numpy["latency_samples"] == with_numpy["latency_samples"]
    assert without_numpy["summary"] == with_numpy["summary"]
    assert without_numpy["odometer"] == with_numpy["odometer"]
    assert without_numpy["sent"] == with_numpy["sent"]
    assert without_numpy["received"] == with_numpy["received"]
    assert without_numpy["summary"]["columnar_batches"] > 0
    assert without_numpy["received"] > 1000
    # ...and both reproduce the descriptor pipeline's recorded run.
    golden = GOLDEN["jitter_free"]
    assert _digest(without_numpy["deliveries"]) == golden["deliveries"]
    assert (_digest(without_numpy["latency_samples"])
            == golden["latency_samples"])
    assert {key: value for key, value in without_numpy["summary"].items()
            if key not in COLUMNAR_KEYS} == golden["summary"]
    odometers = golden["odometers"]
    assert without_numpy["odometer"] == [odometers["events_scheduled"],
                                         odometers["timers_scheduled"],
                                         odometers["events_cancelled"]]
