"""Every lint rule gets a fixture pair: one snippet it rejects, one it
accepts — plus engine-level behavior (noqa suppression, selection, CLI
exit codes) and the acceptance gate that the repo lints itself clean."""

from __future__ import annotations

import pathlib
import subprocess
import sys
import textwrap

from repro.analysis.lint import RULES, lint_paths, lint_source

REPO = pathlib.Path(__file__).resolve().parent.parent


def violations(source: str, rule_id: str) -> list:
    found = lint_source(textwrap.dedent(source), select=[rule_id])
    assert all(v.rule_id == rule_id for v in found)
    return found


class TestSim001WallClock:
    def test_rejects_wall_clock_and_ambient_randomness(self):
        bad = """
            import random
            import time

            def jitter():
                return time.time() + random.random()
        """
        found = violations(bad, "SIM001")
        assert len(found) == 2
        assert "time.time" in found[0].message
        assert "random.random" in found[1].message

    def test_rejects_datetime_and_uuid4(self):
        bad = """
            import datetime, uuid

            def stamp():
                return datetime.datetime.now(), uuid.uuid4()
        """
        assert len(violations(bad, "SIM001")) == 2

    def test_accepts_sim_clock_and_seeded_streams(self):
        good = """
            import numpy as np

            def jitter(sim, streams):
                rng = np.random.default_rng(7)
                return sim.now + round(streams.stream("gen").exponential(10))
        """
        assert violations(good, "SIM001") == []


class TestSim002IntegerNanoseconds:
    def test_rejects_float_into_ns_name(self):
        bad = """
            def schedule(self, size, rate):
                self.gap_ns = size * 8.0 / rate
        """
        found = violations(bad, "SIM002")
        assert len(found) == 1
        assert "gap_ns" in found[0].message

    def test_rejects_float_returning_ns_function(self):
        bad = """
            def interval_ns(size, rate) -> float:
                return size * 1000.0 / rate
        """
        assert len(violations(bad, "SIM002")) == 2  # annotation + return

    def test_accepts_rounded_assignment(self):
        good = """
            def schedule(self, size, rate):
                self.gap_ns = max(1, round(size * 8.0 / rate))
                delay_ns = self.gap_ns // 2
                return delay_ns
        """
        assert violations(good, "SIM002") == []


class TestSim003HotPathSlots:
    def test_rejects_hot_path_class_without_slots(self):
        bad = """
            class Packet:
                def __init__(self, size):
                    self.size = size
        """
        found = violations(bad, "SIM003")
        assert len(found) == 1
        assert "__slots__" in found[0].message

    def test_accepts_slots_and_slotted_dataclass(self):
        good = """
            import dataclasses

            class Packet:
                __slots__ = ("size",)

                def __init__(self, size):
                    self.size = size

            @dataclasses.dataclass(slots=True)
            class PacketDescriptor:
                packet: Packet

            class FlowTable:  # not a hot-path class: no slots needed
                def __init__(self):
                    self.rules = {}
        """
        assert violations(good, "SIM003") == []


class TestSim004NfHandlerPurity:
    def test_rejects_blocking_io_in_process(self):
        bad = """
            import time

            class LoggingNf(NetworkFunction):
                def process(self, packet, ctx):
                    print(packet)
                    time.sleep(0.1)
                    return Verdict.default()
        """
        found = violations(bad, "SIM004")
        assert len(found) == 2
        assert "print" in found[0].message
        assert "time.sleep" in found[1].message

    def test_accepts_pure_handler_and_ignores_non_nf_classes(self):
        good = """
            class CountingNf(NetworkFunction):
                def process(self, packet, ctx):
                    self.seen += 1
                    return Verdict.default()

            class ReportWriter:  # not an NF: IO is its job
                def process(self, row):
                    print(row)
        """
        assert violations(good, "SIM004") == []


class TestSim005CrossShardSharing:
    SHARDED = "src/repro/sim/sharded.py"

    def sharded_violations(self, source: str, path: str | None = None):
        found = lint_source(textwrap.dedent(source),
                            path=path or self.SHARDED, select=["SIM005"])
        assert all(v.rule_id == "SIM005" for v in found)
        return found

    def test_rejects_reaching_into_another_shards_objects(self):
        bad = """
            def steal(runtimes, i):
                host = runtimes[i].network.hosts["h0"]
                pool = runtimes[i].gens
                shards[0].manager.install_rule(None)
        """
        found = self.sharded_violations(bad)
        assert len(found) == 3
        assert "runtimes[...].network" in found[0].message
        assert "runtimes[...].gens" in found[1].message
        assert "shards[...].manager" in found[2].message

    def test_accepts_the_serialized_conductor_protocol(self):
        good = """
            def window(runtimes, upto, routed):
                for runtime in runtimes:
                    runtime.advance(upto)
                for shard_id, events in routed.items():
                    runtimes[shard_id].deliver(events)
                return [runtimes[i].collect() for i in range(len(runtimes))]
        """
        assert self.sharded_violations(good) == []

    def test_rule_is_scoped_to_the_sharded_kernel_module(self):
        elsewhere = """
            def fine(runtimes, i):
                return runtimes[i].network
        """
        assert self.sharded_violations(elsewhere,
                                       path="src/repro/core/app.py") == []

    def test_rejects_per_event_pipe_sends_in_boundary_loops(self):
        bad = """
            import pickle

            def drain(pipe, outbox):
                for event in outbox:
                    pipe.send(event)

            def stage(blobs, boundary_events):
                for event in boundary_events:
                    blobs.append(pickle.dumps(event))
        """
        found = self.sharded_violations(bad)
        assert len(found) == 2
        assert "per-event send()" in found[0].message
        assert "per-event dumps()" in found[1].message
        assert "BoundaryBatch" in found[0].message

    def test_accepts_encode_once_then_send_and_peer_loops(self):
        good = """
            import pickle

            def ship(pipe, outbox):
                payload = encode_boundary_events(outbox)
                pipe.send(payload)
                return len(pickle.dumps(payload))

            def conduct(pipes, by_worker):
                for worker in sorted(by_worker):
                    pipes[worker].send(("advance", by_worker[worker]))
        """
        assert self.sharded_violations(good) == []


class TestSim006ColumnarKernelPurity:
    def test_rejects_row_objects_and_per_row_iteration(self):
        bad = """
            from repro.net.batch import columnar_kernel

            class Kernel:
                @columnar_kernel
                def lookup(self, batch):
                    total = 0
                    for packet in batch.packets:
                        total += packet.size
                    rows = batch.materialize()
                    shadow = [packet.flow for packet in batch.packets]
                    descriptor = PacketDescriptor(rows[0])
                    return total, shadow, descriptor
        """
        found = violations(bad, "SIM006")
        assert len(found) == 4
        assert "per-row iteration" in found[0].message
        assert "materialize()" in found[1].message
        assert "comprehension" in found[2].message
        assert "PacketDescriptor()" in found[3].message

    def test_accepts_column_math_and_undecorated_row_access(self):
        good = """
            from repro.net.batch import columnar_kernel

            class Kernel:
                @columnar_kernel
                def lookup(self, batch):
                    sizes = batch.sizes()
                    return batch.count, int(sum(sizes))

                def slow_path(self, batch):  # undecorated: rows are fine
                    return [packet.size for packet in batch.packets]
        """
        assert violations(good, "SIM006") == []


class TestSim007YieldedWaits:
    def test_rejects_kept_or_combined_waits(self):
        bad = """
            from repro.sim import Store

            class Loop:
                def __init__(self, sim):
                    self.sim = sim
                    self.ring = Store(sim, capacity=8, recycle=True)

                def run(self):
                    wait = self.sim.sleep(10)
                    yield wait
                    item = self.ring.get()
                    yield self.sim.any_of([item, self.sim.timeout(5)])
                    done = yield self.sim.all_of([self.sim.sleep(1)])
                    return done
        """
        found = violations(bad, "SIM007")
        assert len(found) == 3
        assert "self.sim.sleep(...)" in found[0].message
        assert "self.ring.get() on a recycled store" in found[1].message
        assert "direct operand of yield" in found[2].message

    def test_accepts_yielded_waits_plain_stores_and_forwarding(self):
        good = """
            import time
            from repro.sim import Store

            class Loop:
                def __init__(self, sim):
                    self.sim = sim
                    self.ring = Store(sim, recycle=True)
                    self.inbox = Store(sim)

                def run(self):
                    yield self.sim.sleep(10)
                    item = yield self.ring.get()
                    ring = self.ring
                    batch = [item, (yield ring.get())]
                    reply = self.inbox.get()   # plain store: an Event
                    yield self.sim.any_of([reply, self.sim.timeout(5)])
                    time.sleep(0)              # not the simulator
                    return batch

                def get(self):
                    return self.ring.get()     # the caller yields it
        """
        assert violations(good, "SIM007") == []


class TestOwn001BufferBalance:
    def test_rejects_leaky_branch(self):
        bad = """
            def drive(pool, host, flow):
                packet = pool.alloc(flow)
                if host.ready:
                    host.inject("eth0", packet)
                # not-ready path: the buffer is never handed off
        """
        found = violations(bad, "OWN001")
        assert len(found) == 1
        assert "leak" in found[0].message

    def test_rejects_double_handoff(self):
        bad = """
            def drive(pool, host, flow):
                packet = pool.alloc(flow)
                host.inject("eth0", packet)
                packet.free()
        """
        found = violations(bad, "OWN001")
        assert len(found) == 1
        assert "more than once" in found[0].message

    def test_accepts_balanced_paths(self):
        good = """
            def drive(pool, host, flow):
                packet = pool.alloc(flow)
                if host.ready:
                    host.inject("eth0", packet)
                else:
                    packet.free()

            def make(pool, flow):
                packet = pool.alloc(flow)
                return packet
        """
        assert violations(good, "OWN001") == []


class TestFlow001IterationSafety:
    def test_rejects_mutation_while_iterating(self):
        bad = """
            def expire(table, now):
                for flow, entry in table.items():
                    if entry.expired(now):
                        del table[flow]
        """
        found = violations(bad, "FLOW001")
        assert len(found) == 1
        assert "mutated while being iterated" in found[0].message

    def test_accepts_snapshot_iteration(self):
        good = """
            def expire(table, now):
                for flow, entry in list(table.items()):
                    if entry.expired(now):
                        del table[flow]
        """
        assert violations(good, "FLOW001") == []


class TestNf001ReadOnlyTruthfulness:
    def test_rejects_read_only_class_that_writes_headers(self):
        bad = """
            import dataclasses

            class SneakyMarker(NetworkFunction):
                read_only = True

                def process(self, packet, ctx):
                    packet.ip = dataclasses.replace(packet.ip, dscp=10)
                    return Verdict.default()
        """
        found = violations(bad, "NF001")
        assert len(found) == 1
        assert "read_only=True" in found[0].message
        assert "dscp" in found[0].message

    def test_rejects_read_only_class_that_drops(self):
        bad = """
            class QuietDropper(NetworkFunction):
                read_only = True

                def process(self, packet, ctx):
                    if packet.flow.src_port == 23:
                        return Verdict.discard()
                    return Verdict.default()
        """
        found = violations(bad, "NF001")
        assert len(found) == 1
        assert "DROP" in found[0].message

    def test_accepts_honest_reader_and_annotation_writer(self):
        good = """
            class Counter(NetworkFunction):
                read_only = True

                def process(self, packet, ctx):
                    self.seen += 1
                    packet.annotations["counted"] = True
                    return Verdict.default()

            class Rewriter(NetworkFunction):
                read_only = False

                def process(self, packet, ctx):
                    packet.payload = b""
                    return Verdict.default()
        """
        assert violations(good, "NF001") == []

    def test_noqa_escape_hatch(self):
        source = textwrap.dedent("""
            class Dropper(NetworkFunction):
                read_only = True  # sdnfv: noqa NF001 (drop is a verdict)

                def process(self, packet, ctx):
                    return Verdict.discard()
        """)
        assert lint_source(source, select=["NF001"]) == []


class TestNf002DeclaredVsInferred:
    def test_rejects_under_declared_profile(self):
        bad = """
            import dataclasses
            from repro.nfs.base import action_profile

            @action_profile(reads=("src_ip",))
            class Marker(NetworkFunction):
                def process(self, packet, ctx):
                    packet.ip = dataclasses.replace(packet.ip, ttl=7)
                    return Verdict.default()
        """
        found = violations(bad, "NF002")
        assert len(found) == 1
        assert "ttl" in found[0].message

    def test_rejects_undeclared_drop_and_send(self):
        bad = """
            from repro.nfs.base import action_profile

            @action_profile(reads=("src_ip",))
            class Diverter(NetworkFunction):
                def process(self, packet, ctx):
                    if packet.flow.src_ip == "10.0.0.1":
                        return Verdict.send_to_service("ids")
                    return Verdict.discard()
        """
        found = violations(bad, "NF002")
        assert len(found) == 1
        assert "SEND" in found[0].message
        assert "DROP" in found[0].message

    def test_accepts_covering_declaration(self):
        good = """
            import dataclasses
            from repro.nfs.base import action_profile

            @action_profile(reads=("src_ip", "dst_ip", "protocol",
                                   "ttl", "dscp"),
                            writes=("ttl",), annotations_written=("hops",))
            class Marker(NetworkFunction):
                def process(self, packet, ctx):
                    packet.ip = dataclasses.replace(packet.ip, ttl=7)
                    packet.annotations["hops"] = 1
                    return Verdict.default()
        """
        assert violations(good, "NF002") == []

    def test_over_declaration_is_allowed(self):
        # Declaring more than the handler does is conservative, not wrong.
        good = """
            from repro.nfs.base import action_profile

            @action_profile(reads=("src_ip", "dst_ip"), drops=True)
            class Reader(NetworkFunction):
                def process(self, packet, ctx):
                    return Verdict.default()
        """
        assert violations(good, "NF002") == []


class TestNf003ConflictingParallelGroups:
    def test_rejects_hand_built_group_with_conflicting_writers(self):
        bad = """
            import dataclasses

            class MarkerA(NetworkFunction):
                def process(self, packet, ctx):
                    packet.ip = dataclasses.replace(packet.ip, dscp=1)
                    return Verdict.default()

            class MarkerB(NetworkFunction):
                def process(self, packet, ctx):
                    packet.ip = dataclasses.replace(packet.ip, dscp=2)
                    return Verdict.default()

            def wire(manager):
                MarkerA("ma")
                MarkerB("mb")
                manager.register_parallel_chain(["ma", "mb"])
        """
        found = violations(bad, "NF003")
        assert len(found) == 1
        assert "write/write" in found[0].message

    def test_rejects_conflicting_flow_entry_parallel_actions(self):
        bad = """
            import dataclasses

            class MarkerA(NetworkFunction):
                def process(self, packet, ctx):
                    packet.ip = dataclasses.replace(packet.ip, dscp=1)
                    return Verdict.default()

            class MarkerB(NetworkFunction):
                def process(self, packet, ctx):
                    packet.ip = dataclasses.replace(packet.ip, dscp=2)
                    return Verdict.default()

            def wire(table):
                MarkerA("ma")
                MarkerB("mb")
                table.install(FlowTableEntry(
                    parallel=True,
                    actions=(ToService("ma"), ToService("mb"))))
        """
        found = violations(bad, "NF003")
        assert len(found) == 1

    def test_accepts_disjoint_writers_and_readers(self):
        good = """
            import dataclasses

            class TtlMarker(NetworkFunction):
                def process(self, packet, ctx):
                    packet.ip = dataclasses.replace(packet.ip, ttl=9)
                    return Verdict.default()

            class Anonymizer(NetworkFunction):
                def process(self, packet, ctx):
                    packet.payload = b""
                    packet.annotations["scrubbed"] = True
                    return Verdict.default()

            def wire(manager):
                TtlMarker("ttl")
                Anonymizer("anon")
                manager.register_parallel_chain(["ttl", "anon"])
        """
        assert violations(good, "NF003") == []

    def test_silent_when_members_unresolvable(self):
        # Dynamic group construction can't be checked statically.
        good = """
            def wire(manager, names):
                manager.register_parallel_chain(names)
                manager.register_parallel_chain(["mystery_service"])
        """
        assert violations(good, "NF003") == []


class TestEngine:
    def test_noqa_suppresses_named_rule_only(self):
        source = textwrap.dedent("""
            import time

            def wall():
                return time.time()  # sdnfv: noqa SIM001 (telemetry)
        """)
        assert lint_source(source) == []
        # A different rule's ID does not suppress SIM001.
        other = source.replace("SIM001", "SIM002")
        assert len(lint_source(other)) == 1

    def test_bare_noqa_suppresses_everything(self):
        source = textwrap.dedent("""
            import time

            def wall():
                return time.time()  # sdnfv: noqa
        """)
        assert lint_source(source) == []

    def test_select_runs_only_named_rules(self):
        source = textwrap.dedent("""
            import time

            class Packet:
                pass

            def wall():
                return time.time()
        """)
        assert {v.rule_id for v in lint_source(source)} == {"SIM001",
                                                            "SIM003"}
        only = lint_source(source, select=["SIM003"])
        assert [v.rule_id for v in only] == ["SIM003"]

    def test_violation_rendering_is_path_line_col(self):
        found = lint_source("import time\nx = time.time()\n",
                            path="pkg/mod.py")
        assert str(found[0]).startswith("pkg/mod.py:2:5: SIM001")

    def test_all_rules_registered(self):
        assert set(RULES) == {"SIM001", "SIM002", "SIM003", "SIM004",
                              "SIM005", "SIM006", "SIM007", "OWN001",
                              "FLOW001", "NF001", "NF002", "NF003"}


class TestSelfLint:
    def test_src_repro_lints_clean(self):
        """The acceptance gate: the repo passes its own lint."""
        assert lint_paths([REPO / "src" / "repro"]) == []

    def test_cli_exit_codes(self, tmp_path):
        clean = tmp_path / "clean.py"
        clean.write_text("x = 1\n")
        dirty = tmp_path / "dirty.py"
        dirty.write_text("import time\nx = time.time()\n")
        script = str(REPO / "tools" / "sdnfv_lint.py")
        ok = subprocess.run([sys.executable, script, str(clean)],
                            capture_output=True, text=True)
        assert ok.returncode == 0
        bad = subprocess.run([sys.executable, script, str(dirty)],
                             capture_output=True, text=True)
        assert bad.returncode == 1
        assert "SIM001" in bad.stdout
        usage = subprocess.run([sys.executable, script],
                               capture_output=True, text=True)
        assert usage.returncode == 2

    def test_cli_json_format(self, tmp_path):
        import json as json_mod
        dirty = tmp_path / "dirty.py"
        dirty.write_text("import time\nx = time.time()\n")
        script = str(REPO / "tools" / "sdnfv_lint.py")
        run = subprocess.run(
            [sys.executable, script, "--format", "json", str(dirty)],
            capture_output=True, text=True)
        assert run.returncode == 1
        payload = json_mod.loads(run.stdout)
        assert payload[0]["rule_id"] == "SIM001"
        assert payload[0]["line"] == 2
        assert payload[0]["path"].endswith("dirty.py")

    def test_cli_sarif_format(self, tmp_path):
        import json as json_mod
        clean = tmp_path / "clean.py"
        clean.write_text("x = 1\n")
        dirty = tmp_path / "dirty.py"
        dirty.write_text("import time\nx = time.time()\n")
        script = str(REPO / "tools" / "sdnfv_lint.py")
        ok = subprocess.run(
            [sys.executable, script, "--format", "sarif", str(clean)],
            capture_output=True, text=True)
        assert ok.returncode == 0
        log = json_mod.loads(ok.stdout)
        assert log["version"] == "2.1.0"
        assert log["runs"][0]["results"] == []
        rule_ids = {r["id"] for r in log["runs"][0]["tool"]["driver"]["rules"]}
        assert {"SIM001", "NF001", "NF002", "NF003"} <= rule_ids
        bad = subprocess.run(
            [sys.executable, script, "--format", "sarif", str(dirty)],
            capture_output=True, text=True)
        assert bad.returncode == 1
        result = json_mod.loads(bad.stdout)["runs"][0]["results"][0]
        assert result["ruleId"] == "SIM001"
        region = result["locations"][0]["physicalLocation"]["region"]
        assert region["startLine"] == 2
