"""Kernel dispatch order: small random programs replay a recorded trace.

Each case in ``tests/data/kernel_order_golden.json`` is a small program
over one simulator: processes started at time 0 or later from a timer,
each running a list of ops (sleeps, store ``get``/``put``/``try_put``/
``try_get`` on recycled and plain stores, ``Timeout``\\ s, ``any_of``
races, ``call_later`` timers, interrupts of other processes), plus
top-level timers that interrupt processes, feed stores, or wait on a
``sleep``/``get`` event from outside any process.

Running a program records the ordered dispatch trace — one
``(now, who, step, value)`` row per process resumption, timer firing
and process finish — and the kernel odometers (``events_scheduled``,
``timers_scheduled``, ``events_cancelled``).  The test replays every
program on the current kernel and requires the recorded trace and
odometers exactly: every wait takes one heap entry at the same
``(when, seq)``, whichever mechanism the kernel uses to resume it.

The programs were drawn by Hypothesis (derandomized) and frozen into
the JSON file, so the test needs no Hypothesis.  To re-record from a
kernel known to be correct::

    PYTHONPATH=src python -m tests.test_kernel_order_golden
"""

from __future__ import annotations

import json
import pathlib
import typing

import pytest

from repro.sim import Interrupt, Process, Simulator, Store

GOLDEN_PATH = (pathlib.Path(__file__).parent / "data"
               / "kernel_order_golden.json")

#: How many programs the recorder draws.
PROGRAM_COUNT = 120


def run_program(program: dict) -> dict:
    """Run one program; return its trace and odometers."""
    sim = Simulator()
    trace: list[list] = []
    stores = [Store(sim, capacity=spec["capacity"] or float("inf"),
                    recycle=spec["recycle"])
              for spec in program["stores"]]
    processes: dict[int, Process] = {}

    def note(who: str, step: typing.Any, value: typing.Any) -> None:
        trace.append([sim.now, who, step, value])

    def interrupt(who: str, step: typing.Any, target: int,
                  cause: str) -> None:
        process = processes.get(target)
        if process is None:
            note(who, step, "absent")
            return
        try:
            process.interrupt(cause)
        except RuntimeError:
            note(who, step, "refused")
        else:
            note(who, step, "sent")

    def body(index: int, ops: list):
        name = f"p{index}"
        for step, op in enumerate(ops):
            kind, tag = op[0], f"{name}.{step}"
            try:
                if kind == "sleep":
                    value = yield sim.sleep(op[1])
                elif kind == "get":
                    value = yield stores[op[1]].get()
                elif kind == "put":
                    value = yield stores[op[1]].put(tag)
                elif kind == "try_put":
                    value = stores[op[1]].try_put(tag)
                elif kind == "try_get":
                    value = stores[op[1]].try_get()
                elif kind == "timeout":
                    value = yield sim.timeout(op[1], tag)
                elif kind == "any_of":
                    fired = yield sim.any_of(
                        [sim.timeout(delay, f"{tag}.{i}")
                         for i, delay in enumerate(op[1:])])
                    value = sorted(fired.values())
                elif kind == "call_later":
                    sim.call_later(op[1], note_timer, tag)
                    value = None
                elif kind == "interrupt":
                    interrupt(name, step, op[1], tag)
                    continue
                else:  # pragma: no cover - malformed golden
                    raise ValueError(f"unknown op {kind!r}")
            except Interrupt as exc:
                value = ["interrupted", exc.cause]
            note(name, step, value)
        note(name, "done", None)
        return len(ops)

    def note_timer(tag: str) -> None:
        note("timer", tag, "tick")

    def start(index: int) -> None:
        spec = program["processes"][index]
        processes[index] = sim.process(body(index, spec["ops"]))

    def fire(timer: list) -> None:
        index, kind = timer[0], timer[2]
        who = f"t{index}"
        if kind == "start":
            start(timer[3])
            note(who, kind, timer[3])
        elif kind == "interrupt":
            interrupt(who, kind, timer[3], who)
        elif kind == "try_put":
            note(who, kind, stores[timer[3]].try_put(who))
        elif kind == "sleep_cb":
            sim.sleep(timer[3]).callbacks.append(
                lambda event: note(who, "slept", event.value))
        elif kind == "get_cb":
            stores[timer[3]].get().callbacks.append(
                lambda event: note(who, "got", event.value))
        else:  # pragma: no cover - malformed golden
            raise ValueError(f"unknown timer {kind!r}")

    for index, spec in enumerate(program["processes"]):
        if spec["start"] == 0:
            start(index)
    for index, timer in enumerate(program["timers"]):
        sim.call_later(timer[0], fire, [index, *timer])
    sim.run()
    return {
        "trace": trace,
        "events_scheduled": sim.events_scheduled,
        "timers_scheduled": sim.timers_scheduled,
        "events_cancelled": sim.events_cancelled,
        "now": sim.now,
        "stores": [list(store.items) for store in stores],
    }


# ----------------------------------------------------------------------
# Recording (needs Hypothesis; the test itself does not)
# ----------------------------------------------------------------------
def _programs_strategy():
    from hypothesis import strategies as st

    delays = st.integers(min_value=0, max_value=20)

    @st.composite
    def programs(draw):
        stores = draw(st.lists(
            st.fixed_dictionaries({
                "capacity": st.sampled_from([1, 2, None]),
                "recycle": st.sampled_from([True, True, False]),
            }), min_size=1, max_size=3))
        store_ids = st.integers(min_value=0, max_value=len(stores) - 1)
        count = draw(st.integers(min_value=1, max_value=6))
        # Process 0 always starts at time 0; later ones may start from a
        # timer.  Timers only interrupt processes started at time 0, at
        # t >= 1, so every interrupted process has taken its first step.
        starts = [0] + [draw(st.sampled_from([0, 0, 1, 3, 7, 12]))
                        for _ in range(count - 1)]
        processes = []
        for index in range(count):
            others = [j for j in range(count) if j != index]
            kinds = [st.tuples(st.just("sleep"), delays),
                     st.tuples(st.just("get"), store_ids),
                     st.tuples(st.just("put"), store_ids),
                     st.tuples(st.just("try_put"), store_ids),
                     st.tuples(st.just("try_get"), store_ids),
                     st.tuples(st.just("timeout"), delays),
                     st.tuples(st.just("any_of"), delays, delays),
                     st.tuples(st.just("call_later"), delays)]
            if others:
                kinds.append(st.tuples(st.just("interrupt"),
                                       st.sampled_from(others)))
            ops = draw(st.lists(st.one_of(kinds), min_size=1, max_size=8))
            processes.append({"start": starts[index],
                              "ops": [list(op) for op in ops]})
        early = [index for index, at in enumerate(starts) if at == 0]
        timer_kinds = [
            st.tuples(st.integers(1, 40), st.just("interrupt"),
                      st.sampled_from(early)),
            st.tuples(st.integers(1, 40), st.just("try_put"), store_ids),
            st.tuples(st.integers(0, 40), st.just("sleep_cb"), delays),
            st.tuples(st.integers(0, 40), st.just("get_cb"), store_ids),
        ]
        timers = [list(timer) for timer in
                  draw(st.lists(st.one_of(timer_kinds), max_size=6))]
        timers += [[at, "start", index] for index, at in enumerate(starts)
                   if at]
        return {"stores": stores, "processes": processes,
                "timers": timers}

    return programs()


def record() -> None:
    from hypothesis import HealthCheck, Phase, given, settings

    drawn: list[dict] = []

    @settings(max_examples=PROGRAM_COUNT, derandomize=True, database=None,
              phases=[Phase.generate], deadline=None,
              suppress_health_check=list(HealthCheck))
    @given(_programs_strategy())
    def collect(program):
        drawn.append(program)

    collect()
    cases = [{"program": program, "expected": run_program(program)}
             for program in drawn]
    GOLDEN_PATH.write_text(json.dumps({"cases": cases}, indent=None,
                                      separators=(",", ":")) + "\n")
    print(f"recorded {len(cases)} programs to {GOLDEN_PATH}")


# ----------------------------------------------------------------------
# The test
# ----------------------------------------------------------------------
CASES = (json.loads(GOLDEN_PATH.read_text())["cases"]
         if GOLDEN_PATH.exists() else [])


def test_golden_covers_every_op():
    """The frozen programs exercise each op and timer kind."""
    ops = {op[0] for case in CASES
           for spec in case["program"]["processes"] for op in spec["ops"]}
    timers = {timer[1] for case in CASES
              for timer in case["program"]["timers"]}
    assert ops == {"sleep", "get", "put", "try_put", "try_get", "timeout",
                   "any_of", "call_later", "interrupt"}
    assert timers == {"interrupt", "try_put", "sleep_cb", "get_cb",
                      "start"}
    outcomes = {row[3] if isinstance(row[3], str) else None
                for case in CASES for row in case["expected"]["trace"]}
    assert {"sent", "refused"} <= outcomes
    assert any(isinstance(row[3], list) and row[3][:1] == ["interrupted"]
               for case in CASES for row in case["expected"]["trace"])
    assert any(case["expected"]["events_cancelled"] for case in CASES)


@pytest.mark.parametrize("index", range(len(CASES)))
def test_program_replays_golden_trace(index):
    case = CASES[index]
    assert run_program(case["program"]) == case["expected"]


if __name__ == "__main__":
    record()
