"""Repo-specific lint rules for the SDNFV reproduction.

Every rule exists because the hot-path design makes a specific mistake
cheap to write and expensive to debug:

- **SIM001** — wall-clock or ambient randomness breaks integer-ns
  determinism (the whole reproduction rests on fixed-seed runs).
- **SIM002** — float arithmetic flowing into ``*_ns`` names silently
  de-quantizes the clock; nanoseconds are integers everywhere.
- **SIM003** — hot-path classes (packets, descriptors, kernel events)
  are allocated millions of times; a missing ``__slots__`` regresses
  memory and allocation rate without failing any test.
- **SIM004** — NF ``process``/handler bodies run inside the simulated
  packet loop; blocking IO there stalls the *real* process mid-sim.
- **SIM005** — shards of the sharded kernel may exchange only
  *serialized* boundary events; reaching through a shard handle into
  another shard's live objects (hosts, pools, managers) silently breaks
  worker-mode parity and determinism.  The same rule polices the wire:
  per-event ``pipe.send``/``pickle.dumps`` inside a boundary hot loop
  reintroduces the one-message-per-packet transport the batched codec
  (``repro.net.batch.BoundaryBatch``) replaced.
- **SIM006** — functions marked ``@columnar_kernel`` promise to work on
  batch columns and scalars; per-packet object allocation or per-row
  iteration inside one silently reintroduces the object-path costs the
  columnar refactor removed.
- **SIM007** — a process's ``sim.sleep(...)`` and a recycled store's
  ``get()`` queue the process's wake at the call and return a sentinel;
  anything but yielding that result at once (keeping it, racing it,
  yielding something else first) resumes the process at the wrong
  moment or with the wrong value.
- **OWN001** — every pool-allocated buffer must be handed off exactly
  once per path (to a ring, port, caller, or ``free``/``release``);
  unbalanced paths are leaks or double-releases.
- **FLOW001** — flow-table-style dicts mutated while being iterated
  (the NF/controller concurrency the paper warns about, §3.4).
- **NF001** — a class declares ``read_only = True`` but its inferred
  action profile writes header/payload fields or can DROP; the manager
  trusts the declaration when fusing parallel chains (§3.3), so a lying
  bit corrupts shared packets.
- **NF002** — a class's ``@action_profile(...)`` declaration fails to
  cover its inferred effects; everything consulting the declaration
  (layout synthesis, the merge stage) would under-estimate the NF.
- **NF003** — a hand-built parallel group (a literal
  ``register_parallel_chain([...])`` or a ``FlowTableEntry`` with
  ``parallel=True``) contains members whose profiles conflict.
"""

from __future__ import annotations

import ast

from repro.analysis.lint.engine import LintViolation, register
from repro.analysis.profiles import (
    ActionProfile,
    chain_conflicts,
    module_string_constants,
    profile_from_classdef,
    profile_from_declaration,
    undeclared_effects,
)

# ----------------------------------------------------------------------
# Shared AST helpers
# ----------------------------------------------------------------------


def _qualname(node: ast.AST) -> str:
    """Dotted name of a Name/Attribute chain ('' when not a plain chain)."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


def _violation(path: str, node: ast.AST, rule_id: str,
               message: str) -> LintViolation:
    return LintViolation(path=path, line=node.lineno, col=node.col_offset,
                         rule_id=rule_id, message=message)


# ----------------------------------------------------------------------
# SIM001 — no wall clock, no ambient randomness
# ----------------------------------------------------------------------

_WALL_CLOCK_CALLS = frozenset({
    "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns", "time.process_time",
    "time.process_time_ns", "os.urandom", "uuid.uuid1", "uuid.uuid4",
})

#: datetime factory methods that read the host clock (matched on the
#: trailing two components so both ``datetime.now`` and
#: ``datetime.datetime.now`` are caught).
_WALL_CLOCK_SUFFIXES = frozenset({
    ("datetime", "now"), ("datetime", "utcnow"), ("datetime", "today"),
    ("date", "today"),
})

#: numpy.random attributes that are *constructors* for seeded streams
#: (the blessed path via repro.sim.randomness), not ambient draws.
_NP_RANDOM_OK = frozenset({"default_rng", "Generator", "SeedSequence",
                           "BitGenerator", "PCG64", "Philox"})


class _Sim001:
    rule_id = "SIM001"
    summary = ("no wall clock or ambient randomness inside the simulation "
               "(route through the sim clock / repro.sim.randomness)")

    def __call__(self, tree: ast.Module, path: str) -> list[LintViolation]:
        violations = []
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = _qualname(node.func)
            if not name:
                continue
            parts = tuple(name.split("."))
            ambient = (
                name in _WALL_CLOCK_CALLS
                or parts[-2:] in _WALL_CLOCK_SUFFIXES
                or parts[0] in ("random", "secrets")
                and len(parts) > 1
                or parts[:2] in (("np", "random"), ("numpy", "random"))
                and len(parts) > 2 and parts[2] not in _NP_RANDOM_OK
            )
            if ambient:
                violations.append(_violation(
                    path, node, self.rule_id,
                    f"ambient time/randomness call {name}(); use the sim "
                    f"clock (sim.now) or a seeded stream from "
                    f"repro.sim.randomness"))
        return violations


# ----------------------------------------------------------------------
# SIM002 — integer nanoseconds only
# ----------------------------------------------------------------------

_FLOAT_CALLS = frozenset({"float"})
_FLOAT_RNG_METHODS = frozenset({
    "exponential", "normal", "uniform", "random", "gauss", "standard_normal",
    "mean", "average", "std", "median",
})
_FLOAT_MATH = frozenset({
    "sqrt", "exp", "log", "log2", "log10", "sin", "cos", "tan", "pow",
    "hypot", "fsum", "dist",
})
_INT_CALLS = frozenset({"int", "len", "ord", "hash", "index"})


def _maybe_float(node: ast.AST) -> bool:
    """Whether this expression can evaluate to a float.

    Conservative in the false-negative direction: unknown names and
    calls are assumed integer, so the rule only fires on arithmetic that
    is *visibly* float (true division, float literals, known
    float-returning calls) and not laundered through ``int()``/
    ``round(x)``.
    """
    if isinstance(node, ast.Constant):
        return isinstance(node.value, float)
    if isinstance(node, ast.BinOp):
        if isinstance(node.op, ast.Div):
            return True
        return _maybe_float(node.left) or _maybe_float(node.right)
    if isinstance(node, ast.UnaryOp):
        return _maybe_float(node.operand)
    if isinstance(node, ast.IfExp):
        return _maybe_float(node.body) or _maybe_float(node.orelse)
    if isinstance(node, ast.BoolOp):
        return any(_maybe_float(value) for value in node.values)
    if isinstance(node, ast.Call):
        name = _qualname(node.func)
        tail = name.rsplit(".", 1)[-1] if name else ""
        if tail in _INT_CALLS:
            return False
        if tail == "round":
            # round(x) is an int; round(x, ndigits) keeps the float.
            return len(node.args) > 1 or bool(node.keywords)
        if tail in _FLOAT_CALLS or tail in _FLOAT_MATH:
            return True
        if tail in _FLOAT_RNG_METHODS:
            return True
        if tail in ("min", "max", "abs", "sum"):
            return any(_maybe_float(arg) for arg in node.args)
        return False
    return False


def _is_float_annotation(annotation: ast.AST | None) -> bool:
    return (isinstance(annotation, ast.Name) and annotation.id == "float") \
        or (isinstance(annotation, ast.Constant)
            and annotation.value == "float")


class _Sim002:
    rule_id = "SIM002"
    summary = "no float arithmetic flowing into *_ns names (integer ns only)"

    def _check_value(self, path: str, node: ast.AST, target_name: str,
                     value: ast.AST | None,
                     violations: list[LintViolation]) -> None:
        if value is not None and _maybe_float(value):
            violations.append(_violation(
                path, node, self.rule_id,
                f"float-valued expression flows into {target_name!r}; "
                f"nanosecond quantities are integers (wrap in round()/"
                f"int() or rename without the _ns suffix)"))

    def __call__(self, tree: ast.Module, path: str) -> list[LintViolation]:
        violations: list[LintViolation] = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    name = _target_ns_name(target)
                    if name:
                        self._check_value(path, node, name, node.value,
                                          violations)
            elif isinstance(node, ast.AugAssign):
                name = _target_ns_name(node.target)
                if name:
                    self._check_value(path, node, name, node.value,
                                      violations)
            elif isinstance(node, ast.AnnAssign):
                name = _target_ns_name(node.target)
                if name:
                    if _is_float_annotation(node.annotation):
                        violations.append(_violation(
                            path, node, self.rule_id,
                            f"{name!r} is annotated float; nanosecond "
                            f"quantities are integers"))
                    self._check_value(path, node, name, node.value,
                                      violations)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if node.name.endswith("_ns"):
                    if _is_float_annotation(node.returns):
                        violations.append(_violation(
                            path, node, self.rule_id,
                            f"{node.name}() is annotated to return float; "
                            f"*_ns functions return integer nanoseconds"))
                    for inner in ast.walk(node):
                        if (isinstance(inner, ast.Return)
                                and inner.value is not None
                                and _maybe_float(inner.value)):
                            self._check_value(path, inner,
                                              f"{node.name}() return",
                                              inner.value, violations)
                for arg, default in _args_with_defaults(node):
                    if arg.arg.endswith("_ns"):
                        if _is_float_annotation(arg.annotation):
                            violations.append(_violation(
                                path, arg, self.rule_id,
                                f"parameter {arg.arg!r} is annotated "
                                f"float; nanosecond quantities are "
                                f"integers"))
                        self._check_value(path, arg, arg.arg, default,
                                          violations)
            elif isinstance(node, ast.Call):
                for keyword in node.keywords:
                    if keyword.arg and keyword.arg.endswith("_ns"):
                        self._check_value(path, keyword.value, keyword.arg,
                                          keyword.value, violations)
        return violations


def _target_ns_name(target: ast.AST) -> str | None:
    if isinstance(target, ast.Name) and target.id.endswith("_ns"):
        return target.id
    if isinstance(target, ast.Attribute) and target.attr.endswith("_ns"):
        return target.attr
    return None


def _args_with_defaults(node: ast.FunctionDef | ast.AsyncFunctionDef):
    args = node.args
    every = args.posonlyargs + args.args
    defaults: list[ast.AST | None] = [None] * (len(every)
                                               - len(args.defaults))
    defaults += list(args.defaults)
    yield from zip(every, defaults, strict=True)
    for arg, default in zip(args.kwonlyargs, args.kw_defaults, strict=True):
        yield arg, default


# ----------------------------------------------------------------------
# SIM003 — hot-path classes declare __slots__
# ----------------------------------------------------------------------

#: Classes reachable from the per-packet loop: allocated (or recycled)
#: once per packet / descriptor / kernel event.  Ring *containers*
#: (RingBuffer, NicPort, PacketPool, NfManager) are deliberately absent:
#: they are few per host and stay open for instance-level instrumentation
#: (the ownership verifier wraps their bound methods).
HOT_PATH_CLASSES = frozenset({
    "Packet", "PacketDescriptor", "FiveTuple", "Event", "Timeout",
    "Process", "_Condition", "AnyOf", "AllOf", "Store", "PacketBatch",
})


def _declares_slots(node: ast.ClassDef) -> bool:
    for statement in node.body:
        targets = []
        if isinstance(statement, ast.Assign):
            targets = statement.targets
        elif isinstance(statement, ast.AnnAssign):
            targets = [statement.target]
        for target in targets:
            if isinstance(target, ast.Name) and target.id == "__slots__":
                return True
    for decorator in node.decorator_list:
        if isinstance(decorator, ast.Call):
            name = _qualname(decorator.func)
            if name.rsplit(".", 1)[-1] == "dataclass":
                for keyword in decorator.keywords:
                    if (keyword.arg == "slots"
                            and isinstance(keyword.value, ast.Constant)
                            and keyword.value.value is True):
                        return True
    return False


class _Sim003:
    rule_id = "SIM003"
    summary = "hot-path classes (per-packet objects) must declare __slots__"

    def __call__(self, tree: ast.Module, path: str) -> list[LintViolation]:
        violations = []
        for node in ast.walk(tree):
            if (isinstance(node, ast.ClassDef)
                    and node.name in HOT_PATH_CLASSES
                    and not _declares_slots(node)):
                violations.append(_violation(
                    path, node, self.rule_id,
                    f"hot-path class {node.name!r} does not declare "
                    f"__slots__ (allocated per packet/event; dict "
                    f"instances regress the zero-allocation fast path)"))
        return violations


# ----------------------------------------------------------------------
# SIM004 — no blocking / IO calls inside NF handler bodies
# ----------------------------------------------------------------------

_NF_HANDLER_METHODS = frozenset({
    "process", "handle_packet", "processing_cost_ns", "on_register",
})
_BLOCKING_BARE = frozenset({"open", "input", "print", "breakpoint",
                            "exec", "eval", "compile"})
_BLOCKING_EXACT = frozenset({"time.sleep", "os.system", "os.popen",
                             "os.fork", "os.wait"})
_BLOCKING_PREFIXES = ("socket.", "subprocess.", "requests.", "urllib.",
                      "http.", "shutil.")


def _is_nf_class(node: ast.ClassDef) -> bool:
    for base in node.bases:
        name = _qualname(base)
        tail = name.rsplit(".", 1)[-1]
        if "NetworkFunction" in tail or tail.endswith("Nf"):
            return True
    return False


class _Sim004:
    rule_id = "SIM004"
    summary = "no blocking/IO calls inside NF process/handler bodies"

    def __call__(self, tree: ast.Module, path: str) -> list[LintViolation]:
        violations = []
        for node in ast.walk(tree):
            if not (isinstance(node, ast.ClassDef) and _is_nf_class(node)):
                continue
            for method in node.body:
                if not (isinstance(method, ast.FunctionDef)
                        and method.name in _NF_HANDLER_METHODS):
                    continue
                for inner in ast.walk(method):
                    if not isinstance(inner, ast.Call):
                        continue
                    name = _qualname(inner.func)
                    if (name in _BLOCKING_BARE or name in _BLOCKING_EXACT
                            or name.startswith(_BLOCKING_PREFIXES)):
                        violations.append(_violation(
                            path, inner, self.rule_id,
                            f"blocking/IO call {name}() inside NF handler "
                            f"{node.name}.{method.name}; NF bodies run in "
                            f"the simulated packet loop — model the cost "
                            f"via processing_cost_ns instead"))
        return violations


# ----------------------------------------------------------------------
# SIM005 — no cross-shard object sharing in the sharded kernel
# ----------------------------------------------------------------------

#: Names of collections that hold per-shard runtimes / worker handles
#: inside ``repro.sim.sharded``.
_SHARD_COLLECTIONS = frozenset({
    "shards", "_shards", "runtimes", "_runtimes", "peers", "workers",
})

#: The serialized conductor protocol — the only attributes conductor
#: code may touch on another shard's handle.  Everything else (hosts,
#: pools, managers, sims) is that shard's private world.
_SHARD_PROTOCOL = frozenset({
    "shard_id", "advance", "deliver", "take_outbox", "collect",
})


#: Loop variables/iterables that mark a *per-event* boundary hot loop.
#: A ``.send``/``pickle.dumps`` call inside such a loop ships one pipe
#: message per packet — the unbatched transport the columnar boundary
#: codec exists to prevent.  Loops over workers, shards, or destination
#: buckets (one payload per peer) are fine.
_PER_EVENT_NAMES = frozenset({
    "event", "events", "packet", "packets", "row", "rows",
    "frame", "frames", "outbox", "tagged", "boundary_events",
})

#: Per-event serialization calls: bare names (``dumps``) and dotted
#: tails (``pickle.dumps``); ``.send`` on anything counts.
_SERIALIZE_CALLS = frozenset({"dumps", "dump"})


def _is_sharded_kernel(path: str) -> bool:
    normalized = path.replace("\\", "/")
    return normalized.endswith("repro/sim/sharded.py")


def _loop_names(node: ast.For) -> set[str]:
    names: set[str] = set()
    for part in (node.target, node.iter):
        for child in ast.walk(part):
            if isinstance(child, ast.Name):
                names.add(child.id)
            elif isinstance(child, ast.Attribute):
                names.add(child.attr)
    return names


class _Sim005:
    rule_id = "SIM005"
    summary = ("no cross-shard object sharing in repro.sim.sharded "
               "(shards exchange batched serialized boundary events "
               "only)")

    def __call__(self, tree: ast.Module, path: str) -> list[LintViolation]:
        if not _is_sharded_kernel(path):
            return []
        violations = []
        for node in ast.walk(tree):
            if isinstance(node, ast.For):
                violations.extend(self._check_event_loop(node, path))
            if not (isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Subscript)):
                continue
            base = node.value.value
            base_name = (base.id if isinstance(base, ast.Name)
                         else base.attr if isinstance(base, ast.Attribute)
                         else "")
            if base_name not in _SHARD_COLLECTIONS:
                continue
            if node.attr in _SHARD_PROTOCOL:
                continue
            violations.append(_violation(
                path, node, self.rule_id,
                f"cross-shard access {base_name}[...].{node.attr}; one "
                f"shard may not touch another shard's live objects — "
                f"exchange serialized boundary events via the "
                f"advance/deliver/take_outbox/collect protocol"))
        return violations

    def _check_event_loop(self, loop: ast.For,
                          path: str) -> list[LintViolation]:
        """Flag per-event pipe sends / pickling inside boundary loops."""
        if not (_loop_names(loop) & _PER_EVENT_NAMES):
            return []
        violations = []
        for body_item in loop.body + loop.orelse:
            for node in ast.walk(body_item):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                name = (func.attr if isinstance(func, ast.Attribute)
                        else func.id if isinstance(func, ast.Name)
                        else "")
                if name == "send" or name in _SERIALIZE_CALLS:
                    violations.append(_violation(
                        path, node, self.rule_id,
                        f"per-event {name}() inside a boundary hot "
                        f"loop ships one pipe message per packet; "
                        f"encode the window's events once "
                        f"(BoundaryBatch / the transport codec) and "
                        f"send the batch"))
        return violations


# ----------------------------------------------------------------------
# SIM006 — columnar kernels touch columns and scalars only
# ----------------------------------------------------------------------

_COLUMNAR_MARKER = "columnar_kernel"

#: Per-packet escape hatches: constructing row objects or rematerializing
#: the row store defeats the whole point of a columnar kernel.
_ROW_OBJECT_CALLS = frozenset({
    "Packet", "PacketDescriptor", "_desc_alloc", "materialize",
})


def _is_columnar_kernel(node: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    for decorator in node.decorator_list:
        target = (decorator.func if isinstance(decorator, ast.Call)
                  else decorator)
        name = _qualname(target)
        if name and name.rsplit(".", 1)[-1] == _COLUMNAR_MARKER:
            return True
    return False


def _iterates_row_store(iter_node: ast.AST) -> bool:
    """Whether this iterable walks the per-packet row store
    (``something.packets``, possibly through enumerate/zip/reversed or a
    slice)."""
    if isinstance(iter_node, ast.Attribute):
        return iter_node.attr == "packets"
    if isinstance(iter_node, ast.Subscript):
        return _iterates_row_store(iter_node.value)
    if isinstance(iter_node, ast.Call):
        return any(_iterates_row_store(arg) for arg in iter_node.args)
    return False


class _Sim006:
    rule_id = "SIM006"
    summary = ("columnar kernels (@columnar_kernel) work on columns and "
               "scalars only — no per-packet objects, no per-row iteration")

    def __call__(self, tree: ast.Module, path: str) -> list[LintViolation]:
        violations: list[LintViolation] = []
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if not _is_columnar_kernel(node):
                continue
            self._check_kernel(node, path, violations)
        return violations

    def _check_kernel(self, kernel, path: str,
                      violations: list[LintViolation]) -> None:
        for inner in ast.walk(kernel):
            if isinstance(inner, ast.Call):
                name = _qualname(inner.func)
                tail = name.rsplit(".", 1)[-1] if name else ""
                if tail in _ROW_OBJECT_CALLS:
                    violations.append(_violation(
                        path, inner, self.rule_id,
                        f"per-packet object call {tail}() inside columnar "
                        f"kernel {kernel.name}(); kernels operate on batch "
                        f"columns — move row materialization to the "
                        f"object-path fallback"))
            elif isinstance(inner, (ast.For, ast.AsyncFor)):
                if _iterates_row_store(inner.iter):
                    violations.append(_violation(
                        path, inner, self.rule_id,
                        f"per-row iteration over the packet store inside "
                        f"columnar kernel {kernel.name}(); use the batch "
                        f"columns (sizes/packed_keys/flags) instead"))
            elif isinstance(inner, (ast.ListComp, ast.SetComp, ast.DictComp,
                                    ast.GeneratorExp)):
                for generator in inner.generators:
                    if _iterates_row_store(generator.iter):
                        violations.append(_violation(
                            path, inner, self.rule_id,
                            f"per-row comprehension over the packet store "
                            f"inside columnar kernel {kernel.name}(); use "
                            f"the batch columns instead"))


# ----------------------------------------------------------------------
# SIM007 — process-lane waits are yielded at once
# ----------------------------------------------------------------------


def _recycled_store_names(tree: ast.Module) -> set[str]:
    """Names (or attribute names) bound to ``Store(..., recycle=True)``
    anywhere in the module."""
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        else:
            continue
        if not (isinstance(value, ast.Call)
                and _qualname(value.func).rsplit(".", 1)[-1] == "Store"
                and any(keyword.arg == "recycle"
                        and isinstance(keyword.value, ast.Constant)
                        and keyword.value.value is True
                        for keyword in value.keywords)):
            continue
        for target in targets:
            if isinstance(target, ast.Name):
                names.add(target.id)
            elif isinstance(target, ast.Attribute):
                names.add(target.attr)
    return names


class _Sim007:
    rule_id = "SIM007"
    summary = ("sim.sleep(...) and a recycled store's get() must be the "
               "direct operand of yield")

    def __call__(self, tree: ast.Module, path: str) -> list[LintViolation]:
        recycled = _recycled_store_names(tree)
        violations: list[LintViolation] = []
        for parent in ast.walk(tree):
            for child in ast.iter_child_nodes(parent):
                if not (isinstance(child, ast.Call)
                        and isinstance(child.func, ast.Attribute)):
                    continue
                method = child.func.attr
                receiver = _qualname(child.func.value).rsplit(".", 1)[-1]
                if method == "sleep" and (receiver == "sim"
                                          or receiver.endswith("_sim")):
                    what = f"{_qualname(child.func)}(...)"
                elif (method == "get" and not child.args
                      and receiver in recycled):
                    what = f"{_qualname(child.func)}() on a recycled store"
                else:
                    continue
                # A forwarding ``return`` hands the wait to a caller that
                # yields it.
                if isinstance(parent, (ast.Yield, ast.Return)):
                    continue
                violations.append(_violation(
                    path, child, self.rule_id,
                    f"{what} queues the running process's wake and must "
                    f"be the direct operand of yield; keeping its result "
                    f"or yielding something else first resumes the "
                    f"process at the wrong moment"))
        return violations


# ----------------------------------------------------------------------
# OWN001 — pool allocations are handed off exactly once per path
# ----------------------------------------------------------------------

_RELEASE_METHODS = frozenset({"free", "release"})

#: Hand-off counts are capped here: anything >= 2 is already a bug.
_MANY = 2


def _lambda_captures(node: ast.Lambda, var: str) -> bool:
    for inner in ast.walk(node):
        if isinstance(inner, ast.Name) and inner.id == var:
            return True
    return False


def _handoffs_in_expr(node: ast.AST | None, var: str) -> int:
    """How many times ``var``'s buffer escapes in this expression.

    An escape is: being passed as a call argument, returned/yielded,
    stored somewhere, captured by a closure, or an explicit
    ``var.free()`` / ``var.release()``.  Plain reads (``var.field``,
    comparisons, boolean tests) do not count.
    """
    if node is None:
        return 0
    if isinstance(node, ast.Name):
        return 1 if node.id == var else 0
    if isinstance(node, ast.Attribute):
        return 0  # field/method read, not an escape
    if isinstance(node, (ast.Compare, ast.BoolOp)):
        return 0  # truth-value reads
    if isinstance(node, ast.Lambda):
        captured = _lambda_captures(node, var)
        captured = captured or any(_handoffs_in_expr(default, var)
                                   for default in node.args.defaults)
        return 1 if captured else 0
    if isinstance(node, ast.Call):
        count = 0
        func = node.func
        if isinstance(func, ast.Attribute):
            if (isinstance(func.value, ast.Name) and func.value.id == var):
                if func.attr in _RELEASE_METHODS:
                    count += 1
                # other var.method() calls are reads on the buffer
            else:
                count += _handoffs_in_expr(func.value, var)
        for arg in node.args:
            count += _handoffs_in_expr(arg, var)
        for keyword in node.keywords:
            count += _handoffs_in_expr(keyword.value, var)
        return count
    if isinstance(node, ast.Subscript):
        return _handoffs_in_expr(node.value, var)
    if isinstance(node, (ast.JoinedStr, ast.FormattedValue)):
        return 0
    if isinstance(node, ast.Yield):
        return _handoffs_in_expr(node.value, var)
    count = 0
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.expr):
            count += _handoffs_in_expr(child, var)
    return count


def _is_pool_alloc(value: ast.AST) -> bool:
    if not isinstance(value, ast.Call):
        return False
    func = value.func
    if isinstance(func, ast.Attribute):
        return func.attr in ("alloc", "_alloc")
    return isinstance(func, ast.Name) and func.id in ("alloc", "_alloc")


class _Own001:
    rule_id = "OWN001"
    summary = ("every PacketPool allocation is handed off exactly once per "
               "path (ring/port/caller or free/release)")

    def __call__(self, tree: ast.Module, path: str) -> list[LintViolation]:
        violations: list[LintViolation] = []
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._check_function(node, path, violations)
        return violations

    def _check_function(self, fn, path: str,
                        violations: list[LintViolation]) -> None:
        allocs: dict[str, ast.AST] = {}
        exit_env, finished = self._walk(fn.body, {}, allocs)
        for env in [*finished, exit_env]:
            for var, counts in env.items():
                if 0 in counts:
                    violations.append(_violation(
                        path, allocs[var], self.rule_id,
                        f"buffer {var!r} from pool alloc may leak: some "
                        f"path through {fn.name}() neither hands it off "
                        f"nor frees it"))
                if any(count >= _MANY for count in counts):
                    violations.append(_violation(
                        path, allocs[var], self.rule_id,
                        f"buffer {var!r} from pool alloc may be handed "
                        f"off/released more than once on a path through "
                        f"{fn.name}()"))

    # -- tiny path-sensitive walker ----------------------------------
    # env: var -> set of hand-off counts reachable on live paths.
    def _walk(self, statements, env, allocs):
        env = {var: set(counts) for var, counts in env.items()}
        finished: list[dict] = []

        def bump(expressions) -> None:
            for var in list(env):
                hit = sum(_handoffs_in_expr(expr, var)
                          for expr in expressions)
                if hit:
                    env[var] = {min(count + hit, _MANY)
                                for count in env[var]}

        for statement in statements:
            if isinstance(statement, ast.Assign):
                bump([statement.value])
                if (_is_pool_alloc(statement.value)
                        and len(statement.targets) == 1
                        and isinstance(statement.targets[0], ast.Name)):
                    name = statement.targets[0].id
                    allocs[name] = statement
                    env[name] = {0}
            elif isinstance(statement, (ast.AugAssign, ast.AnnAssign)):
                bump([statement.value])
            elif isinstance(statement, ast.Expr):
                bump([statement.value])
            elif isinstance(statement, ast.Return):
                bump([statement.value])
                finished.append(dict(env))
                return {}, finished
            elif isinstance(statement, ast.Raise):
                # Error path: ownership obligations void (caller unwinds).
                return {}, finished
            elif isinstance(statement, ast.If):
                then_env, then_done = self._walk(statement.body, env,
                                                 allocs)
                else_env, else_done = self._walk(statement.orelse, env,
                                                 allocs)
                finished.extend(then_done)
                finished.extend(else_done)
                env = _merge(then_env, else_env)
            elif isinstance(statement, (ast.For, ast.While)):
                body_env, body_done = self._walk(statement.body, env,
                                                 allocs)
                finished.extend(body_done)
                # 0-or-1 iterations: enough to catch straight-line bugs
                # without modeling loop fixpoints.
                env = _merge(env, body_env)
            elif isinstance(statement, ast.Try):
                ok_env, ok_done = self._walk(
                    statement.body + statement.orelse
                    + statement.finalbody, env, allocs)
                finished.extend(ok_done)
                merged = ok_env
                for handler in statement.handlers:
                    handler_env, handler_done = self._walk(
                        handler.body + statement.finalbody, env, allocs)
                    finished.extend(handler_done)
                    merged = _merge(merged, handler_env)
                env = merged
            elif isinstance(statement, ast.With):
                bump([item.context_expr for item in statement.items])
                env, with_done = self._walk(statement.body, env, allocs)
                finished.extend(with_done)
            elif isinstance(statement,
                            (ast.FunctionDef, ast.AsyncFunctionDef)):
                # A nested function capturing the buffer is an escape.
                for var in list(env):
                    for inner in ast.walk(statement):
                        if (isinstance(inner, ast.Name)
                                and inner.id == var):
                            env[var] = {min(count + 1, _MANY)
                                        for count in env[var]}
                            break
            # other statements (pass, imports, etc.): no effect
        return env, finished


def _merge(left: dict, right: dict) -> dict:
    merged = {var: set(counts) for var, counts in left.items()}
    for var, counts in right.items():
        merged.setdefault(var, set()).update(counts)
    return merged


# ----------------------------------------------------------------------
# FLOW001 — no mutation of a dict while iterating it
# ----------------------------------------------------------------------

_DICT_VIEWS = frozenset({"items", "keys", "values"})
_MUTATORS = frozenset({
    "pop", "popitem", "clear", "update", "setdefault", "add", "remove",
    "discard", "append", "extend", "insert",
})
_SNAPSHOT_CALLS = frozenset({"list", "tuple", "sorted", "set", "dict"})


def _iteration_base(iter_node: ast.AST) -> ast.AST | None:
    """The container being iterated directly (None when snapshotted)."""
    if isinstance(iter_node, ast.Call):
        name = _qualname(iter_node.func)
        if name in _SNAPSHOT_CALLS:
            return None
        func = iter_node.func
        if (isinstance(func, ast.Attribute) and func.attr in _DICT_VIEWS
                and isinstance(func.value, (ast.Name, ast.Attribute))):
            return func.value
        return None
    if isinstance(iter_node, (ast.Name, ast.Attribute)):
        return iter_node
    return None


class _Flow001:
    rule_id = "FLOW001"
    summary = "no mutation of a dict/container while iterating it"

    def __call__(self, tree: ast.Module, path: str) -> list[LintViolation]:
        violations = []
        for node in ast.walk(tree):
            if not isinstance(node, (ast.For, ast.AsyncFor)):
                continue
            base = _iteration_base(node.iter)
            if base is None:
                continue
            base_text = ast.unparse(base)
            for inner in ast.walk(node):
                if inner is node.iter:
                    continue
                if self._mutates(inner, base_text):
                    violations.append(_violation(
                        path, inner, self.rule_id,
                        f"{base_text!r} is mutated while being iterated "
                        f"(line {node.lineno}); iterate over "
                        f"list({base_text}...) instead"))
        return violations

    @staticmethod
    def _mutates(node: ast.AST, base_text: str) -> bool:
        if isinstance(node, ast.Call):
            func = node.func
            return (isinstance(func, ast.Attribute)
                    and func.attr in _MUTATORS
                    and ast.unparse(func.value) == base_text)
        if isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            return any(isinstance(target, ast.Subscript)
                       and ast.unparse(target.value) == base_text
                       for target in targets)
        if isinstance(node, ast.Delete):
            return any(isinstance(target, ast.Subscript)
                       and ast.unparse(target.value) == base_text
                       for target in node.targets)
        return False


# ----------------------------------------------------------------------
# NF001 — read_only=True classes must not write or drop
# ----------------------------------------------------------------------


def _read_only_true_anchor(node: ast.ClassDef) -> ast.AST | None:
    """The class-level ``read_only = True`` statement, if present.

    Instance-level assignments (``self.read_only = ...`` in __init__)
    are deliberately not matched: they are per-instance configuration,
    not a class contract the analyzer can check statically.
    """
    for statement in node.body:
        targets: list[ast.AST] = []
        value: ast.AST | None = None
        if isinstance(statement, ast.Assign):
            targets, value = statement.targets, statement.value
        elif isinstance(statement, ast.AnnAssign):
            targets, value = [statement.target], statement.value
        for target in targets:
            if (isinstance(target, ast.Name) and target.id == "read_only"
                    and isinstance(value, ast.Constant)
                    and value.value is True):
                return statement
    return None


class _Nf001:
    rule_id = "NF001"
    summary = ("declared read_only=True but the inferred action profile "
               "writes header/payload fields or can DROP")

    def __call__(self, tree: ast.Module, path: str) -> list[LintViolation]:
        violations: list[LintViolation] = []
        constants = module_string_constants(tree)
        for node in ast.walk(tree):
            if not (isinstance(node, ast.ClassDef) and _is_nf_class(node)):
                continue
            anchor = _read_only_true_anchor(node)
            if anchor is None:
                continue
            profile = profile_from_classdef(node, constants)
            problems = []
            if profile.opaque:
                problems.append("hands the packet to code the analyzer "
                                "cannot follow")
            else:
                if profile.writes:
                    problems.append(f"writes {sorted(profile.writes)}")
                if profile.can_drop:
                    problems.append("can DROP")
            if problems:
                violations.append(_violation(
                    path, anchor, self.rule_id,
                    f"{node.name} declares read_only=True but its handler "
                    f"{' and '.join(problems)}; the manager trusts this "
                    f"bit when sharing packets across parallel NFs — fix "
                    f"the declaration or suppress with a justification"))
        return violations


# ----------------------------------------------------------------------
# NF002 — @action_profile declarations must cover inferred effects
# ----------------------------------------------------------------------


def _parse_profile_decorator(
        node: ast.ClassDef) -> tuple[ast.AST | None, dict | None]:
    """The class's ``@action_profile(...)`` call and its literal kwargs.

    Returns ``(None, None)`` when undecorated and ``(decorator, None)``
    when decorated but not with resolvable literals (nothing provable).
    """
    for decorator in node.decorator_list:
        if not isinstance(decorator, ast.Call):
            continue
        name = _qualname(decorator.func)
        if name.rsplit(".", 1)[-1] != "action_profile":
            continue
        kwargs: dict = {}
        for keyword in decorator.keywords:
            if keyword.arg is None:
                return decorator, None
            value = keyword.value
            if isinstance(value, (ast.Tuple, ast.List, ast.Set)):
                items = []
                for element in value.elts:
                    if (isinstance(element, ast.Constant)
                            and isinstance(element.value, str)):
                        items.append(element.value)
                    else:
                        return decorator, None
                kwargs[keyword.arg] = tuple(items)
            elif isinstance(value, ast.Constant):
                kwargs[keyword.arg] = value.value
            else:
                return decorator, None
        return decorator, kwargs
    return None, None


class _Nf002:
    rule_id = "NF002"
    summary = ("@action_profile declaration does not cover the effects "
               "inferred from the handler ASTs")

    def __call__(self, tree: ast.Module, path: str) -> list[LintViolation]:
        violations: list[LintViolation] = []
        constants = module_string_constants(tree)
        for node in ast.walk(tree):
            if not (isinstance(node, ast.ClassDef) and _is_nf_class(node)):
                continue
            decorator, kwargs = _parse_profile_decorator(node)
            if decorator is None or kwargs is None:
                continue
            inferred = profile_from_classdef(node, constants)
            if inferred.opaque:
                continue  # nothing provable against an opaque inference
            declared = profile_from_declaration(kwargs)
            issues = undeclared_effects(declared, inferred)
            if issues:
                violations.append(_violation(
                    path, decorator, self.rule_id,
                    f"{node.name}'s declared profile disagrees with the "
                    f"inferred one: {'; '.join(issues)}"))
        return violations


# ----------------------------------------------------------------------
# NF003 — hand-built parallel groups must be conflict-free
# ----------------------------------------------------------------------


def _builtin_nf_profile(class_name: str) -> ActionProfile | None:
    """Profile of a built-in NF by class name (None when unknown).

    Imported lazily so linting arbitrary files never *requires* the
    simulator packages; without them the rule simply resolves fewer
    members (and stays silent for those groups).
    """
    try:
        import repro.nfs as nfs
        from repro.analysis.profiles import profile_of
    except Exception:  # pragma: no cover - repro.nfs unavailable
        return None
    cls = getattr(nfs, class_name, None)
    if isinstance(cls, type) and any(
            base.__name__ == "NetworkFunction" for base in cls.__mro__[1:]):
        return profile_of(cls)
    return None


def _literal_strings(node: ast.AST) -> list[str] | None:
    if not isinstance(node, (ast.List, ast.Tuple)):
        return None
    values = []
    for element in node.elts:
        if (isinstance(element, ast.Constant)
                and isinstance(element.value, str)):
            values.append(element.value)
        else:
            return None
    return values


def _parallel_group_members(node: ast.Call) -> list[str] | None:
    """Member service ids of a hand-built parallel group, else None."""
    tail = _qualname(node.func).rsplit(".", 1)[-1]
    if tail == "register_parallel_chain":
        operand = node.args[0] if node.args else None
        for keyword in node.keywords:
            if keyword.arg == "services":
                operand = keyword.value
        return _literal_strings(operand) if operand is not None else None
    if tail == "FlowTableEntry":
        parallel = False
        actions: ast.AST | None = None
        for keyword in node.keywords:
            if (keyword.arg == "parallel"
                    and isinstance(keyword.value, ast.Constant)):
                parallel = keyword.value.value is True
            elif keyword.arg == "actions":
                actions = keyword.value
        if not parallel or not isinstance(actions, (ast.List, ast.Tuple)):
            return None
        members = []
        for element in actions.elts:
            if (isinstance(element, ast.Call)
                    and _qualname(element.func).rsplit(
                        ".", 1)[-1] == "ToService"
                    and element.args
                    and isinstance(element.args[0], ast.Constant)
                    and isinstance(element.args[0].value, str)):
                members.append(element.args[0].value)
            else:
                return None
        return members
    return None


class _Nf003:
    rule_id = "NF003"
    summary = ("hand-built parallel group contains members whose action "
               "profiles conflict")

    def __call__(self, tree: ast.Module, path: str) -> list[LintViolation]:
        constants = module_string_constants(tree)
        local_classes = {
            node.name: node for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef) and _is_nf_class(node)}
        # service id -> profile, bound by NF constructor calls in this
        # module: ClassName("service", ...).  Heterogeneous rebinding of
        # one service id unions the profiles (conservative).
        bindings: dict[str, ActionProfile] = {}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            class_name = _qualname(node.func).rsplit(".", 1)[-1]
            if not (node.args and isinstance(node.args[0], ast.Constant)
                    and isinstance(node.args[0].value, str)):
                continue
            if class_name in local_classes:
                profile = profile_from_classdef(local_classes[class_name],
                                                constants)
            else:
                profile = _builtin_nf_profile(class_name)
            if profile is None:
                continue
            service = node.args[0].value
            existing = bindings.get(service)
            bindings[service] = (profile if existing is None
                                 else existing.merged_with(profile))
        violations: list[LintViolation] = []
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            members = _parallel_group_members(node)
            if members is None or len(members) < 2:
                continue
            profiles = [bindings.get(member) for member in members]
            if any(profile is None for profile in profiles):
                continue  # unresolvable member: nothing provable
            issues = chain_conflicts(profiles)
            if issues:
                violations.append(_violation(
                    path, node, self.rule_id,
                    f"parallel group {members!r} is not conflict-free: "
                    f"{'; '.join(issues)}"))
        return violations


# ----------------------------------------------------------------------
# Registration (import order = report order)
# ----------------------------------------------------------------------
SIM001 = register(_Sim001())
SIM002 = register(_Sim002())
SIM003 = register(_Sim003())
SIM004 = register(_Sim004())
SIM005 = register(_Sim005())
SIM006 = register(_Sim006())
SIM007 = register(_Sim007())
OWN001 = register(_Own001())
FLOW001 = register(_Flow001())
NF001 = register(_Nf001())
NF002 = register(_Nf002())
NF003 = register(_Nf003())
