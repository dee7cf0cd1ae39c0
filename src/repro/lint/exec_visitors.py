"""AST visitors for the EX-series executor-safety rules (EX001-EX005).

PR 5's concurrent executors stay bit-identical to the serial loop only while
every task function dispatched through ``TaskExecutor.run_tasks`` is pure,
picklable, and side-effect-free outside the commit path.  These rules make
that contract mechanically checkable, the same way DF001-DF005 check the
paper's dataflow discipline:

- *executor task code* is any function handed as the first argument to a
  ``.run_tasks(...)`` call, plus every function-scoped or module-level helper
  it (transitively) calls;
- a dispatch routed through ``closure_executor()`` is the sanctioned escape
  hatch for closure-based stages (the Spark engine's partition functions),
  so EX002 exempts it -- EX001/EX003/EX005 still apply: a closure running on
  the thread sibling races exactly like any other concurrent task.

Everything is a deterministic function of the source text; nothing is
imported or executed.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.findings import Finding
from repro.lint.visitors import (
    FunctionNode,
    ModuleModel,
    _dotted_root,
    _free_loads,
    _iter_scope,
    _KIND_ACCUMULATOR,
    _KIND_BROADCAST,
    _KIND_FUNCTION,
    _MUTATOR_METHODS,
    _target_names,
    _terminal_name,
)

# Methods that apply a driver-visible side effect: cache puts/evictions,
# metrics records, fault counters, trace emits.  Inside executor task code
# these must go through the task scope and be committed by the driver.
_SIDE_EFFECT_METHODS = {
    "put",
    "evict",
    "evict_matching",
    "record",
    "record_job",
    "count_fault",
    "event",
}

# Dotted call prefixes that read wall-clock time.  ``time.perf_counter`` and
# ``time.monotonic`` are exempt: the engines measure task compute time with
# them by design, and the measurement feeds the simulated cost model rather
# than the task's output.
_WALL_CLOCK_CALLS = {
    "time.time",
    "time.time_ns",
    "time.ctime",
    "datetime.now",
    "datetime.utcnow",
    "datetime.today",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.date.today",
}

# Dotted prefixes whose calls draw from process-global random state.
_RNG_ROOTS = ("random.", "np.random.", "numpy.random.")

# Explicitly nondeterministic sources regardless of seeding.
_ENTROPY_CALLS = {
    "uuid.uuid1",
    "uuid.uuid4",
    "os.urandom",
    "secrets.token_bytes",
    "secrets.token_hex",
    "secrets.randbits",
}


def _dotted_text(expr: ast.expr) -> str | None:
    """``a.b.c`` -> ``"a.b.c"`` for pure Name/Attribute chains, else None."""
    parts: list[str] = []
    node = expr
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def _routed_through_closure_executor(func: ast.expr) -> bool:
    """True when the ``.run_tasks`` receiver chain calls ``closure_executor()``."""
    if not isinstance(func, ast.Attribute):
        return False
    for node in ast.walk(func.value):
        if isinstance(node, ast.Call) and _terminal_name(node.func) == "closure_executor":
            return True
    return False


def _run_tasks_dispatches(
    model: ModuleModel,
) -> Iterator[tuple[ast.Call, FunctionNode | None, bool]]:
    """Every ``X.run_tasks(fn, ...)`` call with its enclosing scope.

    Yields ``(call, enclosing_fn, via_closure_executor)``.
    """
    for call, enclosing in model._calls_with_scope():
        if not isinstance(call.func, ast.Attribute):
            continue
        if call.func.attr != "run_tasks" or not call.args:
            continue
        yield call, enclosing, _routed_through_closure_executor(call.func)


def _exec_group(model: ModuleModel, entry: FunctionNode) -> list[FunctionNode]:
    """*entry* plus every local or module-level helper it transitively calls.

    Extends :meth:`ModuleModel.worker_group` to follow module-level helper
    functions too: executor task bodies are module-level by construction
    (picklability), so their helpers are as well.
    """
    group: list[FunctionNode] = []
    seen: set[int] = set()
    queue: list[FunctionNode] = [entry]
    while queue:
        current = queue.pop()
        if id(current) in seen:
            continue
        seen.add(id(current))
        group.append(current)
        for name, _node in _free_loads(current):
            helper = model.resolve_local_def(current, name)
            if helper is None:
                helper = model.module_defs.get(name)
            if helper is not None and id(helper) not in seen:
                queue.append(helper)
    return group


def _task_entries(model: ModuleModel) -> dict[int, FunctionNode]:
    """Resolved task functions for every run_tasks dispatch in the module."""
    entries: dict[int, FunctionNode] = {}
    for call, enclosing, _via in _run_tasks_dispatches(model):
        fn = model._resolve_function(call.args[0], enclosing)
        if fn is not None:
            entries[id(fn)] = fn
    return entries


# ---------------------------------------------------------------------------
# EX001: shared driver state mutated inside executor task code


def check_ex001(model: ModuleModel) -> list[Finding]:
    findings: list[Finding] = []
    seen_members: set[int] = set()

    def report(node: ast.AST, detail: str) -> None:
        findings.append(
            Finding(
                path=model.path,
                line=node.lineno,
                col=node.col_offset,
                code="EX001",
                message=(
                    f"{detail} inside an executor task function races with "
                    "sibling tasks and the commit loop; return a pure outcome "
                    "and let the driver commit it in task-index order"
                ),
            )
        )

    for entry in _task_entries(model).values():
        for member in _exec_group(model, entry):
            if id(member) in seen_members:
                continue
            seen_members.add(id(member))
            free = {name for name, _ in _free_loads(member)}

            def is_driver_name(name: str, member: FunctionNode = member) -> bool:
                resolved = model.resolve_origin(member, name)
                return resolved is not None and resolved[0] not in (
                    _KIND_ACCUMULATOR,
                    _KIND_BROADCAST,
                    _KIND_FUNCTION,
                )

            for node in ast.walk(member):
                if isinstance(node, (ast.Global, ast.Nonlocal)):
                    report(node, f"rebinding of {', '.join(node.names)!s}")
                elif isinstance(node, (ast.Assign, ast.AugAssign)):
                    targets = (
                        node.targets if isinstance(node, ast.Assign) else [node.target]
                    )
                    for target in targets:
                        if isinstance(target, (ast.Subscript, ast.Attribute)):
                            base = _dotted_root(target)
                            if base and base in free and is_driver_name(base):
                                report(node, f"store into driver-scope object {base!r}")
                elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                    if node.func.attr not in _MUTATOR_METHODS:
                        continue
                    base = node.func.value
                    if (
                        isinstance(base, ast.Name)
                        and base.id in free
                        and is_driver_name(base.id)
                    ):
                        report(
                            node,
                            f"mutating call {base.id}.{node.func.attr}() "
                            "on driver-scope object",
                        )
    return findings


# ---------------------------------------------------------------------------
# EX002: unpicklable closure handed directly to the (potential) process pool


def check_ex002(model: ModuleModel) -> list[Finding]:
    findings: list[Finding] = []
    for call, enclosing, via_closure_executor in _run_tasks_dispatches(model):
        if via_closure_executor:
            continue  # sanctioned: the thread sibling takes closures
        arg = call.args[0]
        detail: str | None = None
        if isinstance(arg, ast.Lambda):
            detail = "lambda task function"
        elif isinstance(arg, ast.Name):
            # Search the dispatching function's own scope chain (its own
            # local defs first, then outer functions); a hit means the task
            # body is a closure, not a module-level function.
            local: FunctionNode | None = None
            scope = enclosing
            while scope is not None:
                info = model.scopes[id(scope)]
                if arg.id in info.local_defs:
                    local = info.local_defs[arg.id]
                    break
                scope = info.enclosing
            if local is not None:
                detail = f"locally-defined task function {arg.id!r}"
        if detail is not None:
            findings.append(
                Finding(
                    path=model.path,
                    line=arg.lineno,
                    col=arg.col_offset,
                    code="EX002",
                    message=(
                        f"{detail} cannot cross the process executor's pickle "
                        "pipe; define it at module level, or dispatch via "
                        "executor.closure_executor() to make the in-process "
                        "fallback explicit"
                    ),
                )
            )
    return findings


# ---------------------------------------------------------------------------
# EX003: driver-visible side effects emitted from inside a task


def check_ex003(model: ModuleModel) -> list[Finding]:
    findings: list[Finding] = []
    seen_members: set[int] = set()
    for entry in _task_entries(model).values():
        for member in _exec_group(model, entry):
            if id(member) in seen_members:
                continue
            seen_members.add(id(member))
            free = {name for name, _ in _free_loads(member)}
            for node in ast.walk(member):
                if not isinstance(node, ast.Call):
                    continue
                if (
                    isinstance(node.func, ast.Name)
                    and node.func.id == "get_tracer"
                ):
                    findings.append(
                        Finding(
                            path=model.path,
                            line=node.lineno,
                            col=node.col_offset,
                            code="EX003",
                            message=(
                                "tracer acquired inside an executor task; "
                                "buffer events in the task scope and let the "
                                "driver emit them at commit in task-index order"
                            ),
                        )
                    )
                    continue
                if not isinstance(node.func, ast.Attribute):
                    continue
                if node.func.attr not in _SIDE_EFFECT_METHODS:
                    continue
                base = _dotted_root(node.func.value)
                if base is None or base not in free:
                    continue
                resolved = model.resolve_origin(member, base)
                if resolved is None or resolved[0] in (
                    _KIND_ACCUMULATOR,
                    _KIND_FUNCTION,
                ):
                    continue
                findings.append(
                    Finding(
                        path=model.path,
                        line=node.lineno,
                        col=node.col_offset,
                        code="EX003",
                        message=(
                            f"side effect {base}.{node.func.attr}() performed "
                            "inside an executor task; stage it in the task "
                            "scope and commit from the driver in task-index "
                            "order"
                        ),
                    )
                )
    return findings


# ---------------------------------------------------------------------------
# EX004: shared-memory segment lifetime misuse


def _shm_assignments(scope: ast.AST) -> Iterator[tuple[str, ast.Call, bool]]:
    """``name = SharedMemory(...)`` bindings in one scope.

    Yields ``(bound_name, call, is_create)``.
    """
    for node in _iter_scope(scope):
        if not (isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)):
            continue
        call = node.value
        if _terminal_name(call.func) != "SharedMemory":
            continue
        is_create = any(
            kw.arg == "create"
            and isinstance(kw.value, ast.Constant)
            and kw.value.value is True
            for kw in call.keywords
        )
        for target in node.targets:
            for name in _target_names(target):
                yield name, call, is_create


# Call names that hand a segment to an owning registry for explicit
# lifecycle management -- the cross-iteration pinning idiom, where a segment
# deliberately outlives the creating scope and is reclaimed by an
# unpin/shutdown elsewhere (see repro.engine.exec.resident).
_LIFECYCLE_REGISTRAR_PREFIXES = ("pin", "unpin", "register", "track", "adopt")


def _is_registrar_call(node: ast.Call, segment_name: str) -> bool:
    """``registry.pin(segment)``-style adoption of the segment or its name."""
    terminal = _terminal_name(node.func)
    if terminal is None or not terminal.startswith(_LIFECYCLE_REGISTRAR_PREFIXES):
        return False
    candidates = list(node.args) + [kw.value for kw in node.keywords]
    return any(_dotted_root(arg) == segment_name for arg in candidates)


def _scope_has_lifecycle_pairing(scope: ast.AST, segment_name: str) -> bool:
    """A finalizer, unlink, registrar call, or registry store in *scope*."""
    for node in _iter_scope(scope):
        if isinstance(node, ast.Call):
            terminal = _terminal_name(node.func)
            if terminal == "finalize":
                return True
            if (
                terminal == "unlink"
                and isinstance(node.func, ast.Attribute)
                and _dotted_root(node.func.value) == segment_name
            ):
                return True
            if _is_registrar_call(node, segment_name):
                return True
        elif isinstance(node, ast.Assign) and isinstance(
            node.targets[0], ast.Subscript
        ):
            # registry store: self._segments[seg.name] = seg
            if isinstance(node.value, ast.Name) and node.value.id == segment_name:
                return True
    return False


def _scope_has_unregister(scope: ast.AST) -> bool:
    return any(
        isinstance(node, ast.Call) and _terminal_name(node.func) == "unregister"
        for node in _iter_scope(scope)
    )


def check_ex004(model: ModuleModel) -> list[Finding]:
    findings: list[Finding] = []
    scopes: list[ast.AST] = [model.tree]
    scopes.extend(
        info.node for info in model.scopes.values() if not isinstance(info.node, ast.Lambda)
    )
    for scope in scopes:
        for name, call, is_create in _shm_assignments(scope):
            if is_create:
                if not _scope_has_lifecycle_pairing(scope, name):
                    findings.append(
                        Finding(
                            path=model.path,
                            line=call.lineno,
                            col=call.col_offset,
                            code="EX004",
                            message=(
                                f"shm segment {name!r} created without a "
                                "registry store, weakref.finalize, or unlink "
                                "in the same scope; it outlives the fit and "
                                "leaks /dev/shm pages"
                            ),
                        )
                    )
            else:
                if not _scope_has_unregister(scope):
                    findings.append(
                        Finding(
                            path=model.path,
                            line=call.lineno,
                            col=call.col_offset,
                            code="EX004",
                            message=(
                                f"shm segment {name!r} attached without "
                                "resource_tracker.unregister; this worker's "
                                "exit would destroy a segment the creating "
                                "process still owns"
                            ),
                        )
                    )
    return findings


# ---------------------------------------------------------------------------
# EX005: nondeterminism sources in task and kernel code


_TASK_METHOD_NAMES = {
    "map",
    "map_batch",
    "reduce",
    "combine",
    "setup",
    "cleanup",
}


def _deterministic_scopes(model: ModuleModel) -> Iterator[FunctionNode]:
    """Every function whose body must be a deterministic function of its args.

    Executor task groups, DF worker/combiner closures, ``Mapper``/``Reducer``
    /``Combiner`` task methods, and ``@contract``-decorated kernels.
    """
    seen: set[int] = set()

    def emit(fn: FunctionNode) -> Iterator[FunctionNode]:
        if id(fn) not in seen:
            seen.add(id(fn))
            yield fn

    for entry in _task_entries(model).values():
        for member in _exec_group(model, entry):
            yield from emit(member)
    for registry in (model.worker_fns, model.combiner_fns):
        for entry in registry.values():
            for member in model.worker_group(entry):
                yield from emit(member)
    for node in ast.walk(model.tree):
        if isinstance(node, ast.ClassDef):
            base_names = {_terminal_name(base) or "" for base in node.bases}
            if not any(
                marker in name
                for marker in ("Mapper", "Reducer", "Combiner")
                for name in base_names
            ):
                continue
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and item.name in _TASK_METHOD_NAMES:
                    yield from emit(item)
        elif isinstance(node, ast.FunctionDef):
            for decorator in node.decorator_list:
                target = (
                    decorator.func if isinstance(decorator, ast.Call) else decorator
                )
                if _terminal_name(target) == "contract":
                    yield from emit(node)
                    break


def _rng_violation(dotted: str, call: ast.Call) -> str | None:
    """Classify an RNG call; seeded generator construction is allowed."""
    terminal = dotted.rsplit(".", 1)[-1]
    if terminal in ("Generator", "default_rng", "Random", "RandomState", "seed"):
        if call.args or call.keywords:
            return None  # explicitly seeded construction: deterministic
        return f"unseeded {dotted}() draws from OS entropy"
    return f"{dotted}() draws from process-global random state"


def check_ex005(model: ModuleModel) -> list[Finding]:
    findings: list[Finding] = []
    reported: set[tuple[int, int]] = set()

    def report(node: ast.AST, detail: str) -> None:
        key = (node.lineno, node.col_offset)
        if key in reported:
            return
        reported.add(key)
        findings.append(
            Finding(
                path=model.path,
                line=node.lineno,
                col=node.col_offset,
                code="EX005",
                message=(
                    f"{detail}; task and kernel code must be a deterministic "
                    "function of its payload (seed RNGs on the driver, ship "
                    "them in the payload, and sort before order-sensitive "
                    "reductions)"
                ),
            )
        )

    for member in _deterministic_scopes(model):
        for node in ast.walk(member):
            if isinstance(node, ast.Call):
                dotted = _dotted_text(node.func)
                if dotted is not None:
                    if dotted in _WALL_CLOCK_CALLS:
                        report(node, f"wall-clock read {dotted}()")
                        continue
                    if dotted in _ENTROPY_CALLS:
                        report(node, f"entropy source {dotted}()")
                        continue
                    if any(
                        dotted.startswith(root) for root in _RNG_ROOTS
                    ):
                        detail = _rng_violation(dotted, node)
                        if detail is not None:
                            report(node, detail)
                        continue
                if (
                    isinstance(node.func, ast.Name)
                    and node.func.id == "hash"
                    and node.args
                ):
                    report(
                        node,
                        "built-in hash() is salted per interpreter "
                        "(PYTHONHASHSEED) and differs across worker processes; "
                        "use zlib.crc32 like the engine partitioners",
                    )
            elif isinstance(node, (ast.For, ast.comprehension)):
                iterated = node.iter
                if isinstance(iterated, ast.Set) or (
                    isinstance(iterated, ast.Call)
                    and isinstance(iterated.func, ast.Name)
                    and iterated.func.id in ("set", "frozenset")
                ):
                    report(
                        node if isinstance(node, ast.For) else iterated,
                        "iteration over a set has no deterministic order "
                        "across processes",
                    )
    return findings


def run_exec_checks(model: ModuleModel) -> list[Finding]:
    """Every EX-series rule over one module model."""
    findings: list[Finding] = []
    findings.extend(check_ex001(model))
    findings.extend(check_ex002(model))
    findings.extend(check_ex003(model))
    findings.extend(check_ex004(model))
    findings.extend(check_ex005(model))
    return findings
