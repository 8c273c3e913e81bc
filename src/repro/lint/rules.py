"""The SIM rule families.

Per-file rules are functions ``check(ctx) -> Iterator[Finding]`` over
one parsed module.  Whole-program rules (SIM009-SIM011) are functions
``check(pctx) -> Iterator[Finding]`` over a :class:`ProgramContext`
holding every collected module plus the call graph.  All rules are
syntactic (see :mod:`repro.lint.astutil`); they favour precision over
recall so the linter can run clean on the whole tree without a wall of
suppressions.

Path scoping: some rules only make sense for simulation source —
unit tests legitimately leak pool buffers (``tests/mem``) and assert
exact clock values (``tests/simcore``).  Those rules consult
``ctx.in_src``, which is true for files under a ``src/`` directory (or
forced via :func:`repro.lint.engine.lint_source`'s ``in_src``), and
the declarative :data:`RULE_SCOPES` table, which is the one place
where modules are enrolled in or exempted from path-scoped rules.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.config import Configuration
from repro.lint import astutil, dataflow
from repro.lint.callgraph import CallGraph, FunctionInfo, ModuleInfo, Program
from repro.lint.findings import Finding


@dataclass
class LintContext:
    """Everything a rule needs to know about one module."""

    path: str  # as given on the command line (used in findings)
    posix: str  # normalized absolute posix path (used for scoping)
    tree: ast.Module
    in_src: bool
    aliases: Dict[str, str] = field(default_factory=dict)
    parents: Dict[ast.AST, ast.AST] = field(default_factory=dict)

    def finding(self, node: ast.AST, rule: str, message: str) -> Finding:
        return Finding(
            path=self.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            rule=rule,
            message=message,
        )


@dataclass
class ProgramContext:
    """Everything a whole-program rule needs: symbols + call graph."""

    program: Program
    callgraph: CallGraph

    def finding(self, module: ModuleInfo, node: ast.AST, rule: str,
                message: str) -> Finding:
        return Finding(
            path=module.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            rule=rule,
            message=message,
        )


# --------------------------------------------------------------------------
# Per-rule path scoping — the one place modules are enrolled
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class RuleScope:
    """Where one rule applies.

    ``fragments``        — posix path must contain one (empty = everywhere);
    ``exempt_fragments`` — posix paths containing one are skipped;
    ``exempt_suffixes``  — posix paths ending in one are skipped;
    ``src_only``         — rule only fires for files under ``src/``.
    """

    fragments: Tuple[str, ...] = ()
    exempt_fragments: Tuple[str, ...] = ()
    exempt_suffixes: Tuple[str, ...] = ()
    src_only: bool = False


RULE_SCOPES: Dict[str, RuleScope] = {
    # The experiments harness reports how long a *run of the simulator*
    # took, and the lint CLI enforces its own wall-clock budget
    # (--max-seconds).
    "SIM001": RuleScope(
        exempt_suffixes=(
            "repro/experiments/runner.py",
            "repro/lint/cli.py",
        ),
    ),
    # repro.simcore.rng is where the raw generators live.
    "SIM002": RuleScope(exempt_suffixes=("repro/simcore/rng.py",)),
    # Seeded-schedule planes: fault draws decide *which* failures
    # happen, the decay scheduler's sweep jitter decides *when*
    # priorities shift, the HA failover controller's probe jitter
    # decides *when* takeover fires, the mux sender's flush policy
    # decides *which calls share a batch frame*, and the size
    # predictor decides *which transport every message rides* —
    # ambient randomness in any of them reshuffles every downstream
    # schedule.
    "SIM007": RuleScope(
        fragments=(
            "repro/faults/",
            "repro/rpc/scheduler.py",
            "repro/rpc/mux.py",
            "repro/ha/",
            "repro/mem/predictor.py",
        )
    ),
    # Zero-copy invariant holders: serialization + transport.
    "SIM008": RuleScope(fragments=("repro/io/", "repro/net/"), src_only=True),
    # Whole-program rule: hazards anywhere in simulation source *except*
    # the DES core — repro/simcore implements the same-timestamp
    # ordering itself (eid tie-break, event machinery, monitors), so
    # its own structures are the arbiter, not a client of it.
    "SIM009": RuleScope(src_only=True, exempt_fragments=("repro/simcore/",)),
    "SIM010": RuleScope(src_only=True),
    # Wire-format planes with Writable encoder/decoder pairs.
    "SIM011": RuleScope(
        fragments=(
            "repro/io/",
            "repro/rpc/",
            "repro/net/",
            "repro/hdfs/",
            "repro/hbase/",
            "repro/mapred/",
        ),
        src_only=True,
    ),
}


def rule_applies(code: str, posix: str, in_src: bool) -> bool:
    """Consult :data:`RULE_SCOPES`; rules without an entry apply everywhere."""
    scope = RULE_SCOPES.get(code)
    if scope is None:
        return True
    if scope.src_only and not in_src:
        return False
    if scope.exempt_suffixes and posix.endswith(scope.exempt_suffixes):
        return False
    if any(frag in posix for frag in scope.exempt_fragments):
        return False
    if scope.fragments and not any(frag in posix for frag in scope.fragments):
        return False
    return True


# --------------------------------------------------------------------------
# SIM001 — wall-clock reads
# --------------------------------------------------------------------------

#: Fully-resolved callables that read the host clock.
WALL_CLOCK_CALLS = {
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.process_time",
    "time.process_time_ns",
    "time.localtime",
    "time.gmtime",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
}

def check_sim001(ctx: LintContext) -> Iterator[Finding]:
    if not rule_applies("SIM001", ctx.posix, ctx.in_src):
        return
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        resolved = astutil.resolved_name(node.func, ctx.aliases)
        if resolved in WALL_CLOCK_CALLS:
            yield ctx.finding(
                node,
                "SIM001",
                f"wall-clock read {resolved}() — simulation code must use "
                "env.now (only the experiments harness may measure wall time)",
            )


# --------------------------------------------------------------------------
# SIM002 — nondeterministic randomness
# --------------------------------------------------------------------------

#: Module-level draw functions of the shared global `random` RNG.
GLOBAL_DRAWS = {
    "random", "randint", "randrange", "uniform", "choice", "choices",
    "shuffle", "sample", "seed", "getrandbits", "randbytes", "gauss",
    "normalvariate", "lognormvariate", "expovariate", "betavariate",
    "gammavariate", "triangular", "vonmisesvariate", "paretovariate",
    "weibullvariate", "getstate", "setstate",
}

def check_sim002(ctx: LintContext) -> Iterator[Finding]:
    if not rule_applies("SIM002", ctx.posix, ctx.in_src):
        return
    if ctx.in_src:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                if any(name.name.split(".")[0] == "random" for name in node.names):
                    yield ctx.finding(
                        node,
                        "SIM002",
                        "direct `import random` in simulation source — use "
                        "repro.simcore.rng (named_stream / Random / stable_seed)",
                    )
            elif isinstance(node, ast.ImportFrom):
                if node.level == 0 and (node.module or "").split(".")[0] == "random":
                    yield ctx.finding(
                        node,
                        "SIM002",
                        "direct `from random import ...` in simulation source — "
                        "use repro.simcore.rng (named_stream / Random / stable_seed)",
                    )
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        resolved = astutil.resolved_name(node.func, ctx.aliases) or ""
        last = astutil.last_segment(resolved)
        # hash()-derived seeds vary per process under PYTHONHASHSEED.
        if last in ("Random", "SystemRandom", "RandomState", "default_rng", "seed"):
            salted = [
                arg
                for arg in list(node.args) + [kw.value for kw in node.keywords]
                if astutil.contains_hash_call(arg)
            ]
            if salted:
                yield ctx.finding(
                    node,
                    "SIM002",
                    f"{last}() seeded from hash(): varies across interpreter "
                    "runs under PYTHONHASHSEED — derive the seed with "
                    "repro.simcore.rng.stable_seed(...)",
                )
                continue
        if resolved == "random.Random" and not node.args and not node.keywords:
            yield ctx.finding(
                node,
                "SIM002",
                "Random() without a seed draws OS entropy — seed it or use "
                "repro.simcore.rng.named_stream(...)",
            )
        elif resolved == "random.SystemRandom" or resolved.endswith(
            ".SystemRandom"
        ):
            yield ctx.finding(
                node,
                "SIM002",
                "SystemRandom is nondeterministic by design — use "
                "repro.simcore.rng streams",
            )
        elif resolved.startswith("random.") and last in GLOBAL_DRAWS:
            yield ctx.finding(
                node,
                "SIM002",
                f"module-level random.{last}() draws from the shared global "
                "RNG — use a repro.simcore.rng named stream",
            )
        elif resolved.startswith("numpy.random."):
            yield ctx.finding(
                node,
                "SIM002",
                f"{resolved}() bypasses the seeded stream registry — use "
                "RngRegistry.np_stream(name)",
            )


# --------------------------------------------------------------------------
# SIM003 — buffer-pool leaks
# --------------------------------------------------------------------------

#: Receiver names that look like a NativeBufferPool.
POOL_RECEIVER_HINTS = ("pool", "native")


def _field_of(parent: ast.AST, child: ast.AST) -> Optional[str]:
    for name, value in ast.iter_fields(parent):
        if value is child:
            return name
        if isinstance(value, list) and child in value:
            return name
    return None


def _cond_ancestors(
    node: ast.AST, func: ast.AST, parents: Dict[ast.AST, ast.AST]
) -> Tuple[frozenset, bool]:
    """(conditional ancestor ids, is-inside-a-finally-block).

    Try/With bodies are transparent (control always flows through);
    If/For/While bodies and except handlers are conditional.
    """
    conds = set()
    in_finally = False
    current = node
    while current is not func:
        parent = parents.get(current)
        if parent is None:
            break
        fieldname = _field_of(parent, current)
        if isinstance(parent, (ast.If, ast.While, ast.For)) and fieldname in (
            "body",
            "orelse",
        ):
            conds.add(id(parent))
        elif isinstance(parent, ast.ExceptHandler):
            conds.add(id(parent))
        elif isinstance(parent, ast.Try) and fieldname == "finalbody":
            in_finally = True
        current = parent
    return frozenset(conds), in_finally


def _is_pool_get(node: ast.AST) -> Optional[str]:
    """Receiver display name if ``node`` is ``<pool-ish>.get(...)``."""
    if not (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "get"
    ):
        return None
    receiver = astutil.dotted_name(node.func.value)
    tail = astutil.last_segment(receiver).lstrip("_").lower()
    if any(hint in tail for hint in POOL_RECEIVER_HINTS):
        return receiver or tail
    return None


def check_sim003(ctx: LintContext) -> Iterator[Finding]:
    if not ctx.in_src:
        return
    for func in astutil.function_defs(ctx.tree):
        body_nodes = list(astutil.own_body_nodes(func))
        acquisitions = []
        for node in body_nodes:
            if (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
            ):
                receiver = _is_pool_get(node.value)
                if receiver is not None:
                    acquisitions.append((node.targets[0].id, node, receiver))
        if not acquisitions:
            continue
        for var, assign, receiver in acquisitions:
            yield from _check_acquisition(ctx, func, body_nodes, var, assign, receiver)


def _check_acquisition(ctx, func, body_nodes, var, assign, receiver):
    puts: List[ast.Call] = []
    escaped = False
    for node in body_nodes:
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "put"
            and any(isinstance(a, ast.Name) and a.id == var for a in node.args)
        ):
            puts.append(node)
    put_arg_ids = {
        id(a) for call in puts for a in call.args
        if isinstance(a, ast.Name) and a.id == var
    }
    for node in body_nodes:
        if not (
            isinstance(node, ast.Name)
            and node.id == var
            and isinstance(node.ctx, ast.Load)
            and id(node) not in put_arg_ids
        ):
            continue
        parent = ctx.parents.get(node)
        # Ownership transfer: returned/yielded, stored into an
        # attribute/subscript/container, aliased, or passed to a call.
        if isinstance(parent, (ast.Return, ast.Yield, ast.YieldFrom)):
            escaped = True
        elif isinstance(parent, ast.Call) and node in parent.args:
            escaped = True
        elif isinstance(parent, ast.keyword):
            escaped = True
        elif isinstance(parent, (ast.List, ast.Tuple, ast.Set, ast.Dict)):
            escaped = True
        elif isinstance(parent, ast.Assign) and parent.value is node:
            escaped = True  # alias or attribute store — stop tracking
        # plain uses (var.data, var[i]) keep ownership local
    if escaped:
        return
    if not puts:
        yield ctx.finding(
            assign,
            "SIM003",
            f"{var!r} acquired from {receiver}.get() is never released via "
            "put() and never escapes this function (pool leak)",
        )
        return
    get_conds, _ = _cond_ancestors(assign, func, ctx.parents)
    put_chains = [_cond_ancestors(p, func, ctx.parents) for p in puts]
    any_in_finally = any(in_fin for _, in_fin in put_chains)
    unconditional = any(
        in_fin or conds <= get_conds for conds, in_fin in put_chains
    )
    if not unconditional:
        yield ctx.finding(
            assign,
            "SIM003",
            f"{var!r} acquired from {receiver}.get() is released only on "
            "some control-flow paths — put() it unconditionally or in a "
            "finally block",
        )
        return
    if not any_in_finally:
        first_put_line = min(p.lineno for p in puts)
        for node in body_nodes:
            if (
                isinstance(node, ast.Raise)
                and assign.lineno < node.lineno < first_put_line
            ):
                yield ctx.finding(
                    assign,
                    "SIM003",
                    f"{var!r} acquired from {receiver}.get() may leak on the "
                    f"exception path raised at line {node.lineno} — release "
                    "it in a finally block",
                )
                return


# --------------------------------------------------------------------------
# SIM004 — simulated-time hazards
# --------------------------------------------------------------------------


def check_sim004(ctx: LintContext) -> Iterator[Finding]:
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Compare) and ctx.in_src:
            if any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
                for operand in [node.left, *node.comparators]:
                    dotted = astutil.dotted_name(operand)
                    if dotted is not None and dotted.endswith(".now"):
                        yield ctx.finding(
                            node,
                            "SIM004",
                            f"float equality against {dotted} — simulated "
                            "times accumulate rounding; compare with a "
                            "tolerance or use >= / <=",
                        )
                        break
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr == "timeout" and node.args:
                value = astutil.literal_number(node.args[0])
                if value is not None and value < 0:
                    yield ctx.finding(
                        node,
                        "SIM004",
                        f"timeout({value:g}) schedules into the past — "
                        "delays must be >= 0",
                    )
            elif node.func.attr == "schedule":
                for kw in node.keywords:
                    if kw.arg == "delay":
                        value = astutil.literal_number(kw.value)
                        if value is not None and value < 0:
                            yield ctx.finding(
                                node,
                                "SIM004",
                                f"schedule(delay={value:g}) schedules into "
                                "the past — delays must be >= 0",
                            )


# --------------------------------------------------------------------------
# SIM005 — discarded processes / bare generator calls
# --------------------------------------------------------------------------


def check_sim005(ctx: LintContext) -> Iterator[Finding]:
    gen_names = astutil.generator_function_names(ctx.tree)
    for func in astutil.function_defs(ctx.tree):
        body_nodes = list(astutil.own_body_nodes(func))
        for node in body_nodes:
            # x = env.process(...)  where x is never used afterwards:
            # the author captured a handle they meant to wait on.
            if (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and node.targets[0].id != "_"
                and isinstance(node.value, ast.Call)
                and isinstance(node.value.func, ast.Attribute)
                and node.value.func.attr == "process"
            ):
                receiver = astutil.last_segment(
                    astutil.dotted_name(node.value.func.value)
                ).lstrip("_")
                if receiver != "env":
                    continue
                var = node.targets[0].id
                used = any(
                    isinstance(other, ast.Name)
                    and other.id == var
                    and isinstance(other.ctx, ast.Load)
                    for other in body_nodes
                )
                if not used:
                    yield ctx.finding(
                        node,
                        "SIM005",
                        f"process handle {var!r} is never awaited or used — "
                        "yield it, or drop the assignment if fire-and-forget "
                        "is intended",
                    )
    # Bare statement call of a local generator function: creates the
    # generator and throws it away — the classic forgotten
    # env.process(...) wrapper.
    for node in ast.walk(ctx.tree):
        if not (isinstance(node, ast.Expr) and isinstance(node.value, ast.Call)):
            continue
        call = node.value
        name = None
        if isinstance(call.func, ast.Name) and call.func.id in gen_names:
            name = call.func.id
        elif (
            isinstance(call.func, ast.Attribute)
            and call.func.attr in gen_names
            and isinstance(call.func.value, ast.Name)
            and call.func.value.id == "self"
        ):
            name = call.func.attr
        if name is not None:
            yield ctx.finding(
                node,
                "SIM005",
                f"bare call to generator function {name!r} does nothing — "
                "wrap it in env.process(...) or iterate it",
            )


# --------------------------------------------------------------------------
# SIM006 — cost-model bypass
# --------------------------------------------------------------------------


def check_sim006(ctx: LintContext) -> Iterator[Finding]:
    if not ctx.in_src:
        return
    for node in ast.walk(ctx.tree):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "charge"
            and len(node.args) >= 2
        ):
            continue
        receiver = astutil.last_segment(astutil.dotted_name(node.func.value))
        if not receiver.lstrip("_").lower().endswith("ledger"):
            continue
        value = astutil.literal_number(node.args[1])
        if value is not None and value != 0:
            yield ctx.finding(
                node,
                "SIM006",
                f"charge of literal {value:g}us bypasses the calibration "
                "model — derive costs from repro.calibration constants",
            )


# --------------------------------------------------------------------------
# SIM007 — fault-injection determinism
# --------------------------------------------------------------------------

#: Approved draw/seed entry points of repro.simcore.rng.
_RNG_ENTRY_POINTS = ("stream", "np_stream", "named_stream", "RngRegistry",
                     "stable_seed")


def _volatile_seed_source(node: ast.AST) -> Optional[str]:
    """Name of a run-varying subexpression feeding an RNG, if any."""
    for sub in ast.walk(node):
        if (
            isinstance(sub, ast.Call)
            and isinstance(sub.func, ast.Name)
            and sub.func.id in ("hash", "id")
        ):
            return f"{sub.func.id}()"
        dotted = astutil.dotted_name(sub)
        if dotted and dotted.endswith(".now"):
            return dotted
    return None


def check_sim007(ctx: LintContext) -> Iterator[Finding]:
    if not rule_applies("SIM007", ctx.posix, ctx.in_src):
        return
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        resolved = astutil.resolved_name(node.func, ctx.aliases) or ""
        last = astutil.last_segment(resolved)
        if resolved.startswith("random.") or resolved.startswith("numpy.random."):
            # Even a *seeded* private Random is wrong here: its draw
            # order is not isolated per fault rule, so adding one rule
            # reshuffles every other rule's outcomes.
            yield ctx.finding(
                node,
                "SIM007",
                f"{resolved}() in seeded-schedule code — fault injectors and "
                "RPC schedulers must draw only from repro.simcore.rng named "
                "streams (RngRegistry.stream(name))",
            )
        elif last in _RNG_ENTRY_POINTS:
            for arg in list(node.args) + [kw.value for kw in node.keywords]:
                source = _volatile_seed_source(arg)
                if source is not None:
                    yield ctx.finding(
                        node,
                        "SIM007",
                        f"{last}(...) fed from {source}: varies between runs "
                        "— injected and sweep schedules must derive from a "
                        "fixed seed via stable_seed(...)",
                    )
                    break


# --------------------------------------------------------------------------
# SIM008 — byte-copy coercion on the zero-copy path
# --------------------------------------------------------------------------

#: The serialization/transport layers hold the zero-copy invariant: a
#: message travels as bytearray/memoryview views until the transport
#: boundary.  A ``bytes(...)`` coercion inside them silently
#: materializes a full copy of the buffer.


def check_sim008(ctx: LintContext) -> Iterator[Finding]:
    if not rule_applies("SIM008", ctx.posix, ctx.in_src):
        return
    for node in ast.walk(ctx.tree):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "bytes"
            and len(node.args) == 1
            and not node.keywords
        ):
            continue
        arg = node.args[0]
        # bytes(4) preallocates, bytes(b"..") / bytes("s", ..) are
        # literal conversions — neither copies a live message buffer.
        if isinstance(arg, ast.Constant):
            continue
        yield ctx.finding(
            node,
            "SIM008",
            "bytes(...) on the zero-copy serialization path materializes "
            "a full copy — forward the bytearray/memoryview unchanged, or "
            "mark an intentional transport-boundary snapshot with "
            "`# sim-lint: disable=SIM008`",
        )


# --------------------------------------------------------------------------
# SIM009 — same-timestamp shared-state hazards (whole-program)
# --------------------------------------------------------------------------


def _access_sort_key(access: dataflow.AttrAccess):
    return (
        access.func.module.path,
        getattr(access.node, "lineno", 1),
        getattr(access.node, "col_offset", 0),
    )


def check_sim009(pctx: ProgramContext) -> Iterator[Finding]:
    """Two process bodies touch the same attribute at the same timestamp.

    A hazard is any ``(class, attr)`` written by one spawned body and
    written or read by a *different* concurrent body (a distinct body,
    or a second instance of a multi-spawned body) — exactly the state
    that makes same-timestamp event order observable and blocks the
    event-queue restructure (ROADMAP item 1).  Exempt: writes where
    every writer is a literal increment (commutes), and writes under a
    revalidation guard (every interleaving converges).
    """
    callgraph = pctx.callgraph
    bodies = dataflow.spawned_bodies(pctx.program, callgraph)
    table: Dict[Tuple[str, str], Dict[FunctionInfo, List[dataflow.AttrAccess]]] = {}
    for body in bodies:
        for key, accesses in dataflow.body_effects(body, callgraph).items():
            table.setdefault(key, {})[body] = accesses
    for cls_name, attr in sorted(table):
        per_body = table[(cls_name, attr)]
        writers: Dict[FunctionInfo, List[dataflow.AttrAccess]] = {}
        readers: Dict[FunctionInfo, List[dataflow.AttrAccess]] = {}
        for body, accesses in per_body.items():
            writes = [
                a for a in accesses
                if a.kind in ("write", "incr") and not a.guarded
            ]
            reads = [a for a in accesses if a.kind == "read"]
            if writes:
                writers[body] = writes
            if reads:
                readers[body] = reads
        if not writers:
            continue
        all_incr = all(
            a.kind == "incr" for writes in writers.values() for a in writes
        )
        conflicts: Set[FunctionInfo] = set()
        if not all_incr:
            if len(writers) >= 2:
                conflicts.update(writers)
            else:
                only = next(iter(writers))
                if bodies[only].multi:
                    conflicts.add(only)
        for reader in readers:
            for writer in writers:
                if reader is not writer or bodies[writer].multi:
                    conflicts.add(reader)
                    conflicts.add(writer)
        if not conflicts:
            continue
        anchor = min(
            (a for b in writers for a in writers[b] if b in conflicts),
            key=_access_sort_key,
        )
        module = anchor.func.module
        if not rule_applies("SIM009", module.posix, module.in_src):
            continue
        names = sorted(body.display for body in conflicts)
        multi_note = (
            " (multiple concurrent instances)"
            if len(names) == 1 else ""
        )
        yield pctx.finding(
            module,
            anchor.node,
            "SIM009",
            f"same-timestamp shared-state hazard: {cls_name}.{attr} is "
            f"shared by process bod{'y' if len(names) == 1 else 'ies'} "
            f"{', '.join(names)}{multi_note} with a write and no event "
            "ordering in between — reordering same-timestamp events would "
            "change results (blocks the event-queue restructure)",
        )


# --------------------------------------------------------------------------
# SIM010 — hot-reload staleness (whole-program)
# --------------------------------------------------------------------------

def check_sim010(pctx: ProgramContext) -> Iterator[Finding]:
    """A reloadable conf key is cached at init outside a view.

    ``Configuration.RELOADABLE`` lists the keys the runtime re-reads
    mid-run, each through ``conf.view(...)``.  A class that reads one
    into an attribute during ``__init__`` any other way keeps serving
    the stale value and silently ignores a ``ReloadPlan`` update.
    """
    for module in pctx.program.modules:
        if not rule_applies("SIM010", module.posix, module.in_src):
            continue
        for cls in module.classes.values():
            for cache in dataflow.conf_caches(cls, pctx.callgraph):
                if cache.key not in Configuration.RELOADABLE:
                    continue
                yield pctx.finding(
                    module,
                    cache.node,
                    "SIM010",
                    f"hot-reload staleness: {cls.name} caches reloadable "
                    f"conf key '{cache.key}' into self.{cache.attr} at init "
                    "outside a conf.view(...) — runtime ReloadPlan updates "
                    "are silently ignored",
                )


# --------------------------------------------------------------------------
# SIM011 — serialization symmetry (whole-program)
# --------------------------------------------------------------------------


def check_sim011(pctx: ProgramContext) -> Iterator[Finding]:
    """Encoder/decoder pairs whose wire sequences don't mirror.

    For every class defining both ``write(self, out)`` and
    ``read_fields(self, inp)``, the ordered ``write_*`` token sequence
    must mirror the ``read_*`` sequence (loops with loops, optional
    blocks with optional blocks).  Opaque control flow stops the
    comparison rather than guessing.
    """
    for pair in dataflow.serialization_pairs(pctx.program):
        module = pair.cls.module
        if not rule_applies("SIM011", module.posix, module.in_src):
            continue
        mismatch = dataflow.compare_shapes(pair.write_shape, pair.read_shape)
        if mismatch is not None:
            yield pctx.finding(
                module,
                pair.reader.node,
                "SIM011",
                f"serialization asymmetry in {pair.cls.name}: {mismatch} — "
                f"write() emits [{dataflow.render_shape(pair.write_shape)}] "
                "but read_fields() consumes "
                f"[{dataflow.render_shape(pair.read_shape)}]",
            )


#: rule code -> per-file checker, in report order.
CHECKERS = {
    "SIM001": check_sim001,
    "SIM002": check_sim002,
    "SIM003": check_sim003,
    "SIM004": check_sim004,
    "SIM005": check_sim005,
    "SIM006": check_sim006,
    "SIM007": check_sim007,
    "SIM008": check_sim008,
}

#: rule code -> whole-program checker (runs once per lint invocation
#: over the collected Program, not once per file).
PROGRAM_CHECKERS = {
    "SIM009": check_sim009,
    "SIM010": check_sim010,
    "SIM011": check_sim011,
}
