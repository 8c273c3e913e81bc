"""Intraprocedural dataflow facts feeding the whole-program rules.

Three fact families, all computed from single function bodies and then
combined across the :class:`~repro.lint.callgraph.CallGraph` by the
rules in :mod:`repro.lint.rules`:

* **attribute effects** (SIM009) — every ``self.<attr>`` read/write in
  a method, classified so commutative and revalidation-guarded writes
  can be exempted;
* **spawn sites** (SIM009) — every ``env.process(...)`` call and the
  generator bodies it starts, with multi-spawn detection;
* **conf caches** (SIM010) — ``self.attr = conf.get_*("key")`` in
  ``__init__``, outside any ``conf.view(...)``;
* **serialization shapes** (SIM011) — the ordered ``write_*``/``read_*``
  token sequence of an encoder or decoder body.
"""

from __future__ import annotations

import ast
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.lint import astutil
from repro.lint.callgraph import CallGraph, ClassInfo, FunctionInfo, Program


# --------------------------------------------------------------------------
# Attribute effects (SIM009)
# --------------------------------------------------------------------------

@dataclass
class AttrAccess:
    """One ``self.<attr>`` access inside a method."""

    attr: str
    kind: str  # "read" | "write" | "incr" (augassign by a literal)
    func: FunctionInfo
    node: ast.AST
    guarded: bool = False  # write under a revalidation guard — see below


def _is_literal_increment(aug: ast.AugAssign) -> bool:
    """``self.x += <literal>`` — commutes, so concurrent bodies agree."""
    return (
        isinstance(aug.op, (ast.Add, ast.Sub))
        and astutil.literal_number(aug.value) is not None
    )


def _self_attr(node: ast.AST) -> Optional[str]:
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _if_guard_attrs(if_node: ast.If) -> Set[str]:
    """Self-attrs read by the If's test expression."""
    out: Set[str] = set()
    for sub in ast.walk(if_node.test):
        attr = _self_attr(sub)
        if attr is not None:
            out.add(attr)
    return out


def _guarding_if_nodes(
    node: ast.AST, func_node: ast.AST, parents: Dict[ast.AST, ast.AST]
) -> List[ast.If]:
    """If-statements enclosing ``node`` within its function."""
    out: List[ast.If] = []
    current = node
    while current is not func_node:
        parent = parents.get(current)
        if parent is None:
            break
        if isinstance(parent, ast.If):
            out.append(parent)
        current = parent
    return out


def function_effects(func: FunctionInfo) -> List[AttrAccess]:
    """Every ``self.<attr>`` access in the method's own body.

    Writes are marked *guarded* when they sit inside an ``if`` whose
    test reads one of the attributes written in that same ``if`` — the
    revalidation-cache idiom (``if self._stamp != v: self._stamp = v;
    self._cache = ...`` or lazy init ``if self._pool is None: self._pool
    = ...``).  Any same-timestamp interleaving of such blocks converges
    to the same state, so SIM009 exempts them.  An augmented assignment
    accumulates rather than converges and is never guarded (a literal
    ``+= 1`` is exempt as a commuting ``incr`` instead).
    """
    if func.cls is None:
        return []
    parents = func.module.parents
    accesses: List[AttrAccess] = []
    incr_value_ids: Set[int] = set()
    # Pre-compute which attrs each enclosing If writes, lazily.
    if_written: Dict[int, Set[str]] = {}

    def written_in(if_node: ast.If) -> Set[str]:
        key = id(if_node)
        if key not in if_written:
            attrs: Set[str] = set()
            for sub in ast.walk(if_node):
                target_attr = _self_attr(sub)
                if target_attr is not None and isinstance(
                    sub.ctx, (ast.Store, ast.Del)
                ):
                    attrs.add(target_attr)
                elif isinstance(sub, ast.AugAssign):
                    aug_attr = _self_attr(sub.target)
                    if aug_attr is not None:
                        attrs.add(aug_attr)
            if_written[key] = attrs
        return if_written[key]

    for node in astutil.own_body_nodes(func.node):
        if isinstance(node, ast.AugAssign):
            attr = _self_attr(node.target)
            if attr is None:
                continue
            kind = "incr" if _is_literal_increment(node) else "write"
            accesses.append(AttrAccess(attr, kind, func, node))
            # The target's Load half (if any) is implicit; don't also
            # record a read for the same attribute from this node.
            incr_value_ids.add(id(node.target))
            continue
        attr = _self_attr(node)
        if attr is None or id(node) in incr_value_ids:
            continue
        if isinstance(node.ctx, (ast.Store, ast.Del)):
            guarded = _write_is_guarded(node, attr, func, parents, written_in)
            accesses.append(AttrAccess(attr, "write", func, node, guarded))
        else:
            accesses.append(AttrAccess(attr, "read", func, node))
    return accesses


def _write_is_guarded(node, attr, func, parents, written_in) -> bool:
    for if_node in _guarding_if_nodes(node, func.node, parents):
        guard_attrs = _if_guard_attrs(if_node)
        if guard_attrs & (written_in(if_node) | {attr}):
            return True
    return False


def body_effects(
    body: FunctionInfo, callgraph: CallGraph
) -> Dict[Tuple[str, str], List[AttrAccess]]:
    """Attribute effects of a process body, over *shared* state only.

    Keyed by ``(class name, attr)`` of the *accessing* method's class,
    so a server handler body that calls ``self.call_queue.take()`` —
    and through it ``scheduler.charge()`` — picks up the scheduler's
    attribute writes.

    Effects propagate only along shared call edges (``self``-rooted
    receivers and plain function calls).  Once a call goes through a
    locally-created object or a constructor, the reached ``self`` is
    private to this body and its attribute accesses cannot race —
    reaching a decoder via ``call = Invocation(); call.read_fields(inp)``
    must not charge the Invocation's writes to the reader loop.
    ``__init__`` effects are skipped for the same reason.
    """
    effects: Dict[Tuple[str, str], List[AttrAccess]] = {}
    seen: Set[Tuple[str, bool]] = {(body.qualname, True)}
    frontier: List[Tuple[FunctionInfo, bool]] = [(body, True)]
    while frontier:
        func, shared = frontier.pop(0)
        if shared and func.name != "__init__":
            for access in function_effects(func):
                key = (func.cls.name, access.attr)
                effects.setdefault(key, []).append(access)
        for callee, edge_shared in callgraph.shared_edges.get(func, ()):
            state = (callee.qualname, shared and edge_shared)
            if state not in seen:
                seen.add(state)
                frontier.append((callee, shared and edge_shared))
    return effects


# --------------------------------------------------------------------------
# Spawn sites (SIM009)
# --------------------------------------------------------------------------

@dataclass
class SpawnSite:
    """One ``env.process(target(...))`` call."""

    func: FunctionInfo  # the function containing the spawn
    node: ast.Call
    targets: List[FunctionInfo]
    in_loop: bool  # spawned inside a for/while/comprehension


@dataclass
class SpawnInfo:
    """Aggregated spawn facts for one process body."""

    body: FunctionInfo
    sites: List[SpawnSite] = field(default_factory=list)

    @property
    def multi(self) -> bool:
        """More than one concurrent instance of this body may exist."""
        return len(self.sites) > 1 or any(site.in_loop for site in self.sites)


_LOOP_NODES = (ast.For, ast.AsyncFor, ast.While, ast.ListComp, ast.SetComp,
               ast.DictComp, ast.GeneratorExp)


def _spawn_in_loop(node: ast.AST, func_node: ast.AST,
                   parents: Dict[ast.AST, ast.AST]) -> bool:
    current = node
    while current is not func_node:
        parent = parents.get(current)
        if parent is None:
            return False
        if isinstance(parent, _LOOP_NODES):
            return True
        current = parent
    return False


def spawn_sites(func: FunctionInfo, callgraph: CallGraph) -> Iterator[SpawnSite]:
    """``env.process(...)`` calls in one function, targets resolved."""
    parents = func.module.parents
    for node in astutil.own_body_nodes(func.node):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "process"
        ):
            continue
        receiver = astutil.last_segment(
            astutil.dotted_name(node.func.value)
        ).lstrip("_")
        if receiver != "env":
            continue
        targets: List[FunctionInfo] = []
        if node.args and isinstance(node.args[0], ast.Call):
            targets = [
                callee
                for callee in callgraph.resolve_call_in(func, node.args[0])
                if callee.is_generator
            ]
        yield SpawnSite(
            func=func,
            node=node,
            targets=targets,
            in_loop=_spawn_in_loop(node, func.node, parents),
        )


def spawned_bodies(
    program: Program, callgraph: CallGraph
) -> Dict[FunctionInfo, SpawnInfo]:
    """Every generator body spawned as a process anywhere in the program."""
    bodies: Dict[FunctionInfo, SpawnInfo] = {}
    for func in program.iter_functions():
        for site in spawn_sites(func, callgraph):
            for target in site.targets:
                info = bodies.get(target)
                if info is None:
                    info = bodies[target] = SpawnInfo(body=target)
                info.sites.append(site)
    return bodies


# --------------------------------------------------------------------------
# Conf caches (SIM010)
# --------------------------------------------------------------------------

def _conf_receiver(dotted: Optional[str]) -> bool:
    tail = astutil.last_segment(dotted).lstrip("_").lower()
    return "conf" in tail


@dataclass
class ConfCache:
    """``self.attr = <conf>.get_*("key")`` found in an ``__init__``."""

    cls: ClassInfo
    attr: str
    key: str
    getter: str
    node: ast.AST
    func: FunctionInfo


def _is_view_call(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "view"
        and _conf_receiver(astutil.dotted_name(node.func.value))
    )


def _conf_get_keys(expr: ast.AST) -> Iterator[Tuple[str, str]]:
    """(getter, key) for each conf getter call inside ``expr``, except
    inside a ``<conf>.view(...)``, which re-parses after every write."""
    todo = deque([expr])
    while todo:
        sub = todo.popleft()
        if _is_view_call(sub):
            continue
        todo.extend(ast.iter_child_nodes(sub))
        if not (
            isinstance(sub, ast.Call)
            and isinstance(sub.func, ast.Attribute)
            and sub.func.attr.startswith("get")
            and _conf_receiver(astutil.dotted_name(sub.func.value))
            and sub.args
            and isinstance(sub.args[0], ast.Constant)
            and isinstance(sub.args[0].value, str)
        ):
            continue
        yield sub.func.attr, sub.args[0].value


def conf_caches(cls: ClassInfo, callgraph: CallGraph) -> Iterator[ConfCache]:
    """Conf keys cached into attributes during construction.

    Looks at ``__init__`` and every method reachable from it (helper
    ``_configure`` styles included) — but only methods of the *same*
    class, so composing another component does not attribute its caches
    here.
    """
    init = cls.methods.get("__init__")
    if init is None:
        return
    for func in callgraph.reachable(init):
        if func.cls is not cls:
            continue
        for node in astutil.own_body_nodes(func.node):
            if not isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                continue
            value = node.value
            if value is None:
                continue
            targets = (
                node.targets if isinstance(node, ast.Assign)
                else [node.target]
            )
            attrs = [a for a in (_self_attr(t) for t in targets) if a]
            if not attrs:
                continue
            for getter, key in _conf_get_keys(value):
                for attr in attrs:
                    yield ConfCache(cls, attr, key, getter, node, func)


# --------------------------------------------------------------------------
# Serialization shapes (SIM011)
# --------------------------------------------------------------------------

#: Stream method -> normalized wire token, per direction.  Pairings
#: follow the DataOutput/DataInput contract of repro.io.
WRITE_OPS = {
    "write_byte": "byte",
    "write_boolean": "bool",
    "write_short": "short",
    "write_int": "int",
    "write_long": "long",
    "write_float": "float",
    "write_double": "double",
    "write_utf": "utf",
    "write_vint": "vint",
    "write_vlong": "vlong",
    "write_bytes": "bytes",
    "write_bytes_raw": "bytes",
    "write": "bytes",
}
READ_OPS = {
    "read_byte": "byte",
    "read_unsigned_byte": "byte",
    "read_boolean": "bool",
    "read_short": "short",
    "read_int": "int",
    "read_long": "long",
    "read_float": "float",
    "read_double": "double",
    "read_utf": "utf",
    "read_vint": "vint",
    "read_vlong": "vlong",
    "read_fully": "bytes",
    "read": "bytes",
}

#: Method names that recurse into a nested Writable.
_NESTED_WRITE = ("write",)
_NESTED_READ = ("read_fields", "read")


@dataclass
class ShapeToken:
    kind: str  # "op" | "nested" | "loop" | "opt" | "stop"
    detail: str = ""
    body: List["ShapeToken"] = field(default_factory=list)

    def render(self) -> str:
        if self.kind == "op":
            return self.detail
        if self.kind == "nested":
            return "<writable>"
        if self.kind == "loop":
            return f"loop[{render_shape(self.body)}]"
        if self.kind == "opt":
            return f"opt[{render_shape(self.body)}]"
        return "…"


def render_shape(tokens: List[ShapeToken]) -> str:
    return " ".join(token.render() for token in tokens)


class _ShapeExtractor:
    """Ordered wire-token sequence of one encoder/decoder body."""

    def __init__(self, stream: str, mode: str):
        self.stream = stream
        self.ops = WRITE_OPS if mode == "write" else READ_OPS
        self.nested = _NESTED_WRITE if mode == "write" else _NESTED_READ

    # -- expressions --------------------------------------------------------
    def expr(self, node: Optional[ast.AST], out: List[ShapeToken]) -> None:
        if node is None:
            return
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp,
                             ast.DictComp)):
            # range(...) in the generators is evaluated before the loop.
            inner: List[ShapeToken] = []
            for gen in node.generators:
                self.expr(gen.iter, out)
                for cond in gen.ifs:
                    self.expr(cond, inner)
            if isinstance(node, ast.DictComp):
                self.expr(node.key, inner)
                self.expr(node.value, inner)
            else:
                self.expr(node.elt, inner)
            if inner:
                out.append(ShapeToken("loop", body=inner))
            return
        if isinstance(node, ast.Call):
            # Arguments are evaluated before the call itself.
            for arg in node.args:
                self.expr(arg, out)
            for kw in node.keywords:
                self.expr(kw.value, out)
            self.expr(node.func if not isinstance(node.func, ast.Attribute)
                      else node.func.value, out)
            token = self._call_token(node)
            if token is not None:
                out.append(token)
            return
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            return
        for child in ast.iter_child_nodes(node):
            self.expr(child, out)

    def _call_token(self, call: ast.Call) -> Optional[ShapeToken]:
        if not isinstance(call.func, ast.Attribute):
            return None
        method = call.func.attr
        receiver = astutil.dotted_name(call.func.value)
        if receiver == self.stream:
            norm = self.ops.get(method)
            if norm is not None:
                return ShapeToken("op", norm)
            if method.startswith(("write_", "read_")):
                return ShapeToken("stop")  # unknown stream op: bail out
            return None
        stream_arg = any(
            isinstance(arg, ast.Name) and arg.id == self.stream
            for arg in call.args
        )
        if stream_arg and method in self.nested:
            return ShapeToken("nested")
        return None

    # -- statements ---------------------------------------------------------
    def stmts(self, body: List[ast.stmt]) -> List[ShapeToken]:
        out: List[ShapeToken] = []
        for stmt in body:
            self.stmt(stmt, out)
            if isinstance(stmt, (ast.Return, ast.Raise, ast.Break,
                                 ast.Continue)):
                break
        return out

    def stmt(self, stmt: ast.stmt, out: List[ShapeToken]) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            return
        if isinstance(stmt, ast.If):
            self.expr(stmt.test, out)
            body = self.stmts(stmt.body)
            orelse = self.stmts(stmt.orelse)
            if not body and not orelse:
                return
            if body and orelse:
                if shapes_equal(body, orelse):
                    out.extend(body)
                else:
                    out.append(ShapeToken("stop"))
                return
            out.append(ShapeToken("opt", body=body or orelse))
            return
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            self.expr(stmt.iter, out)
            body = self.stmts(stmt.body)
            if body:
                out.append(ShapeToken("loop", body=body))
            return
        if isinstance(stmt, ast.While):
            self.expr(stmt.test, out)
            body = self.stmts(stmt.body)
            if body:
                out.append(ShapeToken("loop", body=body))
            return
        if isinstance(stmt, ast.Try):
            out.extend(self.stmts(stmt.body))
            trailing = []
            for handler in stmt.handlers:
                trailing.extend(self.stmts(handler.body))
            trailing.extend(self.stmts(stmt.orelse))
            trailing.extend(self.stmts(stmt.finalbody))
            if trailing:
                out.append(ShapeToken("stop"))
            return
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                self.expr(item.context_expr, out)
            out.extend(self.stmts(stmt.body))
            return
        for _, value in ast.iter_fields(stmt):
            if isinstance(value, ast.AST):
                self.expr(value, out)
            elif isinstance(value, list):
                for item in value:
                    if isinstance(item, ast.AST):
                        self.expr(item, out)


def serialization_shape(func_node: ast.AST, mode: str) -> Optional[List[ShapeToken]]:
    """Token sequence of an encoder (mode="write") or decoder body.

    Returns None when the stream parameter cannot be identified.
    """
    args = getattr(func_node, "args", None)
    if args is None or len(args.args) < 2:
        return None
    stream = args.args[1].arg
    return _ShapeExtractor(stream, mode).stmts(func_node.body)


def shapes_equal(a: List[ShapeToken], b: List[ShapeToken]) -> bool:
    if len(a) != len(b):
        return False
    for ta, tb in zip(a, b):
        if ta.kind != tb.kind or ta.detail != tb.detail:
            return False
        if not shapes_equal(ta.body, tb.body):
            return False
    return True


def compare_shapes(
    write: List[ShapeToken], read: List[ShapeToken]
) -> Optional[str]:
    """First asymmetry between an encoder and decoder shape, if any.

    Comparison stops at a ``stop`` token on either side (opaque control
    flow); everything before it must mirror exactly.
    """
    for i in range(max(len(write), len(read))):
        wt = write[i] if i < len(write) else None
        rt = read[i] if i < len(read) else None
        if (wt is not None and wt.kind == "stop") or (
            rt is not None and rt.kind == "stop"
        ):
            return None
        if wt is None:
            return (
                f"decoder consumes {render_shape(read[i:])} beyond the "
                f"{i} field(s) the encoder emits"
            )
        if rt is None:
            return (
                f"encoder emits {render_shape(write[i:])} beyond the "
                f"{i} field(s) the decoder consumes"
            )
        if wt.kind != rt.kind or (wt.kind == "op" and wt.detail != rt.detail):
            return (
                f"field {i + 1}: encoder emits {wt.render()} but decoder "
                f"consumes {rt.render()}"
            )
        if wt.kind in ("loop", "opt"):
            inner = compare_shapes(wt.body, rt.body)
            if inner is not None:
                return f"inside {wt.kind}: {inner}"
    return None


#: (encoder, decoder) method-name pairs checked by SIM011.
SERIALIZATION_PAIRS = (("write", "read_fields"),)


@dataclass
class ShapePair:
    cls: ClassInfo
    writer: FunctionInfo
    reader: FunctionInfo
    write_shape: List[ShapeToken]
    read_shape: List[ShapeToken]


def serialization_pairs(program: Program) -> Iterator[ShapePair]:
    for module in program.modules:
        for cls in module.classes.values():
            for write_name, read_name in SERIALIZATION_PAIRS:
                writer = cls.methods.get(write_name)
                reader = cls.methods.get(read_name)
                if writer is None or reader is None:
                    continue
                write_shape = serialization_shape(writer.node, "write")
                read_shape = serialization_shape(reader.node, "read")
                if write_shape is None or read_shape is None:
                    continue
                yield ShapePair(cls, writer, reader, write_shape, read_shape)
