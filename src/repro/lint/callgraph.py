"""Project-wide symbol table and call graph (pass 1 of the engine).

The whole-program rules (SIM009-SIM011) need to reason across module
boundaries: which generator bodies are spawned as simulation processes,
which methods those bodies reach, and which classes define paired
encoder/decoder methods.  This module builds that picture from the
parsed ASTs of *every* linted file:

* :class:`ModuleInfo` / :class:`ClassInfo` / :class:`FunctionInfo` —
  the symbol table, one entry per parsed definition;
* :class:`Program` — the collection plus name indexes;
* :class:`CallGraph` — resolved call edges with a *dynamic dispatch
  fallback*: a call through an untyped receiver (``self.call_queue
  .take()``) maps onto every class that defines the method, filtered
  by a receiver-name hint so ``scheduler.charge()`` does not smear its
  effects over unrelated classes.

Everything stays purely syntactic, in the spirit of
:mod:`repro.lint.astutil`: no imports are executed, resolution favours
precision (dropping an edge) over recall (inventing one), and cycles in
the graph are handled by plain visited-set reachability.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.lint import astutil


@dataclass
class FunctionInfo:
    """One function or method definition."""

    name: str
    qualname: str  # "<module-posix>::Class.method" or "<module-posix>::func"
    module: "ModuleInfo"
    cls: Optional["ClassInfo"]
    node: ast.AST  # FunctionDef | AsyncFunctionDef
    is_generator: bool

    @property
    def display(self) -> str:
        if self.cls is not None:
            return f"{self.cls.name}.{self.name}"
        return self.name

    def __hash__(self) -> int:
        return hash(self.qualname)

    def __eq__(self, other) -> bool:
        return isinstance(other, FunctionInfo) and self.qualname == other.qualname

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<FunctionInfo {self.display}>"


@dataclass
class ClassInfo:
    """One class definition with its directly-defined methods."""

    name: str
    module: "ModuleInfo"
    node: ast.ClassDef
    base_names: List[str] = field(default_factory=list)
    methods: Dict[str, FunctionInfo] = field(default_factory=dict)

    def __hash__(self) -> int:
        return hash((self.module.posix, self.name))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<ClassInfo {self.name}>"


@dataclass
class ModuleInfo:
    """One parsed module: tree, scoping facts, and its definitions."""

    path: str  # as given on the command line (used in findings)
    posix: str  # normalized absolute posix path (used for scoping)
    tree: ast.Module
    in_src: bool
    lines: List[str]
    aliases: Dict[str, str] = field(default_factory=dict)
    parents: Dict[ast.AST, ast.AST] = field(default_factory=dict)
    classes: Dict[str, ClassInfo] = field(default_factory=dict)
    functions: Dict[str, FunctionInfo] = field(default_factory=dict)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<ModuleInfo {self.path}>"


def collect_module(source_tree: ast.Module, path: str, posix: str,
                   in_src: bool, lines: List[str]) -> ModuleInfo:
    """Build the symbol table of one parsed module."""
    module = ModuleInfo(
        path=path,
        posix=posix,
        tree=source_tree,
        in_src=in_src,
        lines=lines,
        aliases=astutil.build_alias_map(source_tree),
        parents=astutil.build_parent_map(source_tree),
    )
    for node in source_tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            info = FunctionInfo(
                name=node.name,
                qualname=f"{posix}::{node.name}",
                module=module,
                cls=None,
                node=node,
                is_generator=astutil.is_generator_function(node),
            )
            module.functions[node.name] = info
        elif isinstance(node, ast.ClassDef):
            cls = ClassInfo(
                name=node.name,
                module=module,
                node=node,
                base_names=[
                    astutil.last_segment(astutil.dotted_name(base))
                    for base in node.bases
                    if astutil.dotted_name(base) is not None
                ],
            )
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    cls.methods[item.name] = FunctionInfo(
                        name=item.name,
                        qualname=f"{posix}::{cls.name}.{item.name}",
                        module=module,
                        cls=cls,
                        node=item,
                        is_generator=astutil.is_generator_function(item),
                    )
            module.classes[node.name] = cls
    return module


class Program:
    """Every collected module plus cross-module name indexes."""

    def __init__(self, modules: List[ModuleInfo]):
        self.modules: List[ModuleInfo] = modules
        #: class name -> definitions (collisions across modules kept).
        self.classes_by_name: Dict[str, List[ClassInfo]] = {}
        #: bare method name -> every method defined under that name.
        self.methods_by_name: Dict[str, List[FunctionInfo]] = {}
        #: bare top-level function name -> definitions.
        self.functions_by_name: Dict[str, List[FunctionInfo]] = {}
        for module in modules:
            for cls in module.classes.values():
                self.classes_by_name.setdefault(cls.name, []).append(cls)
                for method in cls.methods.values():
                    self.methods_by_name.setdefault(method.name, []).append(method)
            for func in module.functions.values():
                self.functions_by_name.setdefault(func.name, []).append(func)

    def iter_functions(self) -> Iterator[FunctionInfo]:
        for module in self.modules:
            yield from module.functions.values()
            for cls in module.classes.values():
                yield from cls.methods.values()

    def resolve_method(self, cls: ClassInfo, name: str,
                       _seen: Optional[Set[int]] = None) -> Optional[FunctionInfo]:
        """Look a method up through the class and its known bases."""
        seen = _seen if _seen is not None else set()
        if id(cls) in seen:
            return None
        seen.add(id(cls))
        method = cls.methods.get(name)
        if method is not None:
            return method
        for base_name in cls.base_names:
            for base in self.classes_by_name.get(base_name, ()):
                found = self.resolve_method(base, name, seen)
                if found is not None:
                    return found
        return None

    def subclasses_of(self, cls: ClassInfo) -> List[ClassInfo]:
        """Direct and transitive subclasses known to the program."""
        out: List[ClassInfo] = []
        frontier = [cls]
        seen: Set[int] = {id(cls)}
        while frontier:
            current = frontier.pop()
            for module in self.modules:
                for candidate in module.classes.values():
                    if id(candidate) in seen:
                        continue
                    if current.name in candidate.base_names:
                        seen.add(id(candidate))
                        out.append(candidate)
                        frontier.append(candidate)
        return out


#: Dynamic-dispatch fallback: when a receiver's type is unknown, a call
#: maps onto every class defining the method *if* there are at most this
#: many candidates; beyond that, only candidates whose class name
#: contains the receiver hint are kept (precision over recall).
DISPATCH_FALLBACK_LIMIT = 2


def _receiver_hint(dotted: Optional[str]) -> str:
    """Normalized last receiver segment: ``self.call_queue`` -> ``callqueue``."""
    return astutil.last_segment(dotted).lstrip("_").replace("_", "").lower()


class CallGraph:
    """Resolved call edges: FunctionInfo -> callee FunctionInfos."""

    def __init__(self, program: Program):
        self.program = program
        self.edges: Dict[FunctionInfo, List[FunctionInfo]] = {}
        #: callee -> did any call site reach it through shared state
        #: (``self`` / ``self.attr`` receivers or plain function calls)
        #: rather than a locally-created object?  SIM009 only propagates
        #: attribute effects along shared edges: state behind a local
        #: constructor call is private to the calling process body.
        self.shared_edges: Dict[FunctionInfo, List[Tuple[FunctionInfo, bool]]] = {}
        for func in program.iter_functions():
            self.shared_edges[func] = self._resolve_calls(func)
            self.edges[func] = [callee for callee, _ in self.shared_edges[func]]

    # -- resolution ---------------------------------------------------------
    def _local_method_aliases(self, func: FunctionInfo) -> Dict[str, Tuple[str, str]]:
        """Locals bound to method references: name -> (receiver, method).

        Covers the server's hot-path idioms::

            queue_take = self.call_queue.take       # attribute reference
            queue_get = getattr(self.call_queue, "get", None)
        """
        aliases: Dict[str, Tuple[str, str]] = {}
        for node in astutil.own_body_nodes(func.node):
            if not (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
            ):
                continue
            target = node.targets[0].id
            value = node.value
            if isinstance(value, ast.Attribute):
                receiver = astutil.dotted_name(value.value)
                if receiver is not None:
                    aliases[target] = (receiver, value.attr)
            elif (
                isinstance(value, ast.Call)
                and isinstance(value.func, ast.Name)
                and value.func.id == "getattr"
                and len(value.args) >= 2
                and isinstance(value.args[1], ast.Constant)
                and isinstance(value.args[1].value, str)
            ):
                receiver = astutil.dotted_name(value.args[0])
                if receiver is not None:
                    aliases[target] = (receiver, value.args[1].value)
        return aliases

    def _local_instance_types(self, func: FunctionInfo) -> Dict[str, ClassInfo]:
        """Locals assigned a direct constructor call: name -> class."""
        types: Dict[str, ClassInfo] = {}
        for node in astutil.own_body_nodes(func.node):
            if not (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and isinstance(node.value, ast.Call)
            ):
                continue
            callee = astutil.last_segment(astutil.dotted_name(node.value.func))
            candidates = self.program.classes_by_name.get(callee, ())
            if len(candidates) == 1:
                types[node.targets[0].id] = candidates[0]
        return types

    def _dispatch_fallback(self, method_name: str,
                           receiver: Optional[str]) -> List[FunctionInfo]:
        candidates = self.program.methods_by_name.get(method_name, [])
        if len(candidates) <= DISPATCH_FALLBACK_LIMIT:
            return list(candidates)
        hint = _receiver_hint(receiver)
        if not hint:
            return []
        return [
            m for m in candidates
            if m.cls is not None and hint in m.cls.name.lower()
        ]

    def resolve_call(self, func: FunctionInfo, call: ast.Call,
                     aliases: Optional[Dict[str, Tuple[str, str]]] = None,
                     local_types: Optional[Dict[str, ClassInfo]] = None,
                     ) -> List[FunctionInfo]:
        """Candidate callees of one call expression inside ``func``."""
        program = self.program
        target = call.func
        if isinstance(target, ast.Name):
            name = target.id
            if aliases and name in aliases:
                receiver, method = aliases[name]
                return self._resolve_method_call(func, receiver, method,
                                                 local_types)
            # Same-module function or class constructor.
            local_fn = func.module.functions.get(name)
            if local_fn is not None:
                return [local_fn]
            local_cls = func.module.classes.get(name)
            if local_cls is not None:
                init = program.resolve_method(local_cls, "__init__")
                return [init] if init is not None else []
            # Imported function/class.
            imported = func.module.aliases.get(name)
            if imported is not None:
                tail = astutil.last_segment(imported)
                for fn in program.functions_by_name.get(tail, ()):
                    return [fn]
                for cls in program.classes_by_name.get(tail, ()):
                    init = program.resolve_method(cls, "__init__")
                    return [init] if init is not None else []
            return []
        if isinstance(target, ast.Attribute):
            receiver = astutil.dotted_name(target.value)
            return self._resolve_method_call(func, receiver, target.attr,
                                             local_types)
        return []

    def _resolve_method_call(self, func: FunctionInfo, receiver: Optional[str],
                             method: str,
                             local_types: Optional[Dict[str, ClassInfo]],
                             ) -> List[FunctionInfo]:
        program = self.program
        if receiver == "self" and func.cls is not None:
            resolved = program.resolve_method(func.cls, method)
            if resolved is not None:
                # Dynamic dispatch: a subclass may override the method.
                overrides = [
                    sub.methods[method]
                    for sub in program.subclasses_of(func.cls)
                    if method in sub.methods
                ]
                return [resolved, *overrides]
            return self._dispatch_fallback(method, receiver)
        if receiver is not None and local_types and receiver in local_types:
            resolved = program.resolve_method(local_types[receiver], method)
            if resolved is not None:
                return [resolved]
        if receiver is not None and "." not in receiver:
            # ClassName.method(...) — explicit class receiver.
            for cls in program.classes_by_name.get(receiver, ()):
                resolved = program.resolve_method(cls, method)
                if resolved is not None:
                    return [resolved]
        return self._dispatch_fallback(method, receiver)

    def resolve_call_in(self, func: FunctionInfo,
                        call: ast.Call) -> List[FunctionInfo]:
        """Resolve one call with ``func``'s local aliases in scope."""
        return self.resolve_call(
            func, call,
            aliases=self._local_method_aliases(func),
            local_types=self._local_instance_types(func),
        )

    def _call_receiver(self, func: FunctionInfo, call: ast.Call,
                       aliases: Dict[str, Tuple[str, str]]) -> Optional[str]:
        """Receiver dotted name of a call, through local method aliases."""
        target = call.func
        if isinstance(target, ast.Attribute):
            return astutil.dotted_name(target.value)
        if isinstance(target, ast.Name) and target.id in aliases:
            return aliases[target.id][0]
        return None

    def _resolve_calls(self, func: FunctionInfo) -> List[Tuple[FunctionInfo, bool]]:
        aliases = self._local_method_aliases(func)
        local_types = self._local_instance_types(func)
        out: List[Tuple[FunctionInfo, bool]] = []
        index: Dict[str, int] = {}
        for node in astutil.own_body_nodes(func.node):
            if not isinstance(node, ast.Call):
                continue
            if isinstance(node.func, ast.Attribute) and len(node.args) == 1 and (
                node.func.attr == "add_callback" or node.func.attr == "append"
                and getattr(node.func.value, "attr", None) == "callbacks"
            ):
                # A callback f registered on an event runs as if called here.
                node = ast.Call(func=node.args[0], args=[], keywords=[])
            receiver = self._call_receiver(func, node, aliases)
            for callee in self.resolve_call(func, node, aliases, local_types):
                if receiver is None:
                    # Plain name call: a same-module/imported function is
                    # a neutral pass-through; a constructor creates a
                    # fresh (body-private) object.
                    shared = callee.name != "__init__"
                else:
                    shared = receiver == "self" or receiver.startswith("self.")
                slot = index.get(callee.qualname)
                if slot is None:
                    index[callee.qualname] = len(out)
                    out.append((callee, shared))
                elif shared and not out[slot][1]:
                    out[slot] = (callee, True)
        return out

    # -- traversal ----------------------------------------------------------
    def reachable(self, start: FunctionInfo) -> List[FunctionInfo]:
        """Every function reachable from ``start`` (cycle-safe BFS)."""
        seen: Set[str] = {start.qualname}
        order: List[FunctionInfo] = [start]
        frontier = [start]
        while frontier:
            current = frontier.pop(0)
            for callee in self.edges.get(current, ()):
                if callee.qualname not in seen:
                    seen.add(callee.qualname)
                    order.append(callee)
                    frontier.append(callee)
        return order
