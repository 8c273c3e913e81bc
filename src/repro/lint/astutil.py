"""Small AST helpers shared by the lint rules.

Everything here is purely syntactic — there is no type inference.  The
rules trade a little precision for zero dependencies: names are
resolved through the module's own ``import`` statements, so
``import numpy as np; np.random.rand()`` resolves to
``numpy.random.rand`` while an unrelated local ``np`` does not.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional


def build_alias_map(tree: ast.Module) -> Dict[str, str]:
    """Map local names to the dotted names their imports bind.

    ``import time``             -> {"time": "time"}
    ``import numpy as np``      -> {"np": "numpy"}
    ``from time import time``   -> {"time": "time.time"}
    ``from datetime import datetime as dt`` -> {"dt": "datetime.datetime"}
    """
    aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for name in node.names:
                aliases[name.asname or name.name.split(".")[0]] = (
                    name.name if name.asname else name.name.split(".")[0]
                )
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for name in node.names:
                if name.name == "*":
                    continue
                aliases[name.asname or name.name] = f"{node.module}.{name.name}"
    return aliases


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def resolved_name(node: ast.AST, aliases: Dict[str, str]) -> Optional[str]:
    """Dotted name with the leading segment resolved through imports."""
    dotted = dotted_name(node)
    if dotted is None:
        return None
    head, _, rest = dotted.partition(".")
    head = aliases.get(head, head)
    return f"{head}.{rest}" if rest else head


def last_segment(name: Optional[str]) -> str:
    return name.rsplit(".", 1)[-1] if name else ""


def contains_hash_call(node: ast.AST) -> bool:
    """True if any subexpression calls the ``hash`` builtin."""
    for sub in ast.walk(node):
        if (
            isinstance(sub, ast.Call)
            and isinstance(sub.func, ast.Name)
            and sub.func.id == "hash"
        ):
            return True
    return False


def literal_number(node: ast.AST) -> Optional[float]:
    """Value of an expression built purely from numeric literals.

    Handles constants, unary +/-, and binary arithmetic whose operands
    are themselves literal-only.  Returns None for anything involving a
    name, attribute, or call.
    """
    if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)):
        if isinstance(node.value, bool):
            return None
        return float(node.value)
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        inner = literal_number(node.operand)
        if inner is None:
            return None
        return -inner if isinstance(node.op, ast.USub) else inner
    if isinstance(node, ast.BinOp):
        left = literal_number(node.left)
        right = literal_number(node.right)
        if left is None or right is None:
            return None
        try:
            if isinstance(node.op, ast.Add):
                return left + right
            if isinstance(node.op, ast.Sub):
                return left - right
            if isinstance(node.op, ast.Mult):
                return left * right
            if isinstance(node.op, ast.Div):
                return left / right
        except ZeroDivisionError:
            return None
    return None


def build_parent_map(tree: ast.AST) -> Dict[ast.AST, ast.AST]:
    parents: Dict[ast.AST, ast.AST] = {}
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            parents[child] = node
    return parents


def function_defs(tree: ast.AST) -> Iterator[ast.FunctionDef]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def own_body_nodes(func: ast.AST) -> Iterator[ast.AST]:
    """Walk a function's body, lambdas included, but not nested defs."""
    stack = list(ast.iter_child_nodes(func))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        stack.extend(ast.iter_child_nodes(node))


def is_generator_function(func: ast.AST) -> bool:
    """True if the def's *own* body contains yield / yield from."""
    return any(
        isinstance(node, (ast.Yield, ast.YieldFrom)) for node in own_body_nodes(func)
    )


def generator_function_names(tree: ast.Module) -> set:
    """Names of every generator function/method defined in the module."""
    return {
        func.name for func in function_defs(tree) if is_generator_function(func)
    }
