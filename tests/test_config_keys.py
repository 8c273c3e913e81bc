"""Every configuration key the program or an example sets or reads is
one ``Configuration.DEFAULTS`` knows.

``Configuration`` accepts unknown keys silently (Hadoop configs are
open), so a key that a refactor removed or a typo misspells is inert:
the run goes on with the default.  This scan finds every key written
as a string in ``src/`` and ``examples/``:

* the dicts handed to ``Configuration(...)``, a configuration's
  ``.update(...)``, a ``conf_overrides=`` argument or a reload plan's
  ``"set"``, including module-level dicts reached by name, by import,
  through ``dict(...)``, ``**`` unpacking or a subscript of a dict of
  dicts;
* every dotted string handed to a call on a receiver named like a
  configuration (``conf.get_int("key")``, ``self.conf.set("key", v)``)
  or handed along with one (``retry_policy(conf, "key")``);
* ``conf["key"]`` subscripts on such a receiver.
"""

import ast
import re
from pathlib import Path

from repro.config import Configuration
from repro.lint.astutil import dotted_name
from repro.lint.dataflow import _conf_receiver

ROOT = Path(__file__).resolve().parents[1]

#: what a dotted configuration key looks like (``dfs.replication.min``).
KEY = re.compile(r"[a-z][a-z0-9_-]*(\.[a-zA-Z0-9_-]+)+")


def _is_conf(node) -> bool:
    """A receiver named like a configuration (``conf``, ``self.conf``),
    as lint rule SIM010 recognizes one."""
    return _conf_receiver(dotted_name(node))


def _module_name(path: Path) -> str:
    parts = path.relative_to(ROOT).with_suffix("").parts
    if parts[0] == "src":
        parts = parts[1:]
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


class KeyScan:
    """Configuration keys found in a set of parsed modules."""

    def __init__(self, sources):
        #: module -> (module-level dict assignments, imported names)
        self.modules = {}
        for module, source in sources.items():
            tree = ast.parse(source)
            dicts, imports = {}, {}
            for stmt in tree.body:
                if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                    targets = (
                        stmt.targets if isinstance(stmt, ast.Assign)
                        else [stmt.target]
                    )
                    for target in targets:
                        if isinstance(target, ast.Name) and stmt.value is not None:
                            dicts[target.id] = stmt.value
                elif isinstance(stmt, ast.ImportFrom) and stmt.module:
                    for alias in stmt.names:
                        imports[alias.asname or alias.name] = (
                            stmt.module, alias.name,
                        )
            self.modules[module] = (tree, dicts, imports)
        #: (module, line, key) of every key found.
        self.found = []
        for module, (tree, _, _) in self.modules.items():
            for node in ast.walk(tree):
                self._visit(module, node)

    def _lookup(self, module, name, seen):
        if (module, name) in seen or module not in self.modules:
            return None, None
        seen.add((module, name))
        _, dicts, imports = self.modules[module]
        if name in dicts:
            return module, dicts[name]
        if name in imports:
            return self._lookup(*imports[name], seen)
        return None, None

    def _dict_keys(self, module, node, seen=None):
        """(module, line, key) of every string key a dict expression
        holds, where the key is written."""
        seen = set() if seen is None else seen
        if isinstance(node, ast.Dict):
            for key, value in zip(node.keys, node.values):
                if key is None:  # ** unpacking
                    yield from self._dict_keys(module, value, seen)
                elif isinstance(key, ast.Constant) and isinstance(key.value, str):
                    yield module, key.lineno, key.value
        elif isinstance(node, ast.Name):
            where, value = self._lookup(module, node.id, seen)
            if value is not None:
                yield from self._dict_keys(where, value, seen)
        elif (
            isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "dict" and node.args
        ):
            yield from self._dict_keys(module, node.args[0], seen)
        elif isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name):
            # one entry of a dict of dicts (``VARIANTS["fair"]``): all of them
            where, value = self._lookup(module, node.value.id, seen)
            if isinstance(value, ast.Dict):
                for entry in value.values:
                    yield from self._dict_keys(where, entry, set(seen))

    def _visit(self, module, node):
        found = self.found
        if isinstance(node, ast.Subscript) and _is_conf(node.value):
            key = node.slice
            if isinstance(key, ast.Constant) and isinstance(key.value, str):
                found.append((module, node.lineno, key.value))
        if not isinstance(node, ast.Call):
            return
        func = node.func
        receiver = getattr(func, "value", None)
        name = getattr(func, "attr", getattr(func, "id", ""))
        if node.args and (
            name == "Configuration" or name == "update" and _is_conf(receiver)
        ):
            found.extend(self._dict_keys(module, node.args[0]))
        if _is_conf(receiver) or any(_is_conf(arg) for arg in node.args):
            # conf.get_int("key"), conf.set("key", value), helper(conf, "key")
            found.extend(
                (module, node.lineno, arg.value) for arg in node.args
                if isinstance(arg, ast.Constant) and isinstance(arg.value, str)
                and KEY.fullmatch(arg.value)
            )
        for keyword in node.keywords:
            if keyword.arg == "conf_overrides":
                found.extend(self._dict_keys(module, keyword.value))
        if name == "from_dict":  # a reload plan: {"updates": [{"set": {...}}]}
            for sub in ast.walk(node):
                if isinstance(sub, ast.Dict):
                    for key, value in zip(sub.keys, sub.values):
                        if isinstance(key, ast.Constant) and key.value == "set":
                            found.extend(self._dict_keys(module, value))

    def unknown(self):
        return sorted({
            f"{module}:{line}: {key}" for module, line, key in self.found
            if key not in Configuration.DEFAULTS
        })


def _scan_repo() -> KeyScan:
    paths = sorted((ROOT / "src").rglob("*.py")) + sorted(
        (ROOT / "examples").rglob("*.py")
    )
    return KeyScan({
        _module_name(path): path.read_text(encoding="utf-8") for path in paths
    })


def test_every_key_src_and_examples_use_is_a_default():
    scan = _scan_repo()
    assert scan.unknown() == []
    # The scan sees the keys it is meant to: a literal, a getter in a
    # conf view, a helper's key, an imported module-level dict and a
    # reload plan's set.
    keys = {key for _, _, key in scan.found}
    assert {
        "rpc.ib.enabled",  # Configuration({...}) in examples/quickstart.py
        "ipc.client.failover.max.attempts",  # a getter inside a view
        "ipc.client.failover.retry.policy",  # retry_policy(conf, key)
        "ipc.callqueue.impl",  # qos VARIANTS, imported by operator_story
        "ipc.callqueue.fair.weights",  # operator_story's reload plan
        "dfs.replication.min",  # conf_overrides=
    } <= keys


def test_scanner_flags_a_removed_key():
    """bulk's buffer-pool keys went with the buddy pool; setting one
    anywhere the scan looks is reported."""
    scan = KeyScan({
        "bench.pool": (
            "POOL_CONF = {'rpc.ib.pool.impl': 'buddy'}\n"
            "def make(conf):\n"
            "    conf.set('rpc.ib.pool.slab.bytes', 4096)\n"
        ),
        "bench.run": (
            "from bench.pool import POOL_CONF\n"
            "conf = Configuration({**POOL_CONF, 'rpc.ib.enabled': True})\n"
        ),
    })
    assert scan.unknown() == [
        "bench.pool:1: rpc.ib.pool.impl",
        "bench.pool:3: rpc.ib.pool.slab.bytes",
    ]
