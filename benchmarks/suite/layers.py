"""Per-layer accounting: the simulated-clock latency budget built from the
program's ``rpc.call`` span trees, and host-clock self time per package
from ``cProfile``.

Per-request wall-clock spans mean nothing in a discrete-event simulation:
every request's host work interleaves with all the others.  Host-clock
layer numbers are therefore aggregates over the measured window.
"""

from __future__ import annotations

import importlib
import pstats
from collections import Counter, defaultdict
from pathlib import Path
from typing import Dict

#: child span of ``rpc.call`` -> budget segment.  Time no named segment
#: covers is ``unattributed``.
SEGMENTS = {
    "rpc.connect": "connect",
    "rpc.serialize": "serialize",
    "rpc.send": "send",
    "rpc.mux.queue": "mux_queue",
    "rpc.wire": "wire",
    "rpc.server.receive": "server_receive",
    "rpc.server.queue": "server_queue",
    "rpc.server.handler": "handler",
    "rpc.server.respond": "respond",
    "rpc.recv": "recv",
}

#: the ``src/repro`` packages reported as layers of their own; hbase and
#: hdfs together are ``app``; every other file is ``other``.
PACKAGES = ("simcore", "rpc", "io", "mem", "net", "obs")
APP_PACKAGES = ("hbase", "hdfs")
LAYERS = PACKAGES + ("app", "builtin", "bench", "other")

#: named functions whose exact call counts are reported, as
#: ``module:qualified name``, with the workloads that must call them
#: (None: every workload).  A listed function a workload does not
#: predict must not be called there.
COUNTED = {
    "Environment.process": ("repro.simcore.environment:Environment.process", None),
    "Environment.timeout": ("repro.simcore.environment:Environment.timeout", None),
    "Process.__init__": ("repro.simcore.process:Process.__init__", None),
    "Fabric.transfer": ("repro.net.fabric:Fabric.transfer", None),
    "QueuePair.post_send": ("repro.net.verbs:QueuePair.post_send", {"pingpong", "bulk"}),
    "SimSocket.send": ("repro.net.sockets:SimSocket.send", {"incast", "ycsb"}),
}
LEDGER = "repro.mem.cost:CostLedger"


def span_budget(bench, t0: float, t1: float) -> Dict[str, object]:
    """Mean per-call time of each segment over the benchmark's calls that
    completed in ``(t0, t1]``.

    Child spans overlap (the wire span starts when the send span does), so
    each instant of a call goes to one covering child: the latest-started,
    and of those the first to end (the send, not the wire that outlasts
    it).  The segments plus ``unattributed`` then tile the call exactly
    once.
    """
    roots = []
    children = defaultdict(list)
    for span in bench.fabric.tracer.spans:
        if span.name == "rpc.call":
            if (
                span.node in bench.client_nodes
                and span.attrs.get("protocol") in bench.protocols
                and span.end_us is not None
                and t0 < span.end_us <= t1
            ):
                roots.append(span)
        elif span.parent_id is not None:
            children[(span.trace_id, span.parent_id)].append(span)

    segment_us = dict.fromkeys(SEGMENTS.values(), 0.0)
    gap_us = duration_us = 0.0
    unknown = Counter()
    io_bytes = retries = mux_spans = 0
    mux_batches = 0.0
    for root in roots:
        begin, end = root.start_us, root.end_us
        parts = []
        for child in children.get((root.trace_id, root.span_id), ()):
            segment = SEGMENTS.get(child.name)
            if segment is None:
                unknown[child.name] += 1
                continue
            if child.name == "rpc.serialize":
                io_bytes += child.attrs.get("message_bytes", 0)
            elif child.name == "rpc.recv":
                io_bytes += child.attrs.get("response_bytes", 0)
            elif child.name == "rpc.mux.queue":
                mux_spans += 1
                mux_batches += 1.0 / child.attrs["batch_size"]
            if child.end_us is None:
                continue
            lo, hi = max(child.start_us, begin), min(child.end_us, end)
            if hi > lo:
                parts.append((child.start_us, -child.end_us, child.span_id, lo, hi, segment))
        cuts = sorted({begin, end, *(p[3] for p in parts), *(p[4] for p in parts)})
        for lo, hi in zip(cuts, cuts[1:]):
            active = [p for p in parts if p[3] <= lo and p[4] >= hi]
            if active:
                segment_us[max(active)[5]] += hi - lo
            else:
                gap_us += hi - lo
        duration_us += end - begin
        retries += root.attrs.get("retries", 0)

    calls = len(roots)
    per_call = lambda total: total / calls if calls else 0.0
    return {
        "calls": calls,
        "segments_us": {name: per_call(total) for name, total in segment_us.items()},
        "unattributed_us": per_call(gap_us),
        "call_us": per_call(duration_us),
        "io_bytes_per_call": per_call(io_bytes),
        "retries": retries,
        "mux_avg_batch": mux_spans / mux_batches if mux_batches else 0.0,
        "unnamed_child_spans": dict(unknown),
    }


def layer_of(filename: str, root: Path) -> str:
    """Layer of one profiled function, from the file that defines it."""
    if filename == "~":
        return "builtin"
    path = Path(filename)
    if path.is_relative_to(root / "benchmarks" / "suite"):
        return "bench"
    src = root / "src" / "repro"
    if path.is_relative_to(src):
        package = path.relative_to(src).parts[0]
        if package in PACKAGES:
            return package
        if package in APP_PACKAGES:
            return "app"
    return "other"


def resolve(target: str):
    """``module:qualified.name`` -> the pstats key of that function.

    Raises if the function no longer exists, so a rename fails loudly
    instead of reporting zero calls.
    """
    module_name, qualname = target.split(":")
    obj = importlib.import_module(module_name)
    for part in qualname.split("."):
        obj = getattr(obj, part)
    code = obj.__code__
    return (code.co_filename, code.co_firstlineno, code.co_name)


def counted_targets() -> Dict[str, str]:
    targets = {name: target for name, (target, _) in COUNTED.items()}
    module_name, cls_name = LEDGER.split(":")
    ledger = getattr(importlib.import_module(module_name), cls_name)
    for attr in sorted(vars(ledger)):
        if attr.startswith("charge_"):
            targets[f"CostLedger.{attr}"] = f"{LEDGER}.{attr}"
    return targets


def profile_summary(profiler, root: Path) -> Dict[str, object]:
    """Self seconds per layer and exact call counts of the named functions."""
    stats = pstats.Stats(profiler).stats
    self_s = dict.fromkeys(LAYERS, 0.0)
    for (filename, _, _), (_, _, tottime, _, _) in stats.items():
        self_s[layer_of(filename, root)] += tottime
    counts = {}
    for name, target in counted_targets().items():
        entry = stats.get(resolve(target))
        counts[name] = entry[1] if entry is not None else 0
    return {"self_s": self_s, "counts": counts}
