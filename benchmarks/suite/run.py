"""The repo benchmark: four seeded closed-loop RPC workloads, end-to-end
metrics on two clocks, and (with ``--trace``) a per-layer budget.

    python3 benchmarks/suite/run.py [--workload W ...] [--seed N]
                                    [--seconds S] [--trace [0|1]] [--out DIR]

Each workload runs in its own fresh single-threaded child interpreter
(``worker.py``), one after another.  Every reply is checked; the command
prints each metric as ``workload metric value unit``, writes the same
numbers to ``DIR/results.json`` (``DIR/layers.json`` with ``--trace``),
and ends with one JSON line ``{"correct", "attempted", "failed",
"metrics"}``.  It exits 1 when any check fails and 2 when the
program or ``BENCHMARK.json`` cannot be found.

``--trace`` adds two more children per workload: pass A under
``obs_session(trace=True)`` (the simulated-clock budget of the
``rpc.call`` span trees) and pass B under ``cProfile`` (host self time
per package, exact call counts).  Both must reproduce the untraced run's
simulated-clock numbers bit for bit.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

#: set-ups per untraced run (the measured child plus probes); the median
#: is reported.
SETUP_RUNS = 3
#: every child of one workload must finish within this many seconds.
DEADLINE_S = 170.0
#: the benchmark's own host cost (pass B) must stay below this share.
BENCH_SHARE_MAX = 0.02
#: relative tolerance of the budget's tiling check.
TILING_RTOL = 1e-9


class BenchError(Exception):
    """A child failed to run or produced no result."""


def load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def run_child(workload: str, mode: str, args, deadline: float) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    # The simulation never depends on it; a fixed value gives every child
    # the same set and dict layouts, and so the same host-side work.
    env["PYTHONHASHSEED"] = "0"
    spawned_at = time.monotonic()
    command = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload, "--seed", str(args.seed), "--mode", mode,
        "--seconds", repr(args.seconds), "--scale", repr(args.scale),
        "--spawned-at", repr(spawned_at),
    ]
    try:
        done = subprocess.run(
            command, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(1.0, deadline - spawned_at),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload}/{mode}: no result within the deadline") from exc
    if done.returncode != 0 or not done.stdout.strip():
        raise BenchError(
            f"{workload}/{mode}: child exited {done.returncode}\n{done.stderr.strip()}"
        )
    return json.loads(done.stdout.strip().splitlines()[-1])


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def end_to_end(plain: dict, setups: list) -> dict:
    """Host times are in reference-machine seconds (``worker.Meter``)."""
    window, host = plain["window"], plain["host"]
    kinds = window["kinds"]
    # Percentiles per call kind, averaged over the kinds: the median of a
    # 50/50 mix of two kinds with distinct latency modes falls in the gap
    # between them and jumps with the seed's exact mix.
    per_kind = lambda key: statistics.fmean(stats[key] for stats in kinds.values())
    out = {
        "host_calls_per_s": host["calls"] / (host["sim_s"] * host["speed"]),
        "setup_s": statistics.median(run["setup_s"] * run["setup_speed"] for run in setups),
        "peak_rss_mb": plain["rss_mb"],
        "sim_p50_us": per_kind("p50_us"),
        "sim_p99_us": per_kind("p99_us"),
        "sim_kops": window["kops"],
    }
    # Per-kind split and failure share: printed and saved, but not part of
    # the fixed metric set (only two workloads have two kinds, and a zero
    # failure share cannot be compared as a ratio).
    if len(kinds) > 1:
        for kind, stats in kinds.items():
            out[f"sim_p50_us.{kind}"] = stats["p50_us"]
            out[f"sim_p99_us.{kind}"] = stats["p99_us"]
    out["failed_frac"] = ratio(plain["failed"], plain["attempted"])
    out["host_calls_per_s.raw"] = host["calls"] / host["sim_s"]
    out["setup_s.raw"] = statistics.median(run["setup_s"] for run in setups)
    return out


def per_layer(workload: str, plain: dict, spans: dict, profile: dict) -> dict:
    calls = plain["window"]["calls"]
    per_call = lambda value: ratio(value, calls)
    c = plain["counters"]
    totals = plain["totals"]
    budget = spans["budget"]
    out = {}
    self_s = profile["profile"]["self_s"]
    for layer, seconds in self_s.items():
        out[f"{layer}.self_ms_per_kcall"] = per_call(seconds * 1e6)
    counts = profile["profile"]["counts"]
    out.update({
        "simcore.events_per_call": per_call(c["events"]),
        "simcore.processes_per_call": per_call(counts["Process.__init__"]),
        "simcore.timeouts_per_call": per_call(counts["Environment.timeout"]),
        "mem.ledger_charges_per_call": per_call(
            sum(n for name, n in counts.items() if name.startswith("CostLedger."))
        ),
        "mem.pool_hit_rate": ratio(c["pool_prediction_hits"], c["pool_predictions"]),
        "mem.regcache_hit_rate": ratio(
            c["regcache_hits"], c["regcache_hits"] + c["regcache_misses"]
        ),
        "io.bytes_per_call": budget["io_bytes_per_call"],
        "net.transfers_per_call": per_call(counts["Fabric.transfer"]),
        "net.eager_frac": ratio(c["eager_sends"], c["sends"]),
        "net.preposted_frac": ratio(c["preposted_sends"], c["sends"]),
        "net.predictor_hit_rate": ratio(
            c["predictor_hits"],
            c["predictor_hits"] + c["predictor_misses"] + c["predictor_fallbacks"],
        ),
        "rpc.metrics_records_per_call": per_call(c["metrics_records"]),
        "rpc.mux_avg_batch": budget["mux_avg_batch"],
        "rpc.server_merged_frac": ratio(c["merged"], c["handled"]),
    })
    for segment, us in budget["segments_us"].items():
        out[f"rpc.{segment}_us"] = us
    out["rpc.unattributed_us"] = budget["unattributed_us"]
    out.update({
        "rpc.calls_failed": totals["calls_failed"],
        "rpc.calls_rejected": totals["calls_rejected"],
        "rpc.retries": budget["retries"],
        "rpc.ib_fallbacks": totals["ib_fallbacks"],
        "trace.overhead_frac": spans["window_host_s"] / plain["window_host_s"] - 1.0,
        "profile.overhead_frac": profile["window_host_s"] / plain["window_host_s"] - 1.0,
    })
    return out


def trace_checks(workload: str, plain: dict, spans: dict, profile: dict, layer: dict) -> list:
    """Perturbation, tiling, boundary-liveness and layer-prediction checks."""
    problems = []
    for name, run in (("pass A (spans)", spans), ("pass B (profile)", profile)):
        if run["window"] != plain["window"] or run["counters"] != plain["counters"]:
            problems.append(f"{name} changed the simulated-clock results")
    budget = spans["budget"]
    if budget["calls"] != plain["window"]["calls"]:
        problems.append(
            f"{budget['calls']} rpc.call spans in the window, "
            f"{plain['window']['calls']} calls measured"
        )
    tiled = sum(budget["segments_us"].values()) + budget["unattributed_us"]
    for label, target in (
        ("mean rpc.call span", budget["call_us"]),
        ("mean measured latency", plain["window"]["mean_us"]),
    ):
        if not math.isclose(tiled, target, rel_tol=TILING_RTOL):
            problems.append(f"budget tiles {tiled!r} us, {label} is {target!r} us")
    self_s = profile["profile"]["self_s"]
    total_s = sum(self_s.values())
    shares = {layer_name: s / total_s for layer_name, s in self_s.items()}
    if not math.isclose(sum(shares.values()), 1.0, rel_tol=TILING_RTOL):
        problems.append(f"package shares sum to {sum(shares.values())!r}")
    if shares["bench"] >= BENCH_SHARE_MAX:
        problems.append(f"benchmark's own share of host time is {shares['bench']:.3f}")

    counts = profile["profile"]["counts"]
    for name, (_, users) in layers.COUNTED.items():
        expected = users is None or workload in users
        if (counts[name] > 0) != expected:
            problems.append(
                f"{name} called {counts[name]} times; "
                f"predicted {'some' if expected else 'none'}"
            )
    if not any(n for name, n in counts.items() if name.startswith("CostLedger.")):
        problems.append("no CostLedger.charge_* call resolved to a profile entry")
    c = plain["counters"]
    predictions = {
        "mux batching": (
            layer["rpc.mux_queue_us"] > 0 and layer["rpc.mux_avg_batch"] > 0,
            workload == "incast",
        ),
        "rendezvous sends": (c["sends"] > c["eager_sends"], workload == "bulk"),
        "pre-posted sends": (c["preposted_sends"] > 0, workload == "bulk"),
        "hbase/hdfs work": (layer["app.self_ms_per_kcall"] > 0, workload == "ycsb"),
    }
    for label, (seen, expected) in predictions.items():
        if seen != expected:
            problems.append(
                f"{label} {'seen' if seen else 'absent'}, predicted "
                f"{'on' if expected else 'off'} this workload"
            )
    return problems


def run_workload(workload: str, args, deadline: float) -> dict:
    plain = run_child(workload, "plain", args, deadline)
    record = {
        "attempted": plain["attempted"],
        "failed": plain["failed"],
        "problems": [f"failure: {note}" for note in plain["notes"]] + plain["problems"],
        "window_calls": plain["window"]["calls"],
        "window_host_s": plain["window_host_s"],
    }
    if not args.trace:
        setups = [plain] + [
            run_child(workload, "setup", args, deadline) for _ in range(SETUP_RUNS - 1)
        ]
        record["metrics"] = end_to_end(plain, setups)
        return record
    spans = run_child(workload, "spans", args, deadline)
    profile = run_child(workload, "profile", args, deadline)
    for run in (spans, profile):
        record["attempted"] += run["attempted"]
        record["failed"] += run["failed"]
        record["problems"] += run["problems"]
    record["metrics"] = per_layer(workload, plain, spans, profile)
    record["problems"] += trace_checks(workload, plain, spans, profile, record["metrics"])
    record["budget"] = spans["budget"]
    record["profile"] = profile["profile"]
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", help="repeatable; default: all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="host seconds measured per workload")
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="per-layer run (two more children per workload)",
    )
    parser.add_argument("--out", default=".bench_out", help="directory for the JSON files")
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="shrink the simulated window and warm-up (self-test only)",
    )
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"run.py: the program is missing: no {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    try:
        spec = load_spec()
    except (OSError, ValueError) as exc:
        print(f"run.py: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    known = [w["name"] for w in spec["workloads"]]
    names = args.workload or known
    unknown = [name for name in names if name not in known]
    if unknown:
        parser.error(f"unknown workload(s) {unknown}; choose from {known}")
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units.update({
        "sim_p50_us.read": "us", "sim_p99_us.read": "us",
        "sim_p50_us.write": "us", "sim_p99_us.write": "us", "failed_frac": "ratio",
        "host_calls_per_s.raw": "calls/s", "setup_s.raw": "s",
    })

    records = {}
    try:
        for name in names:
            records[name] = run_workload(name, args, time.monotonic() + DEADLINE_S)
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1

    correct = True
    for name, record in records.items():
        missing = [m["name"] for m in declared if m["name"] not in record["metrics"]]
        record["problems"] += [f"metric {m} not measured" for m in missing]
        for metric, value in record["metrics"].items():
            print(f"{name} {metric} {value!r} {units[metric]}")
        for problem in record["problems"]:
            print(f"{name} CHECK FAILED: {problem}", file=sys.stderr)
        correct = correct and not record["problems"] and record["failed"] == 0

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    report = {"seed": args.seed, "seconds": args.seconds, "workloads": records}
    filename = "layers.json" if args.trace else "results.json"
    with open(out_dir / filename, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)

    def chosen(record):
        return {
            m["name"]: {"value": record["metrics"][m["name"]], "unit": m["unit"]}
            for m in declared if m["name"] in record["metrics"]
        }

    if len(records) == 1:
        metrics = chosen(next(iter(records.values())))
    else:
        metrics = {
            f"{name}/{metric}": entry
            for name, record in records.items()
            for metric, entry in chosen(record).items()
        }
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in records.values()),
        "failed": sum(r["failed"] for r in records.values()),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
