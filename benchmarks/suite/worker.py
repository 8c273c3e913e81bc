"""One benchmark child: build a workload, warm it up, measure it, and print
one JSON line on stdout.

Run by ``run.py``, one fresh single-threaded interpreter per workload and
pass.  Modes:

* ``setup``   -- stop after warm-up; report only the set-up time;
* ``plain``   -- untraced: the simulated window, then more calls until
  ``--seconds`` of host time have passed (the end-to-end run);
* ``spans``   -- the window under ``obs_session(trace=True)``; reports the
  latency budget of the ``rpc.call`` span trees;
* ``profile`` -- the window under ``cProfile``; reports self time per
  package and exact call counts of named functions.

The simulated run is never fed a host-clock reading: the host clock only
decides where the run is cut into chunks and when callers are told to
stop, so every simulated-clock number over the fixed window
``(t0, t0 + window_us]`` is the same in every mode and on every machine.
"""

from __future__ import annotations

import argparse
import gc
import heapq
import json
import resource
import sys
import time
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

#: host seconds one ``env.run`` chunk aims at; bounds how late a run
#: notices its deadline.
CHUNK_HOST_S = 0.05
#: calibration-kernel runs per second on the machine the README's
#: baselines were recorded on; host times are reported in its seconds.
REFERENCE_KERNEL_RATE = 580.0
#: host seconds of calibration right after set-up.
SETUP_CALIBRATION_S = 0.2


class _Item:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: int):
        self.key = key
        self.value = value


def _keys(n: int):
    yield from range(n)


def calibration_kernel(n: int = 2000) -> int:
    """Fixed pure-Python work in the simulator's idiom: a generator,
    slotted objects, a heap and a dict.  Never changes with the program."""
    heap, seen = [], {}
    for i in _keys(n):
        item = _Item(i, i * 7919 % 1009)
        heapq.heappush(heap, (item.value, i, item))
        seen[i & 255] = seen.get(i & 255, 0) + 1
        if len(heap) > 64:
            heapq.heappop(heap)
    return len(heap)


class Meter:
    """Host seconds spent simulating, and the host's speed beside them.

    Other tenants of a shared machine slow every process on it, by up to
    a third and for seconds at a time.  After every simulation chunk the
    meter runs ``calibration_kernel`` once and times it apart; both slow
    down together, so ``speed`` (kernel rate over the reference rate)
    turns host seconds into reference-machine seconds and removes most of
    the run-to-run spread.
    """

    def __init__(self):
        self.sim_s = 0.0
        self.kernel_s = 0.0
        self.kernels = 0

    def calibrate(self, profiler=None) -> None:
        if profiler is not None:
            profiler.disable()
        # A collection the kernel's allocations happened to trigger would
        # scan the simulation's heap and be charged to the kernel.
        gc.disable()
        began = time.perf_counter()
        calibration_kernel()
        self.kernel_s += time.perf_counter() - began
        gc.enable()
        self.kernels += 1
        if profiler is not None:
            profiler.enable()

    @property
    def speed(self) -> float:
        return self.kernels / self.kernel_s / REFERENCE_KERNEL_RATE


def window_stats(rec, t0: float, t1: float) -> dict:
    """Simulated-clock latency and rate over calls completing in (t0, t1]."""
    from workloads import KIND_NAMES

    by_kind = {}
    latencies = []
    for kind, start, end in zip(rec.kinds, rec.starts, rec.ends):
        if t0 < end <= t1:
            latency = end - start
            latencies.append(latency)
            by_kind.setdefault(KIND_NAMES[kind], []).append(latency)
    out = {"calls": len(latencies), "kops": len(latencies) / (t1 - t0) * 1e3}
    out.update(latency_stats(latencies))
    out["kinds"] = {
        kind: dict(calls=len(values), **latency_stats(values))
        for kind, values in sorted(by_kind.items())
    }
    return out


def latency_stats(values: list) -> dict:
    """Nearest-rank p50/p99 and the mean (exact, no interpolation)."""
    if not values:
        return {"p50_us": 0.0, "p99_us": 0.0, "mean_us": 0.0}
    ordered = sorted(values)
    rank = lambda q: ordered[max(1, -(-q * len(ordered) // 100)) - 1]
    return {
        "p50_us": rank(50),
        "p99_us": rank(99),
        "mean_us": sum(ordered) / len(ordered),
    }


def run_chunks(
    env, chunk_us: float, until_sim: float, until_host: float, meter: Meter, profiler=None
) -> float:
    """Advance the simulation in chunks until both the simulated time
    ``until_sim`` and the host time ``until_host`` are reached, calibrating
    after every chunk.

    Chunk lengths adapt so each takes about ``CHUNK_HOST_S``; they change
    where the run pauses, never what it computes.
    """
    clock = time.perf_counter
    while env.now < until_sim or clock() < until_host:
        target = env.now + chunk_us
        if env.now < until_sim:
            target = min(target, until_sim)
        began = clock()
        env.run(until=target)
        spent = clock() - began
        meter.sim_s += spent
        meter.calibrate(profiler)
        chunk_us *= min(2.0, max(0.5, CHUNK_HOST_S / max(spent, 1e-6)))
    return chunk_us


def measure(bench, mode: str, seconds: float, host_setup_s: float, warm_sim_us: float) -> dict:
    env, rec = bench.env, bench.rec
    t0 = env.now
    t1 = t0 + bench.window_us
    # First chunk: the warm-up's simulated pace, scaled to one chunk.
    chunk_us = max(1.0, warm_sim_us / max(host_setup_s, 1e-3) * CHUNK_HOST_S)
    profiler = None
    if mode == "profile":
        import cProfile

        profiler = cProfile.Profile()
    before = bench.counters()
    meter = Meter()
    began = time.perf_counter()
    if profiler is not None:
        profiler.enable()
    chunk_us = run_chunks(env, chunk_us, t1, 0.0, meter, profiler)
    if profiler is not None:
        profiler.disable()
    after = bench.counters()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result = {
        "window": window_stats(rec, t0, t1),
        "window_host_s": meter.sim_s * meter.speed,
        "rss_mb": rss_mb,
        "counters": {key: after[key] - before[key] for key in after},
    }
    if mode == "plain":
        run_chunks(env, chunk_us, t1, began + seconds, meter)
        result["host"] = {
            "calls": rec.completed, "sim_s": meter.sim_s, "speed": meter.speed,
        }
    rec.stop = True
    env.run(until=env.all_of(bench.procs))
    result["totals"] = bench.counters()
    result["problems"] = bench.conservation()
    if mode == "spans":
        import layers

        result["budget"] = layers.span_budget(bench, t0, t1)
    if profiler is not None:
        import layers

        result["profile"] = layers.profile_summary(profiler, ROOT)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "plain", "spans", "profile"), required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument(
        "--spawned-at", type=float, required=True,
        help="time.monotonic() just before the parent started this child",
    )
    args = parser.parse_args(argv)

    import repro

    src = ROOT / "src"
    if not Path(repro.__file__).resolve().is_relative_to(src):
        print(f"repro imported from {repro.__file__}, not from {src}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    from repro.obs import obs_session

    # Spans are recorded only by fabrics built inside the session.
    tracing = obs_session(trace=True) if args.mode == "spans" else nullcontext()
    with tracing:
        bench = WORKLOADS[args.workload](args.seed, scale=args.scale)
        bench.start()
        bench.env.run(until=bench.rec.warm)
        setup_s = time.monotonic() - args.spawned_at
        meter = Meter()
        while meter.kernel_s < SETUP_CALIBRATION_S:
            meter.calibrate()
        out = {
            "workload": args.workload,
            "seed": args.seed,
            "mode": args.mode,
            "setup_s": setup_s,
            "setup_speed": meter.speed,
        }
        if args.mode != "setup":
            out.update(measure(bench, args.mode, args.seconds, setup_s, bench.env.now))
            out["attempted"] = bench.rec.issued
            out["failed"] = bench.rec.failed
            out["notes"] = bench.rec.notes
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
