"""Experiment CLI: ``python -m repro.experiments <name|all>``.

Runs the requested experiments at their default (scaled) parameters and
prints the same tables/series the paper reports.

Observability flags (see ``repro.obs``):

* ``--trace out.json`` — record a span for every RPC pipeline stage of
  every simulation the experiments build, and write one combined
  Chrome-trace file (load it in ``chrome://tracing`` or
  https://ui.perfetto.dev).  Timestamps are simulated microseconds.
* ``--metrics out.json`` — dump every run's metrics-registry snapshot
  (counters, queue-depth gauges, latency tallies) as JSON.
* ``--run-dir DIR`` — write the full live-observability bundle the
  dashboard renders (``python -m repro.obs.dashboard DIR``): meta.json,
  metrics.json, snapshots.jsonl time series (sampled every
  ``--snapshot-interval`` simulated microseconds), plus trace.json when
  combined with ``--trace``.

Every registry tally is a deterministic t-digest
(:class:`repro.obs.sketch.PercentileSketch`): its memory is bounded, so
the exported p50/p99 are estimates, while counts, means, minima and
maxima are exact.

Tracing is off by default and, when off, adds no simulated-clock events
— reported numbers are bit-identical with and without the flags.

``--faults plan.json`` arms the deterministic fault-injection plane
(:mod:`repro.faults`): every fabric the experiments build runs under the
given fault plan — node crashes/restarts, partitions, packet loss,
corruption, QP breaks, bootstrap failures, slow NICs/disks — all drawn
from seeded named RNG streams, so two runs of the same plan are
identical.  With the flag off, the plane is never armed and outputs are
bit-identical to builds without it.

``--sanitize`` arms the runtime sim-sanitizer
(:mod:`repro.simcore.sanitizer`): clock-monotonicity assertions,
rejection of past-scheduled events, a buffer-leak ledger on every
native pool, and stalled-process detection.  The report goes to stderr
(stdout stays bit-identical to an unsanitized run) and a dirty report
turns into exit status 1.

``--track-races`` (implies ``--sanitize``) additionally arms the
happens-before race tracker: same-timestamp accesses to opted-in shared
objects (the fair queue's WRR mux, the decay scheduler) are recorded
per event step, and accesses from two or more steps at one timestamp
with a write among them are reported as confirmed SIM009 races.
"""

from __future__ import annotations

import argparse
import sys
import time


def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser."""
    from repro.experiments import ALL_EXPERIMENTS

    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "experiments",
        nargs="+",
        choices=sorted(ALL_EXPERIMENTS) + ["all"],
        help=f"experiment ids ({', '.join(ALL_EXPERIMENTS)}) or 'all'",
    )
    parser.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="write a Chrome-trace (Perfetto) JSON of every RPC's span tree",
    )
    parser.add_argument(
        "--metrics",
        metavar="PATH",
        default=None,
        help="write JSON snapshots of every run's metrics registry",
    )
    parser.add_argument(
        "--run-dir",
        metavar="DIR",
        default=None,
        help="write the dashboard bundle (metrics + snapshot time series; "
        "add --trace for trace.json) under this directory",
    )
    parser.add_argument(
        "--snapshot-interval",
        metavar="USEC",
        type=float,
        default=5000.0,
        help="simulated microseconds between registry snapshots for "
        "--run-dir time series (default 5000)",
    )
    parser.add_argument(
        "--faults",
        metavar="PATH",
        default=None,
        help="arm the fault-injection plane with the given JSON fault plan "
        "(see repro.faults.plan for the schema)",
    )
    parser.add_argument(
        "--sanitize",
        action="store_true",
        help="arm the runtime sim-sanitizer (leak/monotonicity checks); "
        "report goes to stderr, dirty reports exit 1",
    )
    parser.add_argument(
        "--track-races",
        action="store_true",
        help="also arm the happens-before race tracker (implies "
        "--sanitize): record same-timestamp accesses to opted-in shared "
        "state (fair-queue mux, decay scheduler) and report confirmed "
        "SIM009 races as sanitizer RACE lines",
    )
    return parser


def main(argv=None) -> int:
    from repro.experiments import ALL_EXPERIMENTS
    from repro.faults import FaultPlan, FaultSession
    from repro.faults import runtime as faults_runtime
    from repro.obs import runtime as obs_runtime
    from repro.obs.runtime import ObsSession
    from repro.simcore import sanitizer as sim_sanitizer

    parser = build_parser()
    args = parser.parse_args(argv)
    names = (
        sorted(ALL_EXPERIMENTS) if "all" in args.experiments else args.experiments
    )

    # fail on unwritable output paths *before* burning minutes of runs
    for path in (args.trace, args.metrics):
        if path is not None:
            try:
                with open(path, "w", encoding="utf-8"):
                    pass
            except OSError as exc:
                parser.error(f"cannot write {path}: {exc}")

    fault_plan = None
    if args.faults is not None:
        try:
            fault_plan = FaultPlan.from_file(args.faults)
        except (OSError, ValueError) as exc:
            parser.error(f"cannot load fault plan {args.faults}: {exc}")

    if args.snapshot_interval <= 0:
        parser.error(
            f"--snapshot-interval must be > 0, got {args.snapshot_interval}"
        )
    session = None
    if args.trace or args.metrics or args.run_dir:
        session = ObsSession(
            trace=args.trace is not None,
            label="+".join(names),
            snapshot_interval_us=(
                args.snapshot_interval if args.run_dir else None
            ),
        )
        obs_runtime.install(session)
    sanitizer_session = None
    if args.sanitize or args.track_races:
        sanitizer_session = sim_sanitizer.SimSanitizer(
            label="+".join(names), track_races=args.track_races
        )
        sim_sanitizer.install(sanitizer_session)
    fault_session = None
    if fault_plan is not None:
        fault_session = FaultSession(fault_plan, label="+".join(names))
        faults_runtime.install(fault_session)
    try:
        for name in names:
            module = ALL_EXPERIMENTS[name]
            print(f"=== {name} " + "=" * max(1, 68 - len(name)))
            started = time.time()
            result = module.run()
            print(module.format_result(result))
            print(f"--- {name} finished in {time.time() - started:.1f}s wall clock\n")
    finally:
        if session is not None:
            obs_runtime.uninstall()
        if sanitizer_session is not None:
            sim_sanitizer.uninstall()
        if fault_session is not None:
            faults_runtime.uninstall()
    if session is not None:
        if args.trace:
            events = session.write_trace(args.trace)
            print(
                f"trace: {events} events ({session.span_count()} spans, "
                f"{len(session.tracers)} runs) -> {args.trace}"
            )
        if args.metrics:
            runs = session.write_metrics(args.metrics)
            print(f"metrics: {runs} run snapshots -> {args.metrics}")
        if args.run_dir:
            meta = session.write_run_dir(args.run_dir)
            print(
                f"run dir: {meta['runs']} run(s), "
                f"{meta['snapshot_rows']} snapshot rows -> {args.run_dir} "
                f"(render: python -m repro.obs.dashboard {args.run_dir})"
            )
    if fault_session is not None:
        print(
            f"faults: {fault_session.injected_total()} injected over "
            f"{len(fault_session.fabrics)} fabric(s) ({args.faults})"
        )
    if sanitizer_session is not None:
        for line in sanitizer_session.report_lines():
            print(line, file=sys.stderr)
        print(sanitizer_session.summary(), file=sys.stderr)
        if not sanitizer_session.clean:
            return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
