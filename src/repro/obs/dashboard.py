"""Run dashboard: render an observability bundle to terminal + HTML.

``python -m repro.obs.dashboard <run-dir>`` consumes the bundle written
by ``--run-dir`` (:meth:`repro.obs.runtime.ObsSession.write_run_dir`)
and produces

* a **terminal summary** — per-run headline counters, latency
  percentiles, and queue pressure at end of run; and
* a **single self-contained HTML file** (default
  ``<run-dir>/dashboard.html``) — sparkline time series from
  ``snapshots.jsonl``: per-priority queue depths, fallback/backoff/
  overload counters, client latency p99, calls handled — plus stat
  tiles and a full data table.  No external assets, no scripts; it
  renders offline and diffs deterministically run-to-run.

The renderer is pure post-processing: it reads files, never the clock
(simulated or wall), so the sim-lint wall-clock rule (SIM001) applies
to it exactly as to simulation code and output bytes depend only on
the bundle contents.

Charts follow the repo dataviz conventions: categorical hues assigned
in fixed slot order (never cycled — charts with more series than slots
fold the rest into the data table and say so), one value axis per
chart, a legend whenever a chart has two or more series, recessive
hairline gridlines, 2px line marks, and a table view of the final
snapshot for accessibility.  Colors come from the validated reference
palette (light + dark pairs).
"""

from __future__ import annotations

import argparse
import html
import json
import os
import sys
from typing import Dict, List, Optional, Sequence, Tuple

from repro.obs.snapshot import read_snapshots

#: Fixed categorical slots (light, dark) — assigned in order, never cycled.
CATEGORICAL = (
    ("#2a78d6", "#3987e5"),  # slot 1: blue
    ("#eb6834", "#d95926"),  # slot 2: orange
    ("#1baf7a", "#199e70"),  # slot 3: green
    ("#eda100", "#c98500"),  # slot 4: yellow
)
MAX_SERIES = len(CATEGORICAL)

#: The headline charts, in render order: (chart id, title, unit,
#: instrument name, how to label each matching key's series).
HEADLINE_CHARTS = (
    ("depth", "Per-priority queue depth", "calls",
     "rpc.server.fair_queue_depth", "priority"),
    ("resilience", "Fallbacks / backoff / overload", "events",
     ("rpc.ib.fallbacks", "rpc.server.calls_backoff",
      "rpc.server.calls_rejected_overload", "rpc.server.qos_reconfigured"),
     "name"),
    ("latency", "Client latency p99", "us",
     "rpc.client.latency_us", "key"),
    ("handled", "Calls handled", "calls",
     "rpc.server.calls_handled", "key"),
)

#: Stat tiles: (label, instrument name) summed across label sets.
STAT_TILES = (
    ("calls handled", "rpc.server.calls_handled"),
    ("calls errored", "rpc.server.calls_errored"),
    ("backoff rejections", "rpc.server.calls_backoff"),
    ("overload rejections", "rpc.server.calls_rejected_overload"),
    ("IB fallbacks", "rpc.ib.fallbacks"),
    ("QoS reconfigs", "rpc.server.qos_reconfigured"),
)


def load_run_dir(run_dir: str) -> dict:
    """Read a ``--run-dir`` bundle -> {meta, metrics, header, rows}."""
    meta_path = os.path.join(run_dir, "meta.json")
    if not os.path.isfile(meta_path):
        raise FileNotFoundError(
            f"{run_dir} is not a run bundle (no meta.json; create one with "
            f"python -m repro.experiments <name> --run-dir {run_dir})"
        )
    with open(meta_path, "r", encoding="utf-8") as fh:
        meta = json.load(fh)
    with open(os.path.join(run_dir, "metrics.json"), "r", encoding="utf-8") as fh:
        metrics = json.load(fh)
    snap_path = os.path.join(run_dir, "snapshots.jsonl")
    header: dict = {}
    rows: List[dict] = []
    if os.path.isfile(snap_path):
        header, rows = read_snapshots(snap_path)
    return {"meta": meta, "metrics": metrics, "header": header, "rows": rows}


# ----------------------------------------------------------- series shaping
def _base_name(key: str) -> str:
    return key.split("{", 1)[0]


def _label_of(key: str, label: str) -> Optional[str]:
    """The ``label=value`` value inside a rendered ``name{...}`` key."""
    if "{" not in key:
        return None
    body = key.split("{", 1)[1].rstrip("}")
    for part in body.split(","):
        k, _, v = part.partition("=")
        if k == label:
            return v
    return None


def _entry_value(entry: dict) -> Optional[float]:
    """One plottable number per instrument: level, total, or p99."""
    kind = entry.get("type")
    if kind in ("counter", "gauge"):
        return entry.get("value")
    if kind == "tally":
        return entry.get("p99")
    if kind == "histogram":
        return entry.get("total")
    return None


def run_series(rows: Sequence[dict], run: str) -> Dict[str, List[Tuple[float, float]]]:
    """Per-instrument time series for one run: key -> [(t_us, value)]."""
    out: Dict[str, List[Tuple[float, float]]] = {}
    for row in rows:
        if row.get("run") != run:
            continue
        t = row["t_us"]
        for key, entry in row["metrics"].items():
            value = _entry_value(entry)
            if value is None:
                continue
            out.setdefault(key, []).append((t, value))
    return out


def chart_series(
    series: Dict[str, List[Tuple[float, float]]],
    names,
    label_by: str,
) -> Tuple[List[Tuple[str, List[Tuple[float, float]]]], int]:
    """Pick and label the series for one headline chart.

    Returns (kept, dropped): at most :data:`MAX_SERIES` (label, points)
    pairs in deterministic order, plus how many matching series were
    folded out (reported in the chart subtitle — never silently).
    """
    wanted = (names,) if isinstance(names, str) else tuple(names)
    matched: List[Tuple[str, List[Tuple[float, float]]]] = []
    for key in sorted(series):
        base = _base_name(key)
        if base not in wanted:
            continue
        if label_by == "priority":
            prio = _label_of(key, "priority")
            label = f"priority {prio}" if prio is not None else key
        elif label_by == "name":
            label = base.rsplit(".", 1)[1]
        else:
            label = key
        matched.append((label, series[key]))
    if label_by == "name":
        # Merge same-named instruments across label sets (e.g. two
        # servers' backoff counters) so the slot identity is the metric.
        merged: Dict[str, Dict[float, float]] = {}
        for label, points in matched:
            acc = merged.setdefault(label, {})
            for t, v in points:
                acc[t] = acc.get(t, 0.0) + v
        matched = [
            (label, sorted(acc.items())) for label, acc in sorted(merged.items())
        ]
    dropped = max(0, len(matched) - MAX_SERIES)
    if dropped:
        # Keep the series with the largest final values; slot order
        # stays deterministic (sorted by label after the cut).
        matched.sort(key=lambda item: -(item[1][-1][1] if item[1] else 0.0))
        matched = sorted(matched[:MAX_SERIES], key=lambda item: item[0])
    return matched, dropped


def _sum_final(snapshot: dict, name: str) -> Optional[float]:
    total, seen = 0.0, False
    for key, entry in snapshot.items():
        if _base_name(key) == name:
            value = _entry_value(entry)
            if value is not None:
                total, seen = total + value, True
    return total if seen else None


def _fmt(value: Optional[float]) -> str:
    if value is None:
        return "-"
    if value != int(value):
        return f"{value:,.1f}"
    return f"{int(value):,d}"


def _fmt_time_us(t_us: float) -> str:
    if t_us >= 1e6:
        return f"{t_us / 1e6:.2f}s"
    return f"{t_us / 1e3:.0f}ms"


# -------------------------------------------------------- terminal summary
def render_text(bundle: dict, run_dir: str) -> str:
    meta = bundle["meta"]
    lines = [
        f"run bundle: {meta.get('label') or '(unlabeled)'} ({run_dir})",
        f"  runs {meta.get('runs', 0)}, snapshot rows {meta.get('snapshot_rows', 0)}"
        f" @ {_fmt(meta.get('snapshot_interval_us'))} us, "
        f"trace {'on' if meta.get('trace') else 'off'}",
    ]
    for i, snapshot in enumerate(bundle["metrics"].get("runs", []), start=1):
        run_rows = [r for r in bundle["rows"] if r.get("run") == f"run{i}"]
        span = _fmt_time_us(run_rows[-1]["t_us"]) if run_rows else "-"
        lines.append(
            f"run{i}: {len(snapshot)} instruments, "
            f"{len(run_rows)} samples over {span}"
        )
        for label, name in STAT_TILES:
            total = _sum_final(snapshot, name)
            if total is not None:
                lines.append(f"    {label:<22s} {_fmt(total):>12s}")
        for key in sorted(snapshot):
            entry = snapshot[key]
            if entry.get("type") == "tally" and _base_name(key) in (
                "rpc.client.latency_us", "rpc.server.queue_wait_us",
            ):
                lines.append(
                    f"    {key:<40s} p50 {_fmt(entry.get('p50')):>10s}  "
                    f"p99 {_fmt(entry.get('p99')):>10s}  "
                    f"n {_fmt(entry.get('count'))}"
                )
    return "\n".join(lines)


# ------------------------------------------------------------- HTML output
_CSS = """
.viz-root {
  --viz-page: #f9f9f7; --viz-surface: #fcfcfb;
  --viz-text: #0b0b0b; --viz-text-2: #52514e; --viz-text-3: #898781;
  --viz-grid: #e1e0d9; --viz-baseline: #c3c2b7;
  --viz-border: rgba(11, 11, 11, 0.10);
  --viz-cat-1: #2a78d6; --viz-cat-2: #eb6834;
  --viz-cat-3: #1baf7a; --viz-cat-4: #eda100;
}
@media (prefers-color-scheme: dark) {
  :root:where(:not([data-theme="light"])) .viz-root {
    --viz-page: #0d0d0d; --viz-surface: #1a1a19;
    --viz-text: #ffffff; --viz-text-2: #c3c2b7; --viz-text-3: #898781;
    --viz-grid: #2c2c2a; --viz-baseline: #383835;
    --viz-border: rgba(255, 255, 255, 0.10);
    --viz-cat-1: #3987e5; --viz-cat-2: #d95926;
    --viz-cat-3: #199e70; --viz-cat-4: #c98500;
  }
}
:root[data-theme="dark"] .viz-root {
  --viz-page: #0d0d0d; --viz-surface: #1a1a19;
  --viz-text: #ffffff; --viz-text-2: #c3c2b7; --viz-text-3: #898781;
  --viz-grid: #2c2c2a; --viz-baseline: #383835;
  --viz-border: rgba(255, 255, 255, 0.10);
  --viz-cat-1: #3987e5; --viz-cat-2: #d95926;
  --viz-cat-3: #199e70; --viz-cat-4: #c98500;
}
.viz-root {
  font-family: system-ui, -apple-system, "Segoe UI", sans-serif;
  background: var(--viz-page); color: var(--viz-text);
  margin: 0; padding: 24px; line-height: 1.45;
}
.viz-root h1 { font-size: 20px; margin: 0 0 4px; font-weight: 600; }
.viz-root h2 { font-size: 15px; margin: 24px 0 8px; font-weight: 600; }
.viz-root .sub { color: var(--viz-text-2); font-size: 13px; margin: 0 0 16px; }
.viz-root .tiles { display: flex; flex-wrap: wrap; gap: 12px; margin: 16px 0; }
.viz-root .tile {
  background: var(--viz-surface); border: 1px solid var(--viz-border);
  border-radius: 8px; padding: 10px 14px; min-width: 130px;
}
.viz-root .tile .v {
  font-size: 22px; font-weight: 600; font-variant-numeric: tabular-nums;
}
.viz-root .tile .k { font-size: 12px; color: var(--viz-text-2); }
.viz-root .chart {
  background: var(--viz-surface); border: 1px solid var(--viz-border);
  border-radius: 8px; padding: 12px 14px; margin: 12px 0; max-width: 720px;
}
.viz-root .chart .title { font-size: 13px; font-weight: 600; }
.viz-root .chart .note { font-size: 12px; color: var(--viz-text-3); }
.viz-root .legend {
  display: flex; flex-wrap: wrap; gap: 4px 14px;
  font-size: 12px; color: var(--viz-text-2); margin: 4px 0;
}
.viz-root .legend .sw {
  display: inline-block; width: 10px; height: 10px;
  border-radius: 2px; margin-right: 5px; vertical-align: -1px;
}
.viz-root svg { display: block; width: 100%; height: auto; }
.viz-root svg text {
  font-family: inherit; font-size: 10px; fill: var(--viz-text-3);
  font-variant-numeric: tabular-nums;
}
.viz-root table {
  border-collapse: collapse; font-size: 12px; margin-top: 8px;
}
.viz-root th, .viz-root td {
  text-align: left; padding: 3px 12px 3px 0;
  border-bottom: 1px solid var(--viz-border);
}
.viz-root td.num, .viz-root th.num {
  text-align: right; font-variant-numeric: tabular-nums;
}
.viz-root details summary { cursor: pointer; color: var(--viz-text-2); }
"""


def _svg_chart(
    series: List[Tuple[str, List[Tuple[float, float]]]],
    unit: str,
    width: int = 680,
    height: int = 140,
) -> str:
    """A multi-series sparkline: hairline grid, baseline, 2px lines."""
    pad_l, pad_r, pad_t, pad_b = 46, 8, 6, 18
    plot_w, plot_h = width - pad_l - pad_r, height - pad_t - pad_b
    ts = [t for _, pts in series for t, _ in pts]
    vs = [v for _, pts in series for _, v in pts]
    t_lo, t_hi = min(ts), max(ts)
    v_lo, v_hi = min(0.0, min(vs)), max(vs)
    if t_hi <= t_lo:
        t_hi = t_lo + 1.0
    if v_hi <= v_lo:
        v_hi = v_lo + 1.0

    def x(t: float) -> float:
        return pad_l + (t - t_lo) / (t_hi - t_lo) * plot_w

    def y(v: float) -> float:
        return pad_t + (1.0 - (v - v_lo) / (v_hi - v_lo)) * plot_h

    parts = [
        f'<svg viewBox="0 0 {width} {height}" role="img" '
        f'aria-label="{html.escape(unit)} over simulated time">'
    ]
    # one value axis: baseline + midline gridline + two tick labels
    mid = (v_lo + v_hi) / 2.0
    parts.append(
        f'<line x1="{pad_l}" y1="{y(mid):.1f}" x2="{width - pad_r}" '
        f'y2="{y(mid):.1f}" stroke="var(--viz-grid)" stroke-width="1"/>'
    )
    parts.append(
        f'<line x1="{pad_l}" y1="{y(v_lo):.1f}" x2="{width - pad_r}" '
        f'y2="{y(v_lo):.1f}" stroke="var(--viz-baseline)" stroke-width="1"/>'
    )
    for v in (v_hi, mid):
        parts.append(
            f'<text x="{pad_l - 6}" y="{y(v) + 3:.1f}" '
            f'text-anchor="end">{html.escape(_fmt(v))}</text>'
        )
    for t in (t_lo, t_hi):
        anchor = "start" if t == t_lo else "end"
        tx = x(t)
        parts.append(
            f'<text x="{tx:.1f}" y="{height - 4}" '
            f'text-anchor="{anchor}">{_fmt_time_us(t)}</text>'
        )
    for slot, (label, pts) in enumerate(series):
        color = f"var(--viz-cat-{slot + 1})"
        path = " ".join(f"{x(t):.1f},{y(v):.1f}" for t, v in pts)
        safe = html.escape(label)
        last = pts[-1][1] if pts else None
        parts.append(
            f'<polyline points="{path}" fill="none" stroke="{color}" '
            f'stroke-width="2" stroke-linejoin="round">'
            f"<title>{safe}: {html.escape(_fmt(last))} {html.escape(unit)} "
            f"at end of run</title></polyline>"
        )
        # invisible-until-hover sample markers carry per-point tooltips
        for t, v in pts:
            parts.append(
                f'<circle cx="{x(t):.1f}" cy="{y(v):.1f}" r="4" '
                f'fill="{color}" fill-opacity="0">'
                f"<title>{safe} @ {_fmt_time_us(t)}: "
                f"{html.escape(_fmt(v))} {html.escape(unit)}</title></circle>"
            )
    parts.append("</svg>")
    return "".join(parts)


def _legend(series: List[Tuple[str, List[Tuple[float, float]]]]) -> str:
    if len(series) < 2:
        return ""
    items = "".join(
        f'<span><span class="sw" style="background:var(--viz-cat-{i + 1})">'
        f"</span>{html.escape(label)}</span>"
        for i, (label, _) in enumerate(series)
    )
    return f'<div class="legend">{items}</div>'


def _final_table(snapshot: dict) -> str:
    rows = []
    for key in sorted(snapshot):
        entry = snapshot[key]
        kind = entry.get("type", "?")
        if kind == "tally":
            detail = (
                f"n {_fmt(entry.get('count'))}, p50 {_fmt(entry.get('p50'))}, "
                f"p99 {_fmt(entry.get('p99'))}"
            )
            value = entry.get("mean")
        elif kind == "histogram":
            detail, value = f"{len(entry.get('buckets', {}))} buckets", entry.get("total")
        else:
            detail, value = "", entry.get("value")
        rows.append(
            f"<tr><td>{html.escape(key)}</td><td>{kind}</td>"
            f'<td class="num">{_fmt(value)}</td>'
            f"<td>{html.escape(detail)}</td></tr>"
        )
    return (
        "<details><summary>Data table (final snapshot)</summary>"
        "<table><thead><tr><th>instrument</th><th>type</th>"
        '<th class="num">value</th><th>detail</th></tr></thead>'
        f"<tbody>{''.join(rows)}</tbody></table></details>"
    )


def render_html(bundle: dict, run_dir: str) -> str:
    meta = bundle["meta"]
    label = meta.get("label") or "(unlabeled)"
    body = [
        f"<h1>{html.escape(label)}</h1>",
        f'<p class="sub">{meta.get("runs", 0)} run(s), '
        f"{meta.get('snapshot_rows', 0)} snapshot rows @ "
        f"{_fmt(meta.get('snapshot_interval_us'))} simulated us, "
        f"trace: {'on' if meta.get('trace') else 'off'} &mdash; "
        f"{html.escape(run_dir)}</p>",
    ]
    for i, snapshot in enumerate(bundle["metrics"].get("runs", []), start=1):
        run = f"run{i}"
        body.append(f"<h2>{run}</h2>")
        tiles = []
        for tile_label, name in STAT_TILES:
            total = _sum_final(snapshot, name)
            if total is not None:
                tiles.append(
                    f'<div class="tile"><div class="v">{_fmt(total)}</div>'
                    f'<div class="k">{html.escape(tile_label)}</div></div>'
                )
        if tiles:
            body.append(f'<div class="tiles">{"".join(tiles)}</div>')
        series = run_series(bundle["rows"], run)
        for _, title, unit, names, label_by in HEADLINE_CHARTS:
            kept, dropped = chart_series(series, names, label_by)
            kept = [(lbl, pts) for lbl, pts in kept if pts]
            if not kept:
                continue
            note = (
                f'<span class="note"> &mdash; showing {len(kept)} of '
                f"{len(kept) + dropped} series; the rest are in the data "
                f"table</span>" if dropped else ""
            )
            body.append(
                f'<div class="chart"><div class="title">'
                f"{html.escape(title)} ({html.escape(unit)}){note}</div>"
                f"{_legend(kept)}{_svg_chart(kept, unit)}</div>"
            )
        body.append(_final_table(snapshot))
    return (
        "<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n<meta charset=\"utf-8\">\n"
        f"<title>repro run dashboard &mdash; {html.escape(label)}</title>\n"
        f"<style>{_CSS}</style>\n</head>\n"
        f'<body class="viz-root">\n' + "\n".join(body) + "\n</body>\n</html>\n"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-dashboard",
        description="Render a --run-dir observability bundle "
        "(terminal summary + self-contained HTML).",
    )
    parser.add_argument("run_dir", help="directory written by --run-dir")
    parser.add_argument(
        "--html",
        metavar="PATH",
        default=None,
        help="output HTML path (default: <run-dir>/dashboard.html)",
    )
    parser.add_argument(
        "--no-html",
        action="store_true",
        help="terminal summary only; skip writing the HTML file",
    )
    args = parser.parse_args(argv)
    try:
        bundle = load_run_dir(args.run_dir)
    except (OSError, ValueError) as exc:
        parser.error(str(exc))
    print(render_text(bundle, args.run_dir))
    if not args.no_html:
        out = args.html or os.path.join(args.run_dir, "dashboard.html")
        doc = render_html(bundle, args.run_dir)
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(doc)
        print(f"dashboard: {len(doc)} bytes -> {out}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
