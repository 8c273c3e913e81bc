"""Run the repo benchmark on a base commit and on this tree, and compare.

    python3 benchmarks/compare.py BASE_REF

The base commit is extracted with ``git archive`` into a temporary
directory, and this tree's ``benchmarks/suite`` and ``BENCHMARK.json``
are copied over it, so both sides run identical benchmark code.
``benchmarks/suite/run.py`` then runs at its own run length in
``PAIRS`` base/head pairs on this machine, alternating which side goes
first.  The script prints the base and head median of every end-to-end
metric of ``BENCHMARK.json`` for each workload, and exits 1 when

* on any workload, the head's median of a metric is worse than the
  base's by more than the metric's bound (a share of the base median);
* a head run reports ``"correct": false`` or gives no result;
* the head fails a larger share of its calls than the base.

It exits 2 when the base cannot be extracted or a base run gives no
result, since there is then nothing to compare against.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import List, Optional, Tuple

ROOT = Path(__file__).resolve().parents[1]

#: base/head pairs per comparison; one untraced run of the four
#: workloads takes about 90 s on a 2-core machine.
PAIRS = 3

#: what a head run that gave no result line counts as.
NO_RESULT = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}


def extract_base(ref: str, dest: Path) -> None:
    """``git archive`` of ``ref`` into ``dest``, with this tree's
    benchmark code in place of the base's."""
    archive = subprocess.run(
        ["git", "archive", "--format=tar", ref],
        cwd=ROOT, capture_output=True, check=True,
    ).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    suite = dest / "benchmarks" / "suite"
    shutil.rmtree(suite, ignore_errors=True)
    shutil.copytree(
        ROOT / "benchmarks" / "suite", suite,
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    shutil.copy2(ROOT / "BENCHMARK.json", dest / "BENCHMARK.json")


def run_suite(root: Path, out: Path) -> Optional[dict]:
    """One default run of the suite in ``root``: its final JSON line,
    or None when it printed none."""
    done = subprocess.run(
        [sys.executable, "benchmarks/suite/run.py", "--out", str(out)],
        cwd=root, capture_output=True, text=True,
    )
    if done.returncode != 0:
        print(done.stderr.strip(), file=sys.stderr)
    lines = done.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        return None


def failed_share(runs: List[dict]) -> float:
    attempted = sum(run["attempted"] for run in runs)
    return sum(run["failed"] for run in runs) / attempted if attempted else 0.0


def median_of(runs: List[dict], key: str) -> Optional[float]:
    values = [run["metrics"][key]["value"] for run in runs if key in run["metrics"]]
    return statistics.median(values) if values else None


def compare(spec: dict, base_runs: List[dict], head_runs: List[dict]) -> Tuple[List[str], List[str]]:
    """(report lines, problems) of the head's runs against the base's."""
    lines, problems = [], []
    incorrect = sum(not run["correct"] for run in head_runs)
    if incorrect:
        problems.append(f"{incorrect} of {len(head_runs)} head runs were not correct")
    base_share, head_share = failed_share(base_runs), failed_share(head_runs)
    if head_share > base_share:
        problems.append(
            f"the head failed {head_share:.4%} of its calls, the base {base_share:.4%}"
        )
    for workload in (w["name"] for w in spec["workloads"]):
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            # run.py's key for a metric when it runs several workloads
            key = f"{workload}/{name}"
            base, head = median_of(base_runs, key), median_of(head_runs, key)
            if head is None:
                problems.append(f"{workload} {name}: not measured on the head")
                continue
            change = (head - base) / base
            worse = change if metric["better"] == "lower" else -change
            lines.append(
                f"{workload} {name} base {base:.6g} head {head:.6g} "
                f"change {change:+.2%} bound {bound:.0%} "
                f"{'WORSE' if worse > bound else 'ok'}"
            )
            if worse > bound:
                problems.append(
                    f"{workload} {name}: head median {head:.6g} is {worse:.2%} "
                    f"worse than the base's {base:.6g} (bound {bound:.0%})"
                )
    return lines, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", help="git ref of the base commit")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    runs = {"base": [], "head": []}
    with tempfile.TemporaryDirectory(prefix="bench-compare-") as scratch:
        scratch = Path(scratch)
        roots = {"base": scratch / "base", "head": ROOT}
        roots["base"].mkdir()
        try:
            extract_base(args.base, roots["base"])
        except (OSError, subprocess.CalledProcessError) as exc:
            detail = getattr(exc, "stderr", None) or b""
            print(
                f"compare.py: cannot extract {args.base!r}: {exc} "
                f"{detail.decode(errors='replace').strip()}",
                file=sys.stderr,
            )
            return 2
        for pair in range(PAIRS):
            order = ("base", "head") if pair % 2 == 0 else ("head", "base")
            for side in order:
                result = run_suite(roots[side], scratch / f"out-{side}-{pair}")
                if result is None and side == "base":
                    print(f"compare.py: base run {pair + 1} gave no result", file=sys.stderr)
                    return 2
                result = result or NO_RESULT
                runs[side].append(result)
                print(
                    f"pair {pair + 1}/{PAIRS} {side}: correct {result['correct']}, "
                    f"failed {result['failed']} of {result['attempted']}",
                    flush=True,
                )

    lines, problems = compare(spec, runs["base"], runs["head"])
    for line in lines:
        print(line)
    for problem in problems:
        print(f"FAIL {problem}")
    if problems:
        print(f"compare: {len(problems)} problem(s) against {args.base}")
        return 1
    print(f"compare: the head is within every bound of {args.base}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
