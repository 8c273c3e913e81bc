"""The CI workflow parses and every step it runs names something real.

An unquoted ``: `` inside a step name once made ``ci.yml`` invalid
YAML, and GitHub then ran no job at all, silently.  Loading the file
here turns that into a failing test, and the structural checks catch a
job without steps, a step that does nothing, a step that names a
repo file that is not there, an experiment step that names an
experiment the CLI does not have, or one whose flags the CLI's own
parser rejects or whose fault plan does not load.
"""

import re
import shlex
from pathlib import Path

import pytest

from repro.experiments import ALL_EXPERIMENTS
from repro.experiments.runner import build_parser
from repro.faults import FaultPlan

yaml = pytest.importorskip("yaml")

ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "ci.yml"
EXPERIMENT_CALL = re.compile(r"python -m repro\.experiments\s+([\w-]+)")


@pytest.fixture(scope="module")
def jobs():
    workflow = yaml.safe_load(WORKFLOW.read_text(encoding="utf-8"))
    assert isinstance(workflow, dict) and workflow.get("jobs"), workflow
    return workflow["jobs"]


def _steps(jobs):
    for job_name, job in jobs.items():
        for index, step in enumerate(job["steps"]):
            yield f"{job_name}[{index}]", step


def test_every_job_runs_somewhere_and_has_steps(jobs):
    for name, job in jobs.items():
        assert job.get("runs-on"), name
        assert isinstance(job.get("steps"), list) and job["steps"], name


def test_every_step_runs_a_command_or_uses_an_action(jobs):
    for where, step in _steps(jobs):
        assert isinstance(step, dict), where
        assert step.get("run") or step.get("uses"), where


def test_lint_and_chaos_jobs_run_on_the_standard_library(jobs):
    """The runtime imports no third-party package, so the jobs that only
    lint and run experiments install nothing."""
    for name in ("lint", "chaos"):
        for step in jobs[name]["steps"]:
            assert "pip install" not in str(step.get("run", "")), name


#: what each other job pip-installs.  The runtime, ``benchmarks/suite``
#: and the goldens, experiments, dashboard and examples those jobs run
#: import only the standard library, so they need pytest at most; only
#: the full test suite imports numpy, hypothesis and yaml.
JOB_INSTALLS = {
    "benchmark": set(),
    "experiments": {"pytest"},
    "ha": {"pytest"},
    "incast": {"pytest"},
    "crossover": {"pytest"},
    "bench-selftest": {"pytest"},
    "fig8": {"pytest"},
    "tests": {"numpy", "pytest", "hypothesis", "pyyaml"},
    "coverage": {"numpy", "pytest", "hypothesis", "pytest-cov", "pyyaml"},
}


def test_each_other_job_installs_only_what_it_imports(jobs):
    assert set(jobs) == set(JOB_INSTALLS) | {"lint", "chaos"}
    for name, expected in JOB_INSTALLS.items():
        installed = set()
        for step in jobs[name]["steps"]:
            words = str(step.get("run", "")).split()
            if words[:4] == ["python", "-m", "pip", "install"]:
                installed.update(words[4:])
            else:
                assert "pip install" not in " ".join(words), name
        assert installed == expected, name


def _step_words(jobs):
    """(where, words) of every step's command, cut at its first ``|``."""
    for where, step in _steps(jobs):
        yield where, shlex.split(str(step.get("run", "")).split("|", 1)[0])


def test_every_python_file_a_step_names_exists(jobs):
    """A script run as ``python <path>.py`` or a test file handed to
    pytest: a renamed or deleted file fails here, not on the runner."""
    named = []
    for where, words in _step_words(jobs):
        for word in words:
            if word.endswith(".py"):
                assert (ROOT / word).is_file(), (where, word)
                named.append(word)
    assert "benchmarks/compare.py" in named


def test_experiment_steps_name_known_experiments(jobs):
    called = []
    for where, step in _steps(jobs):
        for name in EXPERIMENT_CALL.findall(str(step.get("run", ""))):
            assert name in ALL_EXPERIMENTS, (where, name)
            called.append(name)
    assert called, "no step runs python -m repro.experiments"


def _experiment_argvs(jobs):
    """(where, argv) of every ``python -m repro.experiments`` step."""
    for where, words in _step_words(jobs):
        for i in range(len(words) - 2):
            if words[i:i + 3] == ["python", "-m", "repro.experiments"]:
                yield where, words[i + 3:]


def test_experiment_steps_parse_and_their_fault_plans_load(jobs):
    parser = build_parser()
    parsed = plans = 0
    for where, argv in _experiment_argvs(jobs):
        try:
            args = parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"{where}: the CLI rejects {argv}")
        parsed += 1
        if args.faults is not None:
            FaultPlan.from_file(ROOT / args.faults)
            plans += 1
    assert parsed, "no step runs python -m repro.experiments"
    assert plans, "no experiment step arms a --faults plan"
