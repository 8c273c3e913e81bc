"""The CI workflow parses and every step it runs names something real.

An unquoted ``: `` inside a step name once made ``ci.yml`` invalid
YAML, and GitHub then ran no job at all, silently.  Loading the file
here turns that into a failing test, and the structural checks catch a
job without steps, a step that does nothing, or an experiment step that
names an experiment the CLI does not have.
"""

import re
from pathlib import Path

import pytest

from repro.experiments import ALL_EXPERIMENTS

yaml = pytest.importorskip("yaml")

WORKFLOW = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "ci.yml"
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


def test_experiment_steps_name_known_experiments(jobs):
    known = set(ALL_EXPERIMENTS) | {"bench"}
    called = []
    for where, step in _steps(jobs):
        for name in EXPERIMENT_CALL.findall(str(step.get("run", ""))):
            assert name in known, (where, name)
            called.append(name)
    assert called, "no step runs python -m repro.experiments"
