"""A process imports only what it runs.

Each check runs in a fresh interpreter, because the test process has
long since imported everything.  Listing the experiment ids or importing
a helper such as ``repro.experiments.clusters`` (the first thing every
benchmark child does) must load neither numpy nor the experiment suite.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.experiments import ALL_EXPERIMENTS

SRC = Path(__file__).resolve().parents[2] / "src"


def _loaded_after(code: str) -> set:
    """The module names a fresh interpreter holds after running ``code``."""
    script = code + "\nimport sys\nprint('\\n'.join(sys.modules))\n"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True,
        text=True, check=True,
    )
    return set(done.stdout.split())


def _experiment_modules() -> set:
    return {module.__name__ for module in ALL_EXPERIMENTS.values()}


def test_clusters_import_loads_no_numpy_and_no_experiment():
    loaded = _loaded_after("import repro.experiments.clusters")
    assert "numpy" not in loaded
    assert {name for name in loaded if name.startswith("repro.experiments.")} == {
        "repro.experiments.clusters"
    }


def test_resolving_one_id_imports_only_its_module():
    loaded = _loaded_after(
        "from repro.experiments import ALL_EXPERIMENTS\nALL_EXPERIMENTS['fig1']"
    )
    assert loaded & _experiment_modules() == {"repro.experiments.fig1_alloc_ratio"}


def test_cli_parser_imports_no_experiment():
    loaded = _loaded_after(
        "from repro.experiments.runner import build_parser\n"
        "build_parser().format_help()"
    )
    assert not loaded & _experiment_modules()


@pytest.mark.parametrize("name", list(ALL_EXPERIMENTS))
def test_each_experiment_module_imports_on_its_own(name):
    """A module that used a name only the package's import brought in
    fails here, not when a user runs it alone."""
    loaded = _loaded_after(
        "from repro.experiments import ALL_EXPERIMENTS\n"
        f"module = ALL_EXPERIMENTS[{name!r}]\n"
        "assert callable(module.run) and callable(module.format_result)"
    )
    assert "numpy" not in loaded
