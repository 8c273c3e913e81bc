"""Experiment harness: one module per table/figure of the paper.

Every module exposes ``run(...) -> dict`` (the measured rows/series)
and ``format_result(result) -> str`` (the same rows the paper prints).
``python -m repro.experiments all`` regenerates everything; see
``EXPERIMENTS.md`` for paper-vs-measured values and the scaling rules
used for the cluster-scale experiments.

``ALL_EXPERIMENTS`` maps each id to its module and imports the module
when its id is looked up, so listing the ids or importing a helper such
as :mod:`repro.experiments.clusters` loads no experiment.
"""

import importlib
from collections.abc import Mapping


class _ExperimentModules(Mapping):
    """Experiment id -> module, imported on first lookup."""

    def __init__(self, modules):
        self._modules = modules

    def __getitem__(self, name):
        return importlib.import_module(f"{__name__}.{self._modules[name]}")

    def __contains__(self, name):
        return name in self._modules

    def __iter__(self):
        return iter(self._modules)

    def __len__(self):
        return len(self._modules)


ALL_EXPERIMENTS = _ExperimentModules({
    "table1": "table1",
    "fig1": "fig1_alloc_ratio",
    "fig3": "fig3_size_locality",
    "fig5": "fig5_micro",
    "fig6": "fig6_mapreduce",
    "fig7": "fig7_hdfs",
    "fig8": "fig8_hbase",
    "chaos": "chaos",
    "crossover": "crossover",
    "incast": "incast",
    "qos": "qos",
    "operator": "operator_story",
    "failover": "failover",
    "campaign": "campaign",
})

__all__ = ["ALL_EXPERIMENTS"]
