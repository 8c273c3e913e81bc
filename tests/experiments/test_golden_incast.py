"""Golden determinism gates for the incast experiment.

Mirrors test_golden_fig5: the full client-count x window x transport
sweep must reproduce the committed fixture bit-for-bit — every
throughput, percentile, and batch counter compared exactly, no
tolerances.  Regenerating the fixture is a deliberate act: rerun
``incast.run()``, dump with ``json.dump(..., indent=2,
sort_keys=True)``, and explain the change in the commit message.

The fixture also *is* the acceptance record for the multiplexing
work: the committed headline shows >= 3x call-at-a-time throughput on
the sockets transport at a window >= 16, and the window sweep is
monotone — the second test keeps those bars honest if the fixture is
ever regenerated.

The determinism gate runs the scaled-down SMOKE_PARAMS grid twice
(the full grid takes ~35 s; determinism is parameter-independent) and
checks both runs against ``golden_incast_smoke.json``, so the smoke
headline (2.76x sockets, 1.65x RPCoIB at window 32) is pinned too.
"""

import json
from pathlib import Path

from repro.config import Configuration
from repro.experiments import fig5_micro, incast
from repro.rpc import microbench

from tests.experiments.test_golden_fig5 import (
    FIXTURE as FIG5_FIXTURE,
    GOLDEN_PARAMS as FIG5_GOLDEN_PARAMS,
)

FIXTURE = Path(__file__).parent / "fixtures" / "golden_incast.json"
SMOKE_FIXTURE = Path(__file__).parent / "fixtures" / "golden_incast_smoke.json"


def test_incast_is_bit_identical_to_fixture():
    result = incast.run()
    normalized = json.loads(json.dumps(result))
    golden = json.loads(FIXTURE.read_text(encoding="utf-8"))
    assert normalized == golden


def test_incast_fixture_holds_the_acceptance_bars():
    golden = json.loads(FIXTURE.read_text(encoding="utf-8"))
    best = golden["headline"]["sockets"]
    assert best["window"] >= 16
    assert best["speedup"] >= 3.0
    assert golden["headline"]["rpcoib"]["speedup"] >= 1.5
    # Window sweep monotone (non-decreasing throughput) in every cell.
    for per_count in golden["series"].values():
        for cell in per_count.values():
            rates = [r["throughput_calls_s"] for r in cell["windows"]]
            assert rates == sorted(rates), rates


def test_incast_smoke_is_deterministic_across_runs():
    first = json.loads(json.dumps(incast.run(**incast.SMOKE_PARAMS)))
    second = json.loads(json.dumps(incast.run(**incast.SMOKE_PARAMS)))
    assert first == second
    golden = json.loads(SMOKE_FIXTURE.read_text(encoding="utf-8"))
    assert first == golden


def test_explicit_async_off_reproduces_fig5_golden(monkeypatch):
    """Setting ``ipc.client.async.enabled=false`` by hand is
    bit-identical to never mentioning the key: the mux subsystem leaves
    the default call-at-a-time event schedule untouched."""

    def conf_with_explicit_async_off(self):
        return Configuration({
            "rpc.ib.enabled": self.ib,
            "ipc.client.async.enabled": False,
            "ipc.client.async.max-inflight": 32,
        })

    monkeypatch.setattr(
        microbench.EngineConfig, "conf", property(conf_with_explicit_async_off)
    )
    result = fig5_micro.run(**FIG5_GOLDEN_PARAMS)
    normalized = json.loads(json.dumps(result))
    golden = json.loads(FIG5_FIXTURE.read_text(encoding="utf-8"))
    assert normalized == golden
