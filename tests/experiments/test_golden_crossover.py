"""Golden determinism gates for the crossover experiment.

Mirrors test_golden_incast: the full size x arm sweep plus the mixed
workload must reproduce the committed fixture bit-for-bit — every RTT,
crossover point, and predictor counter compared exactly, no
tolerances.  Regenerating the fixture is a deliberate act: rerun
``crossover.run()``, dump with ``json.dump(..., indent=2,
sort_keys=True)``, and explain the change in the commit message.

The fixture also *is* the acceptance record for the adaptive-transport
work: the committed headline shows the warm crossover strictly left of
the static one (the predictor moved the eager/rendezvous break-even
point) and the adaptive arm winning the mixed workload — the second
test keeps those bars honest if the fixture is ever regenerated.  The
third reruns the full experiment under the sanitizer: the fixture must
still come out exactly, with every pooled buffer returned.

The final two tests are the default-off safety net, mirroring PR 9's
async-off pattern: spelling out every ``ipc.ib.adaptive.*`` key at its
default is bit-identical to never mentioning them, checked against the
committed fig5 golden and an incast smoke run.
"""

import json
from pathlib import Path

from repro.config import Configuration
from repro.experiments import crossover, fig5_micro, incast
from repro.rpc import microbench

from tests.experiments.test_golden_fig5 import (
    FIXTURE as FIG5_FIXTURE,
    GOLDEN_PARAMS as FIG5_GOLDEN_PARAMS,
)

FIXTURE = Path(__file__).parent / "fixtures" / "golden_crossover.json"

#: every adaptive-transport key at its shipped default — the explicit
#: spelling the bit-identity tests inject.
ADAPTIVE_DEFAULTS = {
    "ipc.ib.adaptive.enabled": False,
    "ipc.ib.adaptive.confidence": 3,
}


def test_crossover_is_bit_identical_to_fixture():
    result = crossover.run()
    normalized = json.loads(json.dumps(result))
    golden = json.loads(FIXTURE.read_text(encoding="utf-8"))
    assert normalized == golden


def test_crossover_fixture_holds_the_acceptance_bars():
    golden = json.loads(FIXTURE.read_text(encoding="utf-8"))
    head = golden["headline"]
    # The predictor moved the break-even point strictly left.
    assert head["crossover_warm"] < head["crossover_static"]
    # Preposted rendezvous never loses to the full handshake.
    warm = golden["series"]["rendezvous_warm"]
    static = golden["series"]["rendezvous_static"]
    for size in map(str, golden["params"]["sizes"]):
        assert warm[size]["rtt_us"] <= static[size]["rtt_us"], size
    # The adaptive arm wins the mixed workload, on prediction hits.
    assert head["mixed_speedup"] > 1.0
    adaptive = golden["mixed"]["adaptive"]
    assert adaptive["predictor_hits"] > adaptive["predictor_misses"]
    assert adaptive["preposted_sends"] > 0
    assert adaptive["late_hit_rate"] >= adaptive["early_hit_rate"]
    # The static arm never touched the predictor.
    assert golden["mixed"]["static"]["predictor_hits"] == 0
    assert golden["mixed"]["static"]["preposted_sends"] == 0


def test_crossover_golden_is_bit_identical_under_the_sanitizer():
    """The sanitized run reproduces the committed fixture exactly and
    reports clean: every registered buffer the RPCoIB endpoints take
    from their pools is returned, and the clock never runs backwards."""
    from repro.simcore import sanitizer

    with sanitizer.sanitized() as session:
        result = crossover.run()
    assert session.pools  # the pool ledger was armed
    assert session.clean, session.report_lines()
    normalized = json.loads(json.dumps(result))
    golden = json.loads(FIXTURE.read_text(encoding="utf-8"))
    assert normalized == golden


def test_crossover_smoke_is_deterministic_across_runs():
    first = json.loads(json.dumps(crossover.run(**crossover.SMOKE_PARAMS)))
    second = json.loads(json.dumps(crossover.run(**crossover.SMOKE_PARAMS)))
    assert first == second


def test_explicit_adaptive_off_reproduces_fig5_golden(monkeypatch):
    """Setting every adaptive key to its default by hand is
    bit-identical to never mentioning them: at default-off the
    predictor-driven transport leaves the static-threshold event
    schedule untouched."""

    def conf_with_explicit_adaptive_off(self):
        return Configuration({"rpc.ib.enabled": self.ib, **ADAPTIVE_DEFAULTS})

    monkeypatch.setattr(
        microbench.EngineConfig,
        "conf",
        property(conf_with_explicit_adaptive_off),
    )
    result = fig5_micro.run(**FIG5_GOLDEN_PARAMS)
    normalized = json.loads(json.dumps(result))
    golden = json.loads(FIG5_FIXTURE.read_text(encoding="utf-8"))
    assert normalized == golden


def test_explicit_adaptive_off_reproduces_incast_smoke(monkeypatch):
    """Same bit-identity bar against a workload that exercises the
    server responder and the mux: an incast smoke run with the adaptive
    keys spelled out equals the untouched-default run exactly."""
    baseline = json.loads(json.dumps(incast.run(**incast.SMOKE_PARAMS)))

    class ExplicitAdaptiveOff(Configuration):
        def __init__(self, values=None):
            merged = dict(ADAPTIVE_DEFAULTS)
            if values:
                merged.update(values)
            super().__init__(merged)

    monkeypatch.setattr(incast, "Configuration", ExplicitAdaptiveOff)
    explicit = json.loads(json.dumps(incast.run(**incast.SMOKE_PARAMS)))
    assert explicit == baseline
