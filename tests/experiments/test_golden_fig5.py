"""Golden determinism gates for the Fig. 5 harness.

Two fixtures, every float compared exactly, no tolerances:

* ``golden_fig5.json`` is the full default grid (seven payload sizes,
  eight client counts, 30 iterations, 40 ops per client), the run that
  yields the paper's headline: 39.8 us 1-byte latency and 131.5 Kops/s
  peak.  It takes about 25 s.
* ``golden_fig5_small.json`` is a scaled-down grid that other gates
  reuse to show a default-off configuration key leaves the event
  schedule untouched.

Either is the regression tripwire for performance work on the
simulator and IO layers: any host-side "optimization" that perturbs
the event schedule or a cost formula shows up here as a diff, not as a
silently shifted headline number.

The shape checks below read the full fixture, with no extra
simulation: each engine's latency curve rises with payload size, the
latency reductions sit in the paper's bands, and the throughput panel
orders the engines as the paper does.

Regenerating a fixture is a deliberate act (the simulation's behavior
changed): run the ``run()`` call below, dump the result with
``json.dump(..., indent=2, sort_keys=True)``, and explain the change
in the commit message.
"""

import json
from pathlib import Path

import pytest

from repro.experiments import fig5_micro

FULL_FIXTURE = Path(__file__).parent / "fixtures" / "golden_fig5.json"
FIXTURE = Path(__file__).parent / "fixtures" / "golden_fig5_small.json"

ENGINES = ("RPC-10GigE", "RPC-IPoIB", "RPCoIB")

#: scaled-down but structure-preserving Fig. 5 parameters: both panels,
#: all three engines, multiple client counts — small enough for CI.
GOLDEN_PARAMS = dict(
    payload_sizes=[1, 256, 4096],
    client_counts=[8, 16],
    iterations=5,
    ops_per_client=10,
)


@pytest.fixture(scope="module")
def full():
    return json.loads(FULL_FIXTURE.read_text(encoding="utf-8"))


def test_fig5_is_bit_identical_to_fixture(full):
    # JSON round-trip normalizes tuples to lists and int keys to
    # strings, matching how the fixture was stored.
    assert json.loads(json.dumps(fig5_micro.run())) == full


def test_fig5_small_is_bit_identical_to_fixture():
    result = fig5_micro.run(**GOLDEN_PARAMS)
    normalized = json.loads(json.dumps(result))
    golden = json.loads(FIXTURE.read_text(encoding="utf-8"))
    assert normalized == golden


def test_fig5_small_is_deterministic_across_runs():
    first = json.loads(json.dumps(fig5_micro.run(**GOLDEN_PARAMS)))
    second = json.loads(json.dumps(fig5_micro.run(**GOLDEN_PARAMS)))
    assert first == second


@pytest.mark.parametrize("engine", ENGINES)
def test_fig5_latency_rises_with_payload(full, engine):
    curve = full["latency_us"][engine]
    assert curve["1"] < curve["4096"]


def test_fig5_latency_reductions_sit_in_the_paper_bands(full):
    lo_10g, hi_10g = full["reduction_vs_10gige"]
    lo_ib, hi_ib = full["reduction_vs_ipoib"]
    assert 0.35 <= lo_10g and hi_10g <= 0.55
    assert 0.40 <= lo_ib and hi_ib <= 0.55


@pytest.mark.parametrize("engine", ENGINES)
def test_fig5_throughput_at_64_clients(full, engine):
    assert full["throughput_kops"][engine]["64"] > 30.0


def test_fig5_throughput_orders_the_engines(full):
    at_48 = {engine: full["throughput_kops"][engine]["48"] for engine in ENGINES}
    assert at_48["RPCoIB"] > at_48["RPC-IPoIB"] > at_48["RPC-10GigE"]
