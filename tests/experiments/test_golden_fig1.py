"""Golden determinism gate for the Fig. 1 experiment.

The full default sweep (both networks, 32 B - 4 MB, 15 iterations)
must reproduce the committed fixture bit-for-bit — every
allocation/receive ratio compared exactly, no tolerances.  The run is
the paper's Section II evidence figure and takes about 1.5 s.  The
shape check reads the fixture, with no extra simulation: about 30 %
on IPoIB at 2 MB, under half that on 1GigE, and growing with payload
size on IPoIB.

Regenerating the fixture is a deliberate act: rerun
``fig1_alloc_ratio.run()``, dump with ``json.dump(..., indent=2,
sort_keys=True)``, and explain the change in the commit message.
"""

import json
from pathlib import Path

from repro.experiments import fig1_alloc_ratio
from repro.units import MB

FIXTURE = Path(__file__).parent / "fixtures" / "golden_fig1.json"


def test_fig1_is_bit_identical_to_fixture():
    result = fig1_alloc_ratio.run()
    normalized = json.loads(json.dumps(result))
    golden = json.loads(FIXTURE.read_text(encoding="utf-8"))
    assert normalized == golden


def test_fig1_fixture_holds_the_paper_shape():
    golden = json.loads(FIXTURE.read_text(encoding="utf-8"))
    assert 0.18 <= golden["ipoib_ratio_2mb"] <= 0.42
    assert golden["gige_ratio_2mb"] < 0.5 * golden["ipoib_ratio_2mb"]
    ipoib = golden["ratio"]["IPoIB"]
    assert ipoib[str(2 * MB)] > ipoib["32"]
