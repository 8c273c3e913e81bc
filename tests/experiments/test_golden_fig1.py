"""Golden determinism gate for the Fig. 1 experiment.

The full default sweep (both networks, 32 B - 4 MB, 15 iterations)
must reproduce the committed fixture bit-for-bit — every
allocation/receive ratio compared exactly, no tolerances.  The run is
the paper's Section II evidence figure and takes about 1.5 s, so the
golden pins the same full-size headline the ``bench`` plane pins,
without that plane's wall-clock gate.

Regenerating the fixture is a deliberate act: rerun
``fig1_alloc_ratio.run()``, dump with ``json.dump(..., indent=2,
sort_keys=True)``, and explain the change in the commit message.
"""

import json
from pathlib import Path

from repro.experiments import fig1_alloc_ratio

FIXTURE = Path(__file__).parent / "fixtures" / "golden_fig1.json"


def test_fig1_is_bit_identical_to_fixture():
    result = fig1_alloc_ratio.run()
    normalized = json.loads(json.dumps(result))
    golden = json.loads(FIXTURE.read_text(encoding="utf-8"))
    assert normalized == golden
