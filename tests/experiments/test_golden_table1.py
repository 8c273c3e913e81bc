"""Golden determinism gate for the Table I experiment.

The default Sort run (8 slaves, 1 GB, seed 3) must reproduce the
committed fixture bit-for-bit — every call count, memory-adjustment
average, serialization and send time compared exactly, no
tolerances.  The run takes under a second, so the golden pins the
same full-size headline the ``bench`` plane pins, without that
plane's wall-clock gate.

Regenerating the fixture is a deliberate act: rerun ``table1.run()``,
dump with ``json.dump(..., indent=2, sort_keys=True)``, and explain
the change in the commit message.
"""

import json
from pathlib import Path

from repro.experiments import table1

FIXTURE = Path(__file__).parent / "fixtures" / "golden_table1.json"


def test_table1_is_bit_identical_to_fixture():
    result = table1.run()
    normalized = json.loads(json.dumps(result))
    golden = json.loads(FIXTURE.read_text(encoding="utf-8"))
    assert normalized == golden
