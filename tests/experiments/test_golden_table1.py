"""Golden determinism gate for the Table I experiment.

The default Sort run (8 slaves, 1 GB, seed 3) must reproduce the
committed fixture bit-for-bit — every call count, memory-adjustment
average, serialization and send time compared exactly, no
tolerances.  The run takes under a second.  The shape check reads
the fixture, with no extra simulation: the Table I call mix is there,
calls take the paper's 2-5 memory adjustments, and the
adjustment-heavy methods serialize slower than the light ones.

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


def test_table1_fixture_holds_the_paper_shape():
    golden = json.loads(FIXTURE.read_text(encoding="utf-8"))
    rows = {(r["protocol"], r["method"]): r for r in golden["rows"]}
    assert ("hdfs.ClientProtocol", "addBlock") in rows
    status = rows[("mapred.TaskUmbilicalProtocol", "statusUpdate")]
    get_task = rows[("mapred.TaskUmbilicalProtocol", "getTask")]
    assert 2 <= status["avg_adjustments"] <= 6
    assert 1 <= get_task["avg_adjustments"] <= 4
    assert status["avg_serialization_us"] > get_task["avg_serialization_us"]
