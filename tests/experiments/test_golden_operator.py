"""Golden determinism gates for the operator hot-reload experiment.

Mirrors test_golden_qos: the detect -> reload -> recover story must
reproduce the committed fixture bit-for-bit.  Regenerating it is a
deliberate act: rerun ``operator_story.run()``, dump with
``json.dump(..., indent=2, sort_keys=True)``, and explain the change in
the commit message.

The second gate keeps the fixture honest against the acceptance bar,
and the third pins the live-observability contract: running the same
story under an ObsSession with snapshotting *on* must not move a single
measured number — sampling is invisible to the simulated clock.
"""

import json
from pathlib import Path

from repro.experiments import operator_story
from repro.obs.runtime import obs_session

FIXTURE = Path(__file__).parent / "fixtures" / "golden_operator.json"


def test_operator_is_bit_identical_to_fixture():
    result = operator_story.run()
    normalized = json.loads(json.dumps(result))
    golden = json.loads(FIXTURE.read_text(encoding="utf-8"))
    assert normalized == golden


def test_operator_fixture_holds_the_recovery_bar():
    golden = json.loads(FIXTURE.read_text(encoding="utf-8"))
    assert golden["victims"]["recovery_ratio"] >= operator_story.RECOVERY_BAR
    assert golden["victims"]["post"]["p99_us"] > 0
    assert golden["qos_reconfigs"] == 1
    assert golden["detection"]["top_caller"] == "t0"


def test_operator_result_is_unchanged_under_live_snapshotting():
    with obs_session(trace=False, snapshot_interval_us=5000.0) as session:
        result = operator_story.run()
    normalized = json.loads(json.dumps(result))
    golden = json.loads(FIXTURE.read_text(encoding="utf-8"))
    assert normalized == golden
    # ... and the session actually observed the run.
    assert session.snapshot_rows() > 0
    reg = session.registries[0]
    reconfig = reg.find("rpc.server.qos_reconfigured")
    assert [c.value for c in reconfig.values()] == [1]
